from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btzeta import (
    ApartmentSpec,
    IntPolynomial,
    TypedComplex,
    build_chamber_operator,
    build_edge_operator,
    char_poly_reverse,
    count_closed_paths,
    enumerate_primitive_classes,
    log_derivative_series,
    primitive_product,
    ratio,
    ratio_of,
    three_step_operator,
    zeta_chamber,
    zeta_edge,
)
from btzeta.generators import gen_apartment_torus, gen_cycle_complex
from btzeta.geodesics import product_of_primitive_counts
from btzeta.polynomials import (
    PowerSeriesPrefix,
    _char_poly_reverse_rows,
    _charpoly_mod,
    _int_rows,
    _sparse_product,
    berkowitz_char_poly_reverse,
    series_product,
)
from conftest import closed_typed_complex, disjoint_union

M = 12
# Berkowitz is quartic in the dimension: about 2 s at dimension 108
BERKOWITZ_DIM = 108
ONE_MINUS_U3 = IntPolynomial([1, 0, 0, -1])
ONE_MINUS_U6 = IntPolynomial([1, 0, 0, 0, 0, 0, -1])


class TestZetaPolynomials:
    def test_three_cycle(self, three_cycle):
        assert zeta_edge(three_cycle) == ONE_MINUS_U3
        assert zeta_chamber(three_cycle) == IntPolynomial([1])

    def test_six_cycle(self, six_cycle):
        assert zeta_edge(six_cycle) == ONE_MINUS_U6

    def test_single_chamber(self, single_chamber):
        assert zeta_edge(single_chamber) == IntPolynomial([1])
        assert zeta_chamber(single_chamber) == IntPolynomial([1])

    def test_torus_products_of_line_factors(self, torus):
        assert zeta_edge(torus) == ONE_MINUS_U3.pow(9)
        assert zeta_chamber(torus) == ONE_MINUS_U6.pow(9)

    def test_degree_bound(self, torus, skew_torus, three_cycle):
        for c in (torus, skew_torus, three_cycle):
            assert zeta_edge(c).degree <= len(c.edges)

    def test_edge_zeta_equals_primitive_product(self, torus):
        # the zeta polynomial is the product over primitive closed geodesics
        classes = enumerate_primitive_classes(torus, M)
        product = primitive_product(classes, M)
        z1 = zeta_edge(torus)
        assert all(z1[m] == product[m] for m in range(M + 1))

    def test_boundary_propagates(self, ball_q2):
        with pytest.raises(ValueError, match="boundary"):
            zeta_edge(ball_q2)


class TestDuality:
    @pytest.mark.parametrize("kind", ["edge", "gallery"])
    def test_log_derivative_counts(self, kind, three_cycle, six_cycle,
                                   single_chamber, torus, skew_torus):
        for c in (three_cycle, six_cycle, single_chamber, torus, skew_torus):
            poly = zeta_edge(c) if kind == "edge" else zeta_chamber(c)
            series = log_derivative_series(poly, M)
            counts = count_closed_paths(c, M, kind)
            assert [series[m] for m in range(M + 1)] == counts


class TestRatio:
    def test_three_cycle(self, three_cycle):
        f = ratio(three_cycle)
        assert f.num == IntPolynomial([1])
        assert f.den == ONE_MINUS_U6

    def test_chamber_free_is_inverse_edge_zeta(self, six_cycle):
        f = ratio(six_cycle)
        assert f.num == IntPolynomial([1])
        assert f.den == zeta_edge(six_cycle).subst_u_power(2)

    def test_sign_conventions(self, torus):
        f_neg = ratio(torus, negate_u=True)
        f_pos = ratio(torus, negate_u=False)
        # Z2 is even in u on the torus, so both conventions agree there
        assert (f_neg.num, f_neg.den) == (f_pos.num, f_pos.den)

    def test_substitution_consistency(self, torus):
        z1, z2 = zeta_edge(torus), zeta_chamber(torus)
        f = ratio(torus)
        for u0 in (Fraction(1, 5), Fraction(-1, 7)):
            direct = Fraction(z2.eval(-u0), z1.eval(u0 * u0))
            assert f.eval(u0) == direct

    def test_torus_ratio_is_one(self, torus):
        # all torus strips pair with line classes, so the ratio collapses
        f = ratio(torus)
        assert f.num == IntPolynomial([1]) and f.den == IntPolynomial([1])

    @pytest.mark.parametrize("basis", [(9, 0, 0, 9), (6, 3, 0, 9), (6, 0, 0, 6)])
    def test_ladder_torus_ratio_skips_the_gcd(self, monkeypatch, basis):
        # Z2(-u) = Z1(u^2) on the ladder tori: equal terms give 1/1 at once
        c = _torus(*basis)
        z1, z2 = zeta_edge(c), zeta_chamber(c)
        assert z2.subst_neg_u() == z1.subst_u_power(2)

        def refuse(*args):
            raise AssertionError("a gcd taken")

        monkeypatch.setattr("btzeta.polynomials.poly_gcd", refuse)
        monkeypatch.setattr("btzeta.polynomials._gcd_cofactors", refuse)
        f = ratio_of(z1, z2)
        assert (f.num.coeffs, f.den.coeffs) == ((1,), (1,))


def _torus(a, b, c, d):
    return gen_apartment_torus(ApartmentSpec(((a, b), (c, d))))


GRADED_CASES = {
    **{f"torus {a} {b} {c} {d}": (lambda a=a, b=b, c=c, d=d: _torus(a, b, c, d))
       for a, b, c, d in ((3, 0, 0, 3), (6, 0, 0, 6), (9, 0, 0, 9), (6, 3, 0, 9))},
    **{f"cycle {n}": (lambda n=n: gen_cycle_complex(n)) for n in (3, 6, 9)},
    **{f"branching {seed}": (lambda seed=seed: closed_typed_complex(random.Random(seed)))
       for seed in range(4)},
    # grades of different sizes: 6, 12 and 8 positive edges
    "uneven grades": lambda: closed_typed_complex(random.Random(9), per_type=(2, 3, 4)),
}


class TestGradedReduction:
    """det(I - u T) = det(I - u^3 X) against the full transfer operators."""

    @pytest.mark.parametrize("case", list(GRADED_CASES))
    def test_equals_full_operator(self, case):
        c = GRADED_CASES[case]()
        for zeta, full in ((zeta_edge, build_edge_operator),
                           (zeta_chamber, build_chamber_operator)):
            t = full(c)
            expected = char_poly_reverse(t)
            assert zeta(c) == expected
            if t.dim <= 60:
                assert berkowitz_char_poly_reverse(t) == expected

    def test_smallest_grade(self):
        c = GRADED_CASES["uneven grades"]()
        assert three_step_operator(c, "edge").dim == 6
        # every chamber has one pointer of each type, so chamber grades are equal
        assert three_step_operator(c, "gallery").dim == len(c.chambers)

    def test_empty_smallest_grade_gives_one(self):
        # the path 0 - 1 - 2 has no positive edge with a tail of type 2
        path = TypedComplex([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2)])
        assert build_edge_operator(path).entries  # T is nonzero but nilpotent
        assert three_step_operator(path, "edge").dim == 0
        assert zeta_edge(path) == IntPolynomial([1])

    def test_guards_match_full_operators(self, ball_q2):
        with pytest.raises(ValueError, match="edge operator is undefined"):
            three_step_operator(ball_q2, "edge")
        with pytest.raises(ValueError, match="chamber operator is undefined"):
            three_step_operator(ball_q2, "gallery")
        edgeless = TypedComplex([(0, 0)])
        assert three_step_operator(edgeless, "edge") == build_edge_operator(edgeless)
        assert three_step_operator(edgeless, "edge").dim == 0
        with pytest.raises(ValueError, match="unknown kind"):
            three_step_operator(ball_q2, "chamber")

    @settings(max_examples=30, deadline=None)
    @given(st.tuples(*[st.integers(1, 3)] * 3), st.floats(0.3, 1.0), st.floats(0.0, 1.0),
           st.randoms(use_true_random=False))
    def test_zetas_are_polynomials_in_u_cubed(self, per_type, p_edge, p_chamber, rng):
        c = closed_typed_complex(rng, per_type, p_edge, p_chamber)
        for zeta, full in ((zeta_chamber, build_chamber_operator),
                           (zeta_edge, build_edge_operator)):
            z = char_poly_reverse(full(c))
            assert all(a == 0 for k, a in enumerate(z.coeffs) if k % 3)
            assert zeta(c) == z


def _cycle_product(x) -> IntPolynomial:
    """det(I - u X) for a 0/1 permutation matrix X: the product of 1 - u^len over its cycles."""
    succ = {r: c for r, c, _ in x.entries}
    assert sorted(succ) == sorted(succ.values()) == list(range(x.dim))
    assert all(v == 1 for *_, v in x.entries)
    out, seen = IntPolynomial.one(), set()
    for start in range(x.dim):
        length, node = 0, start
        while node not in seen:
            seen.add(node)
            node, length = succ[node], length + 1
        if length:
            out = out * (IntPolynomial.one() - IntPolynomial.monomial(length))
    return out


class TestSplitAgainstOracles:
    """The SCC split of det(I - u X) against Berkowitz and one unsplit pass."""

    @staticmethod
    def _check(x) -> IntPolynomial:
        split = char_poly_reverse(x)
        assert split == _char_poly_reverse_rows(_int_rows(x))
        if x.dim <= BERKOWITZ_DIM:
            assert split == berkowitz_char_poly_reverse(x)
        return split

    @pytest.mark.parametrize("kind", ["edge", "gallery"])
    @pytest.mark.parametrize("basis", [(k, 0, 0, k) for k in (6, 9, 12, 15)] + [(6, 3, 0, 9)],
                             ids=lambda b: "torus %d %d %d %d" % b)
    def test_tori(self, basis, kind):
        # torus X is a permutation matrix, so its cycle type is a third oracle
        # at every dimension
        x = three_step_operator(_torus(*basis), kind)
        assert self._check(x) == _cycle_product(x)

    @pytest.mark.parametrize("seed", range(3))
    def test_disjoint_union_of_torus_and_branching(self, seed, torus):
        branching = closed_typed_complex(random.Random(seed))
        union = disjoint_union(torus, branching)
        for zeta, kind in ((zeta_edge, "edge"), (zeta_chamber, "gallery")):
            self._check(three_step_operator(union, kind))
            assert zeta(union) == zeta(torus) * zeta(branching)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_branching(self, seed):
        c = closed_typed_complex(random.Random(seed), per_type=(4, 4, 4), p_chamber=0.6)
        for kind in ("edge", "gallery"):
            self._check(three_step_operator(c, kind))

    def test_hessenberg_runs_on_blocks_only(self, monkeypatch):
        # the 27x27 torus chamber X (dimension 1458) splits into 81 cycles of
        # length 18; no Hessenberg pass sees more than one of them
        dims = []

        def recording(rows, p):
            dims.append(len(rows))
            return _charpoly_mod(rows, p)

        monkeypatch.setattr("btzeta.polynomials._charpoly_mod", recording)
        x = three_step_operator(_torus(27, 0, 0, 27), "gallery")
        assert x.dim == 1458
        assert char_poly_reverse(x) == _cycle_product(x)
        assert max(dims) == 18


def _schoolbook(a, b) -> list:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestOneProduct:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_product_is_the_sparse_product(self, data):
        # _sparse_product cut at an order equals the whole product cut there
        pair = st.tuples(st.integers(0, 12), st.integers(-5, 5))
        factors = data.draw(st.lists(st.lists(pair, max_size=5), max_size=4))
        order = data.draw(st.integers(0, 20))
        whole = _sparse_product(factors)
        assert _sparse_product(factors, order) == (whole + [0] * (order + 1))[:order + 1]
        # IntPolynomial.__mul__ against the schoolbook product
        a, b = (data.draw(st.lists(st.integers(-9, 9), max_size=8)) for _ in range(2))
        assert IntPolynomial(a) * IntPolynomial(b) == IntPolynomial(_schoolbook(a, b))
        # series_product keeps Fraction coefficients exact
        fractions = st.fractions(min_value=-4, max_value=4, max_denominator=7)
        sa, sb = (data.draw(st.lists(fractions, min_size=order + 1, max_size=order + 1))
                  for _ in range(2))
        product = series_product(PowerSeriesPrefix(sa, order), PowerSeriesPrefix(sb, order))
        assert list(product.coeffs) == _schoolbook(sa, sb)[:order + 1]
        assert all(isinstance(x, (int, Fraction)) for x in product.coeffs)
        # the zeta of disjoint cycles is the product over their lengths at full degree
        lengths = data.draw(st.lists(st.sampled_from([3, 6, 9]), min_size=1, max_size=4))
        degree = sum(lengths)
        P = [lengths.count(d) for d in range(degree + 1)]
        union = disjoint_union(*map(gen_cycle_complex, lengths))
        assert zeta_edge(union).coeffs == product_of_primitive_counts(P, degree).coeffs
