from __future__ import annotations

import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import chain, product
from unittest import mock

import numpy as np
import pytest
import sympy
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from btzeta import (
    CharacterData,
    ConeClosedForm,
    ConeDecomposition,
    LatticeCone,
    assemble_multivariable_S,
    cone_generators,
    cone_series_closed_form,
    decompose,
    enumerate_primitive_classes,
    evaluate_partial_sum,
    fundamental_domain,
)
from btzeta.cli import SCHEMA_VERSION, main
from btzeta import cones
from btzeta.cones import (
    EXACT_POWER_CAP,
    FUNDAMENTAL_INDEX_CAP,
    _DIGIT_PASS_MIN,
    _adjugate,
    _character_values,
    _closed_form,
    _fundamental_points,
    _lower_hermite_form,
    _mat_vec,
    _mat_vec_row,
    _rows_json,
    truncated_cone_points,
)


def make_decomposition(cone: LatticeCone) -> ConeDecomposition:
    gens = cone_generators(cone)
    return ConeDecomposition(gens, fundamental_domain(cone, gens))


def random_cone(rng: random.Random, max_rank: int = 3) -> LatticeCone:
    while True:
        r = rng.randint(1, max_rank)
        funcs = tuple(tuple(rng.randint(-5, 5) for _ in range(r)) for _ in range(r))
        try:
            return LatticeCone(funcs)
        except ValueError:
            continue


class TestGenerators:
    def test_coordinate_cone(self):
        cone = LatticeCone(((1, 0), (0, 1)))
        assert cone_generators(cone) == ((1, 0), (0, 1))

    def test_skew_cone(self):
        cone = LatticeCone(((1, 0), (-1, 2)))  # x > 0, 2y - x > 0
        assert cone_generators(cone) == ((2, 1), (0, 1))

    def test_rank_one(self):
        cone = LatticeCone(((1,),))
        assert cone_generators(cone) == ((1,),)

    def test_sublattice_scaling(self):
        cone = LatticeCone(((1, 0), (0, 1)), lattice_basis=((2, 0), (0, 3)))
        assert cone_generators(cone) == ((2, 0), (0, 3))

    def test_degenerate_functionals_rejected(self):
        with pytest.raises(ValueError, match="sharp"):
            LatticeCone(((1, 1), (2, 2)))

    def test_rank_zero_refused(self):
        # the empty determinant is 1, so the cone was built, and its lister then
        # failed with "max() arg is an empty sequence"
        with pytest.raises(ValueError, match="rank 0"):
            LatticeCone(())

    def test_generator_minimality(self):
        rng = random.Random(5)
        for _ in range(40):
            cone = random_cone(rng)
            for j, a in enumerate(cone_generators(cone)):
                assert all(cone.alpha(i, a) == 0
                           for i in range(cone.rank) if i != j)
                assert cone.alpha(j, a) > 0
                # primitivity in the lattice: no shorter point on the ray
                assert math.gcd(*(abs(x) for x in a)) == 1


class TestFundamentalDomain:
    def test_coordinate_cone(self):
        cone = LatticeCone(((1, 0), (0, 1)))
        deco = make_decomposition(cone)
        assert deco.fundamental_set == ((1, 1),)

    def test_skew_cone_index_two(self):
        cone = LatticeCone(((1, 0), (-1, 2)))
        deco = make_decomposition(cone)
        assert deco.fundamental_set == ((1, 1), (2, 2))

    def test_rank_one(self):
        cone = LatticeCone(((1,),))
        assert make_decomposition(cone).fundamental_set == ((1,),)

    def test_membership_conditions(self):
        rng = random.Random(17)
        for _ in range(40):
            cone = random_cone(rng)
            deco = make_decomposition(cone)
            for v0 in deco.fundamental_set:
                assert cone.contains(v0)
                for a in deco.generators:
                    shifted = tuple(x - y for x, y in zip(v0, a))
                    assert not cone.contains(shifted)

    def test_size_is_lattice_index(self):
        rng = random.Random(23)
        for _ in range(30):
            cone = random_cone(rng)
            deco = make_decomposition(cone)
            gens = deco.generators
            r = cone.rank
            det = _int_det([[gens[j][i] for j in range(r)] for i in range(r)])
            assert len(deco.fundamental_set) == abs(det)


def _int_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum(
        (-1) ** j * m[0][j] * _int_det(
            [[m[i][k] for k in range(n) if k != j] for i in range(1, n)])
        for j in range(n)
    )


def _int_adj(m):
    """Cofactor adjugate: entry (i, j) is (-1)^(i+j) det(m without row j and column i)."""
    n = len(m)
    if n == 1:
        return [[1]]
    return [[(-1) ** (i + j) * _int_det([[m[a][b] for b in range(n) if b != i]
                                         for a in range(n) if a != j])
             for j in range(n)] for i in range(n)]


def _frac_inverse(m):
    det = _int_det(m)
    return tuple(tuple(Fraction(x, det) for x in row) for row in _int_adj(m))


def _singular(m):
    """m with its last row replaced by a combination of the others (zero if 1 x 1)."""
    if len(m) == 1:
        return [[0]]
    return m[:-1] + [[2 * x - y for x, y in zip(m[0], m[-2])]]


# small entries give many singular matrices, wide ones pass 2^63
ADJUGATE_ENTRIES = st.integers(-3, 3) | st.integers(-2**70, 2**70)


class TestAdjugate:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(ADJUGATE_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)),
        st.booleans())
    def test_matches_sympy(self, m, singular):
        if singular:
            m = _singular(m)
        adj, det = _adjugate(m)
        ref = sympy.Matrix(m)
        assert det == ref.det()
        if det:
            assert adj == ref.adjugate().tolist()
        else:
            assert adj is None

    @pytest.mark.parametrize("n", range(1, 6))
    def test_beyond_int64(self, n):
        rng = random.Random(n)
        m = [[rng.randint(-2**80, 2**80) for _ in range(n)] for _ in range(n)]
        adj, det = _adjugate(m)
        assert abs(det) > 2**63
        assert adj == _int_adj(m) and det == _int_det(m)
        assert _adjugate(_singular(m)) == (None, 0)


class TestDecompose:
    def test_coordinate_examples(self):
        cone = LatticeCone(((1, 0), (0, 1)))
        deco = make_decomposition(cone)
        assert decompose(cone, deco, (3, 4)) == ((1, 1), (2, 3))
        assert decompose(cone, deco, (0, 5)) is None

    def test_skew_example(self):
        cone = LatticeCone(((1, 0), (-1, 2)))
        deco = make_decomposition(cone)
        assert decompose(cone, deco, (4, 3)) == ((2, 2), (1, 0))

    def test_non_lattice_point_rejected(self):
        cone = LatticeCone(((1, 0), (0, 1)), lattice_basis=((2, 0), (0, 2)))
        deco = make_decomposition(cone)
        with pytest.raises(ValueError, match="lattice"):
            decompose(cone, deco, (1, 1))

    @pytest.mark.parametrize("generators", [
        ((0, 0), (0, 1)),     # alpha_1(a_1) = 0 divided k_1 by zero
        ((2, 1), (1, 1)),     # a_2 off its ray
        ((2, 1),),            # one generator for two sides
    ], ids=["zero", "off-ray", "too-few"])
    def test_generators_off_the_edge_rays_refused(self, generators):
        cone = LatticeCone(((1, 0), (-1, 2)))
        with pytest.raises(ValueError, match="edge rays"):
            decompose(cone, ConeDecomposition(generators, ((1, 1),)), (3, 4))

    def test_bijection_on_box(self):
        rng = random.Random(31)
        for _ in range(25):
            cone = random_cone(rng, max_rank=2)
            deco = make_decomposition(cone)
            for v in product(range(-12, 13), repeat=cone.rank):
                inside = cone.contains(v)
                result = decompose(cone, deco, v)
                assert (result is not None) == inside
                if result:
                    v0, ks = result
                    assert v0 in deco.fundamental_set
                    assert all(k >= 0 for k in ks)
                    rebuilt = tuple(
                        v0[i] + sum(k * g[i] for k, g in zip(ks, deco.generators))
                        for i in range(cone.rank))
                    assert rebuilt == v

    def test_composition_injective(self):
        rng = random.Random(37)
        for _ in range(10):
            cone = random_cone(rng, max_rank=2)
            deco = make_decomposition(cone)
            seen = set()
            for v0 in deco.fundamental_set:
                for ks in product(range(11), repeat=cone.rank):
                    v = tuple(
                        v0[i] + sum(k * g[i] for k, g in zip(ks, deco.generators))
                        for i in range(cone.rank))
                    assert v not in seen
                    seen.add(v)


class TestClosedForm:
    def test_coordinate_cone_structure(self):
        cone = LatticeCone(((1, 0), (0, 1)))
        closed = cone_series_closed_form(cone, make_decomposition(cone))
        assert closed.terms == ((Fraction(1), (1, 1)),)
        assert closed.pole_factors == ((Fraction(1), 1), (Fraction(1), 1))
        assert closed.evaluate((Fraction(1, 2), Fraction(1, 2))) == 1

    def test_rank_one_geometric_series(self):
        cone = LatticeCone(((1,),))
        closed = cone_series_closed_form(cone, make_decomposition(cone))
        u = Fraction(1, 3)
        assert closed.evaluate((u,)) == u / (1 - u)

    def test_against_partial_sums(self):
        rng = random.Random(41)
        for _ in range(15):
            cone = random_cone(rng)
            closed = cone_series_closed_form(cone, make_decomposition(cone))
            point = tuple(rng.uniform(0.1, 0.45) for _ in range(cone.rank))
            assert closed.converges_at(point)
            value = float(closed.evaluate(point))
            oracle = evaluate_partial_sum(cone, None, point, 60)
            assert abs(value - oracle) <= 1e-9 * max(abs(value), 1e-12)

    def test_rational_character(self):
        cone = LatticeCone(((1, 0), (0, 1)))
        character = CharacterData((Fraction(1, 2), Fraction(1, 3)))
        closed = cone_series_closed_form(cone, make_decomposition(cone), character)
        point = (0.5, 0.5)
        value = float(closed.evaluate(point))
        oracle = evaluate_partial_sum(cone, character, point, 80)
        assert abs(value - oracle) <= 1e-9 * abs(value)

    def test_bound_zero_empty_sum(self):
        cone = LatticeCone(((1, 0), (0, 1)))
        assert evaluate_partial_sum(cone, None, (0.5, 0.5), 0) == 0.0

    def test_convergence_flag(self):
        cone = LatticeCone(((1,),))
        closed = cone_series_closed_form(cone, make_decomposition(cone))
        assert closed.converges_at((0.5,))
        assert not closed.converges_at((1.5,))

    def test_json_shape(self):
        cone = LatticeCone(((1, 0), (-1, 2)))
        doc = cone_series_closed_form(cone, make_decomposition(cone)).to_json_dict()
        assert {"terms", "pole_factors"} <= doc.keys()
        assert doc["terms"][0]["exponents"] == [1, 1]

    def test_json_coefficients_keep_their_type(self):
        # 1, 1.0, True and Fraction(1) are equal dict keys; only the ints and
        # Fractions encode as num/den, and equal coefficients of one type
        # share one encoded dict
        closed = ConeClosedForm(
            terms=((1.0, (1,)), (1, (2,)), (Fraction(1), (3,)), (1.0, (4,)),
                   (-1, (5,)), (Fraction(-1), (6,)), (True, (7,)), (-1, (8,))),
            pole_factors=((Fraction(1), 1), (1, 2), (1.0, 3)))
        doc = closed.to_json_dict()
        one, minus_one = {"num": "1", "den": "1"}, {"num": "-1", "den": "1"}
        coeffs = [t["coeff"] for t in doc["terms"]]
        assert coeffs == [1.0, one, one, 1.0, minus_one, minus_one, True, minus_one]
        assert [type(c) for c in coeffs] == [float, dict, dict, float, dict, dict, bool, dict]
        assert coeffs[4] is coeffs[7]
        assert [t["exponents"] for t in doc["terms"]] == [[k] for k in range(1, 9)]
        assert [f["coeff"] for f in doc["pole_factors"]] == [one, one, 1.0]
        assert type(doc["pole_factors"][2]["coeff"]) is float
        assert json.dumps(doc["terms"][:2]) == (
            '[{"coeff": 1.0, "exponents": [1]}, '
            '{"coeff": {"num": "1", "den": "1"}, "exponents": [2]}]')


class TestRankMismatch:
    """A character or an evaluation point of another length than the rank is refused.

    On the coordinate cone, zip truncated each of these cases to a wrong value.
    """

    cone = LatticeCone(((1, 0), (0, 1)))

    @pytest.mark.parametrize("multipliers", [(Fraction(1, 2),), (-1,), (1, 1, 1)])
    def test_character(self, multipliers):
        # (1/2,) gave the series 1/3 at (1/2, 1/2); (1/2, 1/2) gives 1/9
        deco = make_decomposition(self.cone)
        half = CharacterData((Fraction(1, 2),) * 2)
        assert cone_series_closed_form(self.cone, deco, half).evaluate(
            (Fraction(1, 2),) * 2) == Fraction(1, 9)
        character = CharacterData(multipliers)
        message = f"{len(multipliers)} multipliers for a cone of rank 2"
        with pytest.raises(ValueError, match=message):
            cone_series_closed_form(self.cone, deco, character)
        with pytest.raises(ValueError, match=message):
            character.value((1, 1))
        with pytest.raises(ValueError, match=message):
            evaluate_partial_sum(self.cone, character, (0.5, 0.5), 10)

    def test_convergence_at_short_point(self):
        closed = cone_series_closed_form(self.cone, make_decomposition(self.cone))
        assert not closed.converges_at((0.5, 1.5))
        with pytest.raises(ValueError, match="1 coordinates for a cone of rank 2"):
            closed.converges_at((0.5,))

    def test_partial_sum_at_short_point(self):
        # 9.99 was the sum over the first coordinate alone
        assert evaluate_partial_sum(self.cone, None, (0.5, 0.5), 10) == \
            pytest.approx((1 - 0.5 ** 10) ** 2)
        with pytest.raises(ValueError, match="1 coordinates for a cone of rank 2"):
            evaluate_partial_sum(self.cone, None, (0.5,), 10)

    def test_evaluate_at_long_point(self):
        # (0.5, 0.5, 0.9) gave 1.0, the value at (0.5, 0.5)
        closed = cone_series_closed_form(self.cone, make_decomposition(self.cone))
        with pytest.raises(ValueError, match="3 coordinates for a cone of rank 2"):
            closed.evaluate((0.5, 0.5, 0.9))


class TestMultivariableSeries:
    def test_single_entry_with_powers(self):
        series = assemble_multivariable_S([{"l": (3,), "weight": 3}], 12, 1)
        assert series == {(3,): 3, (6,): 3, (9,): 3, (12,): 3}

    def test_empty_ledger(self):
        assert assemble_multivariable_S([], 10, 2) == {}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            assemble_multivariable_S([{"l": (-1, 2), "weight": 1}], 5, 2)

    def test_rank_one_export_matches_geodesics(self, three_cycle):
        classes = enumerate_primitive_classes(three_cycle, 12)
        ledger = [
            {"l": (g.length,), "weight": g.primitive_length}
            for g in classes if g.power == 1
        ]
        series = assemble_multivariable_S(ledger, 12, 1)
        assert series == {(3,): 3, (6,): 3, (9,): 3, (12,): 3}

    def test_no_expansion_mode(self):
        series = assemble_multivariable_S([{"l": (2, 1), "weight": 5}], 8, 2,
                                          expand_powers=False)
        assert series == {(2, 1): 5}


# -- whole-array passes against the per-point references ----------------------


@st.composite
def lattice_cones(draw, max_entry: int = 4) -> LatticeCone:
    """Sharp cones of rank 1-3, on the standard lattice or a random sublattice."""
    r = draw(st.integers(1, 3))
    square = st.lists(st.lists(st.integers(-max_entry, max_entry), min_size=r, max_size=r),
                      min_size=r, max_size=r)
    funcs = draw(square.filter(lambda m: _int_det(m) != 0))
    basis = draw(st.none() | st.lists(
        st.lists(st.integers(-2, 2), min_size=r, max_size=r), min_size=r, max_size=r,
    ).map(lambda m: [[x + 3 * (i == j) for j, x in enumerate(row)]
                     for i, row in enumerate(m)]).filter(lambda m: _int_det(m) != 0))
    cone = LatticeCone(funcs, basis)
    # a sublattice can make |F| = |det A / det B| run into the millions
    gens = cone_generators(cone)
    assume(abs(_int_det([[a[i] for a in gens] for i in range(r)]))
           <= 2000 * abs(_int_det(cone.lattice_basis)))
    return cone


RATIONALS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2),
                             Fraction(-1, 3), Fraction(3, 2), 1, -1])
FLOATS = st.sampled_from([0.5, -0.75, 1.25, 2.0])
COMPLEXES = st.sampled_from([0.5 + 0.5j, -1j, 1.5 - 0.25j])


def characters(rank: int):
    def vectors(entries):
        return st.lists(entries, min_size=rank, max_size=rank).map(CharacterData)
    return st.one_of(
        st.none(),
        vectors(st.sampled_from([1, -1, Fraction(1), Fraction(-1)])),
        vectors(RATIONALS),
        vectors(RATIONALS | FLOATS),
        vectors(RATIONALS | COMPLEXES),
    )


def reference_closed_form(cone, deco, character) -> ConeClosedForm:
    """One CharacterData.value and one LatticeCone.alphas per point of F."""
    character = character or CharacterData.trivial(cone.rank)
    return ConeClosedForm(
        terms=tuple((character.value(v0), cone.alphas(v0)) for v0 in deco.fundamental_set),
        pole_factors=tuple((character.value(a), cone.alpha(j, a))
                           for j, a in enumerate(deco.generators)))


def scan_fundamental_domain(cone, generators):
    """Scan the parallelepiped's bounding box in lattice coordinates, filtered exactly."""
    r = cone.rank
    a_cols = [[generators[j][i] for j in range(r)] for i in range(r)]
    det = _int_det(a_cols)
    d = abs(det)
    # d A^-1 v in (0, d]^r  <=>  0 < t <= 1
    m = np.array([[d // det * x for x in row] for row in _int_adj(a_cols)], dtype=np.int64)
    b_inv = _frac_inverse(cone.lattice_basis)
    corners = [_mat_vec(b_inv, tuple(sum(bits[j] * generators[j][i] for j in range(r))
                                     for i in range(r)))
               for bits in product((0, 1), repeat=r)]
    axes = [np.arange(math.floor(min(c[i] for c in corners)),
                      math.ceil(max(c[i] for c in corners)) + 1) for i in range(r)]
    x = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    v = np.array(cone.lattice_basis, dtype=np.int64) @ x
    w = m @ v
    keep = ((w > 0) & (w <= d)).all(axis=0)
    return tuple(sorted(map(tuple, v[:, keep].T.tolist())))


def box_filter_points(cone, bound):
    """Filter the whole box (0, bound]^r down to the image lattice."""
    r = cone.rank
    if bound < 1:
        return (np.zeros((r, 0), dtype=np.int64),) * 2
    g = [list(_mat_vec_row(f, cone.basis_columns)) for f in cone.functionals]
    det = _int_det(g)
    adj = np.array(_int_adj(g), dtype=np.int64)
    grids = np.meshgrid(*([np.arange(1, bound + 1, dtype=np.int64)] * r), indexing="ij")
    w_all = np.stack([a.ravel() for a in grids])
    x_scaled = adj @ w_all
    keep = (x_scaled % det == 0).all(axis=0)
    basis = np.array(cone.lattice_basis, dtype=np.int64)
    return w_all[:, keep], basis @ (x_scaled[:, keep] // det)


def per_point_partial_sum(cone, character, u, bound):
    """The partial-sum oracle with one np.power per point and base, summed by numpy."""
    if character is None:
        character = CharacterData.trivial(cone.rank)
    w, v = truncated_cone_points(cone, bound)
    if w.shape[1] == 0:
        return 0.0
    is_complex = any(isinstance(m, complex) for m in character.multipliers) \
        or any(isinstance(x, complex) for x in u)
    dtype = complex if is_complex else float
    terms = np.ones(w.shape[1], dtype=dtype)
    try:
        powers = [(dtype(float(b)) if isinstance(b, (int, Fraction)) else dtype(b), e)
                  for b, e in (*zip(u, w), *zip(character.multipliers, v))]
        with np.errstate(all="ignore"):
            for b, e in powers:
                if b != 1:
                    e = e % 2 if b == -1 else e
                    terms *= np.power(b, e.astype(float))
            spilled = ~np.isfinite(terms)
            if spilled.any():
                log_abs, phase = 0.0, dtype(1)
                for b, e in powers:
                    e = e[spilled]
                    log_abs = log_abs + e.astype(float) * np.log(abs(b))
                    if b != abs(b):
                        e = e % 2 if dtype is float else e
                        phase = phase * np.power(b / abs(b), e.astype(float))
                terms[spilled] = phase * np.exp(log_abs)
            total = terms.sum()
    except OverflowError:
        raise ValueError("the partial-sum oracle needs multipliers and exponents "
                         "that fit a float") from None
    if not np.isfinite(total):
        raise ValueError(f"the partial-sum oracle overflows a float: its sum is {total}")
    return float(total) if dtype is float else complex(total)


def oracle_outcome(oracle, *args):
    """repr of the partial sum (its exact bits), or the ValueError's message."""
    try:
        return repr(oracle(*args))
    except ValueError as exc:
        return str(exc)


def unit_characters(rank: int):
    return st.lists(st.sampled_from([1, -1, Fraction(1), Fraction(-1)]),
                    min_size=rank, max_size=rank).map(CharacterData)


# -1 and 1 included, values whose powers underflow or overflow, complex values
ORACLE_COORDINATES = (st.floats(-1.5, 1.5) | st.sampled_from([-1.0, 1.0, 0.0, 1e-200, -3e150])
                      | st.complex_numbers(max_magnitude=1.5))


# cones whose det alpha is even (34) and negative (-31), with |F| = 578 and 961
EVEN_DET_CONE = LatticeCone(((2, -1, 1), (1, 3, -2), (-1, 1, 4)))
NEGATIVE_DET_CONE = LatticeCone(((3, 1, 0), (1, -2, 1), (0, 1, 4)))
# |F| = 23762 on an index-2 sublattice
SUBLATTICE_CONE = LatticeCone(((-5, 1, 1), (-2, 3, 5), (-1, 2, -5)),
                              ((1, 0, 0), (1, 2, 0), (0, 0, 1)))
# the 2^61-scaled cone of test_closed_form_beyond_int64: its exponents pass
# int64, and an oracle box of side below 2^63 holds no point
SCALED = LatticeCone(((2, 1, 0), (-1, 3, 1), (0, -2, 5)),
                     tuple(tuple(2 ** 61 * x for x in row)
                           for row in ((1, 1, 0), (0, 1, 0), (0, 1, 2))))
# small exponents, points beyond int64
WIDE_POINTS = LatticeCone(((1, 0), (10**18, 1)))


class TestWholeArrayPasses:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_closed_form_matches_per_point_reference(self, data):
        cone = data.draw(lattice_cones())
        character = data.draw(characters(cone.rank))
        deco = make_decomposition(cone)
        assert cone_series_closed_form(cone, deco, character) \
            == reference_closed_form(cone, deco, character)

    @pytest.mark.parametrize("character", [None, CharacterData((-1, 1, Fraction(-1)))],
                             ids=["trivial", "sign"])
    def test_closed_form_beyond_int64(self, character):
        # basis entries near 2^61 push max|f| * max|v| * r past int64, so the
        # exponents are computed in exact Python integers (other rational
        # characters would have values with about 2^61 digits here)
        small = LatticeCone(((2, 1, 0), (-1, 3, 1), (0, -2, 5)),
                            ((1, 1, 0), (0, 1, 0), (0, 1, 2)))
        scale = 2 ** 61
        big = LatticeCone(small.functionals,
                          tuple(tuple(scale * x for x in row) for row in small.lattice_basis))
        deco = make_decomposition(big)
        assert deco.generators == tuple(tuple(scale * x for x in a)
                                        for a in cone_generators(small))
        assert deco.fundamental_set == tuple(
            tuple(scale * x for x in v) for v in make_decomposition(small).fundamental_set)
        closed = cone_series_closed_form(big, deco, character)
        assert max(abs(e) for _, exps in closed.terms for e in exps) > 2 ** 63
        assert all(type(e) is int for _, exps in closed.terms for e in exps)
        assert closed == reference_closed_form(big, deco, character)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_evaluate_and_json_match_fraction_reference(self, data):
        # +-1 character values are ints in the closed form and Fractions in the
        # reference; int * float and Fraction * float round alike
        cone = data.draw(lattice_cones())
        character = data.draw(characters(cone.rank))
        point = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=cone.rank,
                                   max_size=cone.rank))
        deco = make_decomposition(cone)
        closed = cone_series_closed_form(cone, deco, character)
        reference = reference_closed_form(cone, deco, character)

        def outcome(form):
            try:
                return repr(form.evaluate(point))
            except (OverflowError, ZeroDivisionError) as exc:
                return type(exc)

        assert outcome(closed) == outcome(reference)
        assert closed.to_json_dict() == reference.to_json_dict()

    @settings(max_examples=60, deadline=None)
    @given(lattice_cones(max_entry=5))
    def test_fundamental_domain_matches_scan(self, cone):
        gens = cone_generators(cone)
        assert fundamental_domain(cone, gens) == scan_fundamental_domain(cone, gens)

    @pytest.mark.parametrize("functionals, basis", [
        (((1, 0), (-1, 2)), None),
        (((2, 1, 0), (0, 1, 3), (1, 0, 1)), ((2, 0, 0), (1, 3, 0), (0, 1, 1))),
    ], ids=["rank-2", "rank-3-sublattice"])
    def test_built_cone_runs_no_elimination(self, monkeypatch, functionals, basis):
        # the two adjugates the constructor computes serve every later step
        cone = LatticeCone(functionals, basis)
        calls = []

        def counting(m):
            calls.append(m)
            return _adjugate(m)

        monkeypatch.setattr("btzeta.cones._adjugate", counting)
        gens = cone_generators(cone)
        domain = fundamental_domain(cone, gens)
        deco = ConeDecomposition(gens, domain)
        points, exponents = _fundamental_points(cone, gens)
        _closed_form(cone, gens, points, exponents, CharacterData((-1,) * cone.rank))
        v = tuple(map(sum, zip(*gens, domain[-1])))
        assert decompose(cone, deco, v) == (domain[-1], (1,) * cone.rank)
        assert calls == []
        assert domain == scan_fundamental_domain(cone, gens)

    @settings(max_examples=60, deadline=None)
    @given(lattice_cones(max_entry=5), st.sampled_from([1, 2**40, 2**61, 2**70]))
    def test_exponents_are_the_functionals_of_the_points(self, cone, scale):
        # a scaled basis keeps F's shape and pushes the points and the
        # exponents past int64 at the larger scales
        cone = LatticeCone(cone.functionals,
                           tuple(tuple(scale * x for x in row) for row in cone.lattice_basis))
        points, exponents = _fundamental_points(cone, cone_generators(cone))
        exact = np.array(cone.functionals, dtype=object) @ points.astype(object)
        assert exponents.shape == exact.shape
        assert exponents.tolist() == exact.tolist()

    @pytest.mark.parametrize("generators", [
        ((2, 1), (1, 1)),     # a_2 off its ray: alpha_1(a_2) = 1
        ((-2, -1), (0, 1)),   # a_1 on the opposite ray: alpha_1(a_1) = -2
        ((0, 0), (0, 1)),     # a_1 = 0
        ((2, 1), (0, 1), (1, 1)),
    ], ids=["off-ray", "opposite-ray", "zero", "too-many"])
    def test_generators_off_the_edge_rays_refused(self, generators):
        cone = LatticeCone(((1, 0), (-1, 2)))
        assert cone_generators(cone) == ((2, 1), (0, 1))
        for lister in (fundamental_domain, _fundamental_points):
            with pytest.raises(ValueError, match="edge rays"):
                lister(cone, generators)

    def test_multiples_of_the_generators_give_their_parallelepiped(self):
        # the box identity holds for any lattice points on the edge rays
        cone = LatticeCone(((1, 0), (-1, 2)))
        gens = ((4, 2), (0, 3))
        assert fundamental_domain(cone, gens) == scan_fundamental_domain(cone, gens)

    def test_fundamental_index_cap(self):
        cone = LatticeCone(((5_000_000_000, 1), (1, 5_000_000_000)))
        with pytest.raises(ValueError, match=str(FUNDAMENTAL_INDEX_CAP)):
            fundamental_domain(cone, cone_generators(cone))

    def test_oracle_point_cap(self):
        # the image lattice 2Z^2 has ceil(bound / 2)^2 points in (0, bound]^2
        cone = LatticeCone(((2, 0), (0, 2)))
        assert truncated_cone_points(cone, 2000)[0].shape == (2, FUNDAMENTAL_INDEX_CAP)
        with pytest.raises(ValueError, match=str(FUNDAMENTAL_INDEX_CAP)):
            truncated_cone_points(cone, 2002)

    @settings(max_examples=80, deadline=None)
    @given(lattice_cones(max_entry=5),
           st.sampled_from([0, 1]) | st.integers(2, 60))
    def test_truncated_points_match_box_filter(self, cone, bound):
        w, v = truncated_cone_points(cone, bound)
        w_ref, v_ref = box_filter_points(cone, bound)
        assert w.dtype == v.dtype == np.int64
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    @pytest.mark.parametrize("functionals, basis", [
        (((2, 1), (1, 3)), ((10**18 + 1, 10**18 - 1), (10**18, 10**18 - 2))),
        (((1, 0), (0, 1)), ((10**19, 1), (1, 0))),
        (((1, 0), (10**18, 1)), None),
        (((1, 2), (3, -1)), ((3 * 10**17 + 1, 5), (3 * 10**17, 7))),
    ], ids=["wide-coordinates", "wide-basis", "wide-points", "sparse"])
    def test_truncated_points_exact_beyond_int64(self, functionals, basis):
        cone = LatticeCone(functionals, basis)
        bound = 25
        f_inv, b_inv = _frac_inverse(cone.functionals), _frac_inverse(cone.lattice_basis)
        expected = []
        for w in product(range(1, bound + 1), repeat=2):
            v = _mat_vec(f_inv, w)
            if all(t.denominator == 1 for t in _mat_vec(b_inv, v)):
                expected.append((w, tuple(map(int, v))))
        w, v = truncated_cone_points(cone, bound)
        assert list(zip(map(tuple, w.T.tolist()), map(tuple, v.T.tolist()))) == expected

    @pytest.mark.parametrize("functional, bound", [(10**30, 1), (10**29, 10**30)],
                             ids=["empty", "wide-exponents"])
    def test_oracle_beyond_int64(self, functional, bound):
        # det(alpha) = 10^30, or exponents up to 10^30, overflowed the int64 arrays
        cone = LatticeCone(((functional,),))
        assert evaluate_partial_sum(cone, None, (0.3,), bound) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(case=lattice_cones(max_entry=5).flatmap(lambda c: st.tuples(
               st.just(c), st.none() | unit_characters(c.rank),
               st.lists(ORACLE_COORDINATES, min_size=c.rank, max_size=c.rank))),
           bound=st.sampled_from([1, 2, 60]) | st.integers(1, 60))
    # a +-1 character signs each term by the parity of (c . w) / det alpha:
    # det alpha even (34), where c . w itself has another parity, and negative (-31)
    @example(case=(EVEN_DET_CONE, CharacterData((-1, -1, 1)), (0.3, -0.25, 0.2)), bound=20)
    @example(case=(EVEN_DET_CONE, CharacterData((1, -1, Fraction(-1))), (-0.5, 0.75, 0.4)),
             bound=9)
    @example(case=(NEGATIVE_DET_CONE, CharacterData((1, -1, -1)), (0.25, -0.3, 0.2)),
             bound=40)
    # on a sublattice, and with terms beyond float range
    @example(case=(SUBLATTICE_CONE, CharacterData((-1, 1, -1)), (-0.3, 0.2, 0.25)), bound=30)
    @example(case=(EVEN_DET_CONE, CharacterData((-1, 1, 1)), (1e300, -1e-300, 0.5)), bound=3)
    # max|c| * bound * r beyond int64: the points are formed, in exact integers
    @example(case=(WIDE_POINTS, CharacterData((1, -1)), (0.3, -0.5)), bound=60)
    @example(case=(SCALED, CharacterData((-1, 1, -1)), (-1.0, 1.0, 0.5)), bound=2**64)
    def test_oracle_is_the_per_point_loop(self, case, bound):
        # tables of u^0..u^bound and of (-1)^0, (-1)^1 against one np.power per point
        cone, character, u = case
        assert oracle_outcome(evaluate_partial_sum, cone, character, u, bound) \
            == oracle_outcome(per_point_partial_sum, cone, character, u, bound)

    def test_oracle_reads_no_decomposition(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle read the decomposition")

        for name in ("cone_generators", "_fundamental_points", "decompose"):
            monkeypatch.setattr(cones, name, refuse)
        cone = LatticeCone(((1, 1, -1), (2, -3, 2), (2, -1, -1)))
        for character in (None, CharacterData((1, -1, 1)),
                          CharacterData((Fraction(1, 2), 1, Fraction(-1, 3)))):
            value = evaluate_partial_sum(cone, character, (0.3, -0.2, 0.4), 30)
            assert value == per_point_partial_sum(cone, character, (0.3, -0.2, 0.4), 30)

    def test_oracle_multiplier_beyond_float_range(self):
        cone = LatticeCone(((-1,),))
        with pytest.raises(ValueError, match="fit a float"):
            evaluate_partial_sum(cone, CharacterData((Fraction(10**400),)), (0.3,), 1)

    @pytest.mark.parametrize("m, u", [
        (Fraction(10**300), 1e-301), (-1e300, 1e-301), (1e300, -1e-301), (-1e300, -1e-301),
        (1e200, 1e-201), (1e300j, 1e-301),
    ], ids=["fraction", "negative-m", "negative-u", "both-negative", "1e200", "complex"])
    def test_oracle_terms_spilling_out_of_float_range(self, m, u):
        # u^v underflows to 0 and m^v overflows to inf, yet every term (m u)^v is finite
        got = evaluate_partial_sum(LatticeCone(((1,),)), CharacterData((m,)), (u,), 5)
        expected = sum((complex(m) * u) ** v for v in range(1, 6))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_oracle_sum_beyond_float_range(self):
        with pytest.raises(ValueError, match="overflows a float: its sum is inf"):
            evaluate_partial_sum(LatticeCone(((1,),)), None, (1e300,), 3)

    def test_exact_power_cap(self):
        with pytest.raises(ValueError, match="exponent cap"):
            CharacterData((1, Fraction(1, 2))).value((5, EXACT_POWER_CAP + 1))
        huge = 10**18 + 1
        assert CharacterData((-1, 1)).value((huge, -huge)) == -1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda r: st.lists(
        st.lists(st.integers(-30, 30), min_size=r, max_size=r), min_size=r, max_size=r)))
    def test_hermite_form(self, m):
        if _int_det(m) == 0:
            return
        h = _lower_hermite_form(m)
        r = len(m)
        for k in range(r):
            assert h[k][k] > 0
            assert all(0 <= h[k][j] < h[k][k] for j in range(k))
            assert all(h[k][j] == 0 for j in range(k + 1, r))
        # h = m U with U unimodular: same column lattice
        u = [[int(x) for x in row] for row in
             (np.array(_frac_inverse(m), dtype=object) @ np.array(h, dtype=object)).tolist()]
        assert abs(_int_det(u)) == 1

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ValueError, match="zero multiplier"):
            CharacterData((1, 0))


# -- the closed form's text encoder and its evaluation against per-term loops --


def per_term_json_dict(closed) -> dict:
    """The closed form's JSON built as one dict per term and pole factor."""
    def enc(x):
        if isinstance(x, Fraction) or type(x) is int:
            return {"num": str(x.numerator), "den": str(x.denominator)}
        if isinstance(x, complex):
            return {"re": x.real, "im": x.imag}
        return x
    return {"terms": [{"coeff": enc(c), "exponents": list(e)} for c, e in closed.terms],
            "pole_factors": [{"coeff": enc(c), "power": k} for c, k in closed.pole_factors]}


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def per_term_value(closed, u):
    """The closed form at u with one power per term and coordinate, summed in order."""
    num = 0
    for coeff, exps in closed.terms:
        mono = coeff
        for uj, e in zip(u, exps):
            mono *= uj ** e
        num += mono
    den = 1
    for (coeff, k), uj in zip(closed.pole_factors, u):
        factor = 1 - coeff * uj ** k
        if factor == 0:
            raise ZeroDivisionError("pole")
        den *= factor
    return num / den


def outcome(value_at, closed, u):
    """repr of the value (its exact bits), or the type of the exception raised."""
    try:
        return repr(value_at(closed, u))
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


COEFFICIENTS = st.one_of(
    st.integers(), st.fractions(), st.just(True), st.just(1), st.just(1.0),
    st.floats(), st.complex_numbers())
EXPONENTS = st.integers(-3, 60) | st.integers(-2**70, 2**70)


@st.composite
def hand_built_closed_forms(draw) -> ConeClosedForm:
    """Closed forms of any coefficient type, exponents beyond int64, rank 1 included."""
    r = draw(st.integers(1, 3))
    row = st.lists(EXPONENTS, min_size=r, max_size=r).map(tuple)
    terms = draw(st.lists(st.tuples(COEFFICIENTS, row), max_size=12))
    poles = draw(st.lists(st.tuples(COEFFICIENTS, EXPONENTS), min_size=r, max_size=r))
    return ConeClosedForm(terms=tuple(terms), pole_factors=tuple(poles))


POINTS = {
    "float": st.floats(-1.5, 1.5),
    "fraction": st.fractions(-3, 3, max_denominator=7),
    "complex": st.complex_numbers(max_magnitude=1.5),
}


# int64 entries of every width, one digit, zero and +-(2^63 - 1)
INT64_ENTRIES = (st.integers(-9, 9) | st.integers(-(2**63 - 1), 2**63 - 1)
                 | st.sampled_from([10, -10, 99, -100, 2**31 - 1, -(2**31), 2**31,
                                    2**63 - 1, -(2**63 - 1)]))
# row counts on both sides of the cut between json.dumps and the digit passes
ROW_COUNTS = st.sampled_from([1, _DIGIT_PASS_MIN - 1, _DIGIT_PASS_MIN]) \
    | st.integers(1, 3 * _DIGIT_PASS_MIN)
HEADS = ["[", "", '{"coeff":{"den":"1","num":"-1"},"exponents":[', '{"coeff":0.5,"exponents":[']


# a cone whose F has 49 points, with exponents 1..7 in every coordinate
LARGE_FORM_CONE = LatticeCone(((1, 1, -1), (2, -3, 2), (2, -1, -1)))


class TestBulkEncodeAndEvaluate:
    @settings(max_examples=200, deadline=None)
    @given(hand_built_closed_forms())
    def test_text_is_the_per_term_dict(self, closed):
        assert closed.to_json() == canonical(per_term_json_dict(closed))
        assert canonical(closed.to_json_dict()) == closed.to_json()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_text_is_json_of_the_rows(self, data):
        r = data.draw(st.integers(1, 3))
        entries = INT64_ENTRIES | st.just(-(2**63))
        rows = data.draw(arrays(np.int64, (data.draw(ROW_COUNTS), r), elements=entries))
        which = data.draw(arrays(np.intp, len(rows), elements=st.integers(0, len(HEADS) - 1)))
        chunk = data.draw(st.sampled_from([cones._TEXT_CHUNK, 1, 7, _DIGIT_PASS_MIN]))
        with mock.patch.object(cones, "_TEXT_CHUNK", chunk):
            one_head = _rows_json(rows, ["["], np.zeros(len(rows), np.intp), "]")
            text = _rows_json(rows, HEADS, which, "]}")
        assert f"[{one_head}]" == json.dumps(rows.tolist(), separators=(",", ":"))
        assert text == ",".join(HEADS[w] + json.dumps(row, separators=(",", ":"))[1:-1] + "]}"
                                for w, row in zip(which.tolist(), rows.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_text_of_many_terms_is_the_per_term_dict(self, data):
        r = data.draw(st.integers(1, 3))
        row = st.lists(INT64_ENTRIES, min_size=r, max_size=r).map(tuple)
        coeff = COEFFICIENTS | st.sampled_from([-0.0, 0.0, -1, Fraction(-1, 3)])
        terms = data.draw(st.lists(st.tuples(coeff, row), min_size=_DIGIT_PASS_MIN,
                                   max_size=3 * _DIGIT_PASS_MIN))
        closed = ConeClosedForm(terms=terms, pole_factors=[(1, 1)] * r)
        assert closed._exponents.dtype == np.int64
        assert closed.to_json() == canonical(per_term_json_dict(closed))

    def test_text_of_a_large_form_is_written_in_bounded_memory(self):
        # the |F| = 23762 form of btz cone's recorded digests; json.dumps of
        # tolist() peaked at 3.7 times the text (4.96 MB), the digit passes,
        # _TEXT_CHUNK rows at a time, at 2.4 times, and all rows at once above 4
        cone = LatticeCone(((-5, 1, 1), (-2, 3, 5), (-1, 2, -5)),
                           ((1, 0, 0), (1, 2, 0), (0, 0, 1)))
        gens = cone_generators(cone)
        closed = _closed_form(cone, gens, *_fundamental_points(cone, gens),
                              CharacterData((-1, 1, -1)))
        assert closed._exponents.shape == (23762, 3)
        tracemalloc.start()
        try:
            text = closed.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_text_of_cone_closed_forms(self, data):
        cone = data.draw(lattice_cones())
        closed = cone_series_closed_form(cone, make_decomposition(cone),
                                         data.draw(characters(cone.rank)))
        assert closed.to_json() == canonical(per_term_json_dict(closed))

    def test_exponents_beyond_int64_and_one_coordinate(self):
        closed = ConeClosedForm(terms=((-1, (2**64 + 1,)), (Fraction(1, 3), (-(2**70),))),
                                pole_factors=((1, 2**63),))
        assert closed.to_json() == (
            '{"pole_factors":[{"coeff":{"den":"1","num":"1"},"power":9223372036854775808}],'
            '"terms":[{"coeff":{"den":"1","num":"-1"},"exponents":[18446744073709551617]},'
            '{"coeff":{"den":"3","num":"1"},"exponents":[-1180591620717411303424]}]}')
        assert closed.to_json() == canonical(per_term_json_dict(closed))

    def test_no_terms(self):
        closed = ConeClosedForm(terms=(), pole_factors=((Fraction(1), 1), (0.5, 2)))
        assert closed.to_json() == (
            '{"pole_factors":[{"coeff":{"den":"1","num":"1"},"power":1},'
            '{"coeff":0.5,"power":2}],"terms":[]}')
        assert closed.to_json() == canonical(per_term_json_dict(closed))
        assert closed.to_json_dict() == per_term_json_dict(closed)
        assert repr(closed.evaluate((0.5, 0.5))) == repr(per_term_value(closed, (0.5, 0.5)))

    @pytest.mark.parametrize("kind", sorted(POINTS))
    @settings(max_examples=80, deadline=None)
    @given(case=lattice_cones().flatmap(lambda c: st.tuples(st.just(c), characters(c.rank))),
           points=st.fixed_dictionaries({name: st.lists(values, min_size=3, max_size=3)
                                         for name, values in POINTS.items()}))
    # a float times an exact power beyond float range, on the way to finite values
    @example(case=(LatticeCone(((1, 0, 0), (-3, 1, 3), (-3, -3, -4)),
                               ((3, 0, 0), (0, 3, -1), (0, 1, 3))),
                   CharacterData((1, Fraction(-1, 3), 0.5))),
             points={"float": [0.5, -0.25, 0.75], "fraction": [Fraction(1, 2)] * 3,
                     "complex": [0.5j, 0.25, -0.5]})
    # |F| = 49 with exponents 1..7: the float point takes the tables, at a
    # negative coordinate, where powers underflow, and where products overflow
    @example(case=(LARGE_FORM_CONE, CharacterData((1, -1, -1))),
             points={"float": [-0.75, 0.5, -0.3], "fraction": [Fraction(-3, 4)] * 3,
                     "complex": [-0.75, 0.5j, -0.3]})
    @example(case=(LARGE_FORM_CONE, None),
             points={"float": [1e-60, 0.5, 1e-50], "fraction": [Fraction(1, 7)] * 3,
                     "complex": [1e-60j, 0.5, 1e-50]})
    @example(case=(LARGE_FORM_CONE, CharacterData((-1, 1, 1))),
             points={"float": [1e40, 0.5, -1e40], "fraction": [Fraction(3, 2)] * 3,
                     "complex": [1e40j, 0.5, -1e40]})
    def test_value_is_the_per_term_loop(self, kind, case, points):
        cone, character = case
        closed = cone_series_closed_form(cone, make_decomposition(cone), character)
        u = tuple(points[kind][:cone.rank])
        expected = outcome(per_term_value, closed, u)
        assert outcome(ConeClosedForm.evaluate, closed, u) == expected
        # btz cone's form holds int64 exponents, which the array path reads
        gens = cone_generators(cone)
        array_form = _closed_form(cone, gens, *_fundamental_points(cone, gens), character)
        assert outcome(ConeClosedForm.evaluate, array_form, u) == expected
        if kind == "fraction" and all(isinstance(c, (int, Fraction)) for c, _ in closed.terms) \
                and not isinstance(expected, type):
            assert type(closed.evaluate(u)) is Fraction

    def test_large_unit_forms_take_the_tables(self):
        gens = cone_generators(LARGE_FORM_CONE)
        closed = _closed_form(LARGE_FORM_CONE, gens, *_fundamental_points(LARGE_FORM_CONE, gens),
                              CharacterData((1, -1, -1)))
        assert len(closed.terms) >= _DIGIT_PASS_MIN
        u = (-0.75, 0.5, -0.3)
        numerator = ConeClosedForm(closed.terms, [(0, 1)] * 3)  # every pole factor is 1
        assert repr(closed._table_numerator(u)) == repr(per_term_value(numerator, u))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_value_of_many_int_terms_is_the_per_term_loop(self, data):
        # exponent spans below the term count take the tables, wider ones the loop;
        # coefficients beyond int64, and points whose powers raise
        r = data.draw(st.integers(1, 3))
        low = data.draw(st.integers(-40, 40))
        width = data.draw(st.sampled_from([0, 3, 30, 300]))
        row = st.lists(st.integers(low, low + width), min_size=r, max_size=r).map(tuple)
        coeff = st.sampled_from([1, -1]) | st.integers(-2**70, 2**70)
        terms = data.draw(st.lists(st.tuples(coeff, row), min_size=_DIGIT_PASS_MIN,
                                   max_size=3 * _DIGIT_PASS_MIN))
        closed = ConeClosedForm(terms=terms, pole_factors=[(1, 1)] * r)
        point = st.floats(-2, 2) | st.sampled_from(
            [0.0, -0.0, 1e-300, 1e300, -1e150, math.inf, -math.inf, math.nan])
        u = tuple(data.draw(st.lists(point, min_size=r, max_size=r)))
        assert outcome(ConeClosedForm.evaluate, closed, u) == outcome(per_term_value, closed, u)

    @pytest.mark.parametrize("filler", [0, _DIGIT_PASS_MIN], ids=["loop", "tables"])
    def test_error_is_the_first_raising_terms(self, filler):
        # a later coordinate overflows in an earlier term than a zero's negative power
        terms = [(1, (0, 0, 0))] * filler + [(1, (0, 0, -2)), (1, (0, -1, 0))]
        closed = ConeClosedForm(terms=terms, pole_factors=[(1, 1)] * 3)
        u = (0.0, 0.0, 1e-300)
        assert outcome(per_term_value, closed, u) is OverflowError
        with pytest.raises(OverflowError):
            closed.evaluate(u)

    @pytest.mark.parametrize("functionals, u, error", [
        (((1,),), (1.0,), ZeroDivisionError),
        (((1, 0), (0, 1)), (Fraction(1, 2), Fraction(1)), ZeroDivisionError),
        (((2,),), (1e200,), OverflowError),
        (((2, 1), (-1, 3)), (0.5, 1e160j), OverflowError),
    ], ids=["pole", "fraction-pole", "overflow", "complex-overflow"])
    def test_same_exception(self, functionals, u, error):
        cone = LatticeCone(functionals)
        closed = cone_series_closed_form(cone, make_decomposition(cone))
        assert outcome(per_term_value, closed, u) is error
        with pytest.raises(error):
            closed.evaluate(u)


# -- btz cone's array path against the public tuple API --


def cone_args(cone, mults, point) -> list[str]:
    """``btz cone`` arguments for a cone, CLI character multipliers and a point."""
    args = ["cone", "--functionals", ";".join(",".join(map(str, f)) for f in cone.functionals),
            "--lattice", ";".join(",".join(map(str, c)) for c in cone.basis_columns),
            "--eval", ",".join(map(repr, point))]
    return args + ["--char", ",".join(map(str, mults))] if mults else args


def tuple_api_document(cone, mults, point, oracle_bound=60) -> str | None:
    """``btz cone``'s stdout assembled from the tuple API, or None where it exits 2."""
    character = CharacterData(Fraction(m) for m in mults) if mults \
        else CharacterData.trivial(cone.rank)
    gens = cone_generators(cone)
    fset = fundamental_domain(cone, gens)
    closed = cone_series_closed_form(cone, ConeDecomposition(gens, fset), character)
    closed_doc = per_term_json_dict(closed)
    assert closed.to_json() == canonical(closed_doc)
    converges = closed.converges_at(point)
    try:
        value = per_term_value(closed, point)
        value = float(value) if isinstance(value, Fraction) else complex(value).real
        entry = {"point": list(point), "closed_form_value": value, "converges": converges,
                 "partial_sum": "skipped (outside convergence region)"}
        if converges:
            oracle = evaluate_partial_sum(cone, character, point, oracle_bound)
            entry["partial_sum"] = oracle
            entry["relative_error"] = abs(value - oracle) / max(abs(value), 1e-300)
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    if not math.isfinite(value):
        return None
    return canonical({"schema_version": SCHEMA_VERSION, "rank": cone.rank,
                      "generators": gens, "fundamental_set": fset,
                      "closed_form": closed_doc, "evaluation": entry}) + "\n"


CLI_MULTIPLIERS = st.sampled_from([1, -1, Fraction(1, 2), 2, Fraction(-1, 3), Fraction(3, 2)])


class TestCliArrayPath:
    """``btz cone`` keeps F and the closed form as arrays; its text is the tuple API's."""

    def check(self, cone, mults, point):
        result = CliRunner().invoke(main, cone_args(cone, mults, point))
        expected = tuple_api_document(cone, mults, point)
        if expected is None:
            assert result.exit_code == 2, result.output
        else:
            assert result.exit_code == 0, result.output
            assert result.stdout == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stdout_is_the_tuple_api_document(self, data):
        cone = data.draw(lattice_cones())
        mults = data.draw(st.none() | st.lists(CLI_MULTIPLIERS, min_size=cone.rank,
                                               max_size=cone.rank))
        point = data.draw(st.lists(st.floats(0.05, 0.6), min_size=cone.rank,
                                   max_size=cone.rank))
        self.check(cone, mults, point)

    @pytest.mark.parametrize("cone, mults, point", [
        (SCALED, None, (0.2, 0.3, 0.25)),
        (SCALED, (-1, 1, -1), (0.2, 0.3, 0.25)),
        (WIDE_POINTS, (1, -1), (0.3, 0.3)),
    ], ids=["scaled", "scaled-sign", "wide-points"])
    def test_object_exponents(self, cone, mults, point):
        gens = cone_generators(cone)
        closed = _closed_form(cone, gens, *_fundamental_points(cone, gens), None)
        # the scaled cone's exponents pass int64; the wide points' exponents are small
        assert closed._exponents.dtype == (object if cone is SCALED else np.int64)
        self.check(cone, mults, point)

    def test_outside_convergence_region(self):
        cone = LatticeCone(((1, 0), (-1, 2)))
        self.check(cone, (Fraction(1, 2), 2), (1.5, 0.3))
        assert '"partial_sum":"skipped (outside convergence region)"' in tuple_api_document(
            cone, (Fraction(1, 2), 2), (1.5, 0.3))


class TestOneClosedFormTwoConstructors:
    """``ConeClosedForm(terms=...)`` and ``_closed_form`` build one form."""

    def check(self, built, data):
        by_terms = ConeClosedForm(terms=built.terms, pole_factors=built.pole_factors)
        assert by_terms == built and by_terms.terms == built.terms
        assert hash(by_terms) == hash(built)
        assert by_terms.to_json() == built.to_json()
        rank = len(built.pole_factors)
        # an exact power u^e with e near 2^61 would not finish
        exact = max(map(abs, chain.from_iterable(e for _, e in built.terms)), default=0) < 10**4
        for kind in sorted(POINTS) if exact else ("complex", "float"):
            u = tuple(data.draw(st.lists(POINTS[kind], min_size=rank, max_size=rank)))
            assert outcome(ConeClosedForm.evaluate, by_terms, u) \
                == outcome(ConeClosedForm.evaluate, built, u)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cone_closed_forms(self, data):
        cone = data.draw(lattice_cones())
        gens = cone_generators(cone)
        built = _closed_form(cone, gens, *_fundamental_points(cone, gens),
                             data.draw(characters(cone.rank)))
        self.check(built, data)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_unit_character_values_stay_int64(self, data):
        # the +-1 values stay one int64 array from _character_values on, and
        # the public constructor stores the same Python ints the same way
        cone = data.draw(lattice_cones() | st.sampled_from(
            [LARGE_FORM_CONE, EVEN_DET_CONE, NEGATIVE_DET_CONE]))
        gens = cone_generators(cone)
        built = _closed_form(cone, gens, *_fundamental_points(cone, gens),
                             data.draw(st.none() | unit_characters(cone.rank)))
        by_terms = ConeClosedForm(terms=built.terms, pole_factors=built.pole_factors)
        assert built._coefficients.dtype == by_terms._coefficients.dtype == np.int64
        assert all(type(c) is int for c, _ in built.terms)
        self.check(built, data)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_int64_coefficient_arrays(self, data):
        # int64 coefficients of every width, spanning fewer values than there
        # are terms or more, on both sides of _DIGIT_PASS_MIN
        r = data.draw(st.integers(1, 3))
        n = data.draw(ROW_COUNTS)
        coeffs = data.draw(arrays(np.int64, n, elements=st.sampled_from([1, -1])
                                  | st.integers(-3, 3) | INT64_ENTRIES))
        exponents = data.draw(arrays(np.int64, (n, r), elements=st.integers(-3, 12)))
        self.check(ConeClosedForm._of_arrays(coeffs, exponents, [(1, 1)] * r), data)

    @pytest.mark.parametrize("cone, character", [
        (LatticeCone(((3,),)), CharacterData((Fraction(-1, 2),))),
        (LatticeCone(((-2,),), ((5,),)), None),
        (SCALED, None),
        (SCALED, CharacterData((-1, 1, Fraction(-1)))),
    ], ids=["rank-1", "rank-1-sublattice", "beyond-int64", "beyond-int64-sign"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_fixed_cones(self, cone, character, data):
        gens = cone_generators(cone)
        self.check(_closed_form(cone, gens, *_fundamental_points(cone, gens), character), data)

    @pytest.mark.parametrize("character", [None, CharacterData((Fraction(1, 2), 3))],
                             ids=["trivial", "rational"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_no_terms(self, character, data):
        cone = LatticeCone(((1, 0), (-1, 2)))
        empty = np.zeros((2, 0), np.int64)
        built = _closed_form(cone, cone_generators(cone), empty, empty, character)
        assert built.terms == ()
        self.check(built, data)


# -- the closed form's character values against CharacterData.value per point --


MULTIPLIERS = st.sampled_from([1, -1, 2, -3, Fraction(1), Fraction(-1), Fraction(1, 2),
                               Fraction(-3, 2), 0.5, -1.25, 3.0, 0.5 + 0.5j])


def value_per_point(character, points):
    """[character.value(v) for v in points], or the exception it raises."""
    try:
        return [character.value(v) for v in points]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def memoized(character, points):
    """_character_values as a list: +-1 values come as one int64 array."""
    try:
        values = _character_values(character, np.array(points, dtype=np.int64).T)
        return values.tolist() if isinstance(values, np.ndarray) else values
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


class TestCharacterValues:
    # exponents beyond +-1000 overflow float powers of 0.5, -1.25 and 3.0
    @settings(max_examples=150, deadline=None)
    @given(case=st.integers(1, 3).flatmap(lambda r: st.tuples(
        st.lists(MULTIPLIERS, min_size=r, max_size=r),
        st.lists(st.lists(st.integers(-40, 40) | st.integers(-1100, 1100),
                          min_size=r, max_size=r), min_size=1, max_size=30))))
    # a float power underflowing to 0 on the way to a normal float value
    @example(case=((0.5, Fraction(3)), [(1100, 600)]))
    def test_values_are_value_per_point(self, case):
        multipliers, points = case
        character = CharacterData(multipliers)
        got, expected = memoized(character, points), value_per_point(character, points)
        assert got == expected
        if not all(m in (1, -1) and not isinstance(m, (float, complex))
                   for m in character.multipliers):
            # the same types and bits: no +-1 parity path on either side
            assert repr(got) == repr(expected)

    @pytest.mark.parametrize("multipliers, points", [
        ((1, Fraction(1, 2)), [(5, 3), (5, EXACT_POWER_CAP + 1)]),
        ((Fraction(3, 2), 2), [(0, -EXACT_POWER_CAP - 1), (EXACT_POWER_CAP + 2, 0)]),
        # the first point hits the cap, the second overflows a float power
        ((0.5, Fraction(1, 2)), [(0, EXACT_POWER_CAP + 1), (-2000, 0)]),
    ], ids=["second-point", "first-point-first", "cap-before-overflow"])
    def test_over_cap_refused_like_value(self, multipliers, points):
        character = CharacterData(multipliers)
        got = memoized(character, points)
        assert got == value_per_point(character, points)
        assert got[0] is ValueError and "exponent cap" in got[1]

    def test_value_beyond_float_range_refused(self):
        # (0.5+0.5j)**-2 * (-3)**646 is nan-infj in complex arithmetic
        character = CharacterData([0.5 + 0.5j, -3, 1])
        points = [(1, 1, 1), (-2, 646, 0)]
        assert memoized(character, points) == value_per_point(character, points) \
            == (ValueError, "the character value at (-2, 646, 0) overflows a float")

    def test_overflow_on_the_way_is_retaken_exactly(self):
        # 1.0 * 3^700 overflows a float, but 3^700 / 2^1000 is about 1e33
        exact = Fraction(3) ** 700 / 2 ** 1000
        character = CharacterData((Fraction(3), 0.5))
        points = [(700, 1000), (2, 1)]
        assert memoized(character, points) == value_per_point(character, points) \
            == [float(exact), 4.5]
        assert value_per_point(character, [(700, 0)]) \
            == (ValueError, "the character value at (700, 0) overflows a float")
        # a complex multiplier's power scales the exact real part: (0.5j)^2 = -0.25
        character = CharacterData((Fraction(3), 0.5, 0.5j))
        points = [(700, 1000, 2)]
        assert memoized(character, points) == value_per_point(character, points) \
            == [complex(float(-exact / 4), 0.0)]

    def test_underflow_on_the_way_is_retaken_exactly(self):
        # 0.5^1100 is 0.0 as a float, but 3^600 / 2^1100 is about 1.4e-45
        exact = Fraction(3) ** 600 / 2 ** 1100
        character = CharacterData((0.5, Fraction(3)))
        assert character.value((1100, 600)) == float(exact) == 1.379614027261205e-45
        points = [(1100, 600), (1, 1), (1080, 600)]
        assert memoized(character, points) == value_per_point(character, points) \
            == [float(exact), 1.5, float(exact * 2 ** 20)]
        # a value that is itself below the normal floats rounds once
        assert character.value((1100, 0)) == 0.0

    def test_unit_multipliers_have_no_cap(self):
        huge = 10**18 + 1
        character = CharacterData((Fraction(-1), Fraction(1, 2)))
        points = [(huge, 3), (-huge, -2)]
        assert memoized(character, points) == [Fraction(-1, 8), Fraction(-4)] \
            == value_per_point(character, points)
