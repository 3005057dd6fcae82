from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from btzeta.cones import (
    EXACT_POWER_CAP,
    FUNDAMENTAL_INDEX_CAP,
    _adjugate,
    _lower_hermite_form,
    _mat_vec,
    _mat_vec_row,
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

    def test_oracle_multiplier_beyond_float_range(self):
        cone = LatticeCone(((-1,),))
        with pytest.raises(ValueError, match="fit a float"):
            evaluate_partial_sum(cone, CharacterData((Fraction(10**400),)), (0.3,), 1)

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
