from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from btzeta import (
    CharacterData,
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
