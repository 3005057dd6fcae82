from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btzeta import IntPolynomial, RationalFn, classify_ramanujan, polynomial_roots, ratio
from btzeta.rh import _sturm_count

U3 = IntPolynomial([1, 0, 0, -1])


def tempered_quadratic(q: int, a: int) -> IntPolynomial:
    """(1 - a u + q u^2): inverse-root pair of modulus sqrt(q) when a^2 < 4q."""
    assert a * a < 4 * q
    return IntPolynomial([1, -a, q])


class TestPolynomialRoots:
    def test_cube_roots_of_unity(self):
        roots = polynomial_roots(U3)
        assert len(roots) == 3
        assert all(abs(abs(z) - 1) < 1e-12 for z in roots)
        assert min(abs(z - 1) for z in roots) < 1e-12

    def test_linear(self):
        assert polynomial_roots(IntPolynomial([1, -2])) == [pytest.approx(0.5)]

    def test_constant_has_no_roots(self):
        assert polynomial_roots(IntPolynomial([7])) == []

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots(IntPolynomial())

    def test_coefficients_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="fit a float"):
            polynomial_roots(IntPolynomial([1, 10 ** 400, 1]))

    @pytest.mark.parametrize("coeffs, expected", [
        ([1, 0, -10 ** 40, 1], [-1e-20, 1e-20, 1e40]),
    ])
    def test_roots_far_below_the_largest(self, coeffs, expected):
        roots = sorted(polynomial_roots(IntPolynomial(coeffs)), key=lambda z: (z.real, z.imag))
        assert roots == [pytest.approx(z) for z in expected]

    def test_root_powers_beyond_float_range_rejected(self):
        # u^9 - 1e40 u^8 + 1 is square-free, with a root near 1e40 whose 9th
        # power is beyond float range
        with pytest.raises(ValueError, match="powers fit a float"):
            polynomial_roots(IntPolynomial([1] + [0] * 7 + [-10 ** 40, 1]))

    def test_repeated_factors_are_found_once(self):
        # u^7 (u - 1e40): the root 0 is split off as u^7, not sought as a cluster
        roots = polynomial_roots(IntPolynomial([0] * 7 + [-10 ** 40, 1]))
        assert roots == [pytest.approx(1e40)] + [0j] * 7

    def test_planted_sqrt2_pair(self):
        roots = polynomial_roots(tempered_quadratic(2, 2))
        assert all(abs(abs(z) - 2 ** -0.5) < 1e-9 for z in roots)

    def test_conjugation_closure(self):
        rng = random.Random(2)
        poly = IntPolynomial([1])
        for _ in range(6):
            poly = poly * tempered_quadratic(3, rng.choice([-3, -1, 0, 1, 3]))
        roots = polynomial_roots(poly)
        for z in roots:
            assert min(abs(z.conjugate() - w) for w in roots) < 1e-9

    def test_deterministic(self):
        poly = tempered_quadratic(5, 3) * IntPolynomial([1, -5]) * U3
        assert polynomial_roots(poly) == polynomial_roots(poly)

    def test_residuals_bounded(self):
        poly = tempered_quadratic(2, 1).pow(3) * IntPolynomial([1, 0, 0, 0, -16])
        for z in polynomial_roots(poly):
            scale = sum(abs(c) * abs(z) ** k for k, c in enumerate(poly.coeffs))
            assert abs(poly.eval(z)) <= 1e-9 * scale


class TestClassifyRamanujan:
    def test_synthetic_positive(self):
        # (1-u^3)^2 (1-2u+2u^2) / ((1-8u^3)(1-u^3)) with q=2, chi=3
        num = U3.pow(2) * tempered_quadratic(2, 2)
        den = IntPolynomial([1, 0, 0, -8]) * U3
        report = classify_ramanujan((num, den), q=2, chi=3, counts=(5, 11, 4))
        assert report.verdict == "ramanujan"
        assert report.euler_factor_exponent == 2
        assert report.exponent_matches_chi is True
        assert report.pole_factor_found is True
        assert report.p1_degree == 2
        assert report.p1_degree_expected == 11 - 15 + 6
        assert report.den_euler_factor_exponent == 1

    def test_synthetic_negative_control(self):
        num = U3.pow(2) * IntPolynomial([1, -2])  # inverse root modulus 2 != sqrt(2)
        den = IntPolynomial([1, 0, 0, -8]) * U3
        report = classify_ramanujan((num, den), q=2, chi=3)
        assert report.verdict == "non_tempered_witness"
        assert len(report.offending_roots) == 1
        assert abs(abs(report.offending_roots[0]) - 0.5) < 1e-9

    def test_q_absent_policy(self, three_cycle):
        report = classify_ramanujan(ratio(three_cycle), q=None)
        assert report.verdict == "inconclusive"

    def test_q_one_policy(self, torus):
        report = classify_ramanujan(ratio(torus), q=1)
        assert report.verdict == "inconclusive"

    def test_missing_pole_factor_reported_not_fatal(self):
        num = U3 * tempered_quadratic(2, 1)
        den = IntPolynomial([1])
        report = classify_ramanujan((num, den), q=2, chi=2)
        assert report.pole_factor_found is False
        assert any("pole factor" in note for note in report.notes)
        assert report.verdict == "ramanujan"

    def test_exponent_mismatch_reported(self):
        num = U3 * tempered_quadratic(2, 1)
        den = IntPolynomial([1, 0, 0, -8])
        report = classify_ramanujan((num, den), q=2, chi=5)
        assert report.exponent_matches_chi is False
        assert report.verdict == "ramanujan"  # shape mismatch is a report, not a verdict

    def test_normalized_rational_fn_input(self):
        num = U3.pow(3) * tempered_quadratic(2, 0)
        den = IntPolynomial([1, 0, 0, -8]) * U3
        f = RationalFn(num, den)  # normalization cancels one (1-u^3)
        report = classify_ramanujan(f, q=2, chi=3)
        assert report.euler_factor_exponent == 2
        assert report.verdict == "ramanujan"

    def test_boundary_roots_listed_off_the_circle(self):
        # plant an inverse root with modulus sqrt(2)(1 + 3e-9): inside 10*tol,
        # so a boundary root, yet off the circle, so a witness
        target = 2 ** 0.5 * (1 + 3e-9)
        # rational approximation with huge denominator keeps the modulus offset
        from fractions import Fraction

        frac = Fraction(target).limit_denominator(10 ** 12)
        num = IntPolynomial([frac.denominator, -frac.numerator])
        den = IntPolynomial([1])
        report = classify_ramanujan((num, den), q=2, tol=1e-9)
        assert report.verdict == "non_tempered_witness"
        assert report.boundary_roots

    @pytest.mark.parametrize("side", ["num", "den"])
    def test_zero_polynomial_rejected(self, side):
        one, zero = IntPolynomial([1]), IntPolynomial([0])
        pair = (zero, one) if side == "num" else (one, zero)
        with pytest.raises(ValueError, match="nonzero"):
            classify_ramanujan(pair, q=2)

    def test_json_roundtrip(self):
        num = U3 * tempered_quadratic(2, 1)
        den = IntPolynomial([1, 0, 0, -8])
        doc = classify_ramanujan((num, den), q=2, chi=2).to_json_dict()
        assert doc["verdict"] == "ramanujan"
        assert doc["euler_factor_exponent"] == 1
        assert all(abs(e["modulus"] - 2 ** -0.5) < 1e-9 for e in doc["P1_roots"])


class TestPlantedRecovery:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_planted_multiplicities(self, data):
        # quadratics 1 - a u + b u^2 with roots of modulus b^(-1/2): tempered
        # for b = q, non-tempered for b = q + 1, each to a power up to 6, in
        # P1 or P2
        q = data.draw(st.sampled_from([2, 3, 4, 5]))
        planted = data.draw(st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(1, 6)),
                                     min_size=1, max_size=4))
        sides = [IntPolynomial([1]), IntPolynomial([1])]
        for wild, side, m in planted:
            b = q + wild
            a = data.draw(st.integers(-math.isqrt(4 * b - 1), math.isqrt(4 * b - 1)))
            sides[side] = sides[side] * IntPolynomial([1, -a, b]).pow(m)
        p1, p2 = sides
        report = classify_ramanujan((U3 * p1, IntPolynomial([1, 0, 0, -q ** 3]) * p2), q=q)
        wild = any(w for w, _, _ in planted)
        assert report.verdict == ("non_tempered_witness" if wild else "ramanujan")

    def test_three_modulus_classes(self):
        # distinct planted factors; repeated ones are split off exactly
        # before any root is sought (see test_planted_multiplicities)
        rng = random.Random(9)
        q = 3
        pools = {
            "sqrt": [tempered_quadratic(q, a) for a in range(-3, 4) if a * a < 4 * q],
            "q": [IntPolynomial([1, q]), IntPolynomial([1, -2, q * q])],
            "one": [IntPolynomial([1, 1]), IntPolynomial([1, 0, 1])],
        }
        moduli = {"sqrt": q ** -0.5, "q": 1.0 / q, "one": 1.0}
        for _ in range(10):
            available = {k: list(v) for k, v in pools.items()}
            factors, expected = [], []
            for _ in range(rng.randint(1, 6)):
                cls = rng.choice([k for k, v in available.items() if v])
                f = available[cls].pop(rng.randrange(len(available[cls])))
                factors.append(f)
                expected += [moduli[cls]] * f.degree
            poly = IntPolynomial([1])
            for f in factors:
                poly = poly * f
            roots = polynomial_roots(poly)
            got = sorted(abs(z) for z in roots)
            assert len(got) == len(expected)
            for g, e in zip(got, sorted(expected)):
                assert abs(g - e) < 1e-9


def pole(q: int) -> IntPolynomial:
    return IntPolynomial([1, 0, 0, -q ** 3])


class TestExactVerdict:
    """Inputs whose verdict a float tolerance got wrong, or could get wrong."""

    @pytest.mark.parametrize("k", range(1, 41))
    def test_repeated_tempered_quadratic(self, k):
        p1 = tempered_quadratic(2, 1).pow(k)
        assert classify_ramanujan((U3 * p1, pole(2)), q=2).verdict == "ramanujan"

    def test_cube_substitution(self):
        # (1 + 5x + 8x^2)^3 with x = u^3: every root u has modulus 8^(-1/6)
        p1 = IntPolynomial([1, 5, 8]).pow(3).subst_u_power(3)
        assert classify_ramanujan((U3 * p1, pole(2)), q=2).verdict == "ramanujan"

    @pytest.mark.parametrize("wild", [False, True])
    def test_degree_300_product(self, wild):
        rng = random.Random(300)
        p1 = IntPolynomial([1])
        for _ in range(150):
            p1 = p1 * tempered_quadratic(5, rng.randint(-4, 4))
        if wild:
            p1 = p1 * IntPolynomial([1, -3, 6])  # roots of modulus 6^(-1/2)
        report = classify_ramanujan((U3 * p1, pole(5)), q=5)
        assert report.verdict == ("non_tempered_witness" if wild else "ramanujan")

    def test_near_circle_quadratic(self):
        # roots of modulus 2^(-1/2) (1 + 1e-12)^(-1/2): within any float
        # tolerance of the circle, yet off it
        p1 = IntPolynomial([10 ** 12, -1, 2 * 10 ** 12 + 2])
        report = classify_ramanujan((U3 * p1, pole(2)), q=2)
        assert report.verdict == "non_tempered_witness"
        assert not report.offending_roots and not report.boundary_roots

    @pytest.mark.parametrize("p1, q, verdict", [
        (IntPolynomial([1, 0, -2]), 2, "ramanujan"),              # roots +-2^(-1/2)
        (IntPolynomial([1, -2]) * IntPolynomial([1, 2]), 4, "ramanujan"),
        (IntPolynomial([1, -2]), 4, "ramanujan"),                 # one root of 1 - 4u^2
        (IntPolynomial([1, -2]), 2, "non_tempered_witness"),
        (IntPolynomial([1, 0, 2]), 2, "ramanujan"),               # y = 0: roots +-i 2^(-1/2)
        (IntPolynomial([0, 1, -1, 2]), 2, "non_tempered_witness"),  # a root at 0
    ])
    def test_fixed_points_and_edges(self, p1, q, verdict):
        assert classify_ramanujan((U3 * p1, pole(q)), q=q).verdict == verdict


class TestSturmCount:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=10).filter(lambda c: c[-1]),
           st.integers(-12, 12), st.integers(1, 24))
    # each has a Sturm term of degree 1 with a negative leading coefficient
    # after one of degree 3: dividing by it, lc^3 would flip a sign |lc|^3 keeps
    @example(coeffs=[3, -3, 0, 0, -2], a=0, width=4)
    @example(coeffs=[-1, -3, -3, 4, -2], a=-2, width=3)
    def test_matches_sympy(self, coeffs, a, width):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        part = sympy.Poly(list(reversed(coeffs)), x).sqf_part()
        p = IntPolynomial(reversed([int(c) for c in part.all_coeffs()]))
        b = a + width
        # count_roots counts [a, b]; the Sturm count, (a, b]
        assert _sturm_count(p, a, b) + (p.eval(a) == 0) == part.count_roots(a, b)
