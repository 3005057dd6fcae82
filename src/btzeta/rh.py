"""Numerical root analysis of zeta ratios and Ramanujan classification.

The classifier extracts the structural factors of a building-quotient zeta
ratio exactly -- powers of (1 - u^3) from the numerator (expected exponent:
Euler characteristic minus one) and (1 - q^3 u^3) plus any (1 - u^3) from the
denominator -- and then root-tests the residual polynomials.  A quotient is
flagged ``ramanujan`` when every residual root has modulus q^(-1/2) within
tolerance (equivalently, all inverse roots sit on the circle of radius
sqrt(q)); a clear violation is a ``non_tempered_witness``; complexes without
a meaningful q (q absent or q = 1) are ``inconclusive`` by policy.

Factor extraction and the square-free split are exact integer polynomial
arithmetic; floating point enters only in the final root moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .polynomials import IntPolynomial, RationalFn, poly_gcd

__all__ = ["RHReport", "polynomial_roots", "classify_ramanujan"]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class RHReport:
    """Outcome of the factored-shape and root-modulus analysis."""

    q: int | None
    chi: int | None
    euler_factor_exponent: int
    pole_factor_found: bool
    P1_roots: tuple[complex, ...]
    P2_roots: tuple[complex, ...]
    verdict: str
    tolerance: float
    den_euler_factor_exponent: int = 0
    exponent_matches_chi: bool | None = None
    p1_degree: int = 0
    p1_degree_expected: int | None = None
    offending_roots: tuple[complex, ...] = ()
    boundary_roots: tuple[complex, ...] = ()
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("P1_roots", "P2_roots", "offending_roots", "boundary_roots"):
            doc[name] = [{"re": z.real, "im": z.imag, "modulus": abs(z)} for z in doc[name]]
        doc["notes"] = list(self.notes)
        return doc


def _residual_scale(p: IntPolynomial, z: complex) -> float:
    return sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs)) or 1.0


def _polish(p: IntPolynomial, seeds, tol: float) -> tuple[list[complex], str | None]:
    """The seeds after Newton steps on p, and why the first one failed, if one did.

    mpmath is imported here, its only use, so that no command that polishes
    no root pays its import.
    """
    import mpmath

    exact = list(reversed(p.coeffs))
    exact_deriv = list(reversed(p.derivative().coeffs)) or [0]
    polished = []
    with mpmath.workdps(40):
        for z in sorted(seeds, key=lambda w: (round(w.real, 12), round(w.imag, 12))):
            x = mpmath.mpc(z)
            for _ in range(6):
                pv = mpmath.polyval(exact, x)
                dv = mpmath.polyval(exact_deriv, x)
                if dv == 0:
                    break
                step = pv / dv
                x -= step
                if abs(step) < 1e-30:
                    break
            polished.append(complex(x))
    try:
        for z in polished:
            residual = abs(p.eval(complex(z)))
            if residual > tol * _residual_scale(p, z):
                return polished, (f"root {z} failed the residual bound ({residual:.3e}); "
                                  "polynomial may have tightly clustered roots")
    except OverflowError:
        raise ValueError("root finding needs roots whose powers fit a float") from None
    return polished, None


def _newton_polygon_seeds(p: IntPolynomial) -> tuple[list[complex], float]:
    """Root seeds found scale by scale, and log2 of the largest scale over the smallest.

    An edge from k = i to k = j of the upper convex hull of the points
    (k, log2 |c_k|), the Newton polygon (Bini, Numer. Algorithms 13, 1996),
    says that p has j - i roots of modulus about s = |c_i / c_j|^(1/(j - i)).
    Scaled to v = u / s, the terms i..j have coefficients of modulus at most
    |c_j s^j|, reached at both ends, so their j - i roots v resolve well.
    """
    logs = {k: math.log2(abs(c)) for k, c in enumerate(p.coeffs) if c}
    hull: list[tuple[int, float]] = []
    for k, y in logs.items():
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                  >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])):
            hull.pop()
        hull.append((k, y))
    seeds = [0j] * min(logs)
    scales = []
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        log_s = (yi - yj) / (j - i)
        scaled = [math.copysign(2.0 ** (logs[k] + log_s * (k - j) - yj), c) if c else 0.0
                  for k, c in enumerate(p.coeffs[i:j + 1], i)]
        seeds += [2.0 ** log_s * v for v in np.roots(scaled[::-1])]
        scales.append(log_s)
    return seeds, scales[-1] - scales[0]


def _square_free_factors(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """(factor, multiplicity) pairs of p's square-free decomposition, multiplicities ascending.

    Yun's split (SYMSAC 1976) on exact integer division: with g = gcd(p, p')
    and w = p / g, each step takes y = gcd(w, g); w / y is the product of
    the factors of the step's multiplicity, and the next step goes on with
    w = y and g = g / y.  A square-free p is its own one factor.
    """
    g = poly_gcd(p, p.derivative())
    w, factors, m = p.divmod_exact(g)[0], [], 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        factor = w.divmod_exact(y)[0]
        if factor.degree > 0:
            factors.append((factor, m))
        w, g, m = y, g.divmod_exact(y)[0], m + 1
    return factors


def polynomial_roots(p: IntPolynomial, tol: float = DEFAULT_TOL) -> list[complex]:
    """All complex roots (with multiplicity) of a nonzero integer polynomial.

    The roots of each factor of p's square-free decomposition are found
    once and repeated by its multiplicity, so a repeated root is never
    sought as a cluster; a square-free p is its own one factor.
    Companion-matrix eigenvalues seed a factor's roots; each is then
    polished by a few Newton steps evaluated on the factor's exact integer
    coefficients in extended precision, and verified against the scaled
    residual bound |f(z)| < tol * sum_k |c_k| |z|^k; a failure raises
    ArithmeticError.  The companion matrix resolves roots only to machine
    epsilon times the largest, so when a root fails and the Newton polygon
    spans root moduli more than 1 / epsilon apart, the roots are seeded once
    more, scale by scale, before that.  Deterministic for identical inputs.
    A coefficient, or a power of a root, beyond float range raises
    ValueError.
    """
    if p.is_zero():
        raise ValueError("root finding needs a nonzero polynomial")
    if p.degree < 1:
        return []
    roots = []
    for factor, m in _square_free_factors(p):
        try:
            coeffs_desc = [float(c) for c in reversed(factor.coeffs)]
        except OverflowError:
            raise ValueError("root finding needs coefficients that fit a float") from None
        polished, failure = _polish(factor, np.roots(coeffs_desc), tol)
        if failure is not None:
            seeds, log2_spread = _newton_polygon_seeds(factor)
            if log2_spread > -math.log2(np.finfo(float).eps):
                polished, failure = _polish(factor, seeds, tol)
            if failure is not None:
                raise ArithmeticError(failure)
        roots += polished * m
    return roots


def _extract_factor(p: IntPolynomial, factor: IntPolynomial) -> tuple[IntPolynomial, int]:
    """Divide out the maximal power of ``factor``; exact integer division."""
    count = 0
    while True:
        q = p.divide_exact(factor)
        if q is None:
            return p, count
        p = q
        count += 1


def classify_ramanujan(f, q: int | None, chi: int | None = None,
                       tol: float = DEFAULT_TOL,
                       counts: tuple[int, int, int] | None = None) -> RHReport:
    """Factor a zeta ratio and test residual root moduli against q^(-1/2).

    ``f`` is a RationalFn or a raw ``(numerator, denominator)`` pair of
    IntPolynomials; the pair form is analyzed exactly as given (no
    re-normalization), so a display carrying both (1-u^3)^e upstairs and
    (1-u^3) downstairs reports the numerator exponent e.  Mismatches such as
    a missing pole factor are recorded in the report, never raised.  Roots
    within ``tol`` of modulus q^(-1/2) pass; roots within ``10*tol`` are
    reported as boundary cases (verdict ``inconclusive``); anything farther
    is a non-tempered witness.  A zero numerator or denominator, or a
    residual coefficient or root power beyond float range, raises ``ValueError``.
    """
    num, den_in = (f.num, f.den) if isinstance(f, RationalFn) else f
    if num.is_zero() or den_in.is_zero():
        raise ValueError("zeta ratio numerator and denominator must be nonzero")
    notes: list[str] = []
    if q is None or q < 2:
        return RHReport(
            q=q, chi=chi, euler_factor_exponent=0, pole_factor_found=False,
            P1_roots=(), P2_roots=(), verdict="inconclusive", tolerance=tol,
            notes=("no residue cardinality q >= 2: not a building quotient",))

    u3 = IntPolynomial([1, 0, 0, -1])            # 1 - u^3
    pole = IntPolynomial([1, 0, 0, -(q ** 3)])   # 1 - q^3 u^3
    p1, e_num = _extract_factor(num, u3)
    den, e_den = _extract_factor(den_in, u3)
    p2, e_pole = _extract_factor(den, pole)
    if e_pole == 0:
        notes.append("expected pole factor (1 - q^3 u^3) not found in denominator")

    exponent_matches = None
    if chi is not None:
        exponent_matches = e_num == chi - 1
        if not exponent_matches:
            notes.append(
                f"numerator (1-u^3) exponent {e_num} differs from chi-1 = {chi - 1}")

    p1_roots = tuple(polynomial_roots(p1, tol)) if p1.degree >= 1 else ()
    p2_roots = tuple(polynomial_roots(p2, tol)) if p2.degree >= 1 else ()

    target = q ** -0.5
    offending = []
    boundary = []
    for z in (*p1_roots, *p2_roots):
        err = abs(abs(z) - target)
        if err <= tol:
            continue
        if err <= 10 * tol:
            boundary.append(z)
        else:
            offending.append(z)
    if offending:
        verdict = "non_tempered_witness"
    elif boundary:
        verdict = "inconclusive"
        notes.append("roots within 10*tol of the critical modulus: boundary case")
    else:
        verdict = "ramanujan"

    expected_deg = None
    if counts is not None:
        n0, n1, _ = counts
        expected_deg = n1 - 3 * n0 + 6
        if p1.degree != expected_deg:
            notes.append(
                f"deg P1 = {p1.degree} differs from N1 - 3*N0 + 6 = {expected_deg}")

    return RHReport(
        q=q, chi=chi,
        euler_factor_exponent=e_num,
        den_euler_factor_exponent=e_den,
        pole_factor_found=e_pole >= 1,
        exponent_matches_chi=exponent_matches,
        P1_roots=p1_roots, P2_roots=p2_roots,
        p1_degree=p1.degree if p1.degree >= 0 else 0,
        p1_degree_expected=expected_deg,
        offending_roots=tuple(offending),
        boundary_roots=tuple(boundary),
        verdict=verdict, tolerance=tol,
        notes=tuple(notes),
    )
