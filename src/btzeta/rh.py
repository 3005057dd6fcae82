"""Exact Ramanujan classification of zeta ratios, with root moduli reported.

The classifier extracts the structural factors of a building-quotient zeta
ratio exactly -- powers of (1 - u^3) from the numerator (expected exponent:
Euler characteristic minus one) and (1 - q^3 u^3) plus any (1 - u^3) from the
denominator -- and then tests the residual polynomials.  A quotient is
flagged ``ramanujan`` when every residual root has modulus q^(-1/2)
(equivalently, all inverse roots sit on the circle of radius sqrt(q)), and a
``non_tempered_witness`` otherwise; complexes without a meaningful q (q
absent or q = 1) are ``inconclusive`` by policy.

The verdict is exact: one integer test per residual (``_tempered``: a
reciprocity check and a Sturm count).  Floating point enters only in the
reported roots and their margins.
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


def polynomial_roots(p: IntPolynomial) -> list[complex]:
    """All complex roots (with multiplicity) of a nonzero integer polynomial.

    The roots of each factor of p's square-free decomposition are the
    eigenvalues of its companion matrix (``np.roots``), found once and
    repeated by its multiplicity, so a repeated root is never sought as a
    cluster; a square-free p is its own one factor.  They serve reports
    only: no verdict reads them (see ``_tempered``).  Deterministic for
    identical inputs.  A coefficient, or a power of a root, beyond float
    range raises ValueError.
    """
    if p.is_zero():
        raise ValueError("root finding needs a nonzero polynomial")
    roots = []
    for factor, m in _square_free_factors(p):
        try:
            found = np.roots([float(c) for c in reversed(factor.coeffs)])
        except OverflowError:
            raise ValueError("root finding needs coefficients that fit a float") from None
        try:
            math.pow(float(np.abs(found).max()), factor.degree)
        except OverflowError:
            raise ValueError("root finding needs roots whose powers fit a float") from None
        roots += sorted(map(complex, found),
                        key=lambda z: (round(z.real, 12), round(z.imag, 12))) * m
    return roots


def _sturm_count(p: IntPolynomial, a: int, b: int) -> int:
    """The number of distinct real roots of the square-free p in (a, b] (Sturm).

    The sequence p, p', -rem, ... takes each pseudo-remainder of f by g
    scaled by |lc(g)|^(deg f - deg g + 1) and divided by its positive
    content, so every term keeps the sign of Sturm's own.
    """
    seq = [p, p.derivative()]
    while seq[-1].degree > 0:
        f, g = seq[-2], seq[-1]
        rem = f.scale(abs(g.coeffs[-1]) ** (f.degree - g.degree + 1)).divmod_exact(g)[1]
        content = rem.content()
        seq.append(IntPolynomial(-c // content for c in rem.coeffs))

    def sign_changes(x: int) -> int:
        signs = [v > 0 for v in (f.eval(x) for f in seq) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return sign_changes(a) - sign_changes(b)


def _square_free_part(p: IntPolynomial) -> IntPolynomial:
    return p.divmod_exact(poly_gcd(p, p.derivative()))[0]


def _tempered(p: IntPolynomial, q: int) -> bool:
    """Whether every root of the nonzero integer polynomial p has modulus q^(-1/2).

    Exact, on integers only (A. Cohn, Math. Z. 14, 1922).  The square-free
    part S, less its roots +-q^(-1/2) (the factor 1 - q u^2, or 1 -+ sqrt(q) u
    when q is a square), has its roots on the circle only if u -> 1/(qu)
    permutes them: its degree is 2k and c_{k+m} = q^m c_{k-m}.  Then
    u^(-k) S(u) = c_k + sum_{m>=1} c_{k-m} W_m(y) with y = qu + 1/u and
    W_m = (qu)^m + u^(-m), so W_1 = y and W_m = y W_{m-1} - q W_{m-2}.  A root
    lies on the circle exactly when its y is real in [-2 sqrt(q), 2 sqrt(q)].
    With R(y) = E(y^2) + y O(y^2), T(s) = E(s)^2 - s O(s)^2 has the roots y^2,
    and they all lie in [0, 4q] exactly when T's square-free part has as many
    distinct roots there as its degree.
    """
    s = _square_free_part(p)
    r = math.isqrt(q)
    for f in ([(1, -r), (1, r)] if r * r == q else [(1, 0, -q)]):
        s = s.divide_exact(IntPolynomial(f)) or s
    c, k = s.coeffs, s.degree // 2
    if s.degree % 2 or any(c[k + m] != q ** m * c[k - m] for m in range(1, k + 1)):
        return False
    poly_r, w_before, w = [c[k]] + [0] * k, [2], [0, 1]
    for m in range(1, k + 1):
        for j, a in enumerate(w):
            poly_r[j] += c[k - m] * a
        w_next = [0] + w
        for j, a in enumerate(w_before):
            w_next[j] -= q * a
        w_before, w = w, w_next
    even, odd = IntPolynomial(poly_r[0::2]), IntPolynomial(poly_r[1::2])
    t = _square_free_part(even * even - IntPolynomial.monomial(1) * odd * odd)
    return _sturm_count(t, 0, 4 * q) + (t[0] == 0) == t.degree


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
    a missing pole factor are recorded in the report, never raised.  The
    verdict is exact (``_tempered``).  The reported roots are float; those
    farther than ``10*tol`` from modulus q^(-1/2) are listed as offending,
    and those farther than ``tol`` but within ``10*tol`` as boundary roots.
    A zero numerator or denominator, or a residual coefficient or root power
    beyond float range, raises ``ValueError``.
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

    p1_roots = tuple(polynomial_roots(p1))
    p2_roots = tuple(polynomial_roots(p2))
    verdict = "ramanujan" if _tempered(p1, q) and _tempered(p2, q) else "non_tempered_witness"

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
        p1_degree=p1.degree,
        p1_degree_expected=expected_deg,
        offending_roots=tuple(offending),
        boundary_roots=tuple(boundary),
        verdict=verdict, tolerance=tol,
        notes=tuple(notes),
    )
