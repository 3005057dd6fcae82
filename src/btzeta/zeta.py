"""Zeta polynomials of the two transfer operators and their ratio.

``zeta_edge`` and ``zeta_chamber`` are the reverse characteristic polynomials
det(I - u T) of the edge and chamber operators, one factor per strongly
connected component of the relation (see ``operators``): 1 - u^length for
each component that is a cycle, and det(I - u^3 X) for the three-step
operator X on the smallest type grade of all the others, so one
characteristic polynomial per kind, 0x0 on a torus.  The m cycles of one
length l give one binomial factor (1 - u^l)^m (``polynomials._cycle_factor``),
and ``polynomials._sparse_product`` multiplies the factors.  Both zetas are
products of (1 - u^length) over the primitive closed positive geodesics
resp. galleries, which is what the duality tests in the suite check
coefficient by coefficient.  ``ratio_of`` forms the normalized rational function
chamber(-u) / edge(u^2) (sign convention switchable) from the two
polynomials; ``ratio`` computes them from a complex first.
"""

from __future__ import annotations

from collections import Counter

from .complexes import TypedComplex
from .operators import _relation_components, _three_step
from .polynomials import (IntPolynomial, RationalFn, _cycle_factor, _sparse_product,
                          char_poly_reverse)

__all__ = ["zeta_edge", "zeta_chamber", "ratio", "ratio_of"]


def _zeta(c: TypedComplex, kind: str) -> IntPolynomial:
    """det(I - u T), one factor per cycle length and one for all the other components.

    A cycle component of length l gives 1 - u^l, so the m cycles of one
    length give (1 - u^l)^m (``_cycle_factor``).  The other components give
    det(I - u^3 X) for the three-step operator X on their nodes, ``rest``
    (0x0 when there are none), an integer array passed to
    ``char_poly_reverse`` as it is.
    """
    cycles, rest = _relation_components(c, kind)
    x = _three_step(c, kind, rest)
    return IntPolynomial(_sparse_product([
        [(3 * i, a) for i, a in enumerate(char_poly_reverse(x).coeffs)],
        *(_cycle_factor(length, m) for length, m in Counter(map(len, cycles)).items())]))


def zeta_edge(c: TypedComplex) -> IntPolynomial:
    """det(I - u T) for the positive-edge transfer operator T.

    A closed complex without edges yields the constant polynomial 1.
    """
    return _zeta(c, "edge")


def zeta_chamber(c: TypedComplex) -> IntPolynomial:
    """det(I - u L) for the pointed-chamber transfer operator L.

    A closed complex without chambers yields the constant polynomial 1.
    """
    return _zeta(c, "gallery")


def ratio_of(z1: IntPolynomial, z2: IntPolynomial, negate_u: bool = True) -> RationalFn:
    """Normalized ratio z2(-u) / z1(u^2) of the edge zeta z1 and chamber zeta z2.

    With ``negate_u=False`` the chamber polynomial is taken at +u instead;
    both sign conventions are exposed so downstream comparisons can record
    which one matches the primitive-geodesic product on a given input.
    """
    return RationalFn(z2.subst_neg_u() if negate_u else z2, z1.subst_u_power(2))


def ratio(c: TypedComplex, negate_u: bool = True) -> RationalFn:
    """``ratio_of`` the two zeta polynomials of c."""
    return ratio_of(zeta_edge(c), zeta_chamber(c), negate_u)
