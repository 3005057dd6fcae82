"""Zeta polynomials of the two transfer operators and their ratio.

``zeta_edge`` and ``zeta_chamber`` are the reverse characteristic polynomials
det(I - u T) of the edge and chamber operators, computed as det(I - u^3 X)
from the three-step operator X on the smallest type grade (see
``operators``); both are products of
(1 - u^length) over the primitive closed positive geodesics resp. galleries,
which is what the duality tests in the suite check coefficient by
coefficient.  ``ratio_of`` forms the normalized rational function
chamber(-u) / edge(u^2) (sign convention switchable) from the two
polynomials; ``ratio`` computes them from a complex first.
"""

from __future__ import annotations

from .complexes import TypedComplex
from .operators import three_step_operator
from .polynomials import IntPolynomial, RationalFn, char_poly_reverse

__all__ = ["zeta_edge", "zeta_chamber", "ratio", "ratio_of"]


def zeta_edge(c: TypedComplex) -> IntPolynomial:
    """det(I - u T) for the positive-edge transfer operator T."""
    return char_poly_reverse(three_step_operator(c, "edge")).subst_u_power(3)


def zeta_chamber(c: TypedComplex) -> IntPolynomial:
    """det(I - u L) for the pointed-chamber transfer operator L.

    A closed complex without chambers yields the constant polynomial 1.
    """
    return char_poly_reverse(three_step_operator(c, "gallery")).subst_u_power(3)


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
