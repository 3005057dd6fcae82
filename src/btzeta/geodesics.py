"""Brute-force enumeration of closed positive geodesics and galleries.

This module is the independent oracle for the linear-algebra layer: it walks
the transition relation of ``operators.transitions`` directly (depth-first,
no matrices) to count based closed paths, decomposes them into rotation
classes with primitive lengths and powers, and assembles the length series
and the product over primitive classes.  ``closed_paths`` does the counting
and the class collection in one walk; ``count_closed_paths`` is the
count-only walk, kept as the plain oracle.

Enumeration cost grows exponentially with the order, so the order defaults
to 12 and is capped at 20 unless explicitly overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import TypedComplex
from .generators import POSITIVE_DIRECTIONS
from .operators import transitions
from .polynomials import IntPolynomial, PowerSeriesPrefix

__all__ = [
    "GeodesicClass",
    "DEFAULT_ORDER",
    "ORDER_CAP",
    "closed_paths",
    "count_closed_paths",
    "enumerate_primitive_classes",
    "primitive_counts",
    "primitive_product",
    "assemble_S_series",
    "torus_trace_counts",
    "torus_primitive_counts",
]

DEFAULT_ORDER = 12
ORDER_CAP = 20


@dataclass(frozen=True)
class GeodesicClass:
    """Rotation class of a closed positive path (edge) or gallery (chamber)."""

    length: int
    primitive_length: int
    power: int
    representative: tuple

    def __post_init__(self):
        if self.length != self.power * self.primitive_length:
            raise ValueError("length must equal power * primitive_length")


def _check_order(max_length: int, allow_large: bool) -> None:
    if max_length < 1:
        raise ValueError("max length must be >= 1")
    if max_length > ORDER_CAP and not allow_large:
        raise ValueError(
            f"enumeration order {max_length} exceeds the cap {ORDER_CAP}; "
            "pass allow_large=True to override (cost grows exponentially)")


def count_closed_paths(c: TypedComplex, max_length: int, kind: str = "edge",
                       allow_large: bool = False) -> list[int]:
    """N[m] = number of based closed paths of length m, for 1 <= m <= max_length.

    Pure depth-first enumeration over the transition relation; the result
    list is indexed by length (entry 0 is unused and zero).
    """
    _check_order(max_length, allow_large)
    if c.boundary:
        raise ValueError("closed-path counts are defined for closed complexes only")
    nodes, succ = transitions(c, kind)
    counts = [0] * (max_length + 1)

    def walk(start, v, depth):
        for w in succ[v]:
            if w == start:
                counts[depth + 1] += 1
            if depth + 1 < max_length:
                walk(start, w, depth + 1)

    for s in nodes:
        walk(s, s, 0)
    return counts


def _min_rotation(seq: tuple) -> tuple:
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


def _min_period(seq: tuple) -> int:
    n = len(seq)
    for d in range(1, n + 1):
        if n % d == 0 and seq == seq[d:] + seq[:d]:
            return d
    return n


def closed_paths(c: TypedComplex, max_length: int, kind: str = "edge",
                 allow_large: bool = False) -> tuple[list[int], list[GeodesicClass]]:
    """(N, classes) from one depth-first walk, for lengths 1..max_length.

    N is indexed by length like ``count_closed_paths``; classes holds one
    representative per rotation-equivalence class, annotated with its minimal
    period (primitive length) and the power it is of the underlying primitive
    class.
    """
    _check_order(max_length, allow_large)
    if c.boundary:
        raise ValueError("closed-path enumeration is defined for closed complexes only")
    nodes, succ = transitions(c, kind)
    counts = [0] * (max_length + 1)
    seen: set[tuple] = set()

    def walk(start, v, depth, trail):
        for w in succ[v]:
            if w == start:
                counts[depth + 1] += 1
                seen.add(_min_rotation(tuple(trail)))
            if depth + 1 < max_length:
                trail.append(w)
                walk(start, w, depth + 1, trail)
                trail.pop()

    for s in nodes:
        walk(s, s, 0, [s])
    classes = []
    for rep in sorted(seen):
        d = _min_period(rep)
        classes.append(GeodesicClass(
            length=len(rep), primitive_length=d, power=len(rep) // d,
            representative=rep))
    return counts, classes


def enumerate_primitive_classes(c: TypedComplex, max_length: int, kind: str = "edge",
                                allow_large: bool = False) -> list[GeodesicClass]:
    """The rotation classes of ``closed_paths``."""
    return closed_paths(c, max_length, kind, allow_large)[1]


def primitive_counts(classes, max_length: int) -> list[int]:
    """P[m] = number of primitive classes of length m (index = length)."""
    P = [0] * (max_length + 1)
    for g in classes:
        if g.power == 1 and g.length <= max_length:
            P[g.length] += 1
    return P


def primitive_product(classes, max_length: int) -> PowerSeriesPrefix:
    """Truncation of prod over primitive classes of (1 - u^length)."""
    acc = IntPolynomial.one()
    for g in classes:
        if g.power != 1 or g.length > max_length:
            continue
        factor = IntPolynomial.one() - IntPolynomial.monomial(g.length)
        acc = IntPolynomial((acc * factor).coeffs[: max_length + 1])
    return PowerSeriesPrefix([acc[m] for m in range(max_length + 1)], max_length)


def assemble_S_series(classes, max_length: int) -> PowerSeriesPrefix:
    """Length series: sum of primitive_length * u^length over all classes.

    The coefficient of u^m equals the based closed-path count N[m] (each
    class of primitive length d contributes d).
    """
    coeffs: list = [Fraction(0)] * (max_length + 1)
    for g in classes:
        if g.length <= max_length:
            coeffs[g.length] += g.primitive_length
    return PowerSeriesPrefix(coeffs, max_length)


# ---------------------------------------------------------------------------
# geometric oracle for apartment torus quotients
# ---------------------------------------------------------------------------


def _basis_columns(basis) -> tuple[tuple[int, int], tuple[int, int]]:
    (a, b), (c, d) = basis
    return (a, c), (b, d)


def _direction_period(basis, direction: tuple[int, int]) -> int:
    """Minimal k >= 1 with k * direction inside the quotient lattice."""
    (a, c), (b, d) = _basis_columns(basis)
    det = a * d - b * c
    if det == 0:
        raise ValueError("degenerate torus basis")
    # adjugate solve: x = adj(B) * direction / det must become integral
    u = d * direction[0] - b * direction[1]
    v = -c * direction[0] + a * direction[1]
    k1 = Fraction(u, det).denominator
    k2 = Fraction(v, det).denominator
    return math.lcm(k1, k2)


def torus_trace_counts(basis, max_length: int, kind: str = "edge") -> list[int]:
    """Based closed path counts for a torus quotient, from plane geometry alone.

    Straight positive lines in the tiling close up after the minimal lattice
    period s_d of their direction; every vertex lies on one line per direction
    (length s_d), and every chamber strip closes after 2*s_d crossings.  No
    transition relation is involved: this is the independent geometric count.
    """
    (a, c), (b, d) = _basis_columns(basis)
    det = abs(a * d - b * c)
    counts = [0] * (max_length + 1)
    for direction in POSITIVE_DIRECTIONS:
        s = _direction_period(basis, direction)
        period = s if kind == "edge" else 2 * s
        weight = det if kind == "edge" else 2 * det
        for m in range(period, max_length + 1, period):
            counts[m] += weight
    return counts


def torus_primitive_counts(basis, max_length: int, kind: str = "edge") -> list[int]:
    """Primitive class counts for a torus quotient, from plane geometry alone."""
    (a, c), (b, d) = _basis_columns(basis)
    det = abs(a * d - b * c)
    P = [0] * (max_length + 1)
    for direction in POSITIVE_DIRECTIONS:
        s = _direction_period(basis, direction)
        length = s if kind == "edge" else 2 * s
        if length <= max_length:
            P[length] += det // s
    return P
