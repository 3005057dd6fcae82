"""Brute-force enumeration of closed positive geodesics and galleries.

This module is the independent oracle for the linear-algebra layer: it walks
the successor lists of ``operators.transitions`` directly (depth-first, no
matrices) to count based closed paths, decomposes them into rotation
classes with primitive lengths and powers, and assembles the length series
and the product over primitive classes.  The walks keep an explicit stack of
successor iterators, so no order is bounded by Python's recursion limit.

A closed path never leaves the strongly connected component of its start,
so the classes are found from the components that ``operators`` memoizes
next to the relation, in the relation's own node indices.  A component in
which every node has one successor inside it is a cycle of length l: it is
one primitive class, and its powers up to the order, read off with no walk.
The walk starts only at the nodes of the other components: from such a
start it never leaves the start's component, since the return-distance
prune below refuses every node that cannot get back to the start.

The walk finds a component's rotation classes, each as its lexicographically
smallest rotation, a necklace.  It roots each class at its smallest node, as
in Johnson's circuit enumeration (SIAM J. Comput. 4, 1975): the walk from
a start s visits only nodes >= s.  Every prefix of a necklace is a
prenecklace, and the FKM necklace generation (Fredricksen and Maiorana,
Discrete Math. 23, 1978; Fredricksen and Kessler, Discrete Math. 61, 1986)
decides that one node at a time, in the form of Cattell, Ruskey, Sawada,
Serra and Miers (J. Algorithms 37, 2000): if p is the length of the longest
Lyndon prefix of a prenecklace a of length t, then a + (w,) is a prenecklace
exactly when w >= a[t - p], with longest Lyndon prefix p if w == a[t - p]
and t + 1 if w is larger.  The walk carries p per depth and steps only
through prenecklaces, so no prefix that no class starts with is extended; a
closed trail is a necklace exactly when p divides t, and p is then its
minimal period.  One backward breadth-first search per s gives each node's
return distance to s through nodes > s; the walk steps into a node only if
that distance fits in the steps left, which cuts every prefix that cannot
close in time.  Two consumers read the classes.  ``closed_paths`` counts N
and P as they come (a class of primitive length d has d based rotations) and
keeps no class.  ``enumerate_primitive_classes`` sorts the classes and
builds one ``GeodesicClass`` per class, with node representatives; only it,
and so ``btz count``, builds class objects.  ``count_closed_paths`` is the
unpruned count-only walk, kept as the plain oracle.

The Euler product over the primitive classes and its log-derivative are
each written once: ``product_of_primitive_counts`` multiplies the factors
(1 - u^d)^P[d] with the one polynomial product of ``polynomials``, and
``_divisor_sums`` turns primitive counts P into closed-path counts
N[m] = sum_{d | m} d P[d].  The geometric oracle for apartment tori counts
the primitive classes from plane geometry alone (``torus_primitive_counts``)
and its closed-path counts are their divisor sums (``torus_trace_counts``).

Enumeration cost grows exponentially with the order (for the rooted walk,
with the number of prenecklaces that can still close), so the order defaults
to 12.  The library walks any order >= 1; the cap on what a command may ask
for is the CLI's (``cli.ORDER_CAP``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import TypedComplex
from .generators import POSITIVE_DIRECTIONS, ApartmentSpec
from .operators import (_check_kind, _relation_components, _successor_lists, directed_edges,
                        pointed_chambers, transitions)
from .polynomials import PowerSeriesPrefix, _cycle_factor, _sparse_product

__all__ = [
    "GeodesicClass",
    "DEFAULT_ORDER",
    "closed_paths",
    "count_closed_paths",
    "enumerate_primitive_classes",
    "primitive_counts",
    "primitive_product",
    "product_of_primitive_counts",
    "assemble_S_series",
    "torus_trace_counts",
    "torus_primitive_counts",
]

DEFAULT_ORDER = 12


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


def _walk_relation(c: TypedComplex, max_length: int, kind: str) -> None:
    """The order check, then ``transitions(c, kind)``, which checks the kind and closedness."""
    if max_length < 1:
        raise ValueError("max length must be >= 1")
    transitions(c, kind)


def count_closed_paths(c: TypedComplex, max_length: int, kind: str = "edge") -> list[int]:
    """N[m] = number of based closed paths of length m, for 1 <= m <= max_length.

    Pure depth-first enumeration over the transition relation; the result
    list is indexed by length (entry 0 is unused and zero).
    """
    _walk_relation(c, max_length, kind)
    out = _successor_lists(c, kind)
    counts = [0] * (max_length + 1)
    for s in range(len(out)):
        stack = [iter(out[s])]  # the continuations still to try at each depth
        while stack:
            for w in stack[-1]:
                if w == s:
                    counts[len(stack)] += 1
                if len(stack) < max_length:
                    stack.append(iter(out[w]))
                    break
            else:
                stack.pop()
    return counts


def _return_distances(pred: list[list[int]], s: int, max_length: int) -> dict[int, int]:
    """Fewest steps from each node v > s back to s through nodes > s (s itself: 0).

    Breadth-first over the predecessors; nodes that cannot reach s within
    max_length - 1 steps are absent.
    """
    dist = {s: 0}
    frontier = [s]
    for d in range(1, max_length):
        reached = []
        for w in frontier:
            for v in pred[w]:
                if v > s and v not in dist:
                    dist[v] = d
                    reached.append(v)
        frontier = reached
    return dist


def _closed_walks(out: tuple, max_length: int, starts=None):
    """Yield (index trail, minimal period) once per rotation class, in walk order.

    ``out`` is the successor index lists of ``transitions(c, kind)``.  The
    trail is the class's lexicographically smallest rotation, a necklace; the
    walk steps only through prenecklaces, carrying the length of each
    prefix's longest Lyndon prefix (see the module docstring).  Only the
    classes whose smallest node is in ``starts`` (default: every node) are
    walked.
    """
    pred: list[list[int]] = [[] for _ in out]
    for i, ys in enumerate(out):
        for j in ys:
            pred[j].append(i)
    for s in range(len(out)) if starts is None else starts:
        dist = _return_distances(pred, s, max_length)
        trail = [s]
        lyn = [1]  # longest Lyndon prefix of the trail, one entry per depth
        stack = [iter(out[s])]  # the continuations still to try after each trail node
        while stack:
            t, p = len(trail), lyn[-1]
            low = trail[t - p]  # the least next node that keeps a prenecklace
            left = max_length - t  # steps left after the next one
            for w in stack[-1]:
                if w < low:
                    continue
                if w == s:  # then low == s, as in every necklace trail
                    if not t % p:
                        yield tuple(trail), p
                    if not left:
                        continue
                elif dist.get(w, max_length) > left:
                    continue
                trail.append(w)
                lyn.append(p if w == low else t + 1)
                stack.append(iter(out[w]))
                break
            else:
                stack.pop()
                trail.pop()
                lyn.pop()


def _classes(c: TypedComplex, kind: str, max_length: int):
    """Yield (index trail, minimal period) once per rotation class of length <= max_length.

    The trail is the class's smallest rotation in the node indices of
    ``transitions(c, kind)``.  A cycle component of length l gives its trail
    from its smallest node repeated k times, with period l, for each k * l
    <= max_length, with no walk.  Then ``_closed_walks`` runs on the
    successor lists from the nodes of the other components, ``rest``.
    """
    cycles, rest = _relation_components(c, kind)
    for cycle in cycles:
        for k in range(1, max_length // len(cycle) + 1):
            yield cycle * k, len(cycle)
    if rest:  # none on a torus: no walk, not even its successor lists
        yield from _closed_walks(_successor_lists(c, kind), max_length, rest)


def closed_paths(c: TypedComplex, max_length: int,
                 kind: str = "edge") -> tuple[list[int], list[int]]:
    """(N, P) for lengths 1..max_length, read off the relation's components.

    N[m] is the number of based closed paths of length m, as from
    ``count_closed_paths``; P[m] is the number of primitive classes of length
    m, as ``primitive_counts`` gives from the classes.  Both are counted as
    the classes come (see ``_classes``): a class of length m and primitive
    length d adds d to N[m], and 1 to P[m] when d = m.  No class object is
    built.
    """
    _walk_relation(c, max_length, kind)
    N = [0] * (max_length + 1)
    P = [0] * (max_length + 1)
    for trail, period in _classes(c, kind, max_length):
        N[len(trail)] += period
        if period == len(trail):
            P[period] += 1
    return N, P


def enumerate_primitive_classes(c: TypedComplex, max_length: int,
                                kind: str = "edge") -> list[GeodesicClass]:
    """One class per rotation class of closed paths of length <= max_length, sorted.

    Each class holds its lexicographically smallest rotation as representative
    (nodes of ``directed_edges`` resp. ``pointed_chambers``, which compare
    like their indices in ``transitions(c, kind)``), annotated with its
    minimal period (primitive length) and the power it is of the underlying
    primitive class.
    """
    _walk_relation(c, max_length, kind)
    reps = sorted(_classes(c, kind, max_length))
    nodes = directed_edges(c) if kind == "edge" else pointed_chambers(c)
    return [GeodesicClass(length=len(rep), primitive_length=period,
                          power=len(rep) // period,
                          representative=tuple(nodes[i] for i in rep))
            for rep, period in reps]


def primitive_counts(classes, max_length: int) -> list[int]:
    """P[m] = number of primitive classes of length m (index = length)."""
    P = [0] * (max_length + 1)
    for g in classes:
        if g.power == 1 and g.length <= max_length:
            P[g.length] += 1
    return P


def product_of_primitive_counts(P: list[int], max_length: int) -> PowerSeriesPrefix:
    """Truncation of prod over lengths d of (1 - u^d)^P[d].

    P[d] is the number of primitive classes of length d, for 1 <= d <=
    max_length, as ``closed_paths`` counts it.
    """
    return PowerSeriesPrefix(_sparse_product(
        (_cycle_factor(d, P[d], max_length) for d in range(1, max_length + 1) if P[d]),
        max_length), max_length)


def _divisor_sums(P: list[int]) -> list[int]:
    """D[m] = sum_{d | m} d P[d], the coefficients of -u d/du log prod_d (1 - u^d)^P[d].

    A primitive class of length d gives d based closed paths at every
    multiple of d, so D is the closed-path count N of the classes P counts.
    """
    D = [0] * len(P)
    for d in range(1, len(P)):
        for m in range(d, len(P), d):
            D[m] += d * P[d]
    return D


def primitive_product(classes, max_length: int) -> PowerSeriesPrefix:
    """Truncation of prod over primitive classes of (1 - u^length).

    ``product_of_primitive_counts`` of the classes' ``primitive_counts``: a
    class longer than max_length leaves the prefix as it is.
    """
    return product_of_primitive_counts(primitive_counts(classes, max_length), max_length)


def assemble_S_series(classes, max_length: int) -> PowerSeriesPrefix:
    """Length series: sum of primitive_length * u^length over all classes.

    The coefficient of u^m equals the based closed-path count N[m] (each
    class of primitive length d contributes d).
    """
    coeffs = [0] * (max_length + 1)
    for g in classes:
        if g.length <= max_length:
            coeffs[g.length] += g.primitive_length
    return PowerSeriesPrefix(coeffs, max_length)


# ---------------------------------------------------------------------------
# geometric oracle for apartment torus quotients
# ---------------------------------------------------------------------------


def _direction_period(spec: ApartmentSpec, det: int, direction: tuple[int, int]) -> int:
    """Minimal k >= 1 with k * direction inside the quotient lattice of determinant det."""
    (a, c), (b, d) = spec.columns
    # adjugate solve: x = adj(B) * direction / det must become integral
    u = d * direction[0] - b * direction[1]
    v = -c * direction[0] + a * direction[1]
    return math.lcm(Fraction(u, det).denominator, Fraction(v, det).denominator)


def torus_primitive_counts(basis, max_length: int, kind: str = "edge") -> list[int]:
    """Primitive class counts for a torus quotient, from plane geometry alone.

    Along a positive direction of period s there are |det|/s primitive
    classes: straight lines of length s, resp. chamber strips of 2*s
    crossings.  No transition relation is involved: this is the independent
    geometric count.
    """
    _check_kind(kind)
    spec = ApartmentSpec(basis)
    det = spec.det
    if det == 0:
        raise ValueError("degenerate torus basis")
    P = [0] * (max_length + 1)
    for direction in POSITIVE_DIRECTIONS:
        s = _direction_period(spec, det, direction)
        length = s if kind == "edge" else 2 * s
        if length <= max_length:
            P[length] += abs(det) // s
    return P


def torus_trace_counts(basis, max_length: int, kind: str = "edge") -> list[int]:
    """Based closed path counts for a torus quotient: the divisor sums of its primitive counts."""
    return _divisor_sums(torus_primitive_counts(basis, max_length, kind))
