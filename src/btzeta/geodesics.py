"""Brute-force enumeration of closed positive geodesics and galleries.

This module is the independent oracle for the linear-algebra layer: it walks
the relation of ``operators.transitions`` directly (no matrices) to count
based closed paths, decomposes them into rotation classes with primitive
lengths and powers, and assembles the length series and the product over
primitive classes.  No walk recurses, so no order is bounded by Python's
recursion limit.

A closed path never leaves the strongly connected component of its start,
so the classes are found from the components that ``operators`` memoizes
in one entry with the relation, in the relation's own node indices.  A
component in which every node has one successor inside it is a cycle of
length l: it is one primitive class, and its powers up to the order, read
off with no walk.  The walk starts only at the nodes of the other
components: from such a start it never leaves the start's component, since
the return-distance prune below refuses every node that cannot get back to
the start.

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
and t + 1 if w is larger.  The walk carries p per trail and steps only
through prenecklaces, so no prefix that no class starts with is extended; a
closed trail is a necklace exactly when p divides t, and p is then its
minimal period.  It steps into a node only if the node's return distance to
s through nodes > s fits in the steps left, which cuts every prefix that
cannot close in time.

The walk runs level by level in whole-array passes over the relation's CSR
arrays, for all starts at once.  A frontier row holds a start, its trail
(a row of an (R, t) integer array) and p; one level gathers the successors
of every row (``np.repeat`` over the out-degrees), keeps the steps both
rules allow and counts the closures.  The frontier goes through in chunks
of ``_CHUNK`` rows, depth first, so its memory grows with the chunk size,
the order and the out-degree, not with the number of prefixes.  The return
distances come before the walk, from one backward breadth-first search on
rows of bits, one bit per start: a (nodes x starts) matrix, taken in blocks
of starts of at most ``_BLOCK`` entries.  Two consumers read the classes
chunk by chunk.  ``closed_paths`` sums N and P from the closing periods (a
class of primitive length d has d based rotations) and keeps no trail.
``enumerate_primitive_classes`` collects the closing trails, sorts them and
builds one ``GeodesicClass`` per class, with node representatives; only it,
and so ``btz count``, builds class objects.  ``count_closed_paths`` is the
unpruned count-only walk on successor lists taken from the CSR, one node at
a time, kept as the plain oracle.

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

import numpy as np

from .complexes import TypedComplex
from .generators import POSITIVE_DIRECTIONS, ApartmentSpec
from .operators import (_check_kind, _ranges, _relation_components, directed_edges,
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


def _walk_relation(c: TypedComplex, max_length: int, kind: str):
    """The order check, then the relation ``transitions(c, kind)``, which checks the kind
    and closedness."""
    if max_length < 1:
        raise ValueError("max length must be >= 1")
    return transitions(c, kind)


def count_closed_paths(c: TypedComplex, max_length: int, kind: str = "edge") -> list[int]:
    """N[m] = number of based closed paths of length m, for 1 <= m <= max_length.

    Pure depth-first enumeration over the transition relation; the result
    list is indexed by length (entry 0 is unused and zero).
    """
    indptr, indices, _ = _walk_relation(c, max_length, kind)
    flat, ptr = indices.tolist(), indptr.tolist()
    out = [flat[a:b] for a, b in zip(ptr, ptr[1:])]
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


_CHUNK = 8192  # frontier rows expanded at once
_BLOCK = 1 << 20  # return distances (nodes x starts) held at once


def _return_distances(indptr: np.ndarray, indices: np.ndarray, starts: np.ndarray,
                      max_length: int) -> np.ndarray:
    """dist[v, i]: the fewest steps from v back to starts[i] through nodes > starts[i].

    One backward breadth-first search for all starts at once, on rows of
    bits (one bit per start): a level ORs each node's successor rows by one
    gather and one ``reduceat`` over the CSR.  dist[starts[i], i] is 0; a
    node that cannot get back within max_length - 1 steps reads max_length,
    which the dtype holds.
    """
    n, k = len(indptr) - 1, len(starts)
    sources = np.flatnonzero(np.diff(indptr))
    dist = np.full((n, k), max_length, np.min_scalar_type(max_length))
    dist[starts, np.arange(k)] = 0
    frontier = np.packbits(dist == 0, axis=1, bitorder="little")
    unseen = np.packbits(np.arange(n)[:, None] > starts, axis=1, bitorder="little")
    for d in range(1, max_length):
        reached = np.zeros_like(frontier)
        reached[sources] = np.bitwise_or.reduceat(frontier[indices], indptr[sources], axis=0)
        reached &= unseen
        if not reached.any():
            break
        dist[np.unpackbits(reached, axis=1, count=k, bitorder="little").view(bool)] = d
        unseen ^= reached
        frontier = reached
    return dist


def _frontier_walk(indptr: np.ndarray, indices: np.ndarray, starts, max_length: int):
    """Yield (trails, periods) per frontier chunk, each rotation class once.

    Walks the CSR relation (node i's successors are indices[indptr[i]:
    indptr[i + 1]], as ``transitions`` gives them) from the nodes
    ``starts``, level by level and chunk by chunk, depth first (see the
    module docstring).  ``trails`` holds one row per class of length t
    that closes in the chunk, each as its lexicographically smallest
    rotation, and ``periods`` holds their minimal periods.
    """
    starts = np.asarray(starts, dtype=np.int64)
    degree = np.diff(indptr)
    node = np.min_scalar_type(len(indptr) - 2)  # the trails' dtype, the least for a node
    size = max(1, _BLOCK // len(indptr))
    for b in range(0, len(starts), size):
        block = starts[b:b + size]
        k = len(block)
        dist = _return_distances(indptr, indices, block, max_length).ravel()  # [v * k + i]
        # a frontier row: its start's index i in the block, its trail, and p,
        # the length of the trail's longest Lyndon prefix
        stack = [(np.arange(k), block[:, None].astype(node), np.ones(k, np.int64))]
        while stack:
            row, trail, p = stack.pop()
            if len(row) > _CHUNK:  # the rest waits on the stack
                stack.append((row[_CHUNK:], trail[_CHUNK:], p[_CHUNK:]))
                row, trail, p = row[:_CHUNK], trail[:_CHUNK], p[:_CHUNK]
            t = trail.shape[1]
            first, count = indptr[trail[:, -1]], degree[trail[:, -1]]
            at = np.repeat(np.arange(len(row)), count)  # each successor's frontier row
            w, p, row = indices[_ranges(first, count)], p[at], row[at]
            low = trail.ravel()[at * t + t - p]  # the least w that keeps a prenecklace
            keep = w >= low
            close = keep & (w == block[row]) & (t % p == 0)
            if close.any():
                yield trail[at[close]], p[close]
            if t < max_length:  # a step's return distance must fit the steps left
                step = np.flatnonzero(keep & (dist[w * k + row] <= max_length - t))
                at, w = at[step], w[step]
                stack.append((row[step], np.column_stack((trail[at], w.astype(node))),
                              np.where(w == low[step], p[step], t + 1)))


def closed_paths(c: TypedComplex, max_length: int,
                 kind: str = "edge") -> tuple[list[int], list[int]]:
    """(N, P) for lengths 1..max_length, read off the relation's components.

    N[m] is the number of based closed paths of length m, as from
    ``count_closed_paths``; P[m] is the number of primitive classes of length
    m, as ``primitive_counts`` gives from the classes.  A cycle component of
    length l is one primitive class, whose powers give N its divisor sums;
    the walk's classes are summed per chunk as they close: a class of length
    m and primitive length d adds d to N[m], and 1 to P[m] when d = m.  No
    trail is kept and no class object is built.
    """
    indptr, indices, _ = _walk_relation(c, max_length, kind)
    cycles, rest = _relation_components(c, kind)
    P = [0] * (max_length + 1)
    for cycle in cycles:
        if len(cycle) <= max_length:
            P[len(cycle)] += 1
    N = _divisor_sums(P)
    if rest:  # none on a torus: no walk
        for trails, periods in _frontier_walk(indptr, indices, rest, max_length):
            t = trails.shape[1]
            N[t] += int(periods.sum())
            P[t] += int(np.count_nonzero(periods == t))
    return N, P


def enumerate_primitive_classes(c: TypedComplex, max_length: int,
                                kind: str = "edge") -> list[GeodesicClass]:
    """One class per rotation class of closed paths of length <= max_length, sorted.

    Each class holds its lexicographically smallest rotation as representative
    (nodes of ``directed_edges`` resp. ``pointed_chambers``, which compare
    like their indices in ``transitions(c, kind)``), annotated with its
    minimal period (primitive length) and the power it is of the underlying
    primitive class.  The cycle components give their powers with no walk;
    the walk, from the nodes of the other components, gives the rest.
    """
    indptr, indices, _ = _walk_relation(c, max_length, kind)
    cycles, rest = _relation_components(c, kind)
    reps = [(cycle * k, len(cycle)) for cycle in cycles
            for k in range(1, max_length // len(cycle) + 1)]
    if rest:
        for trails, periods in _frontier_walk(indptr, indices, rest, max_length):
            reps.extend(zip(map(tuple, trails.tolist()), periods.tolist()))
    reps.sort()
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
