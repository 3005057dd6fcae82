"""Transfer operators on directed positive edges and pointed chambers.

Positive direction: a directed edge tail->head is *positive* when
``type(head) == type(tail) + 1 (mod 3)``; every undirected edge carries
exactly one positive direction.

Edge rule (straight-line continuation).  A composable pair ``e, e2`` is a
positive step when the head of ``e2`` differs from the tail of ``e`` and the
three vertices involved do not span a chamber.  On the triangular tiling this
keeps exactly the straight continuation of a lattice line; on a complex with
local parameter q it keeps q^2 of the q^2+q+1 type-correct continuations
(the q+1 rejected ones are exactly those closing a chamber flag).

Gallery rule (straight strip crossing).  A pointed chamber ``(C, p)`` stands
for "a straight line is inside C and exits across the edge p" (p carries its
positive orientation).  The line then enters the chamber C2 on the far side
of p, and leaves C2 across the edge joining the vertex of C2 opposite to p
with the tail of p, again positively oriented:

    (C1, p1) -> (C2, p2)   iff   p1 is a common edge of C1 != C2 and
                                  p2 = (opposite vertex of C2 over p1) -> tail(p1)

This was calibrated against exact rational line-marching in the plane tiling
and against lattice-chain balls: each pointed chamber of a closed complex has
exactly q successors (one on the torus), and the traces of the operator count
straight strip crossings.

Z/3 grading.  Grade an edge by the type of its tail and a pointed chamber
by the type of its pointer's tail.  A positive step raises the grade by 1
(e2.tail = e.head) and a gallery step lowers it by 1 (p2.tail is the vertex
opposite p1, of type tail(p1) - 1).  Both operators are therefore block
3-cyclic, and

    det(I - u T) = det(I - u^3 X),    X = T^3 restricted to one grade.

X has the same nonzero eigenvalues on every grade, so
``three_step_operator`` takes the smallest one; the full operators stay as
the reference.

Strongly connected components.  det(I - u T) is the product of
det(I - u T_C) over the strongly connected components C of the relation,
and a closed path stays in one component.  A component in which every node
has exactly one successor inside it is a directed cycle of length l: one
primitive class, with factor 1 - u^l.  On an apartment torus every
component of both relations is such a cycle.  The components are found
once per complex and kind, by the Tarjan pass of ``polynomials``, and
memoized next to the relation; the zeta polynomials and the closed-path
walks both read them.  The zetas take X only on the smallest grade of the
components that are not cycles.

Both rules read one incidence, the chambers of an edge: the table
``TypedComplex`` builds once at construction.  ``transitions`` builds each
relation in one pass over it: an edge's continuations are the run of
positive edges leaving its head, less those closing a chamber on it, and a
pointed chamber's are looked up by (chamber, pointer tail).
``edge_successors`` and ``gallery_successors`` state the same rules for one
node; they serve local complexes such as balls and are the reference the
relation is tested against.

The relation refuses complexes with a marked boundary, so both operators and
both walks do: their determinant identities concern closed complexes only,
and silently truncating at the boundary would corrupt the counts.  It is the
only gate: a closed complex without edges or chambers has an empty relation,
a 0x0 operator and the zeta polynomial 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexes import TypedComplex
from .polynomials import _strong_components

__all__ = [
    "DirectedEdge",
    "PointedChamber",
    "SparseIntMatrix",
    "directed_edges",
    "pointed_chambers",
    "edge_successors",
    "gallery_successors",
    "transitions",
    "build_edge_operator",
    "build_chamber_operator",
    "three_step_operator",
]


class DirectedEdge(NamedTuple):
    """Edge traversed in the positive (type-increasing) direction."""

    tail: int
    head: int


class PointedChamber(NamedTuple):
    """Chamber plus the positively oriented edge across which it is exited."""

    chamber: tuple[int, int, int]
    pointer: DirectedEdge


@dataclass(frozen=True)
class SparseIntMatrix:
    """Integer matrix stored as (row, col) -> value over a canonical index set."""

    dim: int
    entries: tuple[tuple[int, int, int], ...]  # sorted (row, col, value) triplets

    def __init__(self, dim: int, entries):  # noqa: D107
        trip = tuple(sorted((int(r), int(c), int(v)) for r, c, v in entries if v))
        for r, c, _ in trip:
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError("matrix entry out of range")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "entries", trip)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=object)
        for r, c, v in self.entries:
            out[r, c] += v
        return out

    def trace_powers(self, max_power: int) -> list[int]:
        """Exact [tr M, ..., tr M^max_power]: each e_i pushed through the triplets in ints."""
        column: list[list[tuple[int, int]]] = [[] for _ in range(self.dim)]
        for r, c, v in self.entries:
            column[c].append((r, v))
        traces = [0] * max_power
        for i in range(self.dim):
            vec = {i: 1}
            for p in range(max_power):
                ahead: dict[int, int] = {}
                for c, x in vec.items():
                    for r, v in column[c]:
                        ahead[r] = ahead.get(r, 0) + x * v
                vec = ahead
                traces[p] += vec.get(i, 0)
        return traces

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "triplets": [list(t) for t in self.entries]}


def directed_edges(c: TypedComplex) -> list[DirectedEdge]:
    """All positive directed edges, sorted by (tail, head)."""
    out = []
    for a, b in c.edges:
        ta, tb = c.type_of[a], c.type_of[b]
        if (ta + 1) % 3 == tb:
            out.append(DirectedEdge(a, b))
        elif (tb + 1) % 3 == ta:
            out.append(DirectedEdge(b, a))
        # equal types are rejected by validation; skip silently here
    return sorted(out)


def pointed_chambers(c: TypedComplex) -> list[PointedChamber]:
    """All pointed chambers (three per chamber), sorted by (chamber, pointer).

    No sort is run: the chamber tuples are sorted and unique, and the three
    pointers of a chamber have distinct tails, so listing each chamber's
    pointers in the order of its sorted vertices is already the sorted order.
    """
    out = []
    for tri in c.chambers:
        by_type = {c.type_of[v]: v for v in tri}
        if len(by_type) != 3:
            raise ValueError(f"chamber {tri} is not typed by all three types")
        for v in tri:
            out.append(PointedChamber(tri, DirectedEdge(v, by_type[(c.type_of[v] + 1) % 3])))
    return out


def _chambers_on(c: TypedComplex, x: int, y: int) -> tuple:
    """The chambers on the edge {x, y}, in sorted order, from the complex's table."""
    return c._chambers_of_edge.get((x, y) if x < y else (y, x), ())


def edge_successors(c: TypedComplex, e: DirectedEdge) -> list[DirectedEdge]:
    """Positive continuations of e, in canonical order."""
    want = (c.type_of[e.head] + 1) % 3
    closing = {v for tri in _chambers_on(c, *e) for v in tri}
    return [DirectedEdge(e.head, w) for w in sorted(c.neighbors(e.head))
            if c.type_of[w] == want and w != e.tail and w not in closing]


def gallery_successors(c: TypedComplex, pc: PointedChamber) -> list[PointedChamber]:
    """Gallery continuations of pc, in canonical order (the table's chamber order)."""
    x, y = pc.pointer
    return [PointedChamber(tri, DirectedEdge(sum(tri) - x - y, x))
            for tri in _chambers_on(c, x, y) if tri != pc.chamber]


def _check_kind(kind: str) -> None:
    if kind not in ("edge", "gallery"):
        raise ValueError(f"unknown kind {kind!r}: expected 'edge' or 'gallery'")


def transitions(c: TypedComplex, kind: str) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """(nodes, out) of the positive ``kind`` relation, 'edge' or 'gallery'.

    nodes is the sorted tuple of ``DirectedEdge`` resp. ``PointedChamber``
    tuples, so indices compare like nodes; out[i] holds the indices of the
    continuations of nodes[i], in canonical order.  Both operators are its 0/1
    matrices and ``geodesics`` walks it.  Built once per complex and kind, in
    one pass over the nodes that reads the complex's chambers-of-edge table
    and calls no per-node rule (see the module docstring); a second call
    returns the identical object.  The one gate to the relation:
    an unknown kind, then a marked boundary, raise ValueError, memoizing nothing.
    """
    if kind in c._relations:
        return c._relations[kind]
    _check_kind(kind)
    if c.boundary:
        what = "edge operator" if kind == "edge" else "chamber operator"
        raise ValueError(
            f"{what} is undefined on complexes with marked boundary "
            f"({len(c.boundary)} boundary vertices); operators need closed complexes")
    nodes = tuple(directed_edges(c) if kind == "edge" else pointed_chambers(c))
    out = []
    if kind == "edge":
        # the positive edges leaving b are one run of the (tail, head) order;
        # (a, b) continues along those whose head is no vertex of a chamber
        # on {a, b} (such a head is never a or b: its type is type(b) + 1)
        run: dict[int, list[int]] = {}
        for i, (a, _) in enumerate(nodes):
            run.setdefault(a, []).append(i)
        for a, b in nodes:
            closing = {v for tri in _chambers_on(c, a, b) for v in tri}
            out.append(tuple([j for j in run.get(b, ()) if nodes[j][1] not in closing]))
    else:
        # (C, x -> y) crosses into each other chamber C2 on {x, y} and leaves
        # it by the pointer whose tail is C2's third vertex, sum(C2) - x - y;
        # the table lists chambers in sorted order, so these indices ascend
        at = {(tri, p[0]): i for i, (tri, p) in enumerate(nodes)}
        for tri, (x, y) in nodes:
            out.append(tuple([at[c2, sum(c2) - x - y]
                              for c2 in _chambers_on(c, x, y) if c2 != tri]))
    return c._relations.setdefault(kind, (nodes, tuple(out)))


def _transfer_matrix(nodes: tuple, out: tuple) -> SparseIntMatrix:
    return SparseIntMatrix(len(nodes), ((j, i, 1) for i, js in enumerate(out) for j in js))


def build_edge_operator(c: TypedComplex) -> SparseIntMatrix:
    """0/1 transfer matrix T with T[e2, e] = 1 iff e2 positively continues e.

    Index set: positive directed edges sorted by (tail, head).  Requires a
    closed complex; an empty edge set gives the 0x0 matrix (its zeta
    polynomial is 1).
    """
    return _transfer_matrix(*transitions(c, "edge"))


def build_chamber_operator(c: TypedComplex) -> SparseIntMatrix:
    """0/1 transfer matrix on pointed chambers for straight gallery crossings.

    Index set: pointed chambers sorted by (chamber, pointer).  An empty
    chamber set gives the 0x0 matrix (its zeta polynomial is 1).
    """
    return _transfer_matrix(*transitions(c, "gallery"))


def _relation_components(c: TypedComplex, kind: str) -> tuple[tuple, tuple]:
    """(cycles, rest): the strongly connected components of ``transitions(c, kind)``.

    A component in which every node has exactly one successor inside it is
    a cycle; ``cycles`` lists each one along its arcs from its smallest node
    index.  ``rest`` is the sorted tuple of the nodes of every other
    component that holds an arc.  A node on no closed path (a component of
    one node without a self-loop) is in neither.  All indices are the
    relation's own.  Computed once per complex and kind by one Tarjan pass
    over the relation's successor lists and memoized next to the relation,
    behind its gate: a refusal memoizes nothing.
    """
    if kind in c._components:
        return c._components[kind]
    _, out = transitions(c, kind)
    components = _strong_components(out)
    label = [0] * len(out)
    for k, members in enumerate(components):
        for v in members:
            label[v] = k
    cycles, rest = [], []
    for k, members in enumerate(components):
        # each node of a component with an arc has a successor inside it, so
        # one arc inside per node makes the component a cycle
        arcs = sum(label[w] == k for v in members for w in out[v])
        if arcs == len(members):
            # Tarjan lists a component in reverse order of discovery, which
            # on a cycle is the reverse of its arc order
            trail = members[::-1]
            start = trail.index(min(trail))
            cycles.append(tuple(trail[start:] + trail[:start]))
        elif arcs:
            rest.extend(members)
    return c._components.setdefault(kind, (tuple(cycles), tuple(sorted(rest))))


def _three_step(c: TypedComplex, kind: str, members) -> SparseIntMatrix:
    """Three-step X on the smallest grade of S = members: det(I - u T_S) = det(I - u^3 X).

    S is a union of strongly connected components of ``transitions(c,
    kind)``, its node indices ascending, and T_S the relation's matrix on S;
    ties between grades go to the lowest type.  X[w, x] counts the length-3
    walks x -> y -> z -> w along the relation between nodes of that grade.
    Such a walk between two nodes of one component stays inside it, so X
    differs from T_S^3 on the grade only between different components: off
    the diagonal blocks of a block-triangular matrix, which leaves the
    determinant as it is.
    """
    nodes, out = transitions(c, kind)
    grades: list[list[int]] = [[], [], []]
    for i in members:
        x = nodes[i]
        tail = x.tail if kind == "edge" else x.pointer.tail
        grades[c.type_of[tail]].append(i)
    grade = min(grades, key=len)
    row = {i: r for r, i in enumerate(grade)}
    entries = []
    for col, i in enumerate(grade):
        walks = {i: 1}
        for _ in range(3):
            ahead: dict[int, int] = {}
            for y, k in walks.items():
                for z in out[y]:
                    ahead[z] = ahead.get(z, 0) + k
            walks = ahead
        entries.extend((row[w], col, k) for w, k in walks.items() if w in row)
    return SparseIntMatrix(len(grade), entries)


def three_step_operator(c: TypedComplex, kind: str) -> SparseIntMatrix:
    """X = T^3 restricted to the smallest type grade, so det(I - u T) = det(I - u^3 X).

    ``kind`` is 'edge' or 'gallery'; grades are described in the module
    docstring, and ties go to the lowest type.  X[w, x] counts the length-3
    walks x -> y -> z -> w along the index lists of the shared relation
    ``transitions(c, kind)``, with rows and columns in canonical node order;
    an empty grade gives the 0x0 matrix.  Raises the same errors as
    ``build_edge_operator`` resp. ``build_chamber_operator``.
    """
    return _three_step(c, kind, range(len(transitions(c, kind)[0])))
