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
``three_step_operator`` takes the smallest one, as one whole-array product
of the relation's three grade-to-grade 0/1 blocks; the full operators stay
as the reference.

Strongly connected components.  det(I - u T) is the product of
det(I - u T_C) over the strongly connected components C of the relation,
and a closed path stays in one component.  A component in which every node
has exactly one successor inside it is a directed cycle of length l: one
primitive class, with factor 1 - u^l; on an apartment torus every
component of both relations is such a cycle.  The components are found
once per complex and kind (``_components``), memoized in one entry with
the relation and read by the zeta polynomials and the closed-path walks.
The zetas take X only on the smallest grade of the components that are
not cycles.

Both rules read the cell incidences of ``TypedComplex``'s arrays: the edges
of each chamber and the chambers on each edge (CSR).  ``transitions``
builds each relation as one join over them (``_edge_relation``,
``_gallery_relation``; on a simplicial complex these are the rules above)
and returns it in CSR form with a grade per node; nodes are indices, and
the walks and the three-step operator read the CSR arrays.
``DirectedEdge`` and ``PointedChamber`` tuples are built only where nodes
are printed or compared: ``directed_edges`` and ``pointed_chambers`` list
them in index order, and ``edge_successors`` and ``gallery_successors``
state the rules for one node, on local complexes such as balls too; they
are the reference the relation is tested against.

The relation refuses complexes with a marked boundary, so both operators and
both walks do: their determinant identities concern closed complexes only,
and silently truncating at the boundary would corrupt the counts.  It is the
only gate: a closed complex without edges or chambers has an empty relation,
a 0x0 operator and the zeta polynomial 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexes import TypedComplex, _all_types
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


class _Relation(NamedTuple):
    """A relation in CSR form: node i's successors are indices[indptr[i]:indptr[i + 1]].

    Successors ascend, which is their canonical order; grade[i] is node i's
    type grade (the type of its tail, resp. of its pointer's tail).
    """

    indptr: np.ndarray
    indices: np.ndarray
    grade: np.ndarray


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges start[i], ..., start[i] + count[i] - 1, concatenated."""
    ends = np.cumsum(count)
    return np.repeat(start - ends + count, count) + np.arange(ends[-1] if len(ends) else 0)


def _relation(src: np.ndarray, dst: np.ndarray, grade: np.ndarray) -> _Relation:
    """The relation with the arcs src -> dst, listed by ascending src."""
    indptr = np.zeros(len(grade) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=len(grade)), out=indptr[1:])
    return _Relation(indptr, dst, grade)


def _edge_nodes(cells) -> tuple:
    """(edge, tail, head): the positive directed edges in node order, by (tail, head).

    ``edge`` is each one's edge index; an edge joining equal types has no
    positive direction and no node (validation refuses it).
    """
    a, b = cells.edges.T
    ta, tb = cells.type[a], cells.type[b]
    forward = (ta + 1) % 3 == tb
    edge = np.flatnonzero(forward | ((tb + 1) % 3 == ta))
    tail = np.where(forward, a, b)[edge]
    head = np.where(forward, b, a)[edge]
    order = np.argsort(tail * len(cells.ids) + head, kind="stable")
    return edge[order], tail[order], head[order]


def _pointers(cells) -> tuple:
    """(typed, head, pointer) of each chamber position j.

    ``typed`` marks the chambers that carry all three types.  On such a
    chamber, head[c, j] is the position of the vertex whose type follows the
    type at j, and pointer[c, j] the edge index of the side joining the two,
    side j + head[c, j] - 1 (-1 if no edge is there): the pointer whose tail
    is at j.
    """
    t = cells.type[cells.chambers]
    # the next type sits one or two positions on (mod 3); any choice keeps
    # the side j + head - 1 in 0..2 on an untyped chamber
    head = np.where(t[:, [1, 2, 0]] == (t + 1) % 3, (1, 2, 0), (2, 0, 1))
    pointer = cells.sides[np.arange(len(t))[:, None], np.arange(3) + head - 1]
    return _all_types(t), head, pointer


def _check_typed(cells, typed: np.ndarray) -> None:
    if not typed.all():
        tri = tuple(cells.ids[cells.chambers[np.argmin(typed)]].tolist())
        raise ValueError(f"chamber {tri} is not typed by all three types")


def directed_edges(c: TypedComplex) -> list[DirectedEdge]:
    """All positive directed edges, sorted by (tail, head): the edge relation's nodes."""
    cells = c._cells
    _, tail, head = _edge_nodes(cells)
    return list(map(DirectedEdge, cells.ids[tail].tolist(), cells.ids[head].tolist()))


def pointed_chambers(c: TypedComplex) -> list[PointedChamber]:
    """All pointed chambers (three per chamber), sorted by (chamber, pointer).

    Pointed chamber 3 * i + j is chamber i pointing out of the side that
    leaves its j-th vertex positively; the chambers are sorted, and their
    three pointers have distinct tails, so this is the sorted order.
    """
    cells = c._cells
    typed, head, _ = _pointers(cells)
    _check_typed(cells, typed)
    rows = cells.ids[cells.chambers].tolist()
    heads = cells.ids[np.take_along_axis(cells.chambers, head, axis=1)].tolist()
    return [PointedChamber(tri, DirectedEdge(x, y))
            for tri, ys in zip(map(tuple, rows), heads) for x, y in zip(tri, ys)]


def edge_successors(c: TypedComplex, e: DirectedEdge) -> list[DirectedEdge]:
    """Positive continuations of e, in canonical order.

    The positive edges leaving e's head, less each one that is a side of a
    chamber with e.
    """
    cells = c._cells
    edge, tail, head = _edge_nodes(cells)
    i = cells.edge(*e)
    on = cells.indices[cells.indptr[i]:cells.indptr[i + 1]] // 3 if i >= 0 else []
    closing = set(cells.sides[on].ravel().tolist())
    leaving = tail == cells.index(e.head)
    return [DirectedEdge(e.head, w)
            for w, k in zip(cells.ids[head[leaving]].tolist(), edge[leaving].tolist())
            if k not in closing]


def gallery_successors(c: TypedComplex, pc: PointedChamber) -> list[PointedChamber]:
    """Gallery continuations of pc, in canonical order.

    Each other chamber on the pointer's edge, in the edge's chamber order,
    left by the side from its vertex opposite that edge to the pointer's tail.
    """
    cells = c._cells
    x, y = pc.pointer
    i = cells.edge(x, y)
    out = []
    if i >= 0:
        for side in cells.indices[cells.indptr[i]:cells.indptr[i + 1]].tolist():
            tri = tuple(cells.ids[cells.chambers[side // 3]].tolist())
            if tri != pc.chamber:
                out.append(PointedChamber(tri, DirectedEdge(tri[2 - side % 3], x)))
    return out


def _check_kind(kind: str) -> None:
    if kind not in ("edge", "gallery"):
        raise ValueError(f"unknown kind {kind!r}: expected 'edge' or 'gallery'")


def _edge_relation(cells) -> _Relation:
    """The edge relation by one join: each positive edge to the run leaving its head.

    A pair (e, e2) is dropped when both are sides of one chamber: at a
    chamber's tail positions j and h = head[j], the pointers j and h.
    """
    edge, tail, head = _edge_nodes(cells)
    n = len(edge)
    start = np.searchsorted(tail, head)
    count = np.searchsorted(tail, head, side="right") - start
    src = np.repeat(np.arange(n), count)
    dst = _ranges(start, count)
    node = np.full(len(cells.edges) + 1, -1)  # the last entry answers the side -1
    node[edge] = np.arange(n)
    typed, head_at, pointer = _pointers(cells)
    first = node[pointer[typed]]
    then = node[pointer[np.arange(len(pointer))[:, None], head_at][typed]]
    both = (first >= 0) & (then >= 0)
    key, drop = src * n + dst, first[both] * n + then[both]
    keep = np.ones(len(key), dtype=bool)
    if len(key):
        at = np.minimum(np.searchsorted(key, drop), len(key) - 1)
        keep[at[key[at] == drop]] = False
    return _relation(src[keep], dst[keep], cells.type[tail])


def _gallery_relation(cells) -> _Relation:
    """The gallery relation by one join: each pointed chamber to the sides on its pointer.

    Side k of chamber c2 on the pointer's edge gives the successor 3 * c2 +
    2 - k, pointing out of the side from the vertex opposite side k; c2 is
    every chamber on that edge but the node's own.
    """
    typed, _, pointer = _pointers(cells)
    _check_typed(cells, typed)
    p = pointer.ravel()
    start = cells.indptr[p]
    count = np.where(p >= 0, cells.indptr[p + 1] - start, 0)
    src = np.repeat(np.arange(len(p)), count)
    side = cells.indices[_ranges(start, count)]
    other = side // 3 != src // 3
    side = side[other]
    return _relation(src[other], side + 2 - 2 * (side % 3),
                     cells.type[cells.chambers].ravel())


def _entry(c: TypedComplex, kind: str) -> tuple:
    """(relation, (cycles, rest)): the memo entry of ``c`` for ``kind``, built on first use.

    The one gate to the relation: an unknown kind, then a marked boundary,
    raise ValueError, memoizing nothing.
    """
    if kind in c._relations:
        return c._relations[kind]
    _check_kind(kind)
    if c.boundary:
        what = "edge operator" if kind == "edge" else "chamber operator"
        raise ValueError(
            f"{what} is undefined on complexes with marked boundary "
            f"({len(c.boundary)} boundary vertices); operators need closed complexes")
    relation = (_edge_relation if kind == "edge" else _gallery_relation)(c._cells)
    return c._relations.setdefault(kind, (relation, _components(relation)))


def transitions(c: TypedComplex, kind: str) -> _Relation:
    """(indptr, indices, grade): the positive ``kind`` relation, 'edge' or 'gallery', as CSR.

    Node i is the i-th of ``directed_edges`` resp. ``pointed_chambers``
    (sorted, so indices compare like nodes); its continuations are
    indices[indptr[i]:indptr[i + 1]], ascending, and grade[i] is its type
    grade.  Both operators are its 0/1 matrices and ``geodesics`` walks it.
    Built once per complex and kind, together with its strongly connected
    components, by one join over the complex's cell incidences that builds
    no node tuple and calls no per-node rule (see the module docstring); a
    second call returns the identical object.  Raises ValueError for an
    unknown kind, then for a marked boundary.
    """
    return _entry(c, kind)[0]


def _transfer_matrix(relation: _Relation) -> SparseIntMatrix:
    indptr, indices, grade = relation
    src = np.repeat(np.arange(len(grade)), np.diff(indptr))
    return SparseIntMatrix(len(grade), zip(indices.tolist(), src.tolist(), [1] * len(src)))


def build_edge_operator(c: TypedComplex) -> SparseIntMatrix:
    """0/1 transfer matrix T with T[e2, e] = 1 iff e2 positively continues e.

    Index set: positive directed edges sorted by (tail, head).  Requires a
    closed complex; an empty edge set gives the 0x0 matrix (its zeta
    polynomial is 1).
    """
    return _transfer_matrix(transitions(c, "edge"))


def build_chamber_operator(c: TypedComplex) -> SparseIntMatrix:
    """0/1 transfer matrix on pointed chambers for straight gallery crossings.

    Index set: pointed chambers sorted by (chamber, pointer).  An empty
    chamber set gives the 0x0 matrix (its zeta polynomial is 1).
    """
    return _transfer_matrix(transitions(c, "gallery"))


def _permutation_cycles(succ: list[int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of the permutation v -> succ[v], by one walk from each node not yet seen.

    The walks start in ascending order, so each starts at the smallest node
    of its cycle: every cycle is listed along its arcs from its smallest
    node, in the order of those nodes.
    """
    seen = [False] * len(succ)
    cycles = []
    for first in range(len(succ)):
        if not seen[first]:
            cycle, v = [], first
            while not seen[v]:
                seen[v] = True
                cycle.append(v)
                v = succ[v]
            cycles.append(tuple(cycle))
    return tuple(cycles)


def _components(relation: _Relation) -> tuple[tuple, tuple]:
    """(cycles, rest): the strongly connected components of the relation.

    A component in which every node has exactly one successor inside it is
    a cycle; ``cycles`` lists each one along its arcs from its smallest node
    index, in the order of those nodes.  ``rest`` is the sorted tuple of the
    nodes of every other component that holds an arc.  A node on no closed
    path (a component of one node without a self-loop) is in neither.  A
    relation in which every node has one successor and one predecessor is a
    permutation, all cycles, found by ``_permutation_cycles``; any other goes
    through one Tarjan pass over successor lists taken from the CSR.
    """
    indptr, indices, grade = relation
    n = len(grade)
    flat = indices.tolist()
    if np.array_equal(indptr, np.arange(n + 1)) and \
            (np.bincount(indices, minlength=n) == 1).all():
        return _permutation_cycles(flat), ()
    ptr = indptr.tolist()
    succ = [flat[a:b] for a, b in zip(ptr, ptr[1:])]
    components, label = _strong_components(succ)
    cycles, rest = [], []
    for k, members in enumerate(components):
        # each node of a component with an arc has a successor inside it, so
        # one arc inside per node makes the component a cycle
        inside = sum(label[w] == k for v in members for w in succ[v])
        if inside == len(members):
            # Tarjan lists a component in reverse order of discovery, which
            # on a cycle is the reverse of its arc order
            trail = members[::-1]
            start = trail.index(min(trail))
            cycles.append(tuple(trail[start:] + trail[:start]))
        elif inside:
            rest.extend(members)
    return tuple(sorted(cycles)), tuple(sorted(rest))


def _relation_components(c: TypedComplex, kind: str) -> tuple[tuple, tuple]:
    """``_components`` of ``transitions(c, kind)``, read from its memo entry, behind its gate."""
    return _entry(c, kind)[1]


def _three_step(c: TypedComplex, kind: str, members) -> np.ndarray:
    """Three-step X on the smallest grade of S = members: det(I - u T_S) = det(I - u^3 X).

    S is a union of strongly connected components of ``transitions(c,
    kind)``, its node indices ascending, and T_S the relation's matrix on S;
    ties between grades go to the lowest type.  X[w, x] counts the length-3
    walks x -> y -> z -> w between nodes of that grade: X = (B_0 B_1 B_2)^T
    for the 0/1 blocks of the three steps, each from one grade to the next
    (module docstring), read from the CSR on the nodes the walks reach.
    Entries are at most the product of the blocks' largest row sums: float64
    products below 2^53, int64 or object beyond.  A walk between two nodes
    of one component stays inside it, so X differs from T_S^3 on the grade
    only off the diagonal blocks of a block-triangular matrix.
    """
    indptr, indices, grade = transitions(c, kind)
    if not len(members):  # only cycle components, as on every torus: no array pass
        return np.zeros((0, 0), dtype=np.int64)
    members = np.asarray(members)
    of = grade[members]
    nodes = rows = members[of == np.bincount(of, minlength=3).argmin()]
    blocks, bound = [], 1
    for step in range(3):
        count = indptr[rows + 1] - indptr[rows]
        bound *= int(count.max(initial=0))  # at least the block's largest row sum
        ahead = indices[_ranges(indptr[rows], count)]
        cols = np.flatnonzero(np.bincount(ahead, minlength=len(grade))) if step < 2 else nodes
        col = np.minimum(np.searchsorted(cols, ahead), len(cols) - 1)
        land = cols[col] == ahead
        row = np.repeat(np.arange(len(rows)), count)[land]
        blocks.append(np.bincount(row * len(cols) + col[land], minlength=len(rows) * len(cols))
                      .reshape(len(rows), len(cols)))
        rows = cols
    dtype = np.float64 if bound < 1 << 53 else np.int64 if bound < 1 << 63 else object
    x = blocks[0].astype(dtype) @ blocks[1].astype(dtype) @ blocks[2].astype(dtype)
    return x.T.astype(object if dtype is object else np.int64)


def three_step_operator(c: TypedComplex, kind: str) -> SparseIntMatrix:
    """X = T^3 restricted to the smallest type grade, so det(I - u T) = det(I - u^3 X).

    ``kind`` is 'edge' or 'gallery'; grades are described in the module
    docstring, and ties go to the lowest type.  X[w, x] counts the length-3
    walks x -> y -> z -> w along the shared relation ``transitions(c,
    kind)``, with rows and columns in canonical node order; an empty grade
    gives the 0x0 matrix.  Raises the same errors as ``build_edge_operator``
    resp. ``build_chamber_operator``.
    """
    x = _three_step(c, kind, np.arange(len(transitions(c, kind).grade)))
    return SparseIntMatrix(len(x), zip(*np.nonzero(x), x[x != 0]))
