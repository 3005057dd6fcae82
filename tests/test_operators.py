from __future__ import annotations

import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import floor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btzeta import (
    ApartmentSpec,
    BallSpec,
    DirectedEdge,
    IntPolynomial,
    PointedChamber,
    SparseIntMatrix,
    TypedComplex,
    build_chamber_operator,
    build_edge_operator,
    closed_paths,
    count_closed_paths,
    directed_edges,
    edge_successors,
    gallery_successors,
    loads_complex,
    pointed_chambers,
    dumps_complex,
    three_step_operator,
    torus_trace_counts,
    transitions,
    validate_complex,
    zeta_chamber,
    zeta_edge,
)
from btzeta import operators
from btzeta.generators import (
    POSITIVE_DIRECTIONS,
    gen_apartment_torus,
    gen_building_ball,
    gen_cycle_complex,
    plane_type,
)
from btzeta.polynomials import _strong_components
from conftest import closed_typed_complex, disjoint_union

# the ladder tori k*id and the skew torus 6 3 0 9, as (a, b), (c, d) bases
LADDER_TORI = [((k, 0), (0, k)) for k in (6, 9, 12, 15)] + [((6, 3), (0, 9))]


def ladder_complex(name):
    """A fresh complex of the ladder: a torus basis, a cycle length or 'branching'."""
    if name == "branching":
        # complete tripartite on 4 + 4 + 4 vertices: edges lie on 1 to 4 chambers
        return closed_typed_complex(random.Random(0), (4, 4, 4), 1.0, 0.6)
    if isinstance(name, int):
        return gen_cycle_complex(name)
    return gen_apartment_torus(ApartmentSpec(name))


# -- plane patch helpers for the geometric calibration -----------------------


def up_cell(i, j):
    return ((i, j), (i + 1, j), (i, j + 1))


def down_cell(i, j):
    return ((i + 1, j), (i, j + 1), (i + 1, j + 1))


def plane_patch(n: int):
    """Rectangular patch of the triangular tiling as a TypedComplex."""
    vid = {}
    vertices = []
    for i in range(n + 1):
        for j in range(n + 1):
            vid[(i, j)] = len(vertices)
            vertices.append((vid[(i, j)], plane_type(i, j)))
    edges, chambers = set(), set()
    cell_list = []
    for i in range(n):
        for j in range(n):
            for cell in (up_cell(i, j), down_cell(i, j)):
                cell_list.append(cell)
                for a in range(3):
                    for b in range(a + 1, 3):
                        edges.add(tuple(sorted((vid[cell[a]], vid[cell[b]]))))
                chambers.add(tuple(sorted(vid[p] for p in cell)))
    cells_of_edge: dict[frozenset, list] = {}
    for cell in cell_list:
        for a in range(3):
            for b in range(a + 1, 3):
                cells_of_edge.setdefault(frozenset((cell[a], cell[b])), []).append(cell)
    return TypedComplex(vertices, edges, chambers), vid, cells_of_edge


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def march_line(p0, direction, steps, cells_of_edge):
    """Exact-rational straight-line crossing sequence: [(cell, exit_edge), ...]."""
    x, y = p0
    i, j = floor(x), floor(y)
    cell = up_cell(i, j) if (x - i) + (y - j) < 1 else down_cell(i, j)
    t_cur = Fraction(0)
    trail = []
    for _ in range(steps):
        candidates = []
        for a in range(3):
            for b in range(a + 1, 3):
                A, B = cell[a], cell[b]
                ab = (B[0] - A[0], B[1] - A[1])
                det = -cross(direction, ab)
                if det == 0:
                    continue
                ap = (A[0] - p0[0], A[1] - p0[1])
                t = Fraction(cross(ab, ap), det)
                s = Fraction(cross(direction, ap), det)
                if 0 < s < 1 and t > t_cur:
                    candidates.append((t, (A, B)))
        assert len(candidates) == 1, f"line does not exit {cell} cleanly"
        t_cur, exit_edge = candidates[0]
        trail.append((cell, exit_edge))
        adjacent = cells_of_edge[frozenset(exit_edge)]
        assert len(adjacent) == 2, "marched into the patch border"
        cell = next(c for c in adjacent if c != cell)
    return trail


def to_pointed(vid, cell, exit_edge) -> PointedChamber:
    a, b = exit_edge
    if (plane_type(*a) + 1) % 3 == plane_type(*b):
        tail, head = a, b
    else:
        tail, head = b, a
    return PointedChamber(
        chamber=tuple(sorted(vid[p] for p in cell)),
        pointer=DirectedEdge(vid[tail], vid[head]),
    )


class TestEdgeRule:
    def test_cycle_continuation(self, three_cycle):
        assert DirectedEdge(1, 2) in edge_successors(three_cycle, DirectedEdge(0, 1))

    def test_single_chamber_blocks(self, single_chamber):
        assert edge_successors(single_chamber, DirectedEdge(0, 1)) == []

    def test_plane_straight_lines_only(self):
        patch, vid, _ = plane_patch(8)
        v = (4, 4)
        for d in POSITIVE_DIRECTIONS:
            head = (v[0] + d[0], v[1] + d[1])
            succ = edge_successors(patch, DirectedEdge(vid[v], vid[head]))
            straight = (v[0] + 2 * d[0], v[1] + 2 * d[1])
            assert succ == [DirectedEdge(vid[head], vid[straight])]

    def test_building_out_degree_q_squared(self, ball_q2, ball_q3):
        for ball, q in ((ball_q2, 2), (ball_q3, 3)):
            into_center = [e for e in directed_edges(ball) if e.head == 0]
            assert into_center, "no positive edges into the center"
            assert {len(edge_successors(ball, e)) for e in into_center} == {q * q}

    def test_building_successors_match_subspace_oracle(self):
        for q in (2, 3):
            ball, geom = gen_building_ball(BallSpec(q=q, radius=1), with_geometry=True)
            labels = geom["labels"]
            vecs = {i: tuple(x[0] for x in lab["vector"])
                    for i, lab in enumerate(labels) if "vector" in lab}
            covs = {i: tuple(x[0] for x in lab["covector"])
                    for i, lab in enumerate(labels) if "covector" in lab}
            for e in directed_edges(ball):
                if e.head != 0:
                    continue
                point = vecs[e.tail]
                got = {s.head for s in edge_successors(ball, e)}
                # straight continuations avoid exactly the incident flags
                expected = {
                    w for w, cov in covs.items()
                    if sum(a * b for a, b in zip(point, cov)) % q != 0
                }
                assert got == expected


class TestEdgeOperator:
    def test_three_cycle_permutation(self, three_cycle):
        mat = build_edge_operator(three_cycle)
        assert mat.dim == 3
        dense = mat.to_dense()
        assert dense.sum() == 3
        assert all(dense[:, c].sum() == 1 and dense[r].sum() == 1
                   for r, c, _ in mat.entries)

    def test_torus_out_degree_one(self, torus):
        mat = build_edge_operator(torus)
        assert mat.dim == 27
        cols = [c for _, c, _ in mat.entries]
        assert sorted(cols) == list(range(27))  # permutation: one entry per column

    def test_torus_orbit_lengths(self, torus):
        mat = build_edge_operator(torus)
        succ = {c: r for r, c, _ in mat.entries}
        seen = set()
        lengths = []
        for start in range(mat.dim):
            if start in seen:
                continue
            cur, n = start, 0
            while True:
                cur = succ[cur]
                n += 1
                seen.add(cur)
                if cur == start:
                    break
            lengths.append(n)
        assert sorted(lengths) == [3] * 9

    def test_single_chamber_zero_operator(self, single_chamber):
        mat = build_edge_operator(single_chamber)
        assert mat.dim == 3 and not mat.entries

    def test_refuses_boundary(self, ball_q2):
        with pytest.raises(ValueError, match="boundary"):
            build_edge_operator(ball_q2)

    def test_empty_edge_set_gives_0x0(self):
        # the relation is the only gate: an edgeless closed complex has Z1 = 1
        edgeless = TypedComplex([(0, 0)])
        assert build_edge_operator(edgeless) == SparseIntMatrix(0, ())
        assert zeta_edge(edgeless) == IntPolynomial.one()

    def test_canonical_after_reload(self, torus):
        reloaded = loads_complex(dumps_complex(torus))
        assert build_edge_operator(reloaded).entries == build_edge_operator(torus).entries

    def test_trace_powers_match_counts(self, torus):
        from btzeta import count_closed_paths

        mat = build_edge_operator(torus)
        assert mat.trace_powers(8) == count_closed_paths(torus, 8)[1:]


class TestGalleryRule:
    def test_no_chambers_zero_by_zero(self, three_cycle):
        mat = build_chamber_operator(three_cycle)
        assert mat.dim == 0 and not mat.entries

    def test_single_chamber_no_transitions(self, single_chamber):
        mat = build_chamber_operator(single_chamber)
        assert mat.dim == 3 and not mat.entries

    def test_pointed_chambers_three_per_chamber(self, torus):
        assert len(pointed_chambers(torus)) == 3 * len(torus.chambers)

    def test_refuses_boundary(self, ball_q2):
        with pytest.raises(ValueError, match="boundary"):
            build_chamber_operator(ball_q2)

    @pytest.mark.parametrize("direction,start", [
        ((1, 0), (Fraction(1, 3), Fraction(17, 5))),
        ((0, -1), (Fraction(17, 5), Fraction(22, 3))),
        ((-1, 1), (Fraction(33, 5), Fraction(4, 3))),
    ])
    def test_line_marching_calibration(self, direction, start):
        # exact rational geometry: the combinatorial transition rule must
        # reproduce straight-line chamber crossings step by step
        patch, vid, cells_of_edge = plane_patch(8)
        trail = march_line(start, direction, 7, cells_of_edge)
        pcs = [to_pointed(vid, cell, exit_edge) for cell, exit_edge in trail]
        for cur, nxt in zip(pcs, pcs[1:]):
            assert gallery_successors(patch, cur) == [nxt]

    def test_marching_covers_both_cell_kinds(self):
        patch, vid, cells_of_edge = plane_patch(8)
        trail = march_line((Fraction(1, 3), Fraction(17, 5)), (1, 0), 6, cells_of_edge)
        kinds = {len({p[1] for p in cell}) for cell, _ in trail}
        assert trail[0][0] != trail[1][0]
        assert len({frozenset(cell) for cell, _ in trail}) == 6

    def test_torus_gallery_out_degree_one(self, torus):
        mat = build_chamber_operator(torus)
        assert mat.dim == 3 * 18
        cols = [c for _, c, _ in mat.entries]
        assert sorted(cols) == list(range(mat.dim))

    def test_ball_gallery_out_degree_q(self, ball_q2_r2):
        q = 2
        interior = {v for v, _ in ball_q2_r2.vertices} - ball_q2_r2.boundary
        degrees = set()
        for pc in pointed_chambers(ball_q2_r2):
            if pc.pointer.tail in interior or pc.pointer.head in interior:
                degrees.add(len(gallery_successors(ball_q2_r2, pc)))
        assert degrees == {q}
        # the complex's CSR table of the chambers on each edge: an interior
        # edge lies on q + 1 chambers
        on_edge = np.diff(ball_q2_r2._cells.indptr).tolist()
        assert {k for e, k in zip(ball_q2_r2.edges, on_edge) if set(e) <= interior} == {q + 1}

    def test_gallery_trace_matches_geometry(self, torus, torus_spec):
        from btzeta import torus_trace_counts

        mat = build_chamber_operator(torus)
        assert mat.trace_powers(12) == torus_trace_counts(torus_spec.basis, 12, "gallery")[1:]
        # the 9x9 torus: dimension 486, beyond reach of dense matrix powers
        basis = ((9, 0), (0, 9))
        mat = build_chamber_operator(gen_apartment_torus(ApartmentSpec(basis)))
        assert mat.dim == 486
        assert mat.trace_powers(12) == torus_trace_counts(basis, 12, "gallery")[1:]


def successor_lists(c, kind):
    """Each node's successor indices, read off the CSR relation ``transitions(c, kind)``."""
    indptr, indices, _ = transitions(c, kind)
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def assert_relation_is_the_per_node_rules(c):
    """The CSR relation of each kind names, by node index, what the per-node rule lists."""
    for kind, listed, successors in (("edge", directed_edges, edge_successors),
                                     ("gallery", pointed_chambers, gallery_successors)):
        nodes = listed(c)
        indptr, indices, grade = transitions(c, kind)
        out = successor_lists(c, kind)
        assert list(nodes) == sorted(nodes)
        assert len(out) == len(grade) == len(indptr) - 1 == len(nodes)
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        for i, js in enumerate(out):
            assert [nodes[j] for j in js] == successors(c, nodes[i])
            tail = nodes[i].tail if kind == "edge" else nodes[i].pointer.tail
            assert grade[i] == c.type_of[tail]


def as_lists(relation):
    return tuple(array.tolist() for array in relation)


class TestTransitions:
    """The one indexed relation per complex and kind."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.tuples(*[st.integers(1, 4)] * 3),
           st.floats(0.4, 1.0), st.floats(0.0, 1.0))
    def test_indices_name_the_successors(self, seed, per_type, p_edge, p_chamber):
        assert_relation_is_the_per_node_rules(
            closed_typed_complex(random.Random(seed), per_type, p_edge, p_chamber))

    @pytest.mark.parametrize("name", LADDER_TORI + [3, 9, "branching"], ids=str)
    def test_ladder_relation_is_the_per_node_rules(self, name):
        c = ladder_complex(name)
        if name == "branching":
            assert np.diff(c._cells.indptr).max() >= 3
        assert_relation_is_the_per_node_rules(c)

    @pytest.mark.parametrize("basis", LADDER_TORI, ids=str)
    def test_ladder_traces_match_geometry(self, basis):
        # the plane-geometry count involves no code of this module
        c = ladder_complex(basis)
        for kind, build in (("edge", build_edge_operator), ("gallery", build_chamber_operator)):
            assert build(c).trace_powers(12) == torus_trace_counts(basis, 12, kind)[1:]

    def test_relation_calls_no_per_node_rule(self, monkeypatch):
        names = [((9, 0), (0, 9)), "branching"]
        expected = [{kind: as_lists(transitions(ladder_complex(n), kind))
                     for kind in ("edge", "gallery")} for n in names]

        def refuse(*args):
            raise AssertionError("per-node rule called")

        monkeypatch.setattr(operators, "edge_successors", refuse)
        monkeypatch.setattr(operators, "gallery_successors", refuse)
        for rule in (operators.edge_successors, operators.gallery_successors):
            with pytest.raises(AssertionError, match="per-node rule"):
                rule(None, None)
        for name, want in zip(names, expected):
            c = ladder_complex(name)
            assert {kind: as_lists(transitions(c, kind)) for kind in want} == want

    @pytest.mark.parametrize("kind", ["edge", "gallery"])
    def test_built_once(self, torus, kind):
        first = transitions(torus, kind)
        assert transitions(torus, kind) is first
        assert all(isinstance(array, np.ndarray) for array in first)
        components = operators._relation_components(torus, kind)
        assert operators._relation_components(torus, kind) is components
        # one memo entry per kind holds both
        relation, pair = torus._relations[kind]
        assert relation is first and pair is components

    def test_memo_is_not_part_of_the_value(self, skew_torus):
        fresh = loads_complex(dumps_complex(skew_torus))
        before = (dumps_complex(fresh), hash(fresh))
        transitions(fresh, "edge")
        transitions(fresh, "gallery")
        assert fresh == loads_complex(before[0])
        assert (dumps_complex(fresh), hash(fresh)) == before

    def test_threads_share_one_relation(self, torus):
        # concurrent first uses must all get the one memoized relation
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                fresh = loads_complex(dumps_complex(torus))
                got = {"edge": [], "gallery": []}
                workers = [
                    threading.Thread(target=lambda k=kind: got[k].append(transitions(fresh, k)))
                    for kind in ("edge", "gallery") * 4]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30)
                assert not any(w.is_alive() for w in workers)
                for kind, results in got.items():
                    assert len(results) == 4
                    assert all(r is transitions(fresh, kind) for r in results)
        finally:
            sys.setswitchinterval(old_interval)


def assert_three_step_is_the_cube(c):
    """X is T^3 on the smallest grade, ties to the lowest type, entry by entry."""
    for kind, build in (("edge", build_edge_operator), ("gallery", build_chamber_operator)):
        grade = transitions(c, kind).grade.tolist()
        sizes = [grade.count(g) for g in range(3)]
        nodes = [i for i, g in enumerate(grade) if g == sizes.index(min(sizes))]
        t = build(c).to_dense().astype(np.int64)
        cube = (t @ t @ t)[np.ix_(nodes, nodes)]
        assert three_step_operator(c, kind).to_dense().tolist() == cube.tolist()


class TestThreeStep:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.tuples(*[st.integers(1, 4)] * 3),
           st.floats(0.4, 1.0), st.floats(0.0, 1.0))
    def test_is_the_cube_on_the_smallest_grade(self, seed, per_type, p_edge, p_chamber):
        assert_three_step_is_the_cube(
            closed_typed_complex(random.Random(seed), per_type, p_edge, p_chamber))

    def test_torus_and_b1_are_the_cube(self, torus):
        for c in (torus, closed_typed_complex(random.Random(1), (4, 4, 4))):
            assert_three_step_is_the_cube(c)


def walk_join(c, kind, members):
    """X as it was built before the grade blocks: every length-3 walk from the
    smallest grade of ``members`` (ties to the lowest type), counted per (w, x)
    pair in a ``Counter`` where it lands back on that grade."""
    grade = transitions(c, kind).grade.tolist()
    of = [grade[v] for v in members]
    nodes = [v for v, g in zip(members, of) if g == min(range(3), key=of.count)]
    at = {v: i for i, v in enumerate(nodes)}
    succ = successor_lists(c, kind)
    walks = Counter((at[w], at[x]) for x in nodes for y in succ[x] for z in succ[y]
                    for w in succ[z] if w in at)
    out = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    for pair, k in walks.items():
        out[pair] = k
    return out


class TestGradeBlocks:
    """X as the product of the relation's three grade blocks."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.tuples(*[st.integers(1, 4)] * 3),
           st.floats(0.4, 1.0), st.floats(0.0, 1.0), st.booleans())
    def test_equals_the_walk_join(self, seed, per_type, p_edge, p_chamber, with_torus):
        c = closed_typed_complex(random.Random(seed), per_type, p_edge, p_chamber)
        if with_torus:  # cycle components beside the others, nodes interleaved
            c = disjoint_union(c, ladder_complex(((3, 0), (0, 3))))
        for kind in ("edge", "gallery"):
            _, rest = operators._relation_components(c, kind)
            for members in (rest, range(len(transitions(c, kind).grade))):
                x = operators._three_step(c, kind, np.array(members, dtype=np.int64))
                assert x.dtype == np.int64
                assert x.tolist() == walk_join(c, kind, list(members)).tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.tuples(*[st.integers(1, 4)] * 3),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_every_arc_steps_the_grade_by_one(self, seed, per_type, p_edge, p_chamber):
        assert_arcs_step_the_grade(
            closed_typed_complex(random.Random(seed), per_type, p_edge, p_chamber))

    @pytest.mark.parametrize("name", LADDER_TORI + [3, 9, "branching"], ids=str)
    def test_ladder_arcs_step_the_grade_by_one(self, name):
        assert_arcs_step_the_grade(ladder_complex(name))

    def test_empty_smallest_grade_gives_0x0(self):
        # one edge 0 -> 1: the edge relation's one node has grade 0, and the
        # grades 1 and 2 are empty
        c = TypedComplex([(0, 0), (1, 1)], [(0, 1)])
        assert operators._three_step(c, "edge", np.arange(1)).shape == (0, 0)
        assert three_step_operator(c, "edge") == SparseIntMatrix(0, ())


def assert_arcs_step_the_grade(c):
    """Every edge arc raises the grade by 1 and every gallery arc lowers it by 1 (mod 3)."""
    assert validate_complex(c).ok
    for kind, step in (("edge", 1), ("gallery", 2)):
        indptr, indices, grade = transitions(c, kind)
        src = np.repeat(np.arange(len(grade)), np.diff(indptr))
        assert ((grade[indices] - grade[src]) % 3 == step).all()


class TestTracePowers:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 7), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                                                 st.integers(-3, 3))), st.integers(0, 6))
    def test_equals_dense_powers(self, dim, triplets, max_power):
        mat = SparseIntMatrix(dim, [t for t in triplets if max(t[:2]) < dim])
        dense = [[0] * dim for _ in range(dim)]
        for r, c, v in mat.entries:
            dense[r][c] += v
        power, traces = dense, []
        for _ in range(max_power):
            traces.append(sum(power[i][i] for i in range(dim)))
            power = [[sum(power[i][k] * dense[k][j] for k in range(dim))
                      for j in range(dim)] for i in range(dim)]
        assert mat.trace_powers(max_power) == traces

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.tuples(*[st.integers(1, 4)] * 3),
           st.floats(0.4, 1.0), st.floats(0.0, 1.0))
    def test_equals_closed_path_counts(self, seed, per_type, p_edge, p_chamber):
        c = closed_typed_complex(random.Random(seed), per_type, p_edge, p_chamber)
        pairs = [("gallery", build_chamber_operator)]
        if c.edges:  # the edge operator needs a nonempty edge set
            pairs.append(("edge", build_edge_operator))
        for kind, build in pairs:
            assert build(c).trace_powers(6) == count_closed_paths(c, 6, kind)[1:]


class TestGate:
    """``transitions`` is the one gate: every route to the relation refuses alike."""

    ROUTES = {
        "edge": [lambda c: transitions(c, "edge"), build_edge_operator,
                 lambda c: three_step_operator(c, "edge"),
                 lambda c: count_closed_paths(c, 4, "edge"),
                 lambda c: closed_paths(c, 4, "edge"), zeta_edge],
        "gallery": [lambda c: transitions(c, "gallery"), build_chamber_operator,
                    lambda c: three_step_operator(c, "gallery"),
                    lambda c: count_closed_paths(c, 4, "gallery"),
                    lambda c: closed_paths(c, 4, "gallery"), zeta_chamber],
    }
    KIND_ROUTES = [transitions, three_step_operator,
                   lambda c, kind: count_closed_paths(c, 4, kind),
                   lambda c, kind: closed_paths(c, 4, kind)]

    @pytest.mark.parametrize("kind, operator", [("edge", "edge"), ("gallery", "chamber")])
    def test_one_message_per_kind(self, ball_q2, kind, operator):
        messages = set()
        for route in self.ROUTES[kind]:
            with pytest.raises(ValueError) as info:
                route(ball_q2)
            messages.add(str(info.value))
        assert messages == {
            f"{operator} operator is undefined on complexes with marked boundary "
            f"({len(ball_q2.boundary)} boundary vertices); operators need closed complexes"}

    def test_unknown_kind_before_boundary(self, ball_q2):
        for route in self.KIND_ROUTES:
            with pytest.raises(ValueError, match="unknown kind 'chamber'"):
                route(ball_q2, "chamber")

    def test_refusal_memoizes_nothing(self, ball_q2):
        fresh = loads_complex(dumps_complex(ball_q2))
        for routes in self.ROUTES.values():
            for route in routes:
                with pytest.raises(ValueError):
                    route(fresh)
        for route in self.KIND_ROUTES:
            with pytest.raises(ValueError):
                route(fresh, "chamber")
        assert fresh._relations == {}


class TestCells:
    """A cell complex, built through the array constructor the v1 loader uses.

    The edges a0, a1 and a2 join the vertices 0 and 1, c joins 0 and 2 and b
    joins 1 and 2; the chambers are (a0, b, c) and (a1, b, c), on one vertex
    triple, and a2 bounds none.  Edge indices: a0, a1, a2, c, b = 0..4.
    """

    @pytest.fixture()
    def cells(self):
        edges = np.array([[0, 1], [0, 1], [0, 1], [0, 2], [1, 2]])
        return TypedComplex._from_arrays(np.arange(3), np.arange(3), edges,
                                         np.array([[0, 4, 3], [4, 1, 3]]))

    def test_validates(self, cells):
        assert validate_complex(cells).ok
        assert cells.edges == ((0, 1), (0, 1), (0, 1), (0, 2), (1, 2))
        assert cells.chambers == ((0, 1, 2), (0, 1, 2))
        # each chamber's sides, in the order (0, 1), (0, 2), (1, 2)
        assert cells._cells.sides.tolist() == [[0, 3, 4], [1, 3, 4]]

    def test_edge_pair_refused_when_both_bound_one_chamber(self, cells):
        # nodes a0, a1, a2 (0 -> 1), b (1 -> 2), c (2 -> 0); a vertex rule would
        # refuse every pair here, since 0, 1, 2 span a chamber
        assert successor_lists(cells, "edge") == [[], [], [3], [], [2]]
        assert transitions(cells, "edge").grade.tolist() == [0, 0, 0, 1, 2]

    def test_gallery_step_leaves_by_the_edge_of_the_next_chamber(self, cells):
        # node 3 * chamber + position of its pointer's tail; pointers a0, b, c
        # of the first chamber and a1, b, c of the second
        _, _, pointer = operators._pointers(cells._cells)
        assert pointer.ravel().tolist() == [0, 4, 3, 1, 4, 3]
        out = successor_lists(cells, "gallery")
        assert out == [[], [3], [4], [], [0], [1]]
        # across b into the second chamber, out by its own edge a1, not a0
        assert [pointer.ravel()[j] for j in out[1]] == [1]
        assert transitions(cells, "gallery").grade.tolist() == [0, 1, 2, 0, 1, 2]


def components_by_reachability(succ):
    """(cycles, rest) of the digraph v -> succ[v], brute force: each node's reachable set."""
    n = len(succ)
    reach = []
    for v in range(n):
        seen, todo = set(), list(succ[v])
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo.extend(succ[w])
        reach.append(seen)
    cycles, rest = [], []
    for v in range(n):
        members = sorted(w for w in range(n) if w in reach[v] and v in reach[w])
        if not members or members[0] != v:  # on no closed path, or met before
            continue
        if all(sum(w in members for w in succ[x]) == 1 for x in members):
            cycle = [v]
            while len(cycle) < len(members):
                cycle.append(next(w for w in succ[cycle[-1]] if w in members))
            cycles.append(tuple(cycle))
        else:
            rest += members
    return tuple(cycles), tuple(sorted(rest))


def csr_relation(succ):
    """The relation v -> succ[v] as CSR, successors ascending; every grade 0."""
    indptr = np.cumsum([0] + [len(ws) for ws in succ])
    indices = np.array([w for ws in succ for w in sorted(ws)], dtype=np.int64)
    return operators._Relation(indptr, indices, np.zeros(len(succ), dtype=np.int64))


class TestPermutationCycles:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 60).flatmap(lambda n: st.permutations(range(n))))
    @example(list(range(1, 257)) + [0])
    def test_cycles_are_tarjans(self, g):
        expected = []
        for members in _strong_components([[w] for w in g])[0]:
            trail = members[::-1]
            start = trail.index(min(trail))
            expected.append(tuple(trail[start:] + trail[:start]))
        assert operators._permutation_cycles(g) == tuple(expected)


class TestComponents:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10).flatmap(lambda n: st.one_of(
        st.lists(st.sets(st.integers(0, max(n - 1, 0)), max_size=min(3, n)),
                 min_size=n, max_size=n),
        st.permutations(range(n)).map(lambda g: [{w} for w in g]))))
    @example([{0}, {0, 2}, {1}, set()])  # a self-loop, a 2-cycle with a chord, a sink
    def test_components_are_the_mutual_reachability_classes(self, succ):
        assert operators._components(csr_relation(succ)) == components_by_reachability(succ)
