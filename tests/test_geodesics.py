from __future__ import annotations

import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btzeta import (
    ApartmentSpec,
    GeodesicClass,
    IntPolynomial,
    assemble_S_series,
    build_chamber_operator,
    build_edge_operator,
    char_poly_reverse,
    closed_paths,
    count_closed_paths,
    enumerate_primitive_classes,
    primitive_counts,
    primitive_product,
    three_step_operator,
    torus_primitive_counts,
    torus_trace_counts,
    transitions,
    zeta_chamber,
    zeta_edge,
)
from btzeta import geodesics
from btzeta.generators import gen_apartment_torus
from btzeta.operators import _relation_components, directed_edges, pointed_chambers
from btzeta.polynomials import log_derivative_series, series_exp_neg_integral
from conftest import closed_typed_complex, disjoint_union

M = 12


def csr(out):
    """(indptr, indices) of successor lists, in their own order."""
    indptr = np.zeros(len(out) + 1, dtype=np.int64)
    np.cumsum([len(ys) for ys in out], out=indptr[1:])
    return indptr, np.array([w for ys in out for w in ys], dtype=np.int64)


def walk_classes(indptr, indices, starts, max_length):
    """The frontier walk's (trail, period) pairs, taken out of its chunks."""
    chunks = geodesics._frontier_walk(indptr, indices, starts, max_length)
    return [(tuple(trail), period) for trails, periods in chunks
            for trail, period in zip(trails.tolist(), periods.tolist())]


def node_list(c, kind):
    return directed_edges(c) if kind == "edge" else pointed_chambers(c)


def reference_classes(c, max_length, kind):
    """Unpruned reference for ``enumerate_primitive_classes``: walk from every
    node and keep the smallest of all rotations of each closed walk."""
    nodes = node_list(c, kind)  # nodes are sorted: indices compare alike
    indptr, indices, _ = transitions(c, kind)
    out = [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
    seen = set()

    def walk(start, trail):
        for w in out[trail[-1]]:
            if w == start:
                seen.add(min(trail[i:] + trail[:i] for i in range(len(trail))))
            if len(trail) < max_length:
                walk(start, trail + (w,))

    for s in range(len(nodes)):
        walk(s, (s,))
    classes = []
    for rep in sorted(seen):
        n = len(rep)
        d = next(d for d in range(1, n + 1) if n % d == 0 and rep == rep[d:] + rep[:d])
        classes.append(GeodesicClass(n, d, n // d, tuple(nodes[i] for i in rep)))
    return classes


class TestClosedPathCounts:
    def test_three_cycle(self, three_cycle):
        counts = count_closed_paths(three_cycle, M)
        assert counts == [0, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3]

    def test_single_chamber_all_zero(self, single_chamber):
        assert count_closed_paths(single_chamber, M) == [0] * (M + 1)
        assert count_closed_paths(single_chamber, M, "gallery") == [0] * (M + 1)

    def test_torus_matches_matrix_traces(self, torus):
        for kind, builder in (("edge", build_edge_operator),
                              ("gallery", build_chamber_operator)):
            brute = count_closed_paths(torus, M, kind)
            assert builder(torus).trace_powers(M) == brute[1:]

    def test_torus_matches_geometry(self, torus, torus_spec):
        for kind in ("edge", "gallery"):
            assert count_closed_paths(torus, M, kind) == \
                torus_trace_counts(torus_spec.basis, M, kind)

    def test_skew_torus_matches_geometry(self, skew_torus, skew_torus_spec):
        for kind in ("edge", "gallery"):
            assert count_closed_paths(skew_torus, M, kind) == \
                torus_trace_counts(skew_torus_spec.basis, M, kind)

    def test_torus_oracle_reads_a_json_basis(self, torus, torus_spec):
        # the geometry sidecar holds the basis as lists of ints
        basis = json.loads(json.dumps(torus_spec.basis))
        for kind in ("edge", "gallery"):
            assert torus_trace_counts(basis, M, kind) == count_closed_paths(torus, M, kind)
        with pytest.raises(ValueError, match="degenerate torus basis"):
            torus_trace_counts([[3, 6], [1, 2]], M)

    def test_order_cap(self, three_cycle):
        # the cap is the CLI's; the library walks any order
        assert count_closed_paths(three_cycle, 21)[21] == 3
        # orders beyond Python's recursion limit: the walks keep their own stack
        assert count_closed_paths(three_cycle, 1200)[1200] == 3
        assert closed_paths(three_cycle, 1200)[0][1200] == 3

    def test_boundary_rejected(self, ball_q2):
        with pytest.raises(ValueError, match="closed"):
            count_closed_paths(ball_q2, 4)


class TestPrimitiveClasses:
    def test_three_cycle_single_class(self, three_cycle):
        classes = enumerate_primitive_classes(three_cycle, M)
        prim = [g for g in classes if g.power == 1]
        assert len(prim) == 1 and prim[0].length == 3
        lengths = sorted(g.length for g in classes)
        assert lengths == [3, 6, 9, 12]
        assert [g.power for g in sorted(classes, key=lambda g: g.length)] == [1, 2, 3, 4]

    def test_six_cycle_no_length_three(self, six_cycle):
        classes = enumerate_primitive_classes(six_cycle, M)
        prim = [g for g in classes if g.power == 1]
        assert len(prim) == 1 and prim[0].length == 6
        assert not [g for g in classes if g.length == 3]

    def test_power_structure_identity(self, three_cycle, six_cycle, single_chamber,
                                      torus, skew_torus):
        for c in (three_cycle, six_cycle, single_chamber, torus, skew_torus):
            for kind in ("edge", "gallery"):
                classes = enumerate_primitive_classes(c, M, kind)
                N = list(assemble_S_series(classes, M).coeffs)
                P = primitive_counts(classes, M)
                assert closed_paths(c, M, kind) == (N, P)
                for m in range(1, M + 1):
                    assert N[m] == sum(d * P[d] for d in range(1, m + 1) if m % d == 0)

    def test_one_walk_matches_separate_oracles(self, three_cycle, six_cycle,
                                               single_chamber, torus, skew_torus):
        branching = [closed_typed_complex(random.Random(seed)) for seed in range(2)]
        for c in (three_cycle, six_cycle, single_chamber, torus, skew_torus, *branching):
            for kind in ("edge", "gallery"):
                N = count_closed_paths(c, M, kind)
                reference = reference_classes(c, M, kind)
                classes = enumerate_primitive_classes(c, M, kind)
                assert classes == reference
                assert [assemble_S_series(classes, M)[m] for m in range(M + 1)] == N
                assert closed_paths(c, M, kind) == (N, primitive_counts(reference, M))

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*[st.integers(1, 2)] * 3), st.floats(0.3, 1.0), st.floats(0.0, 1.0),
           st.sampled_from(["edge", "gallery"]), st.integers(1, 13),
           st.randoms(use_true_random=False))
    def test_matches_oracles_on_random_complexes(self, per_type, p_edge, p_chamber, kind,
                                                 order, rng):
        c = closed_typed_complex(rng, per_type, p_edge, p_chamber)
        N = count_closed_paths(c, order, kind)
        reference = reference_classes(c, order, kind)
        assert enumerate_primitive_classes(c, order, kind) == reference
        assert closed_paths(c, order, kind) == (N, primitive_counts(reference, order))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
               st.lists(st.integers(0, n - 1), max_size=3, unique=True),
               min_size=n, max_size=n)),
           st.integers(1, 9))
    def test_walk_matches_brute_force_on_digraphs(self, out, max_length):
        """On raw successor lists, self-loops and repeated visits to the start
        included, the walk from every node yields each necklace trail once
        when an unpruned walk from every node closes it, with its minimal
        period (in any order: its consumers sort or sum)."""
        found, classes = [], set()

        def walk(trail):
            for w in out[trail[-1]]:
                if w == trail[0]:
                    rep = min(trail[i:] + trail[:i] for i in range(len(trail)))
                    n = len(rep)
                    period = next(d for d in range(1, n + 1) if rep == rep[d:] + rep[:d])
                    classes.add((rep, period))
                    if trail == rep:
                        found.append((rep, period))
                if len(trail) < max_length:
                    walk(trail + (w,))

        for s in range(len(out)):
            walk((s,))
        walks = walk_classes(*csr(out), range(len(out)), max_length)
        assert sorted(walks) == sorted(found)
        assert sorted(walks) == sorted(classes)

    def test_torus_primitive_counts_match_geometry(self, torus, torus_spec):
        for kind in ("edge", "gallery"):
            classes = enumerate_primitive_classes(torus, M, kind)
            assert primitive_counts(classes, M) == \
                torus_primitive_counts(torus_spec.basis, M, kind)

    @pytest.mark.parametrize("oracle", [torus_trace_counts, torus_primitive_counts])
    @pytest.mark.parametrize("kind", ["chamber", "bogus"])
    def test_torus_oracles_refuse_unknown_kind(self, torus, torus_spec, oracle, kind):
        with pytest.raises(ValueError) as expected:
            transitions(torus, kind)
        with pytest.raises(ValueError) as refused:
            oracle(torus_spec.basis, M, kind)
        assert str(refused.value) == str(expected.value) == \
            f"unknown kind {kind!r}: expected 'edge' or 'gallery'"

    def test_representatives_are_closed_orbits(self, torus):
        from btzeta.operators import edge_successors

        for g in enumerate_primitive_classes(torus, 6):
            rep = g.representative
            for cur, nxt in zip(rep, rep[1:] + rep[:1]):
                assert nxt in edge_successors(torus, cur)


# the ladder tori k*id and the skew torus 6 3 0 9, and the 27x27 torus
HIGH_ORDER_TORI = [((k, 0), (0, k)) for k in (6, 9, 12, 15, 27)] + [((6, 3), (0, 9))]


class TestComponentSplit:
    """Cycle components read off with no walk, every other component walked on its
    own, against the unsplit routes."""

    # seed 0's gallery relation has a cycle and a larger component of its own;
    # seed 2's edge relation is the cheapest of the first seeds for the unpruned
    # oracle at order 12 (1 s against 3 s)
    @pytest.mark.parametrize("seed, kind", [(0, "gallery"), (2, "edge"), (2, "gallery")])
    def test_split_matches_unsplit_routes_on_mixed_unions(self, torus, three_cycle, seed,
                                                          kind):
        branching = closed_typed_complex(random.Random(seed), (4, 4, 4))
        c = disjoint_union(torus, three_cycle, branching)
        cycles, others = _relation_components(c, kind)
        assert cycles and others  # both routes run
        zeta = zeta_edge if kind == "edge" else zeta_chamber
        assert zeta(c) == char_poly_reverse(three_step_operator(c, kind)).subst_u_power(3)
        nodes, (indptr, indices, _) = node_list(c, kind), transitions(c, kind)
        # the plain oracle's count at an order is the prefix of a longer one
        N = count_closed_paths(c, 12, kind)
        # the orders below the shortest cycle (3 for edges, 6 for galleries) see
        # no cycle, which still gave Z its factor
        assert min(map(len, cycles)) == (3 if kind == "edge" else 6)
        for order in range(1, 13):
            classes = enumerate_primitive_classes(c, order, kind)
            assert closed_paths(c, order, kind) == (N[:order + 1],
                                                     primitive_counts(classes, order))
            assert [(g.representative, g.primitive_length) for g in classes] == \
                [(tuple(nodes[i] for i in rep), period)
                 for rep, period in sorted(walk_classes(indptr, indices, range(len(nodes)),
                                                        order))]

    @pytest.mark.parametrize("kind", ["edge", "gallery"])
    @pytest.mark.parametrize("basis", HIGH_ORDER_TORI, ids=str)
    def test_tori_match_geometry_at_order_60_without_a_walk(self, basis, kind,
                                                            monkeypatch):
        def no_walk(*args):
            raise AssertionError("a torus relation has only cycle components")

        monkeypatch.setattr(geodesics, "_frontier_walk", no_walk)
        c = gen_apartment_torus(ApartmentSpec(basis))
        assert closed_paths(c, 60, kind) == (torus_trace_counts(basis, 60, kind),
                                             torus_primitive_counts(basis, 60, kind))


class TestWalkStarts:
    @pytest.mark.parametrize("kind", ["edge", "gallery"])
    def test_walk_starts_are_rest_in_global_indices(self, torus, three_cycle, kind,
                                                    monkeypatch):
        # the walk runs on the whole relation, from the nodes of the non-cycle
        # components only, with no renumbered subrelation
        c = disjoint_union(torus, three_cycle,
                           closed_typed_complex(random.Random(2), (4, 4, 4)))
        starts = []
        original = geodesics._frontier_walk

        def recording(indptr, indices, walked, max_length):
            starts.extend(walked)
            return original(indptr, indices, walked, max_length)

        monkeypatch.setattr(geodesics, "_frontier_walk", recording)
        _, rest = _relation_components(c, kind)
        assert rest != tuple(range(len(rest)))  # the nodes interleave
        closed_paths(c, 6, kind)
        assert tuple(starts) == rest
        starts.clear()
        enumerate_primitive_classes(c, 6, kind)
        assert tuple(starts) == rest


class TestFrontierWalk:
    def test_memory_is_bounded_by_the_chunk_size(self):
        # the complete 4+4+4 tripartite graph with no chamber: 48 positive edges
        # with 4 continuations each; at order 9 the widest level holds about 11
        # chunks of rows, and all of it at once peaks near 18 MB
        c = closed_typed_complex(random.Random(0), (4, 4, 4), p_chamber=0.0)
        order = 9
        N = count_closed_paths(c, order)
        P = [0] * (order + 1)
        for m in range(1, order + 1):
            P[m] = (N[m] - sum(d * P[d] for d in range(1, m) if m % d == 0)) // m
        _relation_components(c, "edge")  # memoized: the peak below is the walk's
        tracemalloc.start()
        try:
            counts = closed_paths(c, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == (N, P)
        assert peak < 64 * geodesics._CHUNK * order

    @pytest.mark.parametrize("kind", ["edge", "gallery"])
    def test_blocks_and_chunks_leave_the_classes(self, kind, monkeypatch):
        # six branching complexes: more than 256 nodes, so the trails take two
        # bytes a node
        c = disjoint_union(*(closed_typed_complex(random.Random(seed), (4, 4, 4))
                             for seed in range(6)))
        assert len(transitions(c, kind).grade) > 256
        whole = enumerate_primitive_classes(c, 8, kind), closed_paths(c, 8, kind)
        assert whole[1][0] == count_closed_paths(c, 8, kind)
        # five starts a block, seven rows a chunk
        monkeypatch.setattr(geodesics, "_BLOCK", 5 * len(transitions(c, kind).indptr))
        monkeypatch.setattr(geodesics, "_CHUNK", 7)
        assert (enumerate_primitive_classes(c, 8, kind), closed_paths(c, 8, kind)) == whole


class TestSeriesAssembly:
    def test_primitive_product_three_cycle(self, three_cycle):
        classes = enumerate_primitive_classes(three_cycle, M)
        series = primitive_product(classes, M)
        assert [series[m] for m in range(M + 1)] == [1, 0, 0, -1] + [0] * 9

    def test_primitive_product_empty(self):
        assert [primitive_product([], 5)[m] for m in range(6)] == [1, 0, 0, 0, 0, 0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 15), st.integers(1, 3)), max_size=12),
           st.integers(1, 12))
    def test_primitive_product_matches_polynomial_product(self, shapes, max_length):
        classes = [GeodesicClass(d * k, d, k, ()) for d, k in shapes]
        expected = IntPolynomial.one()
        for g in classes:
            if g.power == 1:  # powers are not primitive; long factors truncate away
                expected = expected * (IntPolynomial.one() - IntPolynomial.monomial(g.length))
        series = primitive_product(classes, max_length)
        assert [series[m] for m in range(max_length + 1)] == \
            [expected[m] for m in range(max_length + 1)]

    def test_default_weights_give_path_counts(self, torus):
        classes = enumerate_primitive_classes(torus, M)
        series = assemble_S_series(classes, M)
        counts = count_closed_paths(torus, M)
        assert [series[m] for m in range(M + 1)] == counts

    def test_exp_identity(self, three_cycle, six_cycle, torus, skew_torus):
        # exp(-integral of the length series) equals the primitive product
        for c in (three_cycle, six_cycle, torus, skew_torus):
            for kind in ("edge", "gallery"):
                classes = enumerate_primitive_classes(c, M, kind)
                s = assemble_S_series(classes, M)
                exp_side = series_exp_neg_integral(
                    [0] + [s[m] for m in range(1, M + 1)], M)
                assert exp_side == primitive_product(classes, M)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)),
                                        max_size=10),
           st.integers(0, 12), st.integers(-2, 2))
    def test_exp_identity_as_log_derivative(self, order, shapes, spot, delta):
        # the integer form run_verify checks: -u d/du log(product) = N up to
        # the order holds exactly when exp(-sum N_m u^m / m) = product
        classes = [GeodesicClass(d * k, d, k, ()) for d, k in shapes]
        prims = primitive_counts(classes, order)
        N = [sum(d * prims[d] for d in range(1, m + 1) if m % d == 0)
             for m in range(order + 1)]
        N[min(spot, order)] += delta
        product = primitive_product(classes, order)
        log_side = log_derivative_series(IntPolynomial(product.coeffs), order)
        assert all(type(x) is int for x in log_side.coeffs)
        assert (all(log_side[m] == N[m] for m in range(1, order + 1))
                == (series_exp_neg_integral(N, order) == product))

    def test_empty_class_list(self):
        series = assemble_S_series([], 6)
        assert all(series[m] == 0 for m in range(7))


class TestGeodesicClassInvariants:
    def test_length_consistency_enforced(self):
        with pytest.raises(ValueError):
            GeodesicClass(length=6, primitive_length=4, power=2, representative=())
