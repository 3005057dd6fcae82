from __future__ import annotations

import hashlib
import json
from collections import Counter
from itertools import product

import pytest

from btzeta import (
    ApartmentSpec,
    BallSpec,
    GenerationError,
    dumps_complex,
    euler_characteristic,
    simplex_counts,
    validate_complex,
)
from btzeta.generators import (
    gen_apartment_torus,
    gen_building_ball,
    gen_cycle_complex,
    plane_type,
)


# -- independent projective-plane oracle (prime q) ---------------------------


def pg2_points(q: int) -> list[tuple[int, int, int]]:
    """Projective points of PG(2, q) for prime q, by brute normalization."""
    pts = set()
    for v in product(range(q), repeat=3):
        if v == (0, 0, 0):
            continue
        first = next(x for x in v if x)
        inv = pow(first, q - 2, q)
        pts.add(tuple((inv * x) % q for x in v))
    return sorted(pts)


def pg2_flags(q: int) -> int:
    points = pg2_points(q)
    return sum(
        1 for p in points for line in points
        if sum(a * b for a, b in zip(p, line)) % q == 0
    )


class TestApartmentTorus:
    def test_counts_diag(self, torus):
        counts = simplex_counts(torus)
        assert (counts.N0, counts.N1, counts.N2) == (9, 27, 18)
        assert euler_characteristic(torus) == 0

    def test_local_structure(self, torus):
        degrees = Counter()
        for a, b in torus.edges:
            degrees[a] += 1
            degrees[b] += 1
        assert set(degrees.values()) == {6}
        per_vertex = Counter()
        per_edge = Counter()
        for tri in torus.chambers:
            for v in tri:
                per_vertex[v] += 1
            a, b, c = tri
            for e in ((a, b), (a, c), (b, c)):
                per_edge[e] += 1
        assert set(per_vertex.values()) == {6}
        assert set(per_edge.values()) == {2}

    def test_skew_counts(self, skew_torus):
        counts = simplex_counts(skew_torus)
        assert (counts.N0, counts.N1, counts.N2) == (12, 36, 24)
        assert euler_characteristic(skew_torus) == 0

    def test_degenerate_basis(self):
        with pytest.raises(GenerationError, match="degenerate"):
            gen_apartment_torus(ApartmentSpec(((1, 2), (2, 4))))

    def test_identity_quotient_too_small(self):
        with pytest.raises(GenerationError, match="quotient too small"):
            gen_apartment_torus(ApartmentSpec(((1, 0), (0, 1))))

    def test_type_preserving_but_tiny(self):
        # columns (1,1) and (0,3) preserve types but identify star simplices
        with pytest.raises(GenerationError, match="quotient too small"):
            gen_apartment_torus(ApartmentSpec(((1, 0), (1, 3))))

    def test_determinism(self, torus_spec):
        a = dumps_complex(gen_apartment_torus(torus_spec))
        b = dumps_complex(gen_apartment_torus(torus_spec))
        assert a == b

    def test_geometry_sidecar(self, torus_spec):
        cx, geom = gen_apartment_torus(torus_spec, with_geometry=True)
        assert geom["kind"] == "torus"
        assert geom["basis"] == [[3, 0], [0, 3]]
        assert len(geom["vertex_coords"]) == len(cx.vertices)
        for vid, (i, j) in enumerate(geom["vertex_coords"]):
            assert cx.type_of[vid] == plane_type(i, j)


class TestBuildingBall:
    def test_q2_counts_match_projective_oracle(self, ball_q2):
        q = 2
        points = pg2_points(q)
        assert len(points) == q * q + q + 1
        flags = pg2_flags(q)
        assert flags == (q * q + q + 1) * (q + 1)
        counts = simplex_counts(ball_q2)
        assert counts.N0 == 1 + 2 * len(points)
        assert counts.N1 == 2 * len(points) + flags
        assert counts.N2 == flags
        assert (counts.N0, counts.N1, counts.N2) == (15, 35, 21)
        assert euler_characteristic(ball_q2) == 1

    def test_q2_center_degree(self, ball_q2):
        assert len(ball_q2.neighbors(0)) == 14

    def test_q3_center_degree_and_chambers(self, ball_q3):
        assert len(ball_q3.neighbors(0)) == 2 * (9 + 3 + 1)
        per_edge = Counter()
        for tri in ball_q3.chambers:
            a, b, c = tri
            for e in ((a, b), (a, c), (b, c)):
                per_edge[e] += 1
        center_edges = [e for e in ball_q3.edges if 0 in e]
        assert {per_edge[e] for e in center_edges} == {4}

    def test_radius_zero(self):
        ball = gen_building_ball(BallSpec(q=2, radius=0))
        counts = simplex_counts(ball)
        assert (counts.N0, counts.N1, counts.N2) == (1, 0, 0)

    def test_boundary_marked(self, ball_q2):
        assert ball_q2.boundary == frozenset(range(1, 15))

    def test_prime_power_radius_one(self):
        ball = gen_building_ball(BallSpec(q=4, radius=1))
        assert len(ball.neighbors(0)) == 2 * (16 + 4 + 1)
        per_edge = Counter()
        for tri in ball.chambers:
            a, b, c = tri
            for e in ((a, b), (a, c), (b, c)):
                per_edge[e] += 1
        assert {per_edge[e] for e in ball.edges if 0 in e} == {5}

    def test_non_prime_power_rejected(self):
        with pytest.raises(GenerationError, match="prime power"):
            gen_building_ball(BallSpec(q=6, radius=1))

    def test_radius_beyond_bound(self):
        with pytest.raises(GenerationError, match="beyond bound"):
            gen_building_ball(BallSpec(q=2, radius=4))

    def test_prime_power_radius_two_unsupported(self):
        with pytest.raises(GenerationError, match="prime q"):
            gen_building_ball(BallSpec(q=4, radius=2))

    def test_radius_two_interior_links(self, ball_q2_r2):
        q = 2
        interior = {v for v, _ in ball_q2_r2.vertices} - ball_q2_r2.boundary
        assert len(interior) == 15  # the whole radius-1 ball is interior
        for v in interior:
            per_type = Counter(ball_q2_r2.type_of[w] for w in ball_q2_r2.neighbors(v))
            others = {0, 1, 2} - {ball_q2_r2.type_of[v]}
            assert per_type == Counter({t: q * q + q + 1 for t in others})

    def test_radius_two_routes_agree_on_radius_one_part(self, ball_q2, ball_q2_r2):
        # distance <= 1 sub-structure of the radius-2 ball matches the
        # subspace-model ball (counts and degree profile)
        interior = sorted({v for v, _ in ball_q2_r2.vertices} - ball_q2_r2.boundary)
        sub_edges = [e for e in ball_q2_r2.edges
                     if e[0] in interior and e[1] in interior]
        sub_chambers = [t for t in ball_q2_r2.chambers
                        if all(v in interior for v in t)]
        assert len(interior) == len(ball_q2.vertices)
        assert len(sub_edges) == len(ball_q2.edges)
        assert len(sub_chambers) == len(ball_q2.chambers)

    # sha256 of the complex file and of the .geom sidecar, recorded when the
    # ball was built by testing every pair of lattice classes for distance 1
    BALL_DIGESTS = {
        (2, 3): ("7ac40d231602fd599e72e2203a40fd5d7a0fb6bec2a6a6a94a5b67b3fe506247",
                 "20861eaf97734b01bb5b120e4c0cc67b2453b27eb5c4a80d9043e35bce01c8ef"),
        (3, 2): ("5dc89c9642caa6490a6d3bee0a6993a1cf26f9637d860936f5f2cd982e1d8507",
                 "5e2ee6776185e431a5b0b30bf8efe9dd8856d3149d664b18ab703468e31c7117"),
    }

    @pytest.mark.parametrize("q, radius", sorted(BALL_DIGESTS))
    def test_ball_files_are_byte_identical_to_recorded(self, q, radius):
        cx, geometry = gen_building_ball(BallSpec(q=q, radius=radius), with_geometry=True)
        sidecar = json.dumps(geometry, sort_keys=True, separators=(",", ":")) + "\n"
        assert tuple(hashlib.sha256(text.encode()).hexdigest()
                     for text in (dumps_complex(cx), sidecar)) == self.BALL_DIGESTS[q, radius]

    def test_determinism(self):
        a = dumps_complex(gen_building_ball(BallSpec(q=2, radius=1)))
        b = dumps_complex(gen_building_ball(BallSpec(q=2, radius=1)))
        assert a == b

    def test_center_type_shifts_types(self):
        ball = gen_building_ball(BallSpec(q=2, radius=1, center_type=1))
        assert ball.type_of[0] == 1
        assert validate_complex(ball).ok


class TestCycleComplex:
    def test_three_cycle(self, three_cycle):
        assert simplex_counts(three_cycle) == simplex_counts(three_cycle)
        assert euler_characteristic(three_cycle) == 0
        assert [three_cycle.type_of[i] for i in range(3)] == [0, 1, 2]

    def test_six_cycle_types(self, six_cycle):
        assert [six_cycle.type_of[i] for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_rejects_non_multiples_of_three(self):
        for n in (0, 1, 2, 4, 5, 7):
            with pytest.raises(GenerationError):
                gen_cycle_complex(n)
