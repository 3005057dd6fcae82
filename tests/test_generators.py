from __future__ import annotations

import hashlib
import json
from collections import Counter
from itertools import product

import numpy as np
import pytest
import sympy

from btzeta import (
    ApartmentSpec,
    BallSpec,
    GenerationError,
    dumps_complex,
    euler_characteristic,
    simplex_counts,
    validate_complex,
)
from btzeta import generators
from btzeta.operators import transitions
from btzeta.generators import (
    Q_BOUND,
    VERTEX_BOUND,
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

    @pytest.mark.parametrize("basis", [
        ((6, 0), (0, 6.9)), ((6, 0), (0, 6.0)), ((True, 0), (0, 3)), ((3, 0), (0, "3")),
        "ab", ((3, 0), 3), 3, None, ((3, 0, 0), (0, 3, 0)), ((3, 0),),
    ], ids=["float", "integral-float", "bool", "string-entry", "string", "int-row",
            "int", "none", "2x3", "1x2"])
    def test_basis_entries_must_be_integers(self, basis):
        with pytest.raises(GenerationError, match="2x2 integer matrix"):
            ApartmentSpec(basis)

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

    def test_word_ball_check_alone_gives_genuine_tori(self):
        # every type-preserving basis with small entries: the one input check
        # either refuses it or the torus has the full local tiling structure
        accepted = refused = 0
        for a, b, c, d in product(range(-6, 7), repeat=4):
            det = a * d - b * c
            if (a - c) % 3 or (b - d) % 3 or not 0 < abs(det) <= 81:
                continue
            try:
                cx = gen_apartment_torus(ApartmentSpec(((a, b), (c, d))))
            except GenerationError as exc:
                assert "identifies star simplices" in str(exc)
                refused += 1
                continue
            accepted += 1
            n0 = len(cx.vertices)
            assert (n0, len(cx.edges), len(cx.chambers)) == (abs(det), 3 * n0, 2 * n0)
            degree, per_vertex, per_edge = Counter(), Counter(), Counter()
            for e in cx.edges:
                degree.update(e)
            for x, y, z in cx.chambers:
                per_vertex.update((x, y, z))
                per_edge.update(((x, y), (x, z), (y, z)))
            assert set(degree.values()) == set(per_vertex.values()) == {6}
            assert len(degree) == len(per_vertex) == n0
            assert set(per_edge.values()) == {2} and len(per_edge) == len(cx.edges)
            assert set(np.diff(transitions(cx, "edge").indptr).tolist()) == {1}
        assert (accepted, refused) == (1840, 992)

    def test_beyond_vertex_bound_refused_before_listing(self):
        with pytest.raises(GenerationError, match=f"100008 vertices beyond bound {VERTEX_BOUND}"):
            gen_apartment_torus(ApartmentSpec(((3, 0), (0, 33336))))
        with pytest.raises(GenerationError, match="beyond bound"):
            gen_apartment_torus(ApartmentSpec(((3, 0), (0, 10 ** 20 - 1))))

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

    def test_q_beyond_bound_refused_before_factoring(self):
        # the radius-1 ball of Q_BOUND is the largest within the vertex bound
        assert 1 + 2 * (Q_BOUND ** 2 + Q_BOUND + 1) <= VERTEX_BOUND
        assert 1 + 2 * ((Q_BOUND + 1) ** 2 + Q_BOUND + 2) > VERTEX_BOUND
        # 2^61 - 1 is prime: trial division up to its square root would not end
        for q in (Q_BOUND + 1, 2 ** 61 - 1):
            with pytest.raises(GenerationError, match=f"q={q}: beyond bound {Q_BOUND}"):
                BallSpec(q=q, radius=1)

    def test_radius_beyond_bound(self):
        with pytest.raises(GenerationError, match="beyond bound"):
            gen_building_ball(BallSpec(q=2, radius=4))

    def test_prime_power_radius_two_unsupported(self):
        with pytest.raises(GenerationError, match="prime q"):
            gen_building_ball(BallSpec(q=4, radius=2))

    @pytest.mark.parametrize("kwargs, message", [
        ({"q": 2, "radius": 4}, "radius 4 beyond bound 3"),
        ({"q": 4, "radius": 2}, "prime q only"),
        ({"q": 2, "radius": -1}, "nonnegative"),
        ({"q": 2, "radius": 1, "center_type": 3}, "center_type"),
    ])
    def test_spec_refuses_every_bad_ball(self, kwargs, message):
        with pytest.raises(GenerationError, match=message):
            BallSpec(**kwargs)

    def test_spec_factors_q_once(self, monkeypatch):
        factored = []
        original = generators._factor_prime_power
        monkeypatch.setattr(generators, "_factor_prime_power",
                            lambda q: factored.append(q) or original(q))
        for q, radius in ((4, 1), (3, 2), (2, 0)):
            gen_building_ball(BallSpec(q=q, radius=radius), with_geometry=True)
        assert factored == [4, 3, 2]

    def test_spec_constructor_equality_and_repr(self):
        spec = BallSpec(9, 1, 2)
        assert (spec.p, spec.k) == (3, 2)
        assert spec == BallSpec(q=9, radius=1, center_type=2) != BallSpec(q=9, radius=1)
        assert hash(spec) == hash(BallSpec(9, 1, 2))
        assert repr(spec) == "BallSpec(q=9, radius=1, center_type=2)"

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
    # radius-1 ball was built by testing every point-line pair for incidence
    # and the larger balls by testing every pair of lattice classes for distance 1
    BALL_DIGESTS = {
        (2, 1): ("8155c072ffa1f2d6362d5b633b9acc68104f1d99a8e538c026f7b9509fa27849",
                 "a273a0e551bfac99bf81555a2ef1895d36153613cd7c7ac0349671228e3483b0"),
        (3, 1): ("0415f873501213f539ce3cc70ea96894b2d734f4f8f6d05794d4abcf9d6020e2",
                 "18928084da1850ec169e124d0b00201a6a66bc56889ee0c96d0084f98bc3f7cb"),
        (4, 1): ("79c435d49b0efab32d09d3acb3e2a00a3f2daf1e53e1a656ab892bdd8cdfdf9a",
                 "c129abe4cb4c2e73cf7e26ce6fa51aba77c8906e4b4b34920bfbbb6f2d8d08d6"),
        (5, 1): ("e80ac97f59602c14bf78dcce66efb62a7cd26e92cd4ae593de36ef9ca6b7ee8a",
                 "6b4f29a6a497d0105d031842b43d7d09b31d12419936223a1a29d3b169ede02d"),
        (7, 1): ("3f5e1c124cab363e803c3cc94802ffafeb411c912c0416a947544905c85265ad",
                 "55f75691edf7041655091ca4c19c3cbf12bf624a6d312d1c4eebd6aa672e7302"),
        (8, 1): ("c7b7c700b5b6e85aa3cf29097c7cf5ceaf2d86a6516953cbeb0117fca01caa68",
                 "5bb8283d638914e9bf1ed459777d81452a1ae2bbab1666a590c78530e38deffc"),
        (9, 1): ("0e7cc1260eb53c65f6d197554c635456b12c55c54775a8f503384c4310258fa7",
                 "14ac0f0bd1607733adc576bb74bae146deeb7660866b83cdfeda167d8c0b1284"),
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


def prime_powers(bound: int, least_exponent: int) -> list[tuple[int, int]]:
    """(p, k) for every prime power p^k <= bound with k >= least_exponent, by sympy."""
    factored = (sympy.factorint(q) for q in range(2, bound + 1))
    return [pk for f in factored if len(f) == 1 for pk in f.items() if pk[1] >= least_exponent]


@pytest.mark.parametrize("p, k", prime_powers(Q_BOUND, 2))
def test_gf_is_a_field(p, k):
    gf = generators._GF(p, k)
    assert len(gf.modulus) == k + 1 and gf.modulus[-1] == 1
    for a in gf.elements:
        if a != gf.zero:
            assert any(gf.mul(a, b) == gf.one for b in gf.elements), (p, k, a)


class TestCycleComplex:
    def test_three_cycle(self, three_cycle):
        assert simplex_counts(three_cycle) == simplex_counts(three_cycle)
        assert euler_characteristic(three_cycle) == 0
        assert [three_cycle.type_of[i] for i in range(3)] == [0, 1, 2]

    def test_six_cycle_types(self, six_cycle):
        assert [six_cycle.type_of[i] for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_beyond_vertex_bound_refused_before_listing(self):
        for n in (3 * (VERTEX_BOUND // 3 + 1), 3 * 10 ** 20):
            with pytest.raises(GenerationError, match=f"cycle of {n} vertices beyond bound"):
                gen_cycle_complex(n)

    def test_rejects_non_multiples_of_three(self):
        for n in (0, 1, 2, 4, 5, 7):
            with pytest.raises(GenerationError):
                gen_cycle_complex(n)
