from __future__ import annotations

import random

import pytest

from btzeta import ApartmentSpec, BallSpec, TypedComplex
from btzeta.generators import gen_apartment_torus, gen_building_ball, gen_cycle_complex


@pytest.fixture(scope="session")
def three_cycle() -> TypedComplex:
    return gen_cycle_complex(3)


@pytest.fixture(scope="session")
def six_cycle() -> TypedComplex:
    return gen_cycle_complex(6)


@pytest.fixture(scope="session")
def single_chamber() -> TypedComplex:
    return TypedComplex(
        vertices=[(0, 0), (1, 1), (2, 2)],
        edges=[(0, 1), (1, 2), (0, 2)],
        chambers=[(0, 1, 2)],
    )


@pytest.fixture(scope="session")
def torus_spec() -> ApartmentSpec:
    return ApartmentSpec(((3, 0), (0, 3)))


@pytest.fixture(scope="session")
def torus(torus_spec) -> TypedComplex:
    return gen_apartment_torus(torus_spec)


@pytest.fixture(scope="session")
def skew_torus_spec() -> ApartmentSpec:
    # columns (3,0) and (1,4): a non-diagonal type-preserving lattice
    return ApartmentSpec(((3, 1), (0, 4)))


@pytest.fixture(scope="session")
def skew_torus(skew_torus_spec) -> TypedComplex:
    return gen_apartment_torus(skew_torus_spec)


@pytest.fixture(scope="session")
def ball_q2(request) -> TypedComplex:
    return gen_building_ball(BallSpec(q=2, radius=1))


@pytest.fixture(scope="session")
def ball_q3() -> TypedComplex:
    return gen_building_ball(BallSpec(q=3, radius=1))


@pytest.fixture(scope="session")
def ball_q2_r2() -> TypedComplex:
    return gen_building_ball(BallSpec(q=2, radius=2))


def closed_typed_complex(rng: random.Random, per_type=(3, 3, 3), p_edge: float = 1.0,
                         p_chamber: float = 0.5) -> TypedComplex:
    """Random closed complex: each edge of the complete tripartite graph on
    ``per_type`` vertices kept with probability p_edge, each triangle whose
    edges are all kept made a chamber with probability p_chamber."""
    verts, by_type = [], []
    for t, k in enumerate(per_type):
        by_type.append(list(range(len(verts), len(verts) + k)))
        verts += [(v, t) for v in by_type[t]]
    edges = {(a, b) for s in range(3) for a in by_type[s] for b in by_type[(s + 1) % 3]
             if rng.random() < p_edge}
    chambers = [(a, b, c) for a in by_type[0] for b in by_type[1] for c in by_type[2]
                if all(e in edges or e[::-1] in edges for e in ((a, b), (b, c), (a, c)))
                and rng.random() < p_chamber]
    return TypedComplex(verts, edges, chambers)


def disjoint_union(*complexes: TypedComplex) -> TypedComplex:
    """Disjoint union of k complexes, complex i on the labels k * v + i, so their
    nodes interleave in the relations' index order."""
    k = len(complexes)
    verts, edges, chambers = [], [], []
    for i, c in enumerate(complexes):
        verts += [(k * v + i, t) for v, t in c.vertices]
        edges += [(k * a + i, k * b + i) for a, b in c.edges]
        chambers += [tuple(k * v + i for v in tri) for tri in c.chambers]
    return TypedComplex(verts, edges, chambers)
