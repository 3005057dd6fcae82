"""Generators for desk-scale test complexes.

Three families:

* apartment torus quotients -- the triangular tiling of the plane (vertex
  ``(i, j)`` has type ``(i - j) mod 3``) divided by a finite-index lattice of
  type-preserving translations;
* building balls -- the combinatorial ball of radius r around a vertex of the
  affine building attached to a rank-3 local lattice chain structure, built
  from explicit chains of subspaces/sublattices (no group theory involved);
* cycle complexes -- a single typed n-cycle, the minimal carrier of one
  closed positive geodesic.

All generators are deterministic: identical specs produce identical complexes
(and byte-identical files after :func:`btzeta.complexes.save_complex`).
Generator geometry (plane coordinates, lattice-chain labels) is returned
separately and is not part of the complex itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import product

from .complexes import TypedComplex
from .cones import _lower_hermite_form

__all__ = [
    "ApartmentSpec",
    "BallSpec",
    "GenerationError",
    "gen_apartment_torus",
    "gen_building_ball",
    "gen_cycle_complex",
    "Q_BOUND",
    "RADIUS_BOUND",
    "VERTEX_BOUND",
    "POSITIVE_DIRECTIONS",
    "plane_type",
]

RADIUS_BOUND = 3
VERTEX_BOUND = 10 ** 5
# the largest q whose radius-1 ball, 1 + 2(q^2+q+1) vertices, has at most VERTEX_BOUND
Q_BOUND = 223

# unit steps of the triangular tiling that raise the vertex type by one
POSITIVE_DIRECTIONS = ((1, 0), (0, -1), (-1, 1))
_ALL_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


class GenerationError(ValueError):
    """Raised when a generator spec is degenerate or the quotient is unusable."""


def plane_type(i: int, j: int) -> int:
    """Type of the tiling vertex (i, j)."""
    return (i - j) % 3


# ---------------------------------------------------------------------------
# apartment torus
# ---------------------------------------------------------------------------


def _integer_entry(x) -> int:
    """x as an int if it is an integer (``operator.index``) and not a bool, else TypeError."""
    if isinstance(x, bool):
        raise TypeError("a bool is not a basis entry")
    return operator.index(x)


@dataclass(frozen=True)
class ApartmentSpec:
    """2x2 integer matrix whose columns span the quotient translation lattice.

    Columns are vectors in the vertex coordinates of the triangular tiling
    and must preserve the type function, i.e. each column (a, b) needs
    a - b == 0 mod 3.  A basis that is not two rows of two integers (a
    float, a bool, a string or a non-iterable anywhere) raises
    ``GenerationError``: no entry is rounded or coerced.
    """

    basis: tuple[tuple[int, int], tuple[int, int]]

    def __init__(self, basis):  # noqa: D107
        try:
            rows = tuple(tuple(map(_integer_entry, row)) for row in basis)
        except TypeError:
            rows = ()
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise GenerationError("basis must be a 2x2 integer matrix")
        object.__setattr__(self, "basis", rows)

    @property
    def columns(self) -> tuple[tuple[int, int], tuple[int, int]]:
        b = self.basis
        return ((b[0][0], b[1][0]), (b[0][1], b[1][1]))

    @property
    def det(self) -> int:
        b = self.basis
        return b[0][0] * b[1][1] - b[0][1] * b[1][0]


def _word_ball(radius: int) -> set[tuple[int, int]]:
    ball = {(0, 0)}
    frontier = {(0, 0)}
    for _ in range(radius):
        frontier = {(x + dx, y + dy) for x, y in frontier for dx, dy in _ALL_STEPS}
        ball |= frontier
    return ball


def gen_apartment_torus(spec: ApartmentSpec, with_geometry: bool = False):
    """Triangulated torus quotient of the plane tiling.

    The basis must preserve vertex types and leave no nonzero lattice vector
    in the radius-2 word ball (at most two unit steps from the origin);
    otherwise a ``quotient too small`` error is raised.  That one check makes
    the quotient a genuine simplicial torus: two vertices of a closed star,
    the third vertices of an edge's two chambers, and the ends of a positive
    edge's straight continuation all lie within two unit steps, so only a
    lattice vector in the ball could identify them.  Every vertex thus has
    degree 6 and 6 chambers, every edge 2 chambers, N1 = 3 N0, N2 = 2 N0, and
    every directed positive edge one straight continuation.  More than
    ``VERTEX_BOUND`` vertices (|det|) are refused before any is listed.
    """
    if spec.det == 0:
        raise GenerationError("degenerate basis (determinant 0)")
    for a, b in spec.columns:
        if (a - b) % 3 != 0:
            raise GenerationError(
                f"quotient too small: basis column ({a},{b}) does not preserve "
                "vertex types (type classes collapse)")

    # lower Hermite form: the lattice has columns (hx, hy), (0, hz), 0 <= hy < hz
    (hx, _), (hy, hz) = _lower_hermite_form(spec.basis)

    def reduce(v: tuple[int, int]) -> tuple[int, int]:
        x, y = v
        k = x // hx
        x, y = x - k * hx, y - k * hy
        y -= (y // hz) * hz
        return x, y

    # nonzero lattice vectors inside the combinatorial 2-ball identify
    # simplices of a common star
    for w in _word_ball(2):
        if w != (0, 0) and reduce(w) == (0, 0):
            raise GenerationError(
                f"quotient too small: lattice vector {w} identifies star simplices")
    if abs(spec.det) > VERTEX_BOUND:
        raise GenerationError(f"torus of {abs(spec.det)} vertices beyond bound {VERTEX_BOUND}")

    reps = sorted((x, y) for x in range(hx) for y in range(hz))
    vid = {v: i for i, v in enumerate(reps)}
    vertices = [(vid[v], plane_type(*v)) for v in reps]
    edges = set()
    for v in reps:
        for d in POSITIVE_DIRECTIONS:
            w = reduce((v[0] + d[0], v[1] + d[1]))
            edges.add(tuple(sorted((vid[v], vid[w]))))
    chambers = set()
    cells = []
    for v in reps:
        x, y = v
        up = ((x, y), (x + 1, y), (x, y + 1))
        down = ((x + 1, y), (x, y + 1), (x + 1, y + 1))
        for kind, cell in (("up", up), ("down", down)):
            tri = tuple(sorted(vid[reduce(p)] for p in cell))
            chambers.add(tri)
            cells.append({"kind": kind, "base": [x, y], "chamber": list(tri)})
    cx = TypedComplex(vertices, edges, chambers)
    if not with_geometry:
        return cx
    geometry = {
        "version": 1,
        "kind": "torus",
        "basis": [list(row) for row in spec.basis],
        "vertex_coords": [list(v) for v in reps],
        "cells": cells,
    }
    return cx, geometry


# ---------------------------------------------------------------------------
# finite fields for the radius-1 subspace model
# ---------------------------------------------------------------------------


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise GenerationError(f"unsupported q={q}: must be a prime power >= 2")
    p = 2
    n = q
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            if n != 1:
                raise GenerationError(f"unsupported q={q}: not a prime power")
            return p, k
        p += 1
    return n, 1


class _GF:
    """Tiny arithmetic for GF(p^k); elements are tuples of length k mod p."""

    def __init__(self, p: int, k: int):
        self.p, self.k = p, k
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self.modulus = self._find_irreducible() if k > 1 else (0, 1)
        self.elements = [tuple(c) for c in product(range(p), repeat=k)]

    def _polmod(self, coeffs: list[int], mod: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        coeffs = [c % p for c in coeffs]
        deg_m = len(mod) - 1
        while len(coeffs) > deg_m:
            lead = coeffs[-1]
            if lead:
                shift = len(coeffs) - 1 - deg_m
                for i, m in enumerate(mod):
                    coeffs[shift + i] = (coeffs[shift + i] - lead * m) % p
            coeffs.pop()
        coeffs += [0] * (deg_m - len(coeffs))
        return tuple(coeffs)

    def _find_irreducible(self) -> tuple[int, ...]:
        p, k = self.p, self.k
        lower = [
            tail + (1,)
            for d in range(1, k // 2 + 1)
            for tail in product(range(p), repeat=d)
        ]
        for tail in product(range(p), repeat=k):
            cand = tail + (1,)
            # every g is monic, so _polmod gives the remainder of cand by g
            if all(any(self._polmod(list(cand), g)) for g in lower):
                return cand
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        out = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._polmod(out, self.modulus)


def _projective_points(gf: _GF) -> list[tuple]:
    """Normalized representatives of the q^2+q+1 projective points of GF(q)^3."""
    pts = []
    for b in gf.elements:
        for c in gf.elements:
            pts.append((gf.one, b, c))
    for c in gf.elements:
        pts.append((gf.zero, gf.one, c))
    pts.append((gf.zero, gf.zero, gf.one))
    return pts


def _points_on_lines(gf: _GF, lines: list[tuple]) -> list[list[tuple]]:
    """The q+1 normalized projective points on each line, in the order of lines.

    A line is a normalized covector w, with w_i = 1 its first nonzero entry.
    Its kernel is spanned by u = e_j - w_j e_i and v = e_k - w_k e_i
    (j < k the other indices), so its points are u and a*u + v for a in GF(q).
    """
    inverse = {x: y for x in gf.elements for y in gf.elements if gf.mul(x, y) == gf.one}
    points_on = []
    for w in lines:
        i = next(n for n, x in enumerate(w) if x != gf.zero)
        j, k = (n for n in range(3) if n != i)
        points = []
        for a, b in [(gf.one, gf.zero)] + [(a, gf.one) for a in gf.elements]:
            vector = [gf.zero] * 3
            vector[i] = gf.neg(gf.add(gf.mul(a, w[j]), gf.mul(b, w[k])))
            vector[j], vector[k] = a, b
            scale = inverse[next(x for x in vector if x != gf.zero)]
            points.append(tuple(gf.mul(scale, x) for x in vector))
        points_on.append(points)
    return points_on


# ---------------------------------------------------------------------------
# building balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallSpec:
    """Ball parameters: residue cardinality q, radius, and center type.

    Every check of a ball runs here, and q = p^k is factored once; p and k
    are not in the constructor, the equality or the repr.
    """

    q: int
    radius: int
    center_type: int = 0
    p: int = field(init=False, repr=False, compare=False)
    k: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.q > Q_BOUND:
            raise GenerationError(f"unsupported q={self.q}: beyond bound {Q_BOUND}")
        p, k = _factor_prime_power(self.q)
        if self.radius < 0:
            raise GenerationError("radius must be nonnegative")
        if self.center_type not in (0, 1, 2):
            raise GenerationError("center_type must be 0, 1 or 2")
        if self.radius > RADIUS_BOUND:
            raise GenerationError(f"radius {self.radius} beyond bound {RADIUS_BOUND}")
        if self.radius >= 2 and k != 1:
            raise GenerationError(
                f"radius >= 2 supports prime q only (got q={self.q}); "
                "radius-1 balls support any prime power")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)


def gen_building_ball(spec: BallSpec, with_geometry: bool = False):
    """Radius-r combinatorial ball of the rank-3 affine building.

    Vertices are homothety classes of sublattices of a fixed rank-3 lattice;
    two classes are joined when representatives can be nested with colength
    one or two, and chambers are the pairwise-nested triples.  Every vertex
    at distance exactly r is marked as boundary.  Interior vertices have
    exactly q^2+q+1 neighbors of each of the two other types.
    """
    if spec.radius == 0:
        parts = [(0, spec.center_type)], [], [], [0], [{"center": True}]
    elif spec.radius == 1:
        parts = _ball_radius_one(spec)
    else:
        parts = _ball_from_lattice_chains(spec)
    vertices, edges, chambers, boundary, labels = parts
    cx = TypedComplex(vertices, edges, chambers, q=spec.q, boundary=boundary)
    geometry = {"version": 1, "kind": "ball", "q": spec.q, "radius": spec.radius,
                "center_type": spec.center_type, "labels": labels}
    return (cx, geometry) if with_geometry else cx


def _ball_radius_one(spec: BallSpec):
    """(vertices, edges, chambers, boundary, labels) of the radius-1 ball."""
    gf = _GF(spec.p, spec.k)
    points = _projective_points(gf)   # colength-2 classes
    lines = _projective_points(gf)    # covectors; kernels are colength-1 classes
    t0 = spec.center_type
    vertices = [(0, t0)]
    labels: list[dict] = [{"center": True}]
    line_id = {}
    for w in lines:
        line_id[w] = len(vertices)
        vertices.append((len(vertices), (t0 + 1) % 3))
        labels.append({"class": "colength1", "covector": [list(x) for x in w]})
    point_id = {}
    for pt in points:
        point_id[pt] = len(vertices)
        vertices.append((len(vertices), (t0 + 2) % 3))
        labels.append({"class": "colength2", "vector": [list(x) for x in pt]})
    edges = [(0, i) for i in range(1, len(vertices))]
    chambers = []
    for w, on_w in zip(lines, _points_on_lines(gf, lines)):
        for pt in on_w:
            edges.append((point_id[pt], line_id[w]))
            chambers.append((0, point_id[pt], line_id[w]))
    return vertices, edges, chambers, list(range(1, len(vertices))), labels


def _matmul3(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = tuple(zip(*b))
    return [[x * u + y * v + z * w for u, v, w in cols] for x, y, z in a]


def _between_lattices(p: int) -> list[list[list[int]]]:
    """Bases of the 2(p^2+p+1) lattices M with pZ^3 < M < Z^3 (columns span M).

    M is the preimage of a line or a plane of F_p^3.  With w a vector whose
    first nonzero entry w_i is 1, the line through w lifts to the span of w
    and p e_j (j != i), and the plane w . x = 0 to the span of e_j - w_j e_i
    (j != i) and p e_i.
    """
    def unit(j, scale=1):
        return [scale * (k == j) for k in range(3)]

    bases = []
    for i in range(3):
        for tail in product(range(p), repeat=2 - i):
            w = [0] * i + [1, *tail]
            others = [j for j in range(3) if j != i]
            line = [w] + [unit(j, p) for j in others]
            plane = [[a - w[j] * b for a, b in zip(unit(j), unit(i))] for j in others]
            bases += [line, plane + [unit(i, p)]]
    return [[list(row) for row in zip(*cols)] for cols in bases]


def _class_hnf(m: list[list[int]], p: int) -> tuple[tuple[int, ...], ...]:
    """Upper Hermite form of the representative of [m Z^3] in Z^3 but not in pZ^3.

    The form h has h[i][i] > 0 and 0 <= h[i][j] < h[i][i] for j > i; it is
    the lower form of the lattice with its coordinates reversed, reversed
    back.  m Z^3 must lie in Z^3 and not in p^2 Z^3.
    """
    h = [row[::-1] for row in _lower_hermite_form(m[::-1])[::-1]]
    if all(x % p == 0 for row in h for x in row):
        h = [[x // p for x in row] for row in h]
    return tuple(map(tuple, h))


def _ball_from_lattice_chains(spec: BallSpec):
    """(vertices, edges, chambers, boundary, labels) of the ball for prime q = p.

    It grows breadth-first around [Z^3]; vertices are ordered by (distance,
    Hermite form).

    The neighbours of a class [L] are the classes [L'] with pL < L' < L,
    which are L's basis times the bases of ``_between_lattices``.  A class
    is named by the Hermite form of its representative in Z^3 but not in
    pZ^3, whose diagonal has product p^colength.
    """
    r, p = spec.radius, spec.p
    between = _between_lattices(p)
    distance = {((1, 0, 0), (0, 1, 0), (0, 0, 1)): 0}
    neighbours = {}
    layer = list(distance)
    for d in range(r + 1):
        next_layer = []
        for h in layer:
            neighbours[h] = [_class_hnf(_matmul3(h, m), p) for m in between]
            for g in neighbours[h]:
                if d < r and g not in distance:
                    distance[g] = d + 1
                    next_layer.append(g)
        layer = next_layer
    order = sorted(distance, key=lambda h: (distance[h], h))
    index = {h: i for i, h in enumerate(order)}
    t0 = spec.center_type
    vertices = []
    labels = []
    for i, h in enumerate(order):
        colength, det = 0, h[0][0] * h[1][1] * h[2][2]
        while det > 1:
            colength, det = colength + 1, det // p
        vertices.append((i, (t0 + colength) % 3))
        labels.append({"hnf": [list(row) for row in h], "distance": distance[h]})
    adjacency = [{index[g] for g in neighbours[h] if g in index} for h in order]
    edges = [(i, j) for i in range(len(order)) for j in sorted(adjacency[i]) if j > i]
    chambers = []
    for i, j in edges:
        for m in sorted(adjacency[i] & adjacency[j]):
            if m > j:
                chambers.append((i, j, m))
    boundary = [i for i, h in enumerate(order) if distance[h] == r]
    return vertices, edges, chambers, boundary, labels


# ---------------------------------------------------------------------------
# cycle complexes
# ---------------------------------------------------------------------------


def gen_cycle_complex(n: int) -> TypedComplex:
    """Typed n-cycle (n a positive multiple of 3): one closed positive geodesic."""
    if n < 3 or n % 3 != 0:
        raise GenerationError(f"cycle length must be a positive multiple of 3, got {n}")
    if n > VERTEX_BOUND:
        raise GenerationError(f"cycle of {n} vertices beyond bound {VERTEX_BOUND}")
    vertices = [(i, i % 3) for i in range(n)]
    edges = [(i, (i + 1) % n) for i in range(n)]
    return TypedComplex(vertices, edges)
