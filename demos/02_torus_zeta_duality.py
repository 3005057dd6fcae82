"""Zeta polynomials and closed-geodesic counts on apartment torus quotients.

The quotient of the triangular tiling by a type-preserving lattice carries
two transfer operators: one on positively directed edges (straight-line
continuation) and one on pointed chambers (straight strip crossing).  Their
reverse characteristic polynomials are exact integer polynomials whose
logarithmic derivatives count based closed geodesics and galleries -- and a
brute-force walk over the complex, plus pure plane geometry, must agree
coefficient by coefficient.
"""

from btzeta import (
    ApartmentSpec,
    build_chamber_operator,
    build_edge_operator,
    count_closed_paths,
    enumerate_primitive_classes,
    gen_apartment_torus,
    log_derivative_series,
    primitive_counts,
    ratio_of,
    torus_trace_counts,
    zeta_chamber,
    zeta_edge,
)

M = 12
spec = ApartmentSpec(((3, 0), (0, 3)))
torus = gen_apartment_torus(spec)
print("Torus quotient by 3 * (identity):", torus)

z1 = zeta_edge(torus)
z2 = zeta_chamber(torus)
print("  edge zeta     Z1(u) =", z1)
print("  chamber zeta  Z2(u) =", z2)
print("  ratio Z2(-u)/Z1(u^2) =", ratio_of(z1, z2))

print()
print("Three independent routes to the closed-path counts (m = 1..12):")
log_route = [log_derivative_series(z1, M)[m] for m in range(1, M + 1)]
walk_route = count_closed_paths(torus, M)[1:]
geo_route = torus_trace_counts(spec.basis, M)[1:]
print("  -u Z1'/Z1 coefficients:", log_route)
print("  depth-first walk      :", walk_route)
print("  plane-line geometry   :", geo_route)
print("  all equal:", log_route == walk_route == geo_route)

print()
print("Same for galleries (pointed chambers):")
gallery_series = [log_derivative_series(z2, M)[m] for m in range(1, M + 1)]
gallery_walk = count_closed_paths(torus, M, "gallery")[1:]
gallery_geo = torus_trace_counts(spec.basis, M, "gallery")[1:]
print("  all equal:", gallery_series == gallery_walk == gallery_geo)

print()
print("Primitive classes decompose the counts (every closed path is a")
print("power of a unique primitive one):")
classes = enumerate_primitive_classes(torus, M)
prims = primitive_counts(classes, M)
print("  primitive classes by length:",
      {m: prims[m] for m in range(1, M + 1) if prims[m]})
print("  so N[12] =", sum(d * prims[d] for d in (1, 2, 3, 4, 6, 12)),
      "=", walk_route[11])

print()
print("The operators themselves are permutation matrices here (q = 1:")
print("every edge has exactly one straight continuation):")
le = build_edge_operator(torus)
lb = build_chamber_operator(torus)
print("  edge operator dim", le.dim, "with", len(le.entries), "entries")
print("  chamber operator dim", lb.dim, "with", len(lb.entries), "entries")
