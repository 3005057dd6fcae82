"""Seeded inputs for the btzeta benchmark workloads.

Every workload is a list of items; one pass runs each item once through a
public ``btz`` command.  The inputs depend only on ``--seed`` and on the
recorded tables in ``reference.json``:

* ``torus-verify``: apartment tori 9x9, 6x6 and the skew torus with basis
  ``6 3 0 9``, every torus shape of index 27 twice, and a few cycles.  The
  seed relabels every vertex, orders the items and picks the cycle lengths;
  relabelling leaves the zeta polynomials and path counts unchanged, so each
  item is checked against the digest recorded for its shape.
* ``branching-verify``: random closed typed complexes on the complete
  tripartite graph with four vertices per type, 40 of the 64 triangles filled
  (each triangle a chamber with probability 0.625).  Four complexes of a
  seeded pool are fixed, one at the centre of each quarter of the pool's
  enumeration cost, and their digests recorded; the seed relabels them and
  orders them.
* ``cone-batch``: random cones of rank 1-3 with functionals in [-5, 5], drawn
  so that the fundamental-set sizes |F| follow recorded quantiles of that
  distribution (one cone per quantile slot), half with the trivial
  character and half with a rational one.  They run in slot order, smallest
  |F| first: peak memory is set by the largest cones on top of what the
  pass has left in the heap, and a seeded order moves it by 5-10%.
* ``rh-planted``: synthetic ratios (1-u^3)^(chi-1) P1 / ((1-q^3 u^3) P2)
  whose factors are planted tempered or non-tempered quadratics, drawn with
  replacement.

Fixing the shapes of the complexes and stratifying the cones by recorded
quantiles keeps the work of one pass nearly the same for every seed, so the
figures of different seeds can be compared: on a shared two-core machine the
run-to-run noise is already 5-10%, and a seed that drew costlier inputs would
add to it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from btzeta.complexes import TypedComplex, save_complex
from btzeta.generators import ApartmentSpec, gen_apartment_torus, gen_cycle_complex

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# torus-verify composition: the three tori named for the workload, then each
# torus shape of index 27 twice (enough items for a tail percentile) and cycles
BIG_TORI = ((9, 0, 0, 9), (6, 3, 0, 9), (6, 0, 0, 6))
SMALL_TORUS_INDEX = 27
SMALL_TORUS_COPIES = 2
CYCLES_PER_PASS = 3
CYCLE_LENGTHS = tuple(range(3, 31, 3))

BRANCHING_PER_TYPE = 4
BRANCHING_CHAMBERS = 40
BRANCHING_POOL = 192
BRANCHING_ITEMS = 4

CONES_PER_PASS = 200
CONE_ENTRY_BOUND = 5
# the top quantile slot draws |F| between the 0.995 quantile and this cap; a
# narrow band keeps peak memory, which the largest cone sets, steady by seed
CONE_FSIZE_CAP = 30_000
CONE_U_RANGE = (0.1, 0.5)
# Rational characters take the values +-1: with |chi| = 1 the partial sums at
# bound 60 converge as fast as for the trivial character and reach the 1e-9
# check, while multipliers such as 1/2 or 2 leave truncation errors of 1e-8
# and more on cones whose points have large coordinates.
CONE_MULTIPLIERS = (1, -1)

RH_RATIOS = 30
RH_QS = (2, 3, 4, 5)
RH_P1_FACTORS = (3, 50)
RH_P2_FACTORS = (0, 6)


@dataclass
class Item:
    """One ``btz`` invocation and what its output must satisfy."""

    id: str
    kind: str                      # "verify", "cone" or "rh"
    args: list[str]
    expect: object = None          # digest, or planted verdict
    props: dict = field(default_factory=dict)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def verify_digest(report: dict) -> str:
    """sha256 over the exact algebraic fields of a verify report.

    Only ``Z1``, ``Z2``, ``ratio`` and ``counts`` enter: the ``rh`` section
    holds floating-point roots and ``timings`` are not exact.
    """
    z = report["zeta"]
    core = {"Z1": z["Z1"], "Z2": z["Z2"], "ratio": z["ratio"], "counts": report["counts"]}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def relabel(cx: TypedComplex, rng: random.Random) -> tuple[TypedComplex, dict[int, int]]:
    """Isomorphic copy with vertex ids permuted at random."""
    ids = [v for v, _ in cx.vertices]
    perm = ids[:]
    rng.shuffle(perm)
    m = dict(zip(ids, perm))
    out = TypedComplex(
        [(m[v], t) for v, t in cx.vertices],
        [(m[a], m[b]) for a, b in cx.edges],
        [tuple(m[x] for x in tri) for tri in cx.chambers],
        q=cx.q)
    return out, m


def torus(shape, tracer):
    a, b, c, d = shape
    with tracer.span("generators.gen[torus]"):
        return gen_apartment_torus(ApartmentSpec(((a, b), (c, d))), with_geometry=True)


def relabel_torus_geometry(geometry: dict, m: dict[int, int]) -> dict:
    coords = [None] * len(geometry["vertex_coords"])
    for old, xy in enumerate(geometry["vertex_coords"]):
        coords[m[old]] = xy
    cells = [{**cell, "chamber": sorted(m[v] for v in cell["chamber"])}
             for cell in geometry["cells"]]
    return {**geometry, "vertex_coords": coords, "cells": cells}


def branching_complex(index: int) -> TypedComplex:
    """Pool complex ``index``: complete tripartite graph, random chambers."""
    rng = random.Random(f"branching-{index}")
    k = BRANCHING_PER_TYPE
    verts = [(t * k + i, t) for t in range(3) for i in range(k)]
    by_type = [[v for v, t in verts if t == s] for s in range(3)]
    edges = [(a, b) for s in range(3) for a in by_type[s] for b in by_type[(s + 1) % 3]]
    triangles = [(a, b, c) for a in by_type[0] for b in by_type[1] for c in by_type[2]]
    return TypedComplex(verts, edges, rng.sample(triangles, BRANCHING_CHAMBERS))


def mean_out_degrees(cx: TypedComplex) -> tuple[float, float]:
    """Mean number of successors of a positive edge and of a pointed chamber.

    Counted from the complex directly: a positive step closes no chamber,
    and a gallery step crosses into another chamber on the pointer edge.
    """
    chambers = set(cx.chambers)
    on_edge: dict[tuple[int, int], int] = {}
    for tri in cx.chambers:
        a, b, c = tri
        for e in ((a, b), (a, c), (b, c)):
            on_edge[e] = on_edge.get(e, 0) + 1
    nbrs: dict[int, list[int]] = {v: [] for v, _ in cx.vertices}
    for a, b in cx.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    t = cx.type_of
    edge_succ = []
    for a, b in cx.edges:
        tail, head = (a, b) if (t[a] + 1) % 3 == t[b] else (b, a)
        edge_succ.append(sum(
            1 for w in nbrs[head]
            if t[w] == (t[head] + 1) % 3 and w != tail
            and tuple(sorted((tail, head, w))) not in chambers))
    gallery_succ = [on_edge[e] - 1 for tri in cx.chambers
                    for e in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2]))]
    return (sum(edge_succ) / len(edge_succ),
            sum(gallery_succ) / len(gallery_succ) if gallery_succ else 0.0)


def _write_complex(cx: TypedComplex, geometry: dict | None, path: Path) -> None:
    save_complex(cx, path)
    if geometry is not None:
        path.with_suffix(".geom").write_text(
            json.dumps(geometry, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8")


def _verify_item(item_id: str, path: Path, digest: str, props: dict) -> Item:
    return Item(item_id, "verify", ["verify", str(path), "--no-timings"], digest, props)


def torus_verify_items(seed: int, workdir: Path, ref: dict, tracer) -> list[Item]:
    rng = random.Random(f"torus-verify-{seed}")
    digests = ref["torus"]
    slots = [("torus", s) for s in BIG_TORI]
    slots += [("torus", tuple(map(int, key.split(","))))
              for key, v in sorted(digests.items()) if v["index"] == SMALL_TORUS_INDEX
              ] * SMALL_TORUS_COPIES
    slots += [("cycle", rng.choice(CYCLE_LENGTHS)) for _ in range(CYCLES_PER_PASS)]
    rng.shuffle(slots)
    items = []
    for n, (family, spec) in enumerate(slots):
        if family == "torus":
            cx, geometry = torus(spec, tracer)
            key = ",".join(map(str, spec))
            digest = digests[key]["digest"]
        else:
            with tracer.span("generators.gen[cycle]"):
                cx = gen_cycle_complex(spec)
            geometry = {"version": 1, "kind": "cycle", "n": spec}
            key = str(spec)
            digest = ref["cycle"][key]
        cx, m = relabel(cx, rng)
        if family == "torus":
            geometry = relabel_torus_geometry(geometry, m)
        path = workdir / f"t{n:02d}.json"
        _write_complex(cx, geometry, path)
        items.append(_verify_item(f"{family}:{key}#{n}", path, digest, {
            "family": family, "shape": key,
            "edge_dim": len(cx.edges), "chamber_dim": 3 * len(cx.chambers)}))
    return items


def branching_verify_items(seed: int, workdir: Path, ref: dict, tracer) -> list[Item]:
    rng = random.Random(f"branching-verify-{seed}")
    entries = list(ref["branching"])
    rng.shuffle(entries)
    items = []
    for n, entry in enumerate(entries):
        cx, _ = relabel(branching_complex(entry["index"]), rng)
        path = workdir / f"b{n:02d}.json"
        _write_complex(cx, None, path)
        edge_deg, chamber_deg = mean_out_degrees(cx)
        items.append(_verify_item(f"branching:{entry['index']}#{n}", path, entry["digest"], {
            "pool_index": entry["index"], "paths": entry["paths"],
            "edge_out_degree": edge_deg, "chamber_out_degree": chamber_deg}))
    return items


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def cone_edge_generators(funcs) -> list[tuple[int, ...]]:
    """Primitive generator a_j of each edge ray: adjugate column over its gcd.

    Column j of adj(G) is orthogonal to every functional except the j-th, and
    alpha_j of it is det(G); dividing by the gcd gives the minimal lattice
    point on the ray (standard lattice).
    """
    r = len(funcs)
    det = _det(funcs)
    if r == 1:
        return [(1 if det > 0 else -1,)]
    cols = []
    for j in range(r):
        col = []
        for i in range(r):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(funcs) if k != j]
            col.append((-1) ** (i + j) * _det(minor))
        g = math.gcd(*col)
        sign = 1 if det > 0 else -1
        cols.append(tuple(sign * x // g for x in col))
    return cols


def fundamental_size(funcs) -> int:
    """|F| = index of the generator lattice = |det [a_1 .. a_r]|."""
    gens = cone_edge_generators(funcs)
    return abs(_det([[gens[j][i] for j in range(len(gens))] for i in range(len(gens))]))


def random_functionals(rng: random.Random):
    """One draw of acceptance criterion 2: rank 1-3, entries in [-5, 5], sharp."""
    while True:
        r = rng.randint(1, 3)
        funcs = [[rng.randint(-CONE_ENTRY_BOUND, CONE_ENTRY_BOUND) for _ in range(r)]
                 for _ in range(r)]
        if _det(funcs) != 0:
            return funcs


def _rational_character(rng: random.Random, rank: int) -> tuple[int, ...]:
    """Multipliers +-1, not all 1, so the character is never the trivial one."""
    while True:
        mult = tuple(rng.choice(CONE_MULTIPLIERS) for _ in range(rank))
        if any(m != 1 for m in mult):
            return mult


def cone_batch_items(seed: int, workdir: Path, ref: dict, tracer) -> list[Item]:
    """One cone per |F| quantile slot, in slot order; even slots trivial, odd rational."""
    rng = random.Random(f"cone-batch-{seed}")
    bounds = ref["cone_fsize_quantiles"]
    slots: list = [None] * CONES_PER_PASS
    open_slots = set(range(CONES_PER_PASS))
    while open_slots:
        funcs = random_functionals(rng)
        size = fundamental_size(funcs)
        slot = next((s for s in sorted(open_slots)
                     if bounds[s] <= size <= bounds[s + 1]), None)
        if slot is None:
            continue
        point = tuple(round(rng.uniform(*CONE_U_RANGE), 6) for _ in funcs)
        mult = _rational_character(rng, len(funcs)) if slot % 2 else None
        slots[slot] = (funcs, point, mult, size)
        open_slots.discard(slot)
    items = []
    for slot, (funcs, point, mult, size) in enumerate(slots):
        args = ["cone", "--functionals", ";".join(",".join(map(str, f)) for f in funcs),
                "--eval", ",".join(repr(x) for x in point), "--oracle-bound", "60"]
        if mult is not None:
            args += ["--char", ",".join(map(str, mult))]
        items.append(Item(f"cone:{slot}", "cone", args, None, {
            "rank": len(funcs), "fsize": size, "trivial_character": mult is None}))
    return items


# ---------------------------------------------------------------------------
# planted ratios
# ---------------------------------------------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def planted_factors(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """Quadratics 1 - a u + b u^2 with complex roots of modulus b^(-1/2).

    Tempered: b = q.  Non-tempered: b = q + 1, whose roots sit clearly inside
    the critical circle and divide neither 1 - u^3 nor 1 - q^3 u^3.
    """
    def family(b: int) -> list[list[int]]:
        return [[1, -a, b] for a in range(-b, b + 1) if a * a < 4 * b]
    return family(q), family(q + 1)


def rh_planted_items(seed: int, workdir: Path, ref: dict, tracer) -> list[Item]:
    rng = random.Random(f"rh-planted-{seed}")
    items = []
    for n in range(RH_RATIOS):
        q = rng.choice(RH_QS)
        chi = rng.randint(1, 5)
        tempered, wild = planted_factors(q)
        planted_ramanujan = n % 2 == 0
        p1 = [rng.choice(tempered) for _ in range(rng.randint(*RH_P1_FACTORS))]
        p2 = [rng.choice(tempered) for _ in range(rng.randint(*RH_P2_FACTORS))]
        if not planted_ramanujan:
            wild_side = p1 if rng.random() < 0.5 or not p2 else p2
            for _ in range(rng.randint(1, 3)):
                wild_side[rng.randrange(len(wild_side))] = rng.choice(wild)
        num = [1]
        for f in p1 + [[1, 0, 0, -1]] * (chi - 1):
            num = _poly_mul(num, f)
        den = [1, 0, 0, -(q ** 3)]
        for f in p2:
            den = _poly_mul(den, f)
        path = workdir / f"r{n:02d}.json"
        path.write_text(json.dumps({"num": num, "den": den}) + "\n", encoding="utf-8")
        factors = [tuple(f) for f in p1 + p2]
        items.append(Item(
            f"rh:{n}", "rh", ["rh", str(path), "--q", str(q), "--chi", str(chi)],
            "ramanujan" if planted_ramanujan else "non_tempered_witness", {
                "q": q, "residual_degree": 2 * len(factors),
                "repeated_factors": len(set(factors)) < len(factors)}))
    return items


WORKLOADS = {
    "torus-verify": torus_verify_items,
    "branching-verify": branching_verify_items,
    "cone-batch": cone_batch_items,
    "rh-planted": rh_planted_items,
}


def input_properties(workload: str, items: list[Item]) -> dict:
    """Input properties recorded next to the workload's numbers."""
    n = len(items)
    props = [it.props for it in items]
    if workload == "torus-verify":
        return {"items": n, "tori": sum(p["family"] == "torus" for p in props),
                "max_chamber_dim": max(p["chamber_dim"] for p in props),
                "edge_dims": sorted({p["edge_dim"] for p in props})}
    if workload == "branching-verify":
        return {"items": n,
                "mean_edge_out_degree": sum(p["edge_out_degree"] for p in props) / n,
                "mean_chamber_out_degree": sum(p["chamber_out_degree"] for p in props) / n,
                "dfs_paths": sum(p["paths"] for p in props)}
    if workload == "cone-batch":
        sizes = sorted(p["fsize"] for p in props)
        return {"items": n,
                "trivial_character_share": sum(p["trivial_character"] for p in props) / n,
                "fsize_median": sizes[n // 2], "fsize_max": sizes[-1],
                "fsize_total": sum(sizes)}
    return {"items": n,
            "repeated_factor_share": sum(p["repeated_factors"] for p in props) / n,
            "residual_degrees": sorted(p["residual_degree"] for p in props)}
