"""Record the reference tables the benchmark checks and stratifies with.

Run from the repository root::

    python3 bench/record_reference.py

It rewrites ``bench/reference.json`` with

* the digest of ``btz verify`` (Z1, Z2, ratio, counts) for every torus shape
  and cycle length the torus-verify workload can draw;
* the branching complexes: of the seeded pool, the one at the centre of
  each quarter of the depth-first path count, with its digest;
* the quantiles of |F| under the cone distribution of acceptance
  criterion 2, capped at ``CONE_FSIZE_CAP``.

Digests must be recorded from a commit whose outputs are trusted; later
commits are checked against them.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from btzeta.cli import run_verify  # noqa: E402
from btzeta.generators import GenerationError  # noqa: E402
from btzeta.geodesics import DEFAULT_ORDER  # noqa: E402
from btzeta.operators import build_chamber_operator, build_edge_operator  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import NullTracer  # noqa: E402

QUANTILE_DRAWS = 200_000


def _digest(cx, geometry, tmp: Path) -> str:
    path = tmp / "cx.json"
    path.with_suffix(".geom").unlink(missing_ok=True)
    wl._write_complex(cx, geometry, path)
    report, code = run_verify(str(path), with_timings=False)
    if code != 0 or not report["passed"]:
        raise SystemExit(f"verify failed on a reference input: {report}")
    return wl.verify_digest(report)


def torus_shapes(index: int) -> list[tuple[int, int, int, int]]:
    """Lower-triangular bases ((a, 0), (c, d)) with a*d = index that generate."""
    shapes = []
    for a in range(1, index + 1):
        if index % a:
            continue
        d = index // a
        for c in range(d):
            try:
                wl.torus((a, 0, c, d), NullTracer())
            except GenerationError:
                continue
            shapes.append((a, 0, c, d))
    return shapes


def dfs_paths(cx) -> int:
    """Paths of length 1..DEFAULT_ORDER the enumeration walks, both kinds."""
    total = 0
    for build in (build_edge_operator, build_chamber_operator):
        m = np.array(build(cx).to_dense(), dtype=np.int64)
        ones = np.ones(m.shape[0], dtype=np.int64)
        v = ones
        for _ in range(DEFAULT_ORDER):
            v = m @ v
            total += int(v.sum())
    return total


def main() -> None:
    ref: dict = {"torus": {}, "cycle": {}, "branching": [], "cone_fsize_quantiles": []}
    with tempfile.TemporaryDirectory(dir=ROOT) as name:
        tmp = Path(name)
        shapes = [(s, abs(s[0] * s[3] - s[1] * s[2])) for s in wl.BIG_TORI]
        shapes += [(s, wl.SMALL_TORUS_INDEX) for s in torus_shapes(wl.SMALL_TORUS_INDEX)]
        for shape, index in shapes:
            cx, geometry = wl.torus(shape, NullTracer())
            ref["torus"][",".join(map(str, shape))] = {
                "index": index, "digest": _digest(cx, geometry, tmp)}
        for n in wl.CYCLE_LENGTHS:
            cx = wl.gen_cycle_complex(n)
            ref["cycle"][str(n)] = _digest(cx, {"version": 1, "kind": "cycle", "n": n}, tmp)
        paths = sorted((dfs_paths(wl.branching_complex(i)), i)
                       for i in range(wl.BRANCHING_POOL))
        n = wl.BRANCHING_ITEMS
        for cost, index in (paths[(2 * s + 1) * len(paths) // (2 * n)] for s in range(n)):
            ref["branching"].append({"index": index, "paths": cost, "digest": _digest(
                wl.branching_complex(index), None, tmp)})
    rng = random.Random("cone-quantiles")
    sizes = sorted(wl.fundamental_size(wl.random_functionals(rng))
                   for _ in range(QUANTILE_DRAWS))
    n = wl.CONES_PER_PASS
    ref["cone_fsize_quantiles"] = [sizes[i * len(sizes) // n] for i in range(n)] \
        + [wl.CONE_FSIZE_CAP]
    wl.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")


if __name__ == "__main__":
    main()
