"""btzeta benchmark: seeded workloads through the public ``btz`` commands.

Usage, from the repository root::

    python3 bench/run.py --workload torus-verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--workload all`` runs the three registered workloads one after another in
one process (so each peak_rss_mb there includes the workloads before it).
``--trace 0`` runs the CLI commands in-process (click's test runner, one
process, one thread) and reports the end-to-end metrics.  ``--trace 1``
alternates each CLI call with a traced replica of the same command, checks
that both print the same document, and reports the per-layer metrics.

A run repeats passes over the workload's items until ``--seconds`` have
elapsed and every item has run once.  An item's time is the median of its
samples, and the percentiles are taken over these per-item times, so the
percentile reported as the tail depends only on the workload's item count.
Peak memory is read after the first pass, before repeated passes can add
allocator fragmentation that depends on how many passes fit in the run.
Set-up (btzeta's import, input generation and writing) is repeated
``SETUP_REPS`` times at even intervals of the run, between the timed items,
and reported as the median.
With ``--trace 0`` every time is scaled to a reference host speed measured
by probes between the calls (``hostspeed.py``); the unscaled wall time goes
to the ``# details`` line.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# np.roots calls LAPACK: pin every BLAS pool to one thread before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from collections import Counter  # noqa: E402
import compileall  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
BENCH_MODULES = ("workloads", "replica", "tracing")
SETUP_REPS = 9
CONE_TOLERANCE = 1e-9

END_TO_END = {"wall_s": "s", "setup_s": "s", "item_p50_s": "s",
              "item_tail_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics; "_s" ones are seconds per pass, the rest counts per pass
PER_LAYER = (
    "complexes.load_s", "complexes.validate_s", "operators.build_s",
    "operators.dim", "operators.nnz", "polynomials.charpoly_s",
    "polynomials.series_s", "zeta.ratio_s", "geodesics.count_s",
    "geodesics.classes_s", "geodesics.assemble_s", "geodesics.oracle_s",
    "geodesics.closed_paths", "geodesics.classes", "cones.lattice_s",
    "cones.generators_s", "cones.fundamental_s", "cones.closed_form_s",
    "cones.evaluate_s", "cones.partial_sum_s", "cones.fundamental_points",
    "rh.classify_s", "rh.roots", "rh.wrong_verdicts", "rh.raised",
    "generators.gen_s", "cli.gap_s",
)
# the layer each workload was chosen to stress, as a group of span metrics
DOMINANT = {
    "torus-verify": ("polynomials.charpoly_s", "zeta.ratio_s"),
    "branching-verify": ("geodesics.count_s", "geodesics.classes_s"),
    "cone-batch": ("cones.closed_form_s",),
    "rh-planted": ("rh.classify_s",),
}
# rh-planted fails items at the seed commit (known classifier defects), so it
# runs on request but is not one of the workloads BENCHMARK.json registers
REGISTERED = ("torus-verify", "branching-verify", "cone-batch")


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with >= 10 items beyond.

    With ten or fewer items no such percentile exists; the maximum is
    reported at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def check(item, result, digest) -> str | None:
    """Failure reason for one CLI result, or None when it is correct."""
    exc = result.exception
    if exc is not None and not isinstance(exc, SystemExit):
        return f"raised {type(exc).__name__}"
    if result.exit_code != 0:
        return f"exit code {result.exit_code}"
    doc = json.loads(result.stdout)
    if item.kind == "verify":
        if doc.get("passed") is not True:
            return "verify did not pass"
        if digest(doc) != item.expect:
            return "algebraic fields differ from the recorded digest"
    elif item.kind == "cone":
        ev = doc.get("evaluation", {})
        err = ev.get("relative_error")
        if not ev.get("converges") or err is None or not err <= CONE_TOLERANCE:
            return f"relative error {err}"
    elif doc.get("verdict") != item.expect:
        return f"wrong verdict {doc.get('verdict')} (planted {item.expect})"
    return None


def fresh_import() -> dict:
    """Import btzeta and the benchmark modules anew, as a new process would.

    Third-party packages stay loaded; what is timed is btzeta's own import
    work plus the benchmark's modules.
    """
    for mod in [m for m in sys.modules
                if m == "btzeta" or m.startswith("btzeta.") or m in BENCH_MODULES]:
        del sys.modules[mod]
    return {m: importlib.import_module(m) for m in ("btzeta.cli", *BENCH_MODULES)}


def set_up(name: str, seed: int, workdir: Path, traced: bool):
    """One timed set-up: fresh imports, then the inputs generated and written.

    Returns the modules, the tracer, the items, the set-up time and the time
    spent in btzeta's generators.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    mods = fresh_import()
    tracer = mods["tracing"].Tracer() if traced else mods["tracing"].NullTracer()
    workdir.mkdir(parents=True)
    items = mods["workloads"].WORKLOADS[name](
        seed, workdir, mods["workloads"].load_reference(), tracer)
    elapsed = time.perf_counter() - t0
    gen_s = sum(s[2] - s[1] for s in getattr(tracer, "spans", ())
                if s[0].startswith("generators."))
    return mods, tracer, items, elapsed, gen_s


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from click.testing import CliRunner

    workdir = WORK_DIR / f"{name}-seed{seed}-trace{int(traced)}"
    spare_dir = workdir.with_name(workdir.name + "-setup")
    speed = HostSpeed()
    speed.probe()
    setup_start = time.perf_counter()
    mods, tracer, items, setup_s, gen_s = set_up(name, seed, workdir, traced)
    setup_times, gen_times = [(setup_start, time.perf_counter(), setup_s)], [gen_s]
    speed.probe()
    btz = mods["btzeta.cli"].main
    workloads, replica, tracing = (mods[m] for m in BENCH_MODULES)

    runner = CliRunner()
    # (start, end) of every CLI call of each item
    samples: dict[str, list[tuple[float, float]]] = {it.id: [] for it in items}
    layer_samples: dict[str, dict[str, list[float]]] = {it.id: {} for it in items}
    traced_totals: dict[str, list[float]] = {it.id: [] for it in items}
    counts: dict[str, Counter] = {}
    failures: dict[str, str] = {}
    def traced_call(item, result, k) -> str | None:
        """Run the traced replica of one item; a reason when it disagrees."""
        tracer.item = f"{item.id}/{k}"
        counters = Counter()
        mark = len(tracer.spans)
        error = None
        with tracer.span(f"cli.{item.kind}"):
            try:
                out = replica.REPLICAS[item.kind](item.args, tracer, counters)
            except Exception as exc:  # compared with what the CLI call raised
                out, error = None, exc
        tracer.item = None
        per_metric: dict[str, float] = {}
        for name, start, end, _, _ in tracer.spans[mark + 1:]:
            metric = tracing.layer_metric(name)
            per_metric[metric] = per_metric.get(metric, 0.0) + (end - start)
        for metric, v in per_metric.items():
            layer_samples[item.id].setdefault(metric, []).append(v)
        traced_totals[item.id].append(sum(per_metric.values()))
        counts[item.id] = counters
        cli_raised = result.exception is not None \
            and not isinstance(result.exception, SystemExit)
        if error is not None or cli_raised:
            if type(error) is not type(result.exception):
                return f"traced replica raised {error!r}, CLI raised {result.exception!r}"
            return None
        if out != result.stdout.strip():
            return "traced replica output differs from the CLI output"
        return None

    attempted = failed = 0
    started = time.perf_counter()
    k = 0
    peak_rss_mb = None
    while k < len(items) or time.perf_counter() - started < seconds:
        if k == len(items):
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(setup_times) < SETUP_REPS and \
                time.perf_counter() - started >= seconds * len(setup_times) / SETUP_REPS:
            speed.probe()
            setup_start = time.perf_counter()
            *_, setup_s, gen_s = set_up(name, seed, spare_dir, traced)
            setup_times.append((setup_start, time.perf_counter(), setup_s))
            gen_times.append(gen_s)
            speed.probe()
        item = items[k % len(items)]
        if not traced:
            speed.probe_if_due()
        t0 = time.perf_counter()
        result = runner.invoke(btz, item.args)
        samples[item.id].append((t0, time.perf_counter()))
        attempted += 1
        reason = check(item, result, workloads.verify_digest)
        if traced:
            mismatch = traced_call(item, result, k)
            reason = reason or mismatch
        if reason is not None:
            failed += 1
            failures.setdefault(item.id, reason)
        k += 1
    measured_s = time.perf_counter() - started
    speed.probe()
    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        tracer.write(WORK_DIR / f"spans-{name}-seed{seed}.json")
    shutil.rmtree(workdir)
    shutil.rmtree(spare_dir, ignore_errors=True)  # absent if no set-up was repeated

    unscaled = [statistics.median([t1 - t0 for t0, t1 in v]) for v in samples.values()]
    if traced:  # layer shares are taken within a run: keep the clock's seconds
        values = unscaled
    else:
        values = [statistics.median([(t1 - t0) * speed.scale(t0, t1) for t0, t1 in v])
                  for v in samples.values()]
    setup_values = [s if traced else s * speed.scale(t0, t1) for t0, t1, s in setup_times]
    tail_value, tail_pct = tail(values)
    details = {
        "workload": name, "seed": seed, "items": len(items),
        "passes": round(attempted / len(items), 2), "samples": attempted,
        "measured_s": measured_s, "tail_percentile": tail_pct,
        "failed_frac": failed / attempted,
        "failures": failures,
        "wall_unscaled_s": sum(unscaled),
        "probe_median_s": statistics.median(speed.durations),
        "probes": len(speed.durations),
        "inputs": workloads.input_properties(name, items),
    }
    if name == "rh-planted":
        details["wrong_verdicts"] = sum("wrong verdict" in r for r in failures.values())
        details["raised"] = sum(r.startswith("raised") for r in failures.values())
    if not traced:
        metrics = {
            "wall_s": sum(values),
            "setup_s": statistics.median(setup_values),
            "item_p50_s": statistics.median(values),
            "item_tail_s": tail_value,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        metrics = dict.fromkeys(PER_LAYER, 0)
        for per_metric in layer_samples.values():
            for metric, v in per_metric.items():
                metrics[metric] += statistics.median(v)
        for per_count in counts.values():
            for metric, v in per_count.items():
                metrics[metric] += v
        metrics["rh.wrong_verdicts"] = details.get("wrong_verdicts", 0)
        metrics["rh.raised"] = details.get("raised", 0)
        metrics["generators.gen_s"] = statistics.median(gen_times)
        metrics["cli.gap_s"] = sum(values) - sum(
            statistics.median(v) for v in traced_totals.values())
        layer_total = sum(v for m, v in metrics.items()
                          if m.endswith("_s") and m not in ("cli.gap_s", "generators.gen_s"))
        share = sum(metrics[m] for m in DOMINANT[name]) / layer_total
        details["dominant_layer"] = {"metrics": list(DOMINANT[name]), "share": share,
                                     "confirmed": share >= 0.5}
        units = {m: "s" if m.endswith("_s") else "count" for m in PER_LAYER}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "details": details,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def _print_result(result: dict) -> None:
    details = result.pop("details")
    print(f"# {details['workload']} seed {details['seed']}: {details['items']} items, "
          f"{details['samples']} samples ({details['passes']} passes) in "
          f"{details['measured_s']:.1f} s; tail = p{details['tail_percentile']:.1f} "
          f"of {details['items']} per-item times")
    for metric, entry in result["metrics"].items():
        print(f"#   {metric:28s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"#   failed {result['failed']}/{result['attempted']} "
          f"(failed_frac {details['failed_frac']:.4f})")
    if "dominant_layer" in details:
        dom = details["dominant_layer"]
        print(f"#   dominant layer {'+'.join(dom['metrics'])}: {100 * dom['share']:.1f}% "
              f"of traced layer time ({'confirmed' if dom['confirmed'] else 'NOT confirmed'})")
    print("# details " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*DOMINANT, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "btzeta" / "__init__.py").is_file():
        print(f"error: no btzeta sources under {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(src / "btzeta"), quiet=1)
    sys.path[:0] = [str(BENCH_DIR), str(src)]
    try:
        import btzeta.cli  # noqa: F401  (loads numpy, click and mpmath once)
    except ImportError as exc:
        print(f"error: cannot import btzeta: {exc}", file=sys.stderr)
        return 2

    names = REGISTERED if args.workload == "all" else (args.workload,)
    for name in names:
        _print_result(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
