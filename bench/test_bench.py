"""Tests of the benchmark itself: generators, spans and replica parity.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from click.testing import CliRunner  # noqa: E402

from btzeta.cli import main as btz  # noqa: E402
from btzeta.cones import LatticeCone, cone_generators, fundamental_domain  # noqa: E402

import replica  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, HostSpeed  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

REF = wl.load_reference()


def _verify_spans(chambers: bool, oracle: bool) -> list[str]:
    names = ["complexes.load", "complexes.validate",
             "operators.build[edge]", "polynomials.charpoly[edge]"]
    if chambers:
        names += ["operators.build[chamber]", "polynomials.charpoly[chamber]"]
    names.append("zeta.ratio")
    for kind in ("edge", "gallery"):
        names += [f"polynomials.series[log_deriv {kind}]", f"geodesics.count[{kind}]",
                  f"geodesics.classes[{kind}]", f"geodesics.assemble[primitive {kind}]",
                  f"geodesics.assemble[S {kind}]", f"polynomials.series[exp {kind}]",
                  f"geodesics.assemble[product {kind}]"]
    names += ["polynomials.series[identity neg]", "polynomials.series[identity pos]"]
    if oracle:
        names += ["geodesics.oracle[edge]", "geodesics.oracle[gallery]"]
    return names + ["rh.classify"]


CONE_SPANS = ["cones.lattice", "cones.generators", "cones.fundamental",
              "cones.closed_form", "cones.evaluate", "cones.partial_sum"]


@pytest.fixture(scope="module")
def small_items(tmp_path_factory):
    """A small torus, a cycle, a trivial and a rational cone, two ratios."""
    base = tmp_path_factory.mktemp("items")
    for sub in ("t", "c", "r"):
        (base / sub).mkdir()
    torus = wl.torus_verify_items(5, base / "t", REF, NullTracer())
    small = [it for it in torus if it.props["family"] == "torus"
             and it.props["edge_dim"] <= 81][:1]
    cycle = [it for it in torus if it.props["family"] == "cycle"][:1]
    cones = wl.cone_batch_items(5, base / "c", REF, NullTracer())
    trivial = [it for it in cones if it.props["trivial_character"]
               and it.props["fsize"] <= 50][:1]
    rational = [it for it in cones if not it.props["trivial_character"]
                and it.props["fsize"] <= 50][:1]
    ratios = [it for it in wl.rh_planted_items(5, base / "r", REF, NullTracer())
              if it.props["residual_degree"] <= 24][:2]
    items = small + cycle + trivial + rational + ratios
    assert len(items) == 6
    return items


def _expected_spans(item) -> list[str]:
    if item.kind == "verify":
        torus = item.props["family"] == "torus"
        return _verify_spans(chambers=torus, oracle=torus)
    return CONE_SPANS if item.kind == "cone" else ["rh.classify"]


def test_spans_appear_once_in_pipeline_order(small_items):
    for item in small_items:
        tracer = Tracer()
        tracer.item = item.id
        try:
            replica.REPLICAS[item.kind](item.args, tracer, Counter())
        except ArithmeticError:
            pass  # a known classifier defect still leaves its span behind
        names = [s[0] for s in tracer.spans]
        assert names == _expected_spans(item), item.id
        assert all(s[4] == item.id and s[3] is None and s[1] <= s[2] for s in tracer.spans)


def test_traced_replica_prints_what_the_cli_prints(small_items):
    runner = CliRunner()
    for item in small_items:
        result = runner.invoke(btz, item.args)
        try:
            out = replica.REPLICAS[item.kind](item.args, Tracer(), Counter())
        except ArithmeticError as exc:
            assert type(result.exception) is type(exc), item.id
            continue
        assert result.exit_code == 0, item.id
        assert out == result.stdout.strip(), item.id
        if item.kind == "verify":  # relabelled input, digest recorded unrelabelled
            assert wl.verify_digest(json.loads(out)) == item.expect, item.id


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    def generate(seed: int, sub: str):
        workdir = tmp_path / sub
        workdir.mkdir()
        items = wl.WORKLOADS[name](seed, workdir, REF, NullTracer())
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        args = [[a.replace(str(workdir), "") for a in it.args] for it in items]
        return args, [it.expect for it in items], files

    first = generate(11, "a")
    assert generate(11, "b") == first
    assert generate(12, "c") != first


def test_fundamental_size_matches_the_library():
    rng = random.Random(3)
    for _ in range(40):
        funcs = wl.random_functionals(rng)
        if wl.fundamental_size(funcs) > 2000:
            continue
        cone = LatticeCone(funcs)
        gens = cone_generators(cone)
        assert [tuple(g) for g in wl.cone_edge_generators(funcs)] == list(gens)
        assert len(fundamental_domain(cone, gens)) == wl.fundamental_size(funcs)


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    values = [float(i) for i in range(40)]
    assert run.tail(values) == (29.0, 75.0)
    assert run.tail(values[:5]) == (4.0, 100.0)


def test_host_speed_scale_uses_the_probes_around_an_interval():
    speed = HostSpeed()
    speed.starts, speed.durations = [0.0, 1.0, 2.0], [0.02, 0.04, 0.03]
    assert speed.scale(0.5, 0.9) == pytest.approx(REFERENCE_PROBE_S / 0.03)
    assert speed.scale(1.0, 1.5) == pytest.approx(REFERENCE_PROBE_S / 0.035)
    assert speed.scale(2.5, 3.0) == pytest.approx(REFERENCE_PROBE_S / 0.03)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.REGISTERED)
