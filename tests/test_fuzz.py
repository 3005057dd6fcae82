"""Fuzz of the ``btz`` input boundary.

Malformed input must end in exit code 2 (or a check failure, 1, or a resource
limit, 3) with a message, never in a traceback.  Three sources: valid complex
files and sidecars with random mutations, sent through every command that reads
a file; random ratio documents for ``btz rh``; and random ``btz cone``
argument strings built from extreme tokens.
"""

from __future__ import annotations

import copy
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from btzeta.cli import main
from btzeta.complexes import dumps_complex
from btzeta.generators import (
    ApartmentSpec,
    BallSpec,
    gen_apartment_torus,
    gen_building_ball,
    gen_cycle_complex,
)


def fuzz(examples: int):
    """Fixed examples, so a failure reproduces on every run."""
    return settings(max_examples=examples, deadline=None, derandomize=True)


def assert_clean_exit(result):
    assert result.exit_code in (0, 1, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


# ---------------------------------------------------------------------------
# mutated complex files
# ---------------------------------------------------------------------------


def _base_files():
    torus, torus_geom = gen_apartment_torus(ApartmentSpec(((3, 0), (0, 3))), True)
    ball = gen_building_ball(BallSpec(q=2, radius=1))
    return [
        (json.loads(dumps_complex(torus)), torus_geom),
        (json.loads(dumps_complex(gen_cycle_complex(3))), {"version": 1, "kind": "cycle", "n": 3}),
        (json.loads(dumps_complex(ball)), None),
    ]


BASES = _base_files()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.sampled_from([0, 1, -1, 2, 3, 10**20, -(10**30), 0.5, 1e300,
                       float("nan"), float("inf")])
    | st.integers(-5, 40),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "type", "q", "version", "x"]), inner, max_size=3),
    max_leaves=4)

# file-reading commands, at orders the small inputs finish quickly
FILE_COMMANDS = [
    ["validate"], ["info"], ["op", "edges"], ["op", "chambers"],
    ["zeta", "--order", "6"], ["count", "--max", "6", "--kind", "edge"],
    ["count", "--max", "6", "--kind", "gallery"], ["rh"],
    ["verify", "--max-order", "6", "--no-timings"],
]


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(doc, data):
    """Replace, delete or duplicate the value at one random path of ``doc``."""
    paths = list(_paths(doc))
    path = data.draw(st.sampled_from(paths))
    if not path:
        return data.draw(JSON_VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if action == "replace":
        parent[key] = data.draw(JSON_VALUES)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [parent[key], copy.deepcopy(parent[key])]
    return doc


@fuzz(60)
@given(data=st.data())
def test_mutated_complex_files(runner, tmp_path_factory, data):
    doc, geom = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    mutate_geom = geom is not None and data.draw(st.booleans())
    for _ in range(data.draw(st.integers(1, 3))):
        if mutate_geom:
            geom = _mutate(geom, data)
        else:
            doc = _mutate(doc, data)
    folder = tmp_path_factory.mktemp("complex")
    (folder / "in.json").write_text(json.dumps(doc))
    if geom is not None:
        (folder / "in.geom").write_text(json.dumps(geom))
    for command in FILE_COMMANDS:
        assert_clean_exit(runner.invoke(main, [*command, str(folder / "in.json")]))


# ---------------------------------------------------------------------------
# ratio documents for rh
# ---------------------------------------------------------------------------

COEFFS = st.lists(st.integers(-20, 20) | st.sampled_from([10**12, -(10**40), "7", "x", 1.5]),
                  max_size=9)


@fuzz(250)
@given(num=COEFFS, den=COEFFS, wrapped=st.booleans(),
       q=st.sampled_from([None, "-1", "0", "1", "2", "3", "1000000007"]),
       chi=st.sampled_from([None, "-3", "0", "1", "5"]))
def test_random_ratio_documents(runner, tmp_path_factory, num, den, wrapped, q, chi):
    doc = {"num": num, "den": den}
    path = tmp_path_factory.mktemp("ratio") / "ratio.json"
    path.write_text(json.dumps({"ratio": doc} if wrapped else doc))
    args = ["rh", str(path)]
    if q is not None:
        args += ["--q", q]
    if chi is not None:
        args += ["--chi", chi]
    assert_clean_exit(runner.invoke(main, args))


# ---------------------------------------------------------------------------
# cone argument strings
# ---------------------------------------------------------------------------

ENTRIES = st.integers(-4, 4).map(str) | st.sampled_from(
    ["1e300", "1/0", "nan", "inf", "x", "", str(10**30), str(-(10**19)), "2.5"])
MULTIPLIERS = st.sampled_from(["1", "-1", "2", "1/2", "-3/2", "1/0", "0", "1e400", "x",
                               str(10**30)])
COORDINATES = st.sampled_from(["0.3", "0.9", "-0.5", "0", "1", "-1", "2", "1e300",
                               "-1e300", "1e-300", "nan", "inf", "x"])


def _vectors(entries, rank: int):
    """Either rank vectors of length rank, or 1-3 vectors of length 1-3 each."""
    square = st.lists(st.lists(entries, min_size=rank, max_size=rank),
                      min_size=rank, max_size=rank)
    ragged = st.lists(st.integers(1, 3).flatmap(
        lambda n: st.lists(entries, min_size=n, max_size=n)), min_size=1, max_size=3)
    return square | ragged


def _joined(vectors):
    return ";".join(",".join(v) for v in vectors)


@fuzz(250)
@given(data=st.data())
def test_random_cone_arguments(runner, data):
    rank = data.draw(st.integers(1, 3))
    args = ["cone", "--functionals", _joined(data.draw(_vectors(ENTRIES, rank)))]
    if data.draw(st.booleans()):
        args += ["--lattice", _joined(data.draw(_vectors(ENTRIES, rank)))]
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 3) | st.just(rank))
        args += ["--char", ",".join(data.draw(st.lists(MULTIPLIERS, min_size=n, max_size=n)))]
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 3) | st.just(rank))
        args += ["--eval", ",".join(data.draw(st.lists(COORDINATES, min_size=n, max_size=n)))]
        args += ["--oracle-bound", data.draw(st.sampled_from(
            ["1", "5", "60", "0", "-5", "x", str(10**30)]))]
    assert_clean_exit(runner.invoke(main, args))
