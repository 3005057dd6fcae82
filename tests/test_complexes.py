from __future__ import annotations

import json
import random
import re
from itertools import combinations

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from btzeta import (
    ComplexFormatError,
    TypedComplex,
    dumps_complex,
    euler_characteristic,
    load_complex,
    loads_complex,
    save_complex,
    simplex_counts,
    validate_complex,
    zeta_edge,
)
from btzeta.cli import main


def relabeled(c: TypedComplex, perm: dict[int, int]) -> TypedComplex:
    return TypedComplex(
        vertices=[(perm[v], t) for v, t in c.vertices],
        edges=[(perm[a], perm[b]) for a, b in c.edges],
        chambers=[tuple(perm[v] for v in tri) for tri in c.chambers],
        q=c.q,
        boundary=[perm[v] for v in c.boundary],
    )


class TestValidation:
    def test_minimal_chamber_is_valid(self, single_chamber):
        report = validate_complex(single_chamber)
        assert report.ok and not report.violations

    def test_edge_joining_equal_types(self):
        c = TypedComplex([(0, 0), (1, 0)], edges=[(0, 1)])
        report = validate_complex(c)
        assert not report.ok
        assert any("equal types" in v for v in report.violations)

    def test_chamber_missing_edge(self):
        c = TypedComplex([(0, 0), (1, 1), (2, 2)], edges=[(0, 1), (1, 2)],
                         chambers=[(0, 1, 2)])
        report = validate_complex(c)
        assert not report.ok
        assert any("missing edge" in v and "(0, 2)" in v for v in report.violations)

    def test_dangling_reference_is_violation_not_crash(self):
        c = TypedComplex([(0, 0), (1, 1)], edges=[(0, 5)])
        report = validate_complex(c)
        assert not report.ok
        assert any("unknown vertex" in v for v in report.violations)

    def test_self_loop(self):
        c = TypedComplex([(0, 0)], edges=[(0, 0)])
        assert any("self-loop" in v for v in validate_complex(c).violations)

    def test_bad_type_label(self):
        c = TypedComplex([(0, 4)])
        assert any("outside" in v for v in validate_complex(c).violations)

    def test_unknown_boundary_vertex(self):
        c = TypedComplex([(0, 0)], boundary=[3])
        assert any("boundary" in v for v in validate_complex(c).violations)

    def test_fixtures_valid(self, three_cycle, six_cycle, torus, skew_torus,
                            ball_q2, ball_q3, ball_q2_r2):
        for c in (three_cycle, six_cycle, torus, skew_torus, ball_q2, ball_q3,
                  ball_q2_r2):
            assert validate_complex(c).ok


class TestNeighbors:
    def test_sorted_edge_order(self, torus, ball_q2):
        # the order a scan of the sorted edge list gives
        for c in (torus, ball_q2):
            for v in [v for v, _ in c.vertices] + [10**6]:
                scan = [b if a == v else a for a, b in c.edges if v in (a, b)]
                assert c.neighbors(v) == scan


class TestEulerCharacteristic:
    def test_three_cycle(self, three_cycle):
        assert euler_characteristic(three_cycle) == 0

    def test_torus(self, torus):
        assert euler_characteristic(torus) == 0

    def test_ball(self, ball_q2):
        counts = simplex_counts(ball_q2)
        assert (counts.N0, counts.N1, counts.N2) == (15, 35, 21)
        assert euler_characteristic(ball_q2) == 1

    def test_relabeling_invariance(self, torus):
        rng = random.Random(3)
        ids = [v for v, _ in torus.vertices]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        perm = dict(zip(ids, shuffled))
        assert euler_characteristic(relabeled(torus, perm)) == euler_characteristic(torus)

    def test_chamber_contributions_already_counted(self, torus):
        # every chamber's edges and vertices are listed explicitly
        counts = simplex_counts(torus)
        edge_set = set(torus.edges)
        vertex_set = {v for v, _ in torus.vertices}
        for a, b, c in torus.chambers:
            assert {(a, b), (a, c), (b, c)} <= edge_set
            assert {a, b, c} <= vertex_set
        assert counts.N1 == len(edge_set)


class TestSerialization:
    def test_round_trip(self, torus, tmp_path):
        path = tmp_path / "torus.json"
        save_complex(torus, path)
        assert load_complex(path) == torus

    def test_round_trip_with_tags(self, ball_q2, tmp_path):
        path = tmp_path / "ball.json"
        save_complex(ball_q2, path)
        loaded = load_complex(path)
        assert loaded.q == 2 and loaded.boundary == ball_q2.boundary

    def test_canonical_bytes(self, torus):
        assert dumps_complex(torus) == dumps_complex(
            TypedComplex(torus.vertices, torus.edges, torus.chambers))

    def test_version_mismatch(self):
        with pytest.raises(ComplexFormatError, match="version"):
            loads_complex('{"version": 99, "vertices": []}')

    def test_parse_error_location(self):
        with pytest.raises(ComplexFormatError, match="edges"):
            loads_complex('{"version": 1, "vertices": [{"id":0,"type":0}], "edges": [[0]]}')

    def test_not_json(self):
        with pytest.raises(ComplexFormatError, match="line"):
            loads_complex("not json {")

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ComplexFormatError, match="duplicate"):
            loads_complex('{"version": 1, "vertices": [{"id":0,"type":0},'
                          '{"id":1,"type":1}], "edges": [[0,1],[1,0]]}')

    def test_error_cases_carry_location(self):
        try:
            loads_complex('{"version": 1, "vertices": [{"id": 0}]}')
        except ComplexFormatError as exc:
            assert "vertices[0]" in str(exc)
        else:
            pytest.fail("expected a format error")


def _triangle_doc(**changes) -> str:
    doc = {"version": 1, "q": 2,
           "vertices": [{"id": 0, "type": 0}, {"id": 1, "type": 1}, {"id": 2, "type": 2}],
           "edges": [[0, 1], [0, 2], [1, 2]], "chambers": [[0, 1, 2]], "boundary": [2]}
    doc.update(changes)
    return json.dumps(doc)


class TestBooleansAreNotIntegers:
    def test_reference_document_loads(self):
        cx = loads_complex(_triangle_doc())
        assert cx.q == 2 and cx.boundary == {2} and len(cx.chambers) == 1

    @pytest.mark.parametrize("location,changes", [
        ("version", {"version": True}),
        ("q", {"q": True}),
        ("vertices[0]", {"vertices": [{"id": False, "type": 0}, {"id": 1, "type": 1},
                                      {"id": 2, "type": 2}]}),
        ("vertices[1]", {"vertices": [{"id": 0, "type": 0}, {"id": 1, "type": True},
                                      {"id": 2, "type": 2}]}),
        ("edges[0]", {"edges": [[False, True], [0, 2], [1, 2]]}),
        ("chambers[0]", {"chambers": [[False, True, 2]]}),
        ("boundary", {"boundary": [True]}),
    ])
    def test_boolean_rejected(self, location, changes):
        with pytest.raises(ComplexFormatError, match=re.escape(f"(at {location})")):
            loads_complex(_triangle_doc(**changes))

    @pytest.mark.parametrize("field", ["vertices", "edges", "chambers", "boundary"])
    def test_non_array_field_rejected(self, field):
        with pytest.raises(ComplexFormatError, match="must be an array"):
            loads_complex(_triangle_doc(**{field: 5}))


class TestDuplicates:
    # the loader counts what the constructor kept: ids, edges and chambers once each
    @pytest.mark.parametrize("message,changes", [
        ("duplicate vertex ids (at vertices)",
         {"vertices": [{"id": 0, "type": 0}, {"id": 1, "type": 1}, {"id": 2, "type": 2},
                       {"id": 0, "type": 1}]}),
        ("duplicate edges (at edges)", {"edges": [[0, 1], [0, 2], [1, 2], [2, 1]]}),
        ("duplicate chambers (at chambers)", {"chambers": [[0, 1, 2], [2, 0, 1]]}),
    ], ids=["vertices", "edges", "chambers"])
    def test_single_duplicate_message(self, message, changes):
        with pytest.raises(ComplexFormatError) as refused:
            loads_complex(_triangle_doc(**changes))
        assert str(refused.value) == message

    def test_validation_names_duplicate_ids(self):
        c = TypedComplex([(0, 0), (1, 1), (0, 0), (1, 2), (2, 2)], [(0, 2)])
        assert validate_complex(c).violations == ("duplicate vertex ids [0, 1]",)


# where a non-integer goes in the triangle document, and what the loader says
NON_INTEGER_PLACES = {
    "vertex-id": ("vertex id and type must be integers", "vertices[1]"),
    "vertex-type": ("vertex id and type must be integers", "vertices[1]"),
    "edge": ("edges must be pairs of integers", "edges[1]"),
    "chamber": ("chambers must be triples of integers", "chambers[0]"),
    "boundary": ("boundary must be a list of vertex ids", "boundary"),
}


def _with_entry(place: str, value) -> str:
    doc = json.loads(_triangle_doc())
    if place.startswith("vertex"):
        doc["vertices"][1][place[len("vertex-"):]] = value
    elif place == "edge":
        doc["edges"][1][1] = value
    elif place == "chamber":
        doc["chambers"][0][2] = value
    else:
        doc["boundary"] = [0, value]
    return json.dumps(doc)


class TestNonIntegerEntries:
    """The loader reads whole arrays, yet refuses ``true`` and floats entry-exactly."""

    @pytest.mark.parametrize("value", [True, 1.0, 1e300], ids=["true", "1.0", "1e300"])
    @pytest.mark.parametrize("place", NON_INTEGER_PLACES)
    def test_refused_at_its_entry(self, tmp_path, place, value):
        message, location = NON_INTEGER_PLACES[place]
        text = _with_entry(place, value)
        with pytest.raises(ComplexFormatError) as refused:
            loads_complex(text)
        assert str(refused.value) == f"{message} (at {location})"
        path = tmp_path / "in.json"
        path.write_text(text)
        result = CliRunner().invoke(main, ["verify", str(path), "--no-timings"])
        assert result.exit_code == 2
        assert json.loads(result.stdout)["error"] == {
            "stage": "load", "message": f"{message} (at {location})"}


class TestIdsBeyondInt64:
    def test_verify_report_is_the_small_ids_report(self, tmp_path, torus):
        # ids of both signs beyond 2^63 load as exact integers
        big = relabeled(torus, {v: (-1) ** v * (2 ** 64 + 3 * v) for v, _ in torus.vertices})
        reports = []
        for folder, c in (("small", torus), ("big", big)):
            path = tmp_path / folder / "t.json"
            path.parent.mkdir()
            save_complex(c, path)
            loaded = load_complex(path)
            assert loaded == c and dumps_complex(loaded) == dumps_complex(c)
            assert validate_complex(loaded).ok
            result = CliRunner().invoke(main, ["verify", str(path), "--no-timings"])
            assert result.exit_code == 0
            reports.append(result.stdout)
        assert load_complex(tmp_path / "big" / "t.json")._cells.ids.dtype == object
        assert reports[0] == reports[1]


def _parallel_pair() -> tuple[TypedComplex, TypedComplex]:
    """Two cell complexes on vertices 0, 1, 2 of types 0, 1, 2 with two edges on
    each vertex pair; only the first side of their second chamber differs."""
    edges = np.array([[0, 1], [0, 1], [0, 2], [0, 2], [1, 2], [1, 2]])
    return tuple(TypedComplex._from_arrays(np.arange(3), np.arange(3), edges, np.array(sides))
                 for sides in ([[0, 2, 4], [1, 3, 5]], [[0, 2, 4], [0, 3, 5]]))


SIMPLICIAL_FIELDS = {
    "types": st.lists(st.integers(0, 2), min_size=4, max_size=4),
    "edges": st.sets(st.sampled_from(list(combinations(range(4), 2)))),
    "chambers": st.sets(st.sampled_from(list(combinations(range(4), 3)))),
    "q": st.sampled_from([None, 2]),
    "boundary": st.sets(st.integers(0, 3), max_size=1),
}


def _simplicial(spec: dict) -> TypedComplex:
    return TypedComplex(list(enumerate(spec["types"])), spec["edges"], spec["chambers"],
                        q=spec["q"], boundary=spec["boundary"])


def _views(c: TypedComplex) -> tuple:
    return c.vertices, c.edges, c.chambers, c.q, c.boundary


class TestEquality:
    def test_parallel_cells_with_different_sides_differ(self):
        a, b = _parallel_pair()
        assert _views(a) == _views(b)
        assert (str(zeta_edge(a)), str(zeta_edge(b))) == ("1 - u^6", "1 - 2*u^3")
        assert a != b and hash(a) != hash(b)
        assert a == _parallel_pair()[0] and hash(a) == hash(_parallel_pair()[0])

    @settings(max_examples=150, deadline=None)
    @given(st.fixed_dictionaries(SIMPLICIAL_FIELDS), st.data())
    def test_arrays_agree_with_views_on_simplicial_complexes(self, spec, data):
        # the second complex redraws up to two fields of the first, and is
        # read back from its file (the array constructor) or built from tuples
        changed = data.draw(st.sets(st.sampled_from(sorted(SIMPLICIAL_FIELDS)), max_size=2))
        other = {**spec, **{k: data.draw(SIMPLICIAL_FIELDS[k]) for k in sorted(changed)}}
        a, b = _simplicial(spec), _simplicial(other)
        if data.draw(st.booleans()):
            b = loads_complex(dumps_complex(b))
        assert (a == b) == (_views(a) == _views(b))
        if a == b:
            assert hash(a) == hash(b)


class TestVersionOneLimit:
    def test_parallel_cells_refused_at_write(self):
        with pytest.raises(ValueError, match="version 1 cannot hold parallel edges"):
            dumps_complex(_parallel_pair()[0])

    @pytest.mark.parametrize("vertices, repeated", [
        ([(0, 0), (0, 0), (1, 1)], 0),
        ([(5, 0), (7, 1), (7, 2), (9, 2)], 7),
    ], ids=["same-type", "two-types"])
    def test_repeated_vertex_id_refused_at_write(self, vertices, repeated):
        # the text held two entries of one id, which loads_complex refuses
        edge = (vertices[0][0], vertices[-1][0])
        c = TypedComplex(vertices, [edge])
        with pytest.raises(ValueError, match=f"cannot hold the vertex id {repeated} twice"):
            dumps_complex(c)
        once = TypedComplex(vertices[:1] + vertices[2:], [edge])
        assert loads_complex(dumps_complex(once)) == once
