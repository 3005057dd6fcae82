"""Type-colored 2-dimensional simplicial complexes: model, validation, IO.

A :class:`TypedComplex` is a finite simplicial complex of dimension <= 2
whose vertices carry a Z/3 type label, every edge joins vertices of distinct
types, and every chamber (triangle) carries all three types.  Instances are
immutable after construction and all operations are pure, so they can be
shared freely across threads.

The JSON file format (version 1)::

    {"version": 1, "q": 2, "vertices": [{"id": 0, "type": 0}, ...],
     "edges": [[0, 1], ...], "chambers": [[0, 1, 2], ...], "boundary": [3]}

Arrays are sorted ascending and serialization is canonical: the same complex
always produces byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "TypedComplex",
    "SimplexCounts",
    "ValidationReport",
    "ComplexFormatError",
    "validate_complex",
    "euler_characteristic",
    "simplex_counts",
    "load_complex",
    "loads_complex",
    "complex_from_json",
    "save_complex",
    "dumps_complex",
]

FORMAT_VERSION = 1


class ComplexFormatError(ValueError):
    """Raised for malformed complex files; carries a location hint."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message}" + (f" (at {location})" if location else ""))


@dataclass(frozen=True)
class SimplexCounts:
    """Numbers of vertices, edges and chambers."""

    N0: int
    N1: int
    N2: int


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


class TypedComplex:
    """Finite 2-dimensional simplicial complex with Z/3 vertex types.

    Edges and chambers are stored undirected/unordered; directed edges and
    pointed chambers are derived views (see :mod:`btzeta.operators`).  The
    optional ``boundary`` set marks vertices whose links are incomplete
    (building balls); transfer operators refuse complexes with a nonempty
    boundary.  ``q`` is an optional residue-cardinality tag carried along
    for downstream classification.

    Construction builds, in private slots, the neighbours of each vertex and
    the chambers-of-edge table ``_chambers_of_edge``: each sorted edge
    ``(a, b)`` that has chambers maps to the tuple of them, in sorted order.
    Every transfer rule of :mod:`btzeta.operators` reads that one table.
    Transition relations (``operators.transitions``) and their strongly
    connected components are memoized in two private slots on first use.
    None of these slots enters equality, hashing or serialization.  The memos
    are safe to share across threads: their values are immutable tuples, and
    ``dict.setdefault`` hands concurrent first uses the same one.
    """

    __slots__ = ("vertices", "edges", "chambers", "q", "boundary", "type_of",
                 "_neighbors", "_chambers_of_edge", "_relations", "_components")

    def __init__(
        self,
        vertices,
        edges=(),
        chambers=(),
        q: int | None = None,
        boundary=(),
    ):
        vs = tuple(sorted((int(v), int(t)) for v, t in vertices))
        es = tuple(sorted({tuple(sorted((int(a), int(b)))) for a, b in edges}))
        cs = tuple(sorted({tuple(sorted(map(int, tri))) for tri in chambers}))
        self.vertices = vs
        self.edges = es
        self.chambers = cs
        self.q = None if q is None else int(q)
        self.boundary = frozenset(int(v) for v in boundary)
        self.type_of = {v: t for v, t in vs}
        neighbors: dict[int, list[int]] = {}
        for a, b in es:
            neighbors.setdefault(a, []).append(b)
            neighbors.setdefault(b, []).append(a)
        self._neighbors = {v: tuple(ws) for v, ws in neighbors.items()}
        chambers_of_edge: dict[tuple[int, int], list] = {}
        for tri in cs:
            a, b, d = tri
            for e in ((a, b), (a, d), (b, d)):
                chambers_of_edge.setdefault(e, []).append(tri)
        self._chambers_of_edge = {e: tuple(ts) for e, ts in chambers_of_edge.items()}
        self._relations: dict[str, tuple] = {}
        self._components: dict[str, tuple] = {}

    # -- queries -------------------------------------------------------------

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._neighbors.get(a, ())

    def neighbors(self, v: int) -> list[int]:
        """Vertices joined to v, in the order of the sorted edge list."""
        return list(self._neighbors.get(v, ()))

    def __eq__(self, other) -> bool:
        return isinstance(other, TypedComplex) and (
            self.vertices, self.edges, self.chambers, self.q, self.boundary,
        ) == (other.vertices, other.edges, other.chambers, other.q, other.boundary)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges, self.chambers, self.q, self.boundary))

    def __repr__(self) -> str:
        return (f"TypedComplex(N0={len(self.vertices)}, N1={len(self.edges)}, "
                f"N2={len(self.chambers)}, q={self.q}, "
                f"boundary={len(self.boundary)})")


def validate_complex(c: TypedComplex) -> ValidationReport:
    """Check every structural invariant; violations name the offending simplex.

    Malformed references (dangling vertex ids) are reported as violations,
    never raised.
    """
    violations: list[str] = []
    if len(c.type_of) != len(c.vertices):
        ids = [v for v, _ in c.vertices]
        dupes = sorted({v for v in ids if ids.count(v) > 1})
        violations.append(f"duplicate vertex ids {dupes}")
    known = c.type_of
    for v, t in c.vertices:
        if t not in (0, 1, 2):
            violations.append(f"vertex {v} has type {t} outside {{0,1,2}}")
    for a, b in c.edges:
        if a not in known or b not in known:
            violations.append(f"edge ({a},{b}) references unknown vertex")
            continue
        if a == b:
            violations.append(f"edge ({a},{b}) is a self-loop")
            continue
        if c.type_of[a] == c.type_of[b]:
            violations.append(f"edge ({a},{b}) joins equal types")
    for tri in c.chambers:
        a, b, d = tri
        if any(v not in known for v in tri):
            violations.append(f"chamber {tri} references unknown vertex")
            continue
        if len(set(tri)) != 3:
            violations.append(f"chamber {tri} has repeated vertices")
            continue
        if {c.type_of[a], c.type_of[b], c.type_of[d]} != {0, 1, 2}:
            violations.append(f"chamber {tri} does not carry all three types")
        for e in ((a, b), (a, d), (b, d)):
            if not c.has_edge(*e):
                violations.append(f"chamber {tri} missing edge {e}")
    for v in sorted(c.boundary):
        if v not in known:
            violations.append(f"boundary vertex {v} unknown")
    if c.q is not None and c.q < 1:
        violations.append(f"q={c.q} must be a positive integer")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def simplex_counts(c: TypedComplex) -> SimplexCounts:
    return SimplexCounts(len(c.vertices), len(c.edges), len(c.chambers))


def euler_characteristic(c: TypedComplex) -> int:
    """N0 - N1 + N2; invariant under vertex relabeling."""
    return len(c.vertices) - len(c.edges) + len(c.chambers)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def dumps_complex(c: TypedComplex) -> str:
    doc: dict = {
        "version": FORMAT_VERSION,
        "vertices": [{"id": v, "type": t} for v, t in c.vertices],
        "edges": [list(e) for e in c.edges],
        "chambers": [list(t) for t in c.chambers],
    }
    if c.q is not None:
        doc["q"] = c.q
    if c.boundary:
        doc["boundary"] = sorted(c.boundary)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def save_complex(c: TypedComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_complex(c))


def _require(cond: bool, message: str, location: str) -> None:
    if not cond:
        raise ComplexFormatError(message, location)


def _is_int(x) -> bool:
    """A JSON integer; ``true``/``false`` are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _array(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    _require(isinstance(value, list), f"'{key}' must be an array", key)
    return value


def loads_complex(text: str) -> TypedComplex:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexFormatError(f"not valid JSON: {exc.msg}", f"line {exc.lineno}") from exc
    return complex_from_json(doc)


def complex_from_json(doc) -> TypedComplex:
    """The complex described by an already parsed JSON document."""
    _require(isinstance(doc, dict), "top level must be an object", "document")
    version = doc.get("version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise ComplexFormatError(
            f"unsupported format version {version!r} (expected {FORMAT_VERSION})", "version")
    _require("vertices" in doc, "missing field 'vertices'", "vertices")
    vertices = []
    for i, entry in enumerate(_array(doc, "vertices")):
        _require(isinstance(entry, dict) and "id" in entry and "type" in entry,
                 "vertex entries need 'id' and 'type'", f"vertices[{i}]")
        _require(_is_int(entry["id"]) and _is_int(entry["type"]),
                 "vertex id and type must be integers", f"vertices[{i}]")
        vertices.append((entry["id"], entry["type"]))
    edges = []
    for i, e in enumerate(_array(doc, "edges")):
        _require(isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)),
                 "edges must be pairs of integers", f"edges[{i}]")
        edges.append(e)
    chambers = []
    for i, t in enumerate(_array(doc, "chambers")):
        _require(isinstance(t, list) and len(t) == 3 and all(map(_is_int, t)),
                 "chambers must be triples of integers", f"chambers[{i}]")
        chambers.append(t)
    q = doc.get("q")
    _require(q is None or (_is_int(q) and q >= 1),
             "q must be a positive integer", "q")
    boundary = _array(doc, "boundary")
    _require(all(map(_is_int, boundary)),
             "boundary must be a list of vertex ids", "boundary")
    c = TypedComplex(vertices, edges, chambers, q=q, boundary=boundary)
    # the constructor keys vertices by id and keeps each edge and chamber once
    _require(len(c.type_of) == len(vertices), "duplicate vertex ids", "vertices")
    _require(len(c.edges) == len(edges), "duplicate edges", "edges")
    _require(len(c.chambers) == len(chambers), "duplicate chambers", "chambers")
    return c


def load_complex(path) -> TypedComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_complex(fh.read())
