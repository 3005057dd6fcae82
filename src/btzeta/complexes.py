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

Layout.  A complex is held as integer arrays, one ``_Cells``:

- ``ids``: the distinct vertex ids that any vertex entry, edge or chamber
  names, ascending.  A vertex is referred to by its dense index into
  ``ids``, so dense order is id order.  Ids are int64 when they all fit
  and exact Python ints (``dtype=object``) otherwise; every key and sort
  below is on dense indices.
- ``vertex`` and ``vertex_type``: the dense index and type of each vertex
  entry, sorted by (id, type); ``type`` holds each id's type (a repeated
  id takes its last entry's, -1 for an id no entry lists) and ``known``
  marks the ids some entry lists.
- ``edges``: an (E, 2) array of dense indices, each row ascending and the
  rows sorted.
- ``chambers``: a (C, 3) array of dense indices, sorted alike, and
  ``sides``: the (C, 3) array of their sides' edge indices.  Side k of the
  chamber (v0, v1, v2) joins (v0, v1), (v0, v2), (v1, v2) for k = 0, 1, 2,
  so it lies opposite v(2 - k); -1 marks a side no edge joins.
- the sides on each edge in CSR form: ``indices[indptr[e]:indptr[e + 1]]``
  lists 3 * chamber + k for each side k on edge e, ascending.

A chamber is given by its three edges, so two edges may join one pair of
vertices and two chambers may span one triple: the layout is that of a cell
complex.  A version 1 file is the case where vertices determine both, and
its chambers' sides are looked up from their vertex pairs.

``complex_from_json`` reads a parsed document straight into these arrays.
Each refusal is one test on a whole array, and only a refused array is
searched for its first offending entry.  ``validate_complex`` computes its
violations as boolean masks and formats a message only for a flagged row.
The tuple views ``vertices``, ``edges``, ``chambers`` and ``type_of`` are
built from the arrays on first read.  A complex built from tuples keeps
them and builds its arrays on first use.  Private slots hold the views,
the arrays and the one memo of :mod:`btzeta.operators`.  Equality and
hashing read the arrays, serialization the views.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

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


def _int_array(values: list) -> np.ndarray:
    """Integers as one array: int64 when every value fits, exact Python ints otherwise."""
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        return np.array(values, dtype=object)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of an (n, 2) or (n, 3) integer array in ascending order.

    The middle entry of a row of three is its sum less its least and greatest.
    """
    out = np.empty_like(rows)
    out[:, 0], out[:, -1] = rows.min(axis=1), rows.max(axis=1)
    if rows.shape[1] == 3:
        out[:, 1] = rows.sum(axis=1) - out[:, 0] - out[:, 2]
    return out


def _row_order(rows: np.ndarray) -> np.ndarray:
    """The stable order that sorts the rows of a 2-d array lexicographically."""
    return np.lexsort(rows.T[::-1])


def _dense(vertex_ids: list, edge_ids: list, chamber_ids: list) -> tuple:
    """(ids, vertex, edges, chambers): the distinct ids, and the lists in dense indices.

    ``edge_ids`` and ``chamber_ids`` are flat, two resp. three ids a row.
    One stable sort ranks the ids.
    """
    every = _int_array(vertex_ids + edge_ids + chamber_ids)
    order = np.argsort(every, kind="stable")
    ranked = every[order]
    new = np.ones(len(every), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    at = np.empty(len(every), dtype=np.int64)
    at[order] = np.cumsum(new) - 1
    n0, n1 = len(vertex_ids), len(vertex_ids) + len(edge_ids)
    return ranked[new], at[:n0], at[n0:n1].reshape(-1, 2), at[n1:].reshape(-1, 3)


def _find_sides(edges: np.ndarray, chambers: np.ndarray, n: int) -> np.ndarray:
    """The edge index of each chamber side, -1 where no edge joins its ends.

    Both arrays hold sorted rows of dense indices below n, so a pair (a, b)
    has the key a * n + b, and the edge keys ascend.
    """
    if not len(edges):
        return np.full(chambers.shape, -1, dtype=np.int64)
    key = edges[:, 0] * n + edges[:, 1]
    side = chambers[:, [0, 0, 1]] * n + chambers[:, [1, 2, 2]]
    at = np.minimum(np.searchsorted(key, side), len(key) - 1)
    return np.where(key[at] == side, at, -1)


class _Cells:
    """The integer arrays of a complex (see the module docstring).

    Built from dense arrays in any row order: rows are sorted here.  Either
    ``chambers`` (vertex rows, whose sides are then looked up) or ``sides``
    (edge rows, whose vertices are then read off) is given.
    """

    __slots__ = ("ids", "vertex", "vertex_type", "type", "known", "edges", "chambers",
                 "sides", "indptr", "indices")

    def __init__(self, ids, vertex, vertex_type, edges, sides=None, chambers=None):
        n = len(ids)
        order = np.lexsort((vertex_type, vertex))
        vertex, vertex_type = vertex[order], vertex_type[order]
        last = np.ones(len(vertex), dtype=bool)
        last[:-1] = vertex[1:] != vertex[:-1]
        self.type = np.full(n, -1, dtype=vertex_type.dtype)
        self.type[vertex[last]] = vertex_type[last]
        self.known = np.zeros(n, dtype=bool)
        self.known[vertex] = True
        edges = _sorted_rows(edges)
        order = _row_order(edges)
        edges = edges[order]
        if sides is None:
            chambers = _sorted_rows(chambers)
            chambers = chambers[_row_order(chambers)]
            sides = _find_sides(edges, chambers, n)
        else:
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            sides = rank[sides]
            # a chamber's first and last vertex are the least and greatest
            # ends of its sides, and its middle one the end left over
            ends = edges[sides].reshape(-1, 6)
            low, high = ends.min(axis=1), ends.max(axis=1)
            chambers = np.stack([low, ends.sum(axis=1) // 2 - low - high, high], axis=1)
            slot = ((edges[sides, 0] != chambers[:, :1]).astype(np.int64)
                    + (edges[sides, 1] == chambers[:, 2:]))
            placed = np.empty_like(sides)
            np.put_along_axis(placed, slot, sides, axis=1)
            order = _row_order(chambers)
            chambers, sides = chambers[order], placed[order]
        flat = sides.ravel()
        slot = np.flatnonzero(flat >= 0)
        on = flat[slot]
        self.indices = slot[np.argsort(on, kind="stable")]
        self.indptr = np.zeros(len(edges) + 1, dtype=np.int64)
        np.cumsum(np.bincount(on, minlength=len(edges)), out=self.indptr[1:])
        self.ids, self.vertex, self.vertex_type = ids, vertex, vertex_type
        self.edges, self.chambers, self.sides = edges, chambers, sides

    def index(self, v) -> int:
        """The dense index of the id v, -1 if no vertex entry, edge or chamber names it."""
        try:
            i = int(np.searchsorted(self.ids, v))
        except (OverflowError, TypeError):
            return -1
        return i if i < len(self.ids) and self.ids[i] == v else -1

    def edge(self, x, y) -> int:
        """The index of the first edge joining the ids x and y, -1 if none does."""
        a, b = sorted((self.index(x), self.index(y)))
        if a < 0:
            return -1
        at = np.flatnonzero((self.edges[:, 0] == a) & (self.edges[:, 1] == b))
        return int(at[0]) if len(at) else -1


def _all_types(t: np.ndarray) -> np.ndarray:
    """Which rows of three types hold each of 0, 1 and 2."""
    return (t == 0).any(axis=1) & (t == 1).any(axis=1) & (t == 2).any(axis=1)


def _cells_of(vertices: tuple, edges: tuple, chambers: tuple) -> _Cells:
    """The arrays of a complex given by sorted tuples."""
    ids, vertex, edge_rows, chamber_rows = _dense(
        [v for v, _ in vertices], list(chain.from_iterable(edges)),
        list(chain.from_iterable(chambers)))
    return _Cells(ids, vertex, _int_array([t for _, t in vertices]), edge_rows,
                  chambers=chamber_rows)


class TypedComplex:
    """Finite 2-dimensional simplicial complex with Z/3 vertex types.

    Edges and chambers are stored undirected/unordered; directed edges and
    pointed chambers are derived views (see :mod:`btzeta.operators`).  The
    optional ``boundary`` set marks vertices whose links are incomplete
    (building balls); transfer operators refuse complexes with a nonempty
    boundary.  ``q`` is an optional residue-cardinality tag carried along
    for downstream classification.

    ``vertices`` (sorted (id, type) pairs), ``edges`` and ``chambers``
    (sorted tuples of sorted id tuples) and ``type_of`` (id -> type) are
    tuple views of the integer arrays of the module docstring.  The
    constructor takes them as tuples and keeps them; ``_from_arrays`` takes
    the arrays.  Each transition relation (``operators.transitions``) is
    memoized on first use in one private dict, one entry per kind that holds
    the relation and its strongly connected components.  The memo is safe
    to share across threads: its values are immutable, a view or the arrays
    built twice are equal, and ``dict.setdefault`` hands concurrent first
    uses of a relation the same entry.
    """

    __slots__ = ("q", "boundary", "_vertices", "_edges", "_chambers", "_type_of", "_layout",
                 "_relations")

    def __init__(
        self,
        vertices,
        edges=(),
        chambers=(),
        q: int | None = None,
        boundary=(),
    ):
        self._vertices = tuple(sorted((int(v), int(t)) for v, t in vertices))
        self._edges = tuple(sorted({tuple(sorted((int(a), int(b)))) for a, b in edges}))
        self._chambers = tuple(sorted({tuple(sorted(map(int, tri))) for tri in chambers}))
        self._type_of = self._layout = None
        self.q = None if q is None else int(q)
        self.boundary = frozenset(int(v) for v in boundary)
        self._relations = {}

    @classmethod
    def _from_arrays(cls, ids, types, edges, sides=None, q: int | None = None, boundary=(),
                     *, vertex=None, chambers=None) -> TypedComplex:
        """The complex on the ascending distinct vertex ids ``ids``, as integer arrays.

        ``edges`` is an (E, 2) array of indices into ``ids``; each chamber is
        a row of ``sides``, its three edge indices, or else a row of
        ``chambers``, its three vertex indices.  ``types`` holds the type of
        each id, or with ``vertex`` given, of each vertex entry ``vertex``
        lists (an id no entry lists is unknown, as ``validate_complex``
        reports).  Rows may come in any order.
        """
        c = cls.__new__(cls)
        if vertex is None:
            vertex = np.arange(len(ids))
        c._layout = _Cells(ids, vertex, types, edges, sides, chambers)
        c._vertices = c._edges = c._chambers = c._type_of = None
        c.q = None if q is None else int(q)
        c.boundary = frozenset(map(int, boundary))
        c._relations = {}
        return c

    @property
    def _cells(self) -> _Cells:
        """The integer arrays, built from the tuple views on first use."""
        if self._layout is None:
            self._layout = _cells_of(self._vertices, self._edges, self._chambers)
        return self._layout

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            cells = self._layout
            self._vertices = tuple(zip(cells.ids[cells.vertex].tolist(),
                                       cells.vertex_type.tolist()))
        return self._vertices

    @property
    def edges(self) -> tuple:
        if self._edges is None:
            self._edges = tuple(map(tuple, self._layout.ids[self._layout.edges].tolist()))
        return self._edges

    @property
    def chambers(self) -> tuple:
        if self._chambers is None:
            self._chambers = tuple(map(tuple, self._layout.ids[self._layout.chambers].tolist()))
        return self._chambers

    @property
    def type_of(self) -> dict:
        if self._type_of is None:
            self._type_of = dict(self.vertices)
        return self._type_of

    def _sizes(self) -> tuple[int, int, int]:
        """Numbers of vertex entries, edges and chambers, from whichever form is at hand."""
        if self._layout is None:
            return len(self._vertices), len(self._edges), len(self._chambers)
        cells = self._layout
        return len(cells.vertex), len(cells.edges), len(cells.chambers)

    # -- queries -------------------------------------------------------------

    def neighbors(self, v: int) -> list[int]:
        """Vertices joined to v, in the order of the sorted edge list."""
        cells = self._cells
        i = cells.index(v)
        if i < 0:
            return []
        a, b = cells.edges.T
        return cells.ids[(a + b - i)[(a == i) | (b == i)]].tolist()

    def _key(self) -> tuple:
        """What equality and hashing read: the arrays, chambers in canonical order.

        The ids, vertex entries and their types, the edges, and each chamber's
        vertices and sides, chambers sorted by both; then q and the boundary.
        Parallel edges keep their given numbering, so two complexes that
        number them differently compare unequal: this is not an isomorphism
        test.
        """
        cells = self._cells
        rows = np.hstack([cells.chambers, cells.sides])
        return (tuple(cells.ids.tolist()), tuple(cells.vertex.tolist()),
                tuple(cells.vertex_type.tolist()), tuple(map(tuple, cells.edges.tolist())),
                tuple(map(tuple, rows[_row_order(rows)].tolist())), self.q, self.boundary)

    def __eq__(self, other) -> bool:
        return isinstance(other, TypedComplex) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        n0, n1, n2 = self._sizes()
        return (f"TypedComplex(N0={n0}, N1={n1}, N2={n2}, q={self.q}, "
                f"boundary={len(self.boundary)})")


def validate_complex(c: TypedComplex) -> ValidationReport:
    """Check every structural invariant; violations name the offending simplex.

    Malformed references (dangling vertex ids) are reported as violations,
    never raised.  Each kind of violation is one mask over the arrays; the
    messages come in the order of the sorted vertices, edges, chambers and
    boundary, one group after the other.
    """
    cells = c._cells
    ids, vertex, vertex_type, t, known = (cells.ids, cells.vertex, cells.vertex_type,
                                          cells.type, cells.known)
    violations: list[str] = []
    again = vertex[1:] == vertex[:-1]
    if again.any():
        violations.append(f"duplicate vertex ids {ids[np.unique(vertex[1:][again])].tolist()}")
    outside = (vertex_type < 0) | (vertex_type > 2)
    violations += [f"vertex {v} has type {tv} outside {{0,1,2}}" for v, tv in
                   zip(ids[vertex[outside]].tolist(), vertex_type[outside].tolist())]
    a, b = cells.edges.T
    unknown = ~(known[a] & known[b])
    loop = ~unknown & (a == b)
    equal = ~unknown & ~loop & (t[a] == t[b])
    for i in np.flatnonzero(unknown | loop | equal).tolist():
        x, y = ids[cells.edges[i]].tolist()
        what = ("references unknown vertex" if unknown[i] else
                "is a self-loop" if loop[i] else "joins equal types")
        violations.append(f"edge ({x},{y}) {what}")
    ch = cells.chambers
    unknown = ~known[ch].all(axis=1)
    repeated = ~unknown & ((ch[:, 0] == ch[:, 1]) | (ch[:, 1] == ch[:, 2]))
    whole = ~unknown & ~repeated
    untyped = whole & ~_all_types(t[ch])
    missing = whole[:, None] & (cells.sides < 0)
    for i in np.flatnonzero(unknown | repeated | untyped | missing.any(axis=1)).tolist():
        tri = tuple(ids[ch[i]].tolist())
        if unknown[i]:
            violations.append(f"chamber {tri} references unknown vertex")
            continue
        if repeated[i]:
            violations.append(f"chamber {tri} has repeated vertices")
            continue
        if untyped[i]:
            violations.append(f"chamber {tri} does not carry all three types")
        x, y, z = tri
        violations += [f"chamber {tri} missing edge {((x, y), (x, z), (y, z))[k]}"
                       for k in np.flatnonzero(missing[i]).tolist()]
    if c.boundary:
        violations += [f"boundary vertex {v} unknown"
                       for v in sorted(c.boundary.difference(ids[known].tolist()))]
    if c.q is not None and c.q < 1:
        violations.append(f"q={c.q} must be a positive integer")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def simplex_counts(c: TypedComplex) -> SimplexCounts:
    return SimplexCounts(*c._sizes())


def euler_characteristic(c: TypedComplex) -> int:
    """N0 - N1 + N2; invariant under vertex relabeling."""
    n0, n1, n2 = c._sizes()
    return n0 - n1 + n2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def dumps_complex(c: TypedComplex) -> str:
    """The complex as format-version-1 text, which ``loads_complex`` reads back.

    Version 1 names each edge and chamber by its vertices, so it cannot hold
    two edges on one vertex pair or two chambers on one vertex triple; a
    complex with such parallel cells (only the arrays can hold them) raises
    ValueError.  So does a complex that lists one vertex id twice, which
    ``loads_complex`` would refuse; the sorted tuple view shows it as a
    neighbouring pair.
    """
    cells = c._layout
    if cells is not None and (_repeats(cells.edges) or _repeats(cells.chambers)):
        raise ValueError("format version 1 cannot hold parallel edges or chambers "
                         "(two cells on the same vertices)")
    vertices = c.vertices
    for (v, _), (w, _) in zip(vertices, vertices[1:]):
        if v == w:
            raise ValueError(f"format version 1 cannot hold the vertex id {v} twice")
    doc: dict = {
        "version": FORMAT_VERSION,
        "vertices": [{"id": v, "type": t} for v, t in vertices],
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


def _all_ints(values: list) -> bool:
    """Whether every value is a JSON integer, by one pass of ``type`` over the list.

    Only a list holding some other type is tested entry by entry (``bool``
    is not ``int``, and ``np.array`` would read ``true`` as 1).
    """
    return set(map(type, values)) <= {int} or all(map(_is_int, values))


def _array(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    _require(isinstance(value, list), f"'{key}' must be an array", key)
    return value


_ID, _TYPE = itemgetter("id"), itemgetter("type")


def _vertex_entries(doc: dict) -> tuple[list, list]:
    """The ids and types of the vertex entries; the first malformed entry is refused."""
    entries = _array(doc, "vertices")
    ids = types = None
    if set(map(type, entries)) <= {dict}:
        try:
            ids, types = list(map(_ID, entries)), list(map(_TYPE, entries))
        except KeyError:
            pass
    if ids is None or not (_all_ints(ids) and _all_ints(types)):
        for i, entry in enumerate(entries):
            _require(isinstance(entry, dict) and "id" in entry and "type" in entry,
                     "vertex entries need 'id' and 'type'", f"vertices[{i}]")
            _require(_is_int(entry["id"]) and _is_int(entry["type"]),
                     "vertex id and type must be integers", f"vertices[{i}]")
        ids, types = [e["id"] for e in entries], [e["type"] for e in entries]
    return ids, types


def _int_rows(doc: dict, key: str, width: int, message: str) -> list:
    """The entries of the array ``key``, lists of ``width`` integers each, flattened.

    The first entry that is not such a list is refused.
    """
    rows = _array(doc, key)
    flat = None
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}:
        flat = list(chain.from_iterable(rows))
    if flat is None or not _all_ints(flat):
        for i, row in enumerate(rows):
            _require(isinstance(row, list) and len(row) == width and all(map(_is_int, row)),
                     message, f"{key}[{i}]")
        flat = list(chain.from_iterable(rows))
    return flat


def _repeats(rows: np.ndarray) -> bool:
    """Whether two neighbouring rows of a sorted array are equal."""
    return bool((rows[1:] == rows[:-1]).all(axis=1).any())


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
    vertex_ids, vertex_types = _vertex_entries(doc)
    edge_ids = _int_rows(doc, "edges", 2, "edges must be pairs of integers")
    chamber_ids = _int_rows(doc, "chambers", 3, "chambers must be triples of integers")
    q = doc.get("q")
    _require(q is None or (_is_int(q) and q >= 1),
             "q must be a positive integer", "q")
    boundary = _array(doc, "boundary")
    _require(_all_ints(boundary), "boundary must be a list of vertex ids", "boundary")
    ids, vertex, edges, chambers = _dense(vertex_ids, edge_ids, chamber_ids)
    c = TypedComplex._from_arrays(ids, _int_array(vertex_types), edges, q=q,
                                  boundary=boundary, vertex=vertex, chambers=chambers)
    # the arrays hold every entry, sorted: a repeat is a neighbouring pair
    cells = c._cells
    _require(not _repeats(cells.vertex[:, None]), "duplicate vertex ids", "vertices")
    _require(not _repeats(cells.edges), "duplicate edges", "edges")
    _require(not _repeats(cells.chambers), "duplicate chambers", "chambers")
    return c


def load_complex(path) -> TypedComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_complex(fh.read())
