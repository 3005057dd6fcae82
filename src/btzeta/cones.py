"""Lattice points of rational simplicial cones and their generating series.

An open sharp cone with r sides is cut out of R^r by r linearly independent
integer functionals alpha_1..alpha_r (strict inequalities alpha_j(v) > 0).
Its intersection with a full-rank sublattice Sigma of Z^r decomposes uniquely
as v = v0 + k_1 a_1 + ... + k_r a_r with v0 from a finite fundamental set F
and k_j >= 0, where a_j is the minimal Sigma-point of the j-th edge ray.
This turns the weighted lattice-point series into a finite sum of geometric
series with closed form

    sum_{v0 in F} chi(v0) u_1^{alpha_1(v0)} ... u_r^{alpha_r(v0)}
        * prod_j 1 / (1 - chi(a_j) u_j^{alpha_j(a_j)})

which this module constructs exactly and cross-checks against direct partial
sums.

The numerator is built in whole-array integer passes.  Since
alpha_i(a_j) = 0 for i != j, a point v = sum t_j a_j has
alpha_j(v) = t_j alpha_j(a_j), so F is the box
0 < alpha_j(v) <= alpha_j(a_j) of the cone's own functionals: the lister
that gives F gives its exponent vectors alpha(F) with it, in int64 when
they fit and in exact Python integers (``dtype=object``) otherwise.
Character values are exact: with +-1 multipliers (the trivial character
included) they are one int64 array of 1 and -1, picked by a parity, and all
other multipliers go through ``CharacterData.value``.

F stays one (r, |F|) integer array from the lister to the output text:
``btz cone`` reads ``_fundamental_points`` and ``_closed_form``, and
``fundamental_domain`` and ``cone_series_closed_form`` are their tuple views.
``ConeClosedForm`` holds its numerator as coefficients (an int64 array when
they are ints that fit, as +-1 character values are, a tuple otherwise) and
an (n, r) exponent array, and ``terms`` is read off them.  ``to_json``
encodes each distinct coefficient once, with no dict per term.  One encoder,
``_rows_json``, writes the exponent rows after their coefficients' prefixes
and F's points as JSON: an int64 array of at least ``_DIGIT_PASS_MIN`` rows
in whole-array digit passes over a byte table, a smaller one, or one of
exact integers beyond int64, by json.dumps of ``tolist()``.  ``evaluate``
reads the array one coordinate row at a time and takes each power u_j^e
once per coordinate and distinct exponent, then multiplies in coordinate
order from the coefficient and sums left to right from 0, as the plain
per-term loop does, in Python arithmetic: float points keep the loop's bits
and Fraction points stay exact.  A form of at least ``_DIGIT_PASS_MIN``
int-coefficient terms at a float point does the same in whole-array passes
over one power table per coordinate.

The linear algebra is exact integer elimination: one fraction-free
Gauss-Jordan routine gives the adjugate and the determinant of a matrix,
and a cone runs it twice, on its lattice basis B and on its functional
matrix alpha, and keeps both.  Everything else reads them: the functionals
in lattice coordinates are G = alpha B, and adj G = adj B adj alpha gives
the edge generators; lattice membership is adj B v divided exactly by
det B; the listed points are adj(alpha) w divided exactly by det alpha;
and the decomposition reads k_j off alpha_j(v).

The partial-sum oracle sums over a truncated cone, and F is a box too.  One
lister gives both as lattice points of a box with one bound per side, from
the lower-triangular Hermite normal form of the lattice's image (Cohen, *A
Course in Computational Algebraic Number Theory*, 2.4.2), one coordinate at
a time, so no point outside the lattice is generated.  The oracle reads the
powers u_j^w_j from one table per coordinate.  Under a +-1 character at a
real point it signs each term by one parity, that of the sum of the
coordinates v_i with m_i = -1, which is (c . w) / det alpha for c the sum
of those rows of adj(alpha); it forms the points v only under other
characters, at complex points, or where c . w would not fit int64.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, repeat
from operator import add, mul

import numpy as np

__all__ = [
    "LatticeCone",
    "ConeDecomposition",
    "CharacterData",
    "ConeClosedForm",
    "cone_generators",
    "fundamental_domain",
    "decompose",
    "cone_series_closed_form",
    "evaluate_partial_sum",
    "assemble_multivariable_S",
]


# Largest point count of a box that truncated_cone_points lists, for F and the
# partial-sum oracle alike.  Every such point becomes a tuple or array column,
# so a much larger set exhausts memory instead of finishing.
FUNDAMENTAL_INDEX_CAP = 10**6

# Largest |exponent| to which CharacterData.value raises an exact multiplier
# other than +-1.  The power (p/q)**e has about |e| * log2 max(|p|, |q|) bits,
# so an exponent near 10^18, which lattices with large entries reach, would
# exhaust memory instead of finishing.
EXACT_POWER_CAP = 10**6

_INT64_MAX = int(np.iinfo(np.int64).max)
# the least positive normal float: a product below it has lost bits
_FLOAT_TINY = sys.float_info.min


def _int_dtype(magnitude: int):
    """int64 when no value exceeds ``magnitude`` in size, else exact Python ints."""
    return np.int64 if magnitude <= _INT64_MAX else object


def _check_rank(items, rank: int, what: str, unit: str) -> None:
    """Refuse a character or an evaluation point with other than ``rank`` entries."""
    if len(items) != rank:
        raise ValueError(f"{what} has {len(items)} {unit} for a cone of rank {rank}")


def _mat_vec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def _identity(r: int):
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def _adjugate(m) -> tuple[list[list[int]] | None, int]:
    """(adj m, det m) for a square integer matrix m, or (None, 0) when m is singular.

    Fraction-free Gauss-Jordan elimination on [m | I] (Bareiss, Math. Comp.
    22, 1968): after step k every entry is a (k+1)-minor of the row-permuted
    augmented matrix, so each division by the previous pivot is exact.  The
    left half ends as d I with d = det(P m) for the row permutation P, and
    the right half as d m^-1, which is sign(P) adj m.
    """
    n = len(m)
    a = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return None, 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot_row, pivot = a[k], a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
    return [[sign * x for x in row[n:]] for row in a], sign * prev


@dataclass(frozen=True)
class LatticeCone:
    """Rank, lattice basis (columns span Sigma inside Z^r), and functionals.

    The functionals must be linearly independent so the closed cone contains
    no line; the lattice basis must be nonsingular.  The (adjugate,
    determinant) pairs of both, which that check computes, are kept.
    """

    rank: int
    lattice_basis: tuple[tuple[int, ...], ...]  # rows of the basis matrix
    functionals: tuple[tuple[int, ...], ...]    # one integer covector per side
    _basis_adjugate: tuple = field(init=False, repr=False, compare=False)
    _functional_adjugate: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, functionals, lattice_basis=None):  # noqa: D107
        funcs = tuple(tuple(int(x) for x in f) for f in functionals)
        r = len(funcs)
        if not r:
            raise ValueError("a cone of rank 0 has no sides: give at least one functional")
        if any(len(f) != r for f in funcs):
            raise ValueError("need exactly r functionals of length r")
        basis = tuple(tuple(int(x) for x in row) for row in (lattice_basis or _identity(r)))
        if len(basis) != r or any(len(row) != r for row in basis):
            raise ValueError("lattice basis must be an r x r integer matrix")
        basis_adj = _adjugate(basis)
        if basis_adj[1] == 0:
            raise ValueError("lattice basis is singular")
        functional_adj = _adjugate(funcs)
        if functional_adj[1] == 0:
            raise ValueError("functionals are linearly dependent (cone is not sharp)")
        object.__setattr__(self, "rank", r)
        object.__setattr__(self, "lattice_basis", basis)
        object.__setattr__(self, "functionals", funcs)
        object.__setattr__(self, "_basis_adjugate", basis_adj)
        object.__setattr__(self, "_functional_adjugate", functional_adj)

    @property
    def basis_columns(self) -> tuple[tuple[int, ...], ...]:
        r = self.rank
        return tuple(tuple(self.lattice_basis[i][j] for i in range(r)) for j in range(r))

    def alpha(self, j: int, v) -> int:
        return sum(self.functionals[j][i] * v[i] for i in range(self.rank))

    def alphas(self, v) -> tuple[int, ...]:
        return tuple(self.alpha(j, v) for j in range(self.rank))

    def contains(self, v) -> bool:
        """Open-cone membership: every functional strictly positive."""
        return all(a > 0 for a in self.alphas(v))

    def in_lattice(self, v) -> bool:
        """v = B x with x integral, i.e. adj(B) v = 0 modulo det B."""
        adj, det = self._basis_adjugate
        return all(x % det == 0 for x in _mat_vec(adj, v))


@dataclass(frozen=True)
class ConeDecomposition:
    """Edge generators a_1..a_r and the fundamental set F."""

    generators: tuple[tuple[int, ...], ...]
    fundamental_set: tuple[tuple[int, ...], ...]


def cone_generators(cone: LatticeCone) -> tuple[tuple[int, ...], ...]:
    """Minimal lattice point a_j on each edge ray of the cone.

    a_j spans the line where all functionals except alpha_j vanish, lies in
    the lattice, is primitive there, and has alpha_j(a_j) > 0 minimal.  With
    G = alpha B the functionals in lattice coordinates, G adj(G) = det(G) I,
    so column j of adj(G) = adj(B) adj(alpha) is such a line in lattice
    coordinates; divided by its gcd g_j and multiplied by sign(det G) it is
    a_j, which B maps back to ambient coordinates.  Since B adj(B) = det(B) I,
    that is a_j = sign(det alpha) |det B| adj(alpha) e_j / g_j, read off the
    two adjugates the cone holds.
    """
    r = cone.rank
    adj_b, det_b = cone._basis_adjugate
    adj_f, det_f = cone._functional_adjugate
    scale = abs(det_b) if det_f > 0 else -abs(det_b)
    gens = []
    for j in range(r):
        col = [adj_f[i][j] for i in range(r)]
        g = math.gcd(*_mat_vec(adj_b, col))
        gens.append(tuple(scale * x // g for x in col))
    return tuple(gens)


def _mat_vec_row(functional, basis_columns):
    """Row of the functional matrix expressed in lattice coordinates."""
    return tuple(sum(functional[i] * col[i] for i in range(len(col))) for col in basis_columns)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _lower_hermite_form(m) -> list[list[int]]:
    """Lower-triangular column Hermite normal form of a nonsingular integer matrix.

    Unimodular column operations turn m into h with the same column lattice,
    h[k][k] > 0 and 0 <= h[k][j] < h[k][k] for j < k.
    """
    r = len(m)
    cols = [[m[i][j] for i in range(r)] for j in range(r)]
    for k in range(r):
        for j in range(k + 1, r):
            a, b = cols[k][k], cols[j][k]
            if b:
                g, s, t = _xgcd(a, b)
                ck, cj = cols[k], cols[j]
                cols[k] = [s * x + t * y for x, y in zip(ck, cj)]
                cols[j] = [a // g * y - b // g * x for x, y in zip(ck, cj)]
        if cols[k][k] < 0:
            cols[k] = [-x for x in cols[k]]
        for j in range(k):
            q = cols[j][k] // cols[k][k]
            cols[j] = [x - q * y for x, y in zip(cols[j], cols[k])]
    return [[cols[j][i] for j in range(r)] for i in range(r)]


def _lattice_points_in_box(g, bounds) -> np.ndarray:
    """Points w of the lattice g Z^r with 0 < w_k <= bounds[k], in lexicographic order.

    With h the Hermite form of g, a point is w = h y.  Once y_1..y_{k-1} are
    fixed, w_k = s + h_kk y_k with s = sum_{j<k} h_kj y_j, so the y_k that keep
    w_k in (0, bounds[k]] form one interval.  Each coordinate expands every
    partial point by its interval, in order, so only lattice points are
    generated.  One (r, n) array holds, per partial point, the rows of w
    written so far and the partial sums s of the later rows: level k turns
    row k into w_k and adds h_mk y_k to every later row m, so y itself is
    never kept.  With b = max(bounds), since 0 <= h_kj < h_kk, every
    |y_k| <= 2^(k-1) b and every partial sum stays below
    max_k h_kk * b * 2^r, which picks int64 or exact integers.  The k-th
    interval holds at most ceil(bounds[k] / h_kk) values; raises ValueError
    when their product exceeds FUNDAMENTAL_INDEX_CAP, before listing any
    point.
    """
    h = _lower_hermite_form(g)
    r = len(h)
    most = math.prod(-(-b // h[k][k]) for k, b in enumerate(bounds))
    if most > FUNDAMENTAL_INDEX_CAP:
        box = " x ".join(f"(0, {b}]" for b in bounds)
        raise ValueError(f"the box {box} holds up to {most} lattice points, "
                         f"more than the cap of {FUNDAMENTAL_INDEX_CAP}")
    dtype = _int_dtype(max(h[k][k] for k in range(r)) * max(bounds) << r)
    w = np.zeros((r, 1), dtype=dtype)
    for k, b in enumerate(bounds):
        s, step = w[k], h[k][k]
        lo = -((s - 1) // step)                     # ceil((1 - s) / h_kk)
        counts = ((b - s) // step - lo + 1).astype(np.int64, copy=False)
        # y_k runs over lo, lo + 1, ... for each partial point: the i-th new
        # point has y_k = i - (start - lo) of the partial point it extends
        y = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        w = np.repeat(w, counts, axis=1)
        w[k:] += np.array([h[m][k] for m in range(k, r)], dtype=dtype)[:, None] * y
    return w


def _edge_bounds(cone: LatticeCone, generators) -> list[int]:
    """alpha_j(a_j) for each generator a_j.

    Raises ValueError unless there are r generators and every a_j lies on
    the j-th edge ray (alpha_i(a_j) = 0 for i != j and alpha_j(a_j) > 0).
    """
    r = cone.rank
    alphas = [cone.alphas(a) for a in generators]
    if len(alphas) != r or any(alphas[j][i] for j in range(r) for i in range(r) if i != j) \
            or any(alphas[j][j] <= 0 for j in range(r)):
        raise ValueError(f"the generators {tuple(map(tuple, generators))} do not lie "
                         "on the edge rays of the cone")
    return [alphas[j][j] for j in range(r)]


def _fundamental_points(cone: LatticeCone, generators) -> tuple[np.ndarray, np.ndarray]:
    """F and its exponent vectors alpha(F), two (r, |F|) integer arrays.

    The columns are in lexicographic order of the points.  A point
    v = sum t_j a_j has alpha_j(v) = t_j b_j with b_j = alpha_j(a_j), so the
    half-open condition 0 < t_j <= 1 is 0 < alpha_j(v) <= b_j: F is the box
    of the cone's own functionals with one bound b_j per side, which
    ``_box_points`` lists.  Since b_j e_j lies in the image lattice, the
    box's estimate is exactly |F| = prod b_j / |det alpha det B|, checked
    against FUNDAMENTAL_INDEX_CAP before listing and against the count
    after.  Raises ValueError unless the generators lie on the edge rays,
    one per side (``_edge_bounds``).
    """
    bounds = _edge_bounds(cone, generators)
    w = _box_points(cone, bounds)
    v = _points_of_exponents(cone, w, max(bounds))
    expected = math.prod(bounds) // abs(cone._functional_adjugate[1] * cone._basis_adjugate[1])
    if v.shape[1] != expected:
        raise AssertionError(
            f"fundamental set size {v.shape[1]} != lattice index {expected}")
    order = _lex_order(v)
    return np.take(v, order, axis=1), np.take(w, order, axis=1)


def _lex_order(points: np.ndarray) -> np.ndarray:
    """The permutation that sorts the distinct columns of an (r, n) integer array.

    Read as mixed-radix digits, each column's offsets from the row minima
    give one int64 key when the product of the rows' spans fits; the keys
    are distinct and ordered as the columns, so one argsort of them is the
    lexicographic order.  Otherwise np.lexsort sorts the rows.
    """
    if points.dtype == np.int64 and points.shape[1]:
        lows = points.min(axis=1)
        spans = [hi - lo + 1 for lo, hi in zip(lows.tolist(), points.max(axis=1).tolist())]
        if math.prod(spans) <= _INT64_MAX:
            key = np.zeros(points.shape[1], np.int64)
            for row, lo, span in zip(points, lows, spans):
                key = key * span + (row - lo)
            return np.argsort(key)
    return np.lexsort(points[::-1])


def fundamental_domain(cone: LatticeCone,
                       generators: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Lattice points of the half-open parallelepiped spanned by the generators.

    These are exactly the coset representatives v0 of Sigma modulo the
    sublattice generated by a_1..a_r that lie in the open cone while every
    v0 - a_j falls outside it, sorted lexicographically.  Raises ValueError
    unless the generators lie on the cone's edge rays, one per side.
    """
    return tuple(map(tuple, _fundamental_points(cone, generators)[0].T.tolist()))


def decompose(cone: LatticeCone, decomposition: ConeDecomposition, v):
    """Unique expression v = v0 + sum k_j a_j, or None when v is outside the cone.

    Raises ValueError when v is not a lattice point at all, or when the
    decomposition's generators do not lie on the edge rays, one per side.
    """
    bounds = _edge_bounds(cone, decomposition.generators)
    v = tuple(int(x) for x in v)
    if not cone.in_lattice(v):
        raise ValueError(f"{v} is not in the lattice")
    if not cone.contains(v):
        return None
    # k_j = ceil(t_j) - 1 for the barycentric coordinates t_j = alpha_j(v) / alpha_j(a_j)
    ks = tuple((cone.alpha(j, v) - 1) // b for j, b in enumerate(bounds))
    v0 = tuple(
        v[i] - sum(k * g[i] for k, g in zip(ks, decomposition.generators))
        for i in range(cone.rank)
    )
    if v0 not in decomposition.fundamental_set or any(k < 0 for k in ks):
        raise AssertionError(f"decomposition failed for {v}")
    return v0, ks


def _exact_power(m, e) -> Fraction:
    """Fraction(m) ** e; beyond the exponent cap (for |m| != 1) it raises ValueError."""
    m = Fraction(m)
    if abs(e) > EXACT_POWER_CAP and abs(m) != 1:
        raise ValueError(f"exact power {m}**{e} exceeds the exponent cap of {EXACT_POWER_CAP}")
    return m ** int(e)


@dataclass(frozen=True)
class CharacterData:
    """Multiplier vector m: the character acts by v -> prod m_i ** v_i."""

    multipliers: tuple

    def __init__(self, multipliers):  # noqa: D107
        multipliers = tuple(multipliers)
        if any(m == 0 for m in multipliers):
            raise ValueError("a zero multiplier is not a character")
        object.__setattr__(self, "multipliers", multipliers)

    def value(self, v):
        """prod m_i ** v_i; a float or complex value that is not finite raises ValueError.

        The powers multiply in coordinate order.  When that float or complex
        product overflows on the way, or underflows below the normal floats
        (no multiplier is 0), the value is taken again exactly
        (``_rounded_value``), so only a value beyond float range raises.
        """
        _check_rank(self.multipliers, len(v), "the character", "multipliers")
        exact = all(isinstance(m, (int, Fraction)) for m in self.multipliers)
        acc = Fraction(1) if exact else 1.0
        try:
            for m, e in zip(self.multipliers, v):
                acc = acc * (_exact_power(m, e) if isinstance(m, (int, Fraction)) else m ** int(e))
                if not exact and abs(acc) < _FLOAT_TINY:
                    return self._rounded_value(v)
        except OverflowError:
            return self._rounded_value(v)
        if not exact and not cmath.isfinite(acc):
            return self._rounded_value(v)
        return acc

    def _rounded_value(self, v):
        """``value`` with the powers of the real multipliers multiplied exactly, then rounded.

        Floats enter as the Fractions they equal, so the real product is
        exact and is rounded once; complex multipliers' powers stay complex
        floats, and their product's parts are scaled exactly.  A value that
        is still not finite raises ValueError, and so does a real power
        beyond the exponent cap.
        """
        real, unit = Fraction(1), None
        try:
            for m, e in zip(self.multipliers, v):
                if isinstance(m, complex):
                    unit = m ** int(e) if unit is None else unit * m ** int(e)
                else:
                    real *= _exact_power(m, e)
            value = float(real) if unit is None else complex(
                float(real * Fraction(unit.real)), float(real * Fraction(unit.imag)))
        except OverflowError:  # a float beyond range, or an infinite multiplier
            value = math.inf
        if not cmath.isfinite(value):
            raise ValueError(f"the character value at {tuple(v)} overflows a float")
        return value

    @staticmethod
    def trivial(rank: int) -> "CharacterData":
        return CharacterData((Fraction(1),) * rank)


def _coefficient_text(x) -> str:
    """Canonical JSON of a coefficient; an int encodes like the equal Fraction."""
    if isinstance(x, Fraction) or type(x) is int:
        return '{"den":"%d","num":"%d"}' % (x.denominator, x.numerator)
    return json.dumps({"re": x.real, "im": x.imag} if isinstance(x, complex) else x,
                      sort_keys=True, separators=(",", ":"))


# key order of the coefficient dicts that to_json_dict rebuilds from the text
_COEFFICIENT_KEYS = {("den", "num"): ("num", "den"), ("im", "re"): ("re", "im")}

# Arrays of fewer rows are written by json.dumps of tolist(): on a 2-vCPU
# host the digit passes cost a fixed ~26 us, and json ~0.55 us per row of
# rank 1-3 with to_json's heads, so the two are equal near 48-56 rows.
_DIGIT_PASS_MIN = 48
_TEXT_CHUNK = 4096  # rows written into one byte table at once


def _rows_json(rows: np.ndarray, heads, which: np.ndarray, tail: str) -> str:
    """Row i of the (n, r) integer array as heads[which[i]], its entries and ``tail``.

    The entries of a row are joined by "," and the rows by ",", so with the
    one head "[" and the tail "]" the text is json.dumps(rows.tolist(),
    separators=(",", ":")) without its outer brackets.  An int64 array of at
    least ``_DIGIT_PASS_MIN`` rows is written ``_TEXT_CHUNK`` rows at a
    time into a byte table of fixed-width fields (a head padded to the
    longest, then per entry a sign, one digit per place up to the widest
    entry and a separator), in whole-array passes: one division by 10 per
    place, in int32 when the entries fit.  Leading zeros, the sign of a
    nonnegative entry and a head's padding are zero bytes, dropped in one
    boolean compress before the bytes are decoded.  Smaller arrays, and
    exact integers beyond int64 (``dtype=object``, whose digits would cost
    quadratic time per entry), go through json.dumps of ``tolist()``.
    """
    n, r = rows.shape
    if rows.dtype == object or n < _DIGIT_PASS_MIN or not r:
        texts = json.dumps(rows.tolist(), separators=(",", ":"))[2:-2].split("],[")
        # joining the three streams builds no string per row
        ends = chain(repeat(tail + ",", n - 1), (tail,))
        return "".join(chain.from_iterable(zip(map(heads.__getitem__, which.tolist()),
                                               texts, ends)))
    magnitude = max(-int(rows.min()), int(rows.max()))
    places = len(str(magnitude))
    # |x| of a signed int, read unsigned so that |-2^63| fits
    signed, unsigned = (np.int32, np.uint32) if magnitude < 2**31 else (np.int64, np.uint64)
    head = np.array(heads, dtype="S")
    width = head.itemsize
    end = np.frombuffer((tail + ",").encode(), np.uint8)
    at = width + r * (places + 2) - 1  # the tail replaces the last entry's separator
    texts = []
    for start in range(0, n, _TEXT_CHUNK):
        x = rows[start:start + _TEXT_CHUNK].astype(signed)
        table = np.zeros((len(x), at + len(end)), np.uint8)
        table[:, :width] = head[which[start:start + _TEXT_CHUNK]].view(np.uint8).reshape(
            len(x), width)
        fields = table[:, width:at + 1].reshape(len(x), r, places + 2)
        fields[:, :, 0] = (x < 0) * ord("-")
        fields[:, :, -1] = ord(",")
        q = np.abs(x).view(unsigned)
        del x
        for place in range(places):
            rest = q // 10  # a scalar floor divide is vectorised, np.divmod is not
            digit = q - rest * 10 + ord("0")
            if place:  # the ones digit always shows; a leading zero does not
                digit *= q != 0
            fields[:, :, places - place] = digit
            q = rest
        table[:, at:] = end
        if start + _TEXT_CHUNK >= n:
            table[-1, -1] = 0  # no separator after the last row
        texts.append(str(table[table != 0].data, "ascii"))
    return "".join(texts)


def _distinct_coefficients(coeffs) -> tuple:
    """Distinct coefficients, one per encoding, and each term's index among them.

    At least ``_DIGIT_PASS_MIN`` int64 coefficients that span fewer values
    than there are terms are indexed by their offsets from the least, in
    whole-array passes; a value in the span that no term has gets an unused
    entry.  Fewer terms, where those passes cost more than a dict, and other
    coefficients are indexed through a dict of the distinct ones.
    """
    n = len(coeffs)
    if isinstance(coeffs, np.ndarray):
        if n >= _DIGIT_PASS_MIN:
            lo, hi = int(coeffs.min()), int(coeffs.max())
            if hi - lo < n:
                return range(lo, hi + 1), (coeffs - lo).astype(np.intp, copy=False)
        coeffs = coeffs.tolist()
    # ints alone, or Fractions alone, encode by value (a Fraction keyed by
    # its (numerator, denominator), which hashes in C); otherwise equal
    # values can encode differently (1, 1.0 and True; 0.0 and -0.0)
    types = set(map(type, coeffs))
    if types == {int}:
        keys = coeffs
    elif types == {Fraction}:
        keys = list(map(Fraction.as_integer_ratio, coeffs))
    else:
        keys = list(zip(map(type, coeffs), map(repr, coeffs)))
    distinct = dict(zip(keys, coeffs))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct.values(), np.fromiter(map(index.__getitem__, keys), np.intp, n)


class ConeClosedForm:
    """Finite-sum-over-poles closed form of the cone lattice-point series.

    ``terms`` lists (coefficient, exponent vector) for the fundamental-set
    numerator, the exponent vectors being tuples of ints of one length;
    ``pole_factors`` lists (coefficient, k_j) for the factors
    1/(1 - coeff * u_j^k_j), one per cone side.  The numerator is held as
    its coefficients and an (n, r) exponent array, int64 or exact Python
    integers (``dtype=object``) as ``_int_dtype`` chooses.  The coefficients
    are an int64 array when every one is a Python int (bool excluded) that
    fits int64, as +-1 character values are, and a tuple otherwise.
    ``terms`` is read off them, its coefficients as Python objects, and two
    forms are equal when their terms and pole factors are.
    """

    __slots__ = ("_coefficients", "_exponents", "pole_factors")

    def __init__(self, terms=(), pole_factors=()):  # noqa: D107
        terms = tuple(terms)
        rows = [tuple(e) for _, e in terms]
        magnitude = max(map(abs, chain.from_iterable(rows)), default=0)
        exponents = np.array(rows, dtype=_int_dtype(magnitude)).reshape(
            len(rows), len(rows[0]) if rows else len(pole_factors))
        self._set([c for c, _ in terms], exponents, pole_factors)

    @classmethod
    def _of_arrays(cls, coefficients, exponents: np.ndarray,
                   pole_factors) -> "ConeClosedForm":
        """The form of n coefficients and an (n, r) integer exponent array."""
        form = cls.__new__(cls)
        form._set(coefficients, exponents, pole_factors)
        return form

    def _set(self, coefficients, exponents: np.ndarray, pole_factors) -> None:
        if not (isinstance(coefficients, np.ndarray) and coefficients.dtype == np.int64):
            coefficients = tuple(coefficients)
            if all(type(c) is int for c in coefficients):
                try:
                    coefficients = np.array(coefficients, dtype=np.int64)
                except OverflowError:  # an int beyond int64
                    pass
        self._coefficients = coefficients
        self._exponents = exponents
        self.pole_factors = tuple(pole_factors)

    def _coefficient_list(self):
        """The coefficients as Python objects, in term order."""
        coeffs = self._coefficients
        return coeffs.tolist() if isinstance(coeffs, np.ndarray) else coeffs

    @property
    def terms(self) -> tuple:
        return tuple(zip(self._coefficient_list(), map(tuple, self._exponents.tolist())))

    def __eq__(self, other):
        if not isinstance(other, ConeClosedForm):
            return NotImplemented
        return (self.terms, self.pole_factors) == (other.terms, other.pole_factors)

    def __hash__(self):
        return hash((self.terms, self.pole_factors))

    def __repr__(self):
        return f"ConeClosedForm(terms={self.terms!r}, pole_factors={self.pole_factors!r})"

    def evaluate(self, u):
        """The closed form at u, with the arithmetic of the plain per-term sum.

        Each power u_j^e is taken once per coordinate and distinct exponent,
        reading the exponent array one coordinate row at a time; each
        numerator term is then coeff * u_1^e_1 * u_2^e_2 * ... in that order,
        and the terms are added left to right from 0, so a float point gives
        the bits of the plain loop and a Fraction point stays exact.  Large
        int-coefficient forms at a float point do this in whole-array passes
        (``_table_numerator``).  Where several terms would raise, the
        plain loop is run again, so the error is that of its first term.
        """
        _check_rank(u, len(self.pole_factors), "the evaluation point", "coordinates")
        try:
            num = self._table_numerator(u)
            if num is None:
                monos = self._coefficient_list()
                for uj, col in zip(u, self._exponents.T.tolist()):
                    power = {e: uj ** e for e in set(col)}
                    monos = map(mul, monos, map(power.__getitem__, col))
                num = reduce(add, monos, 0)
        except ArithmeticError:
            num = self._per_term_numerator(u)
        den = 1
        for j, (coeff, k) in enumerate(self.pole_factors):
            factor = 1 - coeff * u[j] ** k
            if factor == 0:
                raise ZeroDivisionError(
                    f"u = {tuple(u)} is a pole: the factor 1 - ({coeff}) u_{j + 1}^{k} vanishes")
            den *= factor
        return num / den

    def _per_term_numerator(self, u):
        """The numerator at u, one power per term and coordinate, terms in order."""
        num = 0
        for coeff, exps in zip(self._coefficient_list(), self._exponents.tolist()):
            for uj, e in zip(u, exps):
                coeff *= uj ** e
            num += coeff
        return num

    def _table_numerator(self, u) -> float | None:
        """The numerator at a float point in whole-array passes, or None where they do not apply.

        They apply to at least ``_DIGIT_PASS_MIN`` terms with int64
        coefficients and exponents, at a point of Python floats, when
        every coordinate's exponents span no more values than there are
        terms.  Each coordinate's table u_j^lo..u_j^hi is taken with Python
        ``**``, as the per-term loop takes its powers (numpy's power can
        differ in the last bit), and raises where the loop would, since the
        extreme exponents are among the terms' (``evaluate`` finds which
        error by the loop).  The float coefficients are multiplied by the
        tables in coordinate order and summed sequentially from 0.0, so the
        loop's bits are kept; a product or a sum beyond float range is inf,
        as in the loop.
        """
        coeffs, exps = self._coefficients, self._exponents
        n = len(coeffs)
        if n < _DIGIT_PASS_MIN or not isinstance(coeffs, np.ndarray) \
                or exps.dtype != np.int64 or not u or any(type(x) is not float for x in u):
            return None
        cols = exps.T
        spans = [(int(col.min()), int(col.max())) for col in cols]
        if any(hi - lo >= n for lo, hi in spans):
            return None
        tables = [np.array([uj ** e for e in range(lo, hi + 1)]) for uj, (lo, hi) in zip(u, spans)]
        monos = coeffs.astype(float)
        with np.errstate(all="ignore"):
            for table, col, (lo, _) in zip(tables, cols, spans):
                monos *= table[col - lo]
            return float(0.0 + np.add.accumulate(monos)[-1])

    def converges_at(self, u) -> bool:
        _check_rank(u, len(self.pole_factors), "the evaluation point", "coordinates")
        return all(abs(complex(c) * complex(uj) ** k) < 1
                   for (c, k), uj in zip(self.pole_factors, u))

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, no spaces) of the pole factors and terms.

        A term reads {"coeff": c, "exponents": [...]} and a pole factor
        {"coeff": c, "power": k}; an int coefficient encodes like the equal
        Fraction, as {"num": ..., "den": ...}, and a complex one as
        {"re": ..., "im": ...}.  Each distinct coefficient is encoded once
        into its term prefix, and ``_rows_json`` writes each exponent row
        after its coefficient's prefix (``_distinct_coefficients``).
        """
        poles = ",".join('{"coeff":%s,"power":%s}' % (_coefficient_text(c), k)
                         for c, k in self.pole_factors)
        distinct, which = _distinct_coefficients(self._coefficients)
        heads = ['{"coeff":%s,"exponents":[' % _coefficient_text(c) for c in distinct]
        terms = _rows_json(self._exponents, heads, which, "]}")
        return f'{{"pole_factors":[{poles}],"terms":[{terms}]}}'

    def to_json_dict(self) -> dict:
        """``to_json`` parsed; coefficients of the same text share one dict."""
        shared = {}

        def coefficient(obj):
            keys = _COEFFICIENT_KEYS.get(tuple(obj))
            if keys is None:
                return obj
            values = tuple(obj[k] for k in keys)
            # repr tells 0.0 from -0.0, which compare equal
            return shared.setdefault(repr(values), dict(zip(keys, values)))

        return json.loads(self.to_json(), object_hook=coefficient)


def _character_values(character: CharacterData, points: np.ndarray) -> np.ndarray | list:
    """character.value(v) for every column v of the integer array ``points``.

    With +-1 multipliers the values are 1 and -1, one int64 array
    ``1 - 2 * odd`` for ``odd`` the parity of the coordinates whose
    multiplier is -1.  Otherwise they are a list: each power m_i ** e is
    taken once per coordinate and distinct exponent, and the powers are
    multiplied in coordinate order, as ``value`` does.  A power that
    ``value`` refuses or that overflows, a float product that underflows
    below the normal floats, or a float value that is not finite, sends
    every point through ``value``, which retakes such a value exactly or
    raises the same error.
    """
    mults = character.multipliers
    if all(isinstance(m, (int, Fraction)) and m in (1, -1) for m in mults):
        odd = sum((row & 1 for m, row in zip(mults, points) if m == -1),
                  np.zeros(points.shape[1], dtype=points.dtype)) & 1
        return 1 - 2 * odd.astype(np.int64, copy=False)
    exact = all(isinstance(m, (int, Fraction)) for m in mults)
    values = [Fraction(1) if exact else 1.0] * points.shape[1]
    try:
        for m, row in zip(mults, points.tolist()):
            if isinstance(m, (int, Fraction)):
                m = Fraction(m)
                if abs(m) != 1 and max(map(abs, row), default=0) > EXACT_POWER_CAP:
                    break
            power = {e: m ** e for e in set(row)}
            values = list(map(mul, values, map(power.__getitem__, row)))
            if not exact and min(map(abs, values), default=1.0) < _FLOAT_TINY:
                break
        else:
            if exact or all(map(cmath.isfinite, values)):
                return values
    except OverflowError:
        pass
    return [character.value(v) for v in points.T.tolist()]


def _closed_form(cone: LatticeCone, generators, points: np.ndarray, exponents: np.ndarray,
                 character: CharacterData | None) -> ConeClosedForm:
    """``cone_series_closed_form`` of F and alpha(F) given as (r, |F|) integer arrays."""
    if character is None:
        character = CharacterData.trivial(cone.rank)
    _check_rank(character.multipliers, cone.rank, "the character", "multipliers")
    coefficients = _character_values(character, points)
    values = _character_values(character, np.array(generators, dtype=object).T)
    poles = zip(values.tolist() if isinstance(values, np.ndarray) else values,
                (cone.alpha(j, a) for j, a in enumerate(generators)))
    return ConeClosedForm._of_arrays(coefficients, exponents.T, poles)


def cone_series_closed_form(cone: LatticeCone, decomposition: ConeDecomposition,
                            character: CharacterData | None = None) -> ConeClosedForm:
    """Exact closed form of sum over cone lattice points of chi(v) u^alpha(v).

    The exponent of u_j at v is the integer alpha_j(v); splitting v into
    fundamental point plus generator multiples factors the series into a
    finite numerator and r geometric pole factors.
    """
    fset = decomposition.fundamental_set
    points = np.array(fset, dtype=object).reshape(len(fset), cone.rank).T
    exponents = np.array(cone.functionals, dtype=object) @ points
    return _closed_form(cone, decomposition.generators, points, exponents, character)


def truncated_cone_points(cone: LatticeCone, bound: int):
    """Exponent vectors w = alpha(v) and points v of the truncated cone.

    A lattice point v corresponds one-to-one to its integer exponent vector
    w = (alpha_1(v), ..., alpha_r(v)); the truncation alpha_j(v) <= bound is
    exactly the image-lattice part of the box (0, bound]^r, listed in
    lexicographic order of w from the Hermite form of the functionals in
    lattice coordinates (``_box_points`` with the bound on every side).
    Returns a pair of integer arrays of shape (r, n): the exponent vectors
    and the points.  Raises ValueError when the box may hold more than
    FUNDAMENTAL_INDEX_CAP points.
    """
    w = _box_points(cone, (bound,) * cone.rank)
    return w, (_points_of_exponents(cone, w, bound) if bound >= 1 else w)


def _box_points(cone: LatticeCone, bounds) -> np.ndarray:
    """Exponent vectors w = alpha(v) of the lattice points v with 0 < w_j <= bounds[j].

    w is listed by ``_lattice_points_in_box`` from the functionals in
    lattice coordinates; ``_points_of_exponents`` gives the points.
    """
    if any(b < 1 for b in bounds):
        return np.zeros((cone.rank, 0), dtype=np.int64)
    g = [_mat_vec_row(f, cone.basis_columns) for f in cone.functionals]
    return _lattice_points_in_box(g, bounds)


def _points_of_exponents(cone: LatticeCone, w: np.ndarray, bound: int) -> np.ndarray:
    """The points v = adj(alpha) w / det(alpha) of exponent vectors w with entries <= bound.

    Read off the adjugate the cone holds, in int64 when
    max|adj(alpha)| * bound * r and |det(alpha)| fit and in exact Python
    integers otherwise.
    """
    adj, det_f = cone._functional_adjugate
    dtype = _int_dtype(max(max(abs(x) for row in adj for x in row) * bound * cone.rank,
                           abs(det_f)))
    return np.array(adj, dtype=dtype) @ w.astype(dtype) // det_f


def _coordinate_sum(cone: LatticeCone, w: np.ndarray, bound: int, rows) -> np.ndarray | None:
    """sum_{i in rows} v_i at the points v of exponent vectors w with entries <= bound.

    Since v = adj(alpha) w / det(alpha), that sum is (c . w) / det(alpha)
    with c the sum of those rows of adj(alpha), an exact division: one dot
    product and one floor division in int64, or None when
    max|c| * bound * r or |det(alpha)| does not fit.
    """
    adj, det_f = cone._functional_adjugate
    c = [sum(col) for col in zip(*(adj[i] for i in rows))]
    if _int_dtype(max(max(map(abs, c)) * bound * cone.rank, abs(det_f))) is object:
        return None
    total = np.array(c, dtype=np.int64) @ w.astype(np.int64, copy=False)
    total //= det_f
    return total


def evaluate_partial_sum(cone: LatticeCone, character: CharacterData | None,
                         u, bound: int):
    """Direct sum of chi(v) u^alpha(v) over lattice points with alpha_j(v) <= bound.

    Enumerates the truncated cone directly (no use of the decomposition);
    this is the numeric oracle the closed form is checked against.  The
    powers u_j^w_j are read from a table of u_j^0..u_j^bound when it has no
    more entries than there are points, and a -1 base from a table of its two
    powers by the exponent's parity; any other power is taken per point.
    Under the trivial character the points v are not formed, and under
    another +-1 character at a real point neither: the multipliers -1 act
    as one power (-1)^s of the sum s of their coordinates v_i
    (``_coordinate_sum``), one multiply by +-1.0 per term.  That multiply
    is exact, so it gives the bits of one flip per multiplier.  Where s
    would not fit int64 the points are formed, as they are for other
    multipliers and at complex points.  A term
    whose plain product is not finite (u^w underflowing to 0 while m^v
    overflows) is taken in log space, a real base's sign from the exact parity
    of its exponent.  A multiplier or an exponent beyond float range, or a sum
    that is not finite because a term overflows, raises ValueError.
    """
    if character is None:
        character = CharacterData.trivial(cone.rank)
    r = cone.rank
    _check_rank(character.multipliers, r, "the character", "multipliers")
    _check_rank(u, r, "the evaluation point", "coordinates")
    w = _box_points(cone, (bound,) * r)
    n = w.shape[1]
    if n == 0:
        return 0.0
    is_complex = any(isinstance(m, complex) for m in character.multipliers) \
        or any(isinstance(x, complex) for x in u)
    dtype = complex if is_complex else float
    terms = np.ones(n, dtype=dtype)
    try:
        bases = [dtype(float(b)) if isinstance(b, (int, Fraction)) else dtype(b)
                 for b in (*u, *character.multipliers)]
        powers = [(b, e, bound < n) for b, e in zip(bases[:r], w)]
        if any(m != 1 for m in bases[r:]):
            s = None
            if dtype is float and all(m in (1, -1) for m in bases[r:]):
                s = _coordinate_sum(cone, w, bound,
                                    [i for i, m in enumerate(bases[r:]) if m == -1])
            if s is None:
                v = _points_of_exponents(cone, w, bound)
                powers += [(m, e, False) for m, e in zip(bases[r:], v)]
            else:
                powers.append((-1.0, s, False))
        with np.errstate(all="ignore"):                  # judged by the total below
            for b, e, tabled in powers:
                if b == -1:                              # exact parity beyond 2^53
                    terms *= np.power(b, np.arange(2.0))[(e & 1).astype(np.intp)]
                elif b != 1:
                    terms *= (np.power(b, np.arange(bound + 1.0))[e.astype(np.intp, copy=False)]
                              if tabled else np.power(b, e.astype(float)))
            spilled = ~np.isfinite(terms)
            if spilled.any():
                log_abs, phase = 0.0, dtype(1)
                for b, e, _ in powers:
                    e = e[spilled]
                    log_abs = log_abs + e.astype(float) * np.log(abs(b))
                    if b != abs(b):
                        e = e % 2 if dtype is float else e
                        phase = phase * np.power(b / abs(b), e.astype(float))
                terms[spilled] = phase * np.exp(log_abs)
            total = terms.sum()
    except OverflowError:
        raise ValueError("the partial-sum oracle needs multipliers and exponents "
                         "that fit a float") from None
    if not np.isfinite(total):
        raise ValueError(f"the partial-sum oracle overflows a float: its sum is {total}")
    return float(total) if dtype is float else complex(total)


def assemble_multivariable_S(ledger, truncation: int, rank: int,
                             expand_powers: bool = True) -> dict:
    """Weighted multivariable length series from a class ledger.

    ``ledger`` entries are mappings with an ``l`` exponent vector (length =
    rank, nonnegative integers) and a ``weight``.  With ``expand_powers``
    each entry also contributes its n-fold multiples (constant weight), which
    reproduces the one-variable series of enumerated geodesic classes in the
    rank-one regular case.  Returns a dict mapping exponent tuples to exact
    coefficients, truncated componentwise at the given order.
    """
    series: dict[tuple[int, ...], Fraction] = {}
    for entry in ledger:
        l = tuple(int(x) for x in entry["l"])
        if len(l) != rank:
            raise ValueError(f"exponent vector {l} does not have rank {rank}")
        if any(x < 0 for x in l):
            raise ValueError(f"negative exponent in {l}")
        if all(x == 0 for x in l):
            raise ValueError("zero exponent vector is not a geodesic length")
        weight = entry.get("weight", 1)
        weight = Fraction(weight) if isinstance(weight, (int, Fraction)) else weight
        reps = range(1, truncation // max(l) + 1) if expand_powers else (1,)
        for n in reps:
            exps = tuple(n * x for x in l)
            if max(exps) > truncation:
                continue
            series[exps] = series.get(exps, Fraction(0)) + weight
    return {k: v for k, v in sorted(series.items()) if v != 0}
