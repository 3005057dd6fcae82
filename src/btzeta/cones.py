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

The numerator is built in whole-array integer passes: the exponent vectors
alpha(F) are one matrix product of the functionals with the points of F, in
int64 when the bound max|alpha_j| * max|v_i| * r fits and in exact Python
integers (``dtype=object``) otherwise.  Character values are exact: with
+-1 multipliers (the trivial character included) they are the ints 1 and -1,
picked by a parity, and all other multipliers go through
``CharacterData.value``.

The linear algebra is exact integer elimination: one fraction-free
Gauss-Jordan routine gives the adjugate and the determinant of a matrix.
The edge generators are adjugate columns of the functionals in lattice
coordinates, divided by their gcd, and barycentric coordinates, lattice
membership and the oracle's points are adjugate products divided exactly by
the determinant.

Both F and the truncated cone of the partial-sum oracle are lattice points
of a box.  They are listed from the lower-triangular Hermite normal form of
the lattice's image (Cohen, *A Course in Computational Algebraic Number
Theory*, 2.4.2), one coordinate at a time, so no point outside the lattice
is generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

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


# Largest lattice index |F| that fundamental_domain lists, and largest point
# count of the partial-sum oracle's box.  Every such point becomes a tuple or
# array column, so a much larger set exhausts memory instead of finishing.
FUNDAMENTAL_INDEX_CAP = 10**6

# Largest |exponent| to which CharacterData.value raises an exact multiplier
# other than +-1.  The power (p/q)**e has about |e| * log2 max(|p|, |q|) bits,
# so an exponent near 10^18, which lattices with large entries reach, would
# exhaust memory instead of finishing.
EXACT_POWER_CAP = 10**6

_INT64_MAX = int(np.iinfo(np.int64).max)


def _int_dtype(magnitude: int):
    """int64 when no value exceeds ``magnitude`` in size, else exact Python ints."""
    return np.int64 if magnitude <= _INT64_MAX else object


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
    no line; the lattice basis must be nonsingular.
    """

    rank: int
    lattice_basis: tuple[tuple[int, ...], ...]  # rows of the basis matrix
    functionals: tuple[tuple[int, ...], ...]    # one integer covector per side

    def __init__(self, functionals, lattice_basis=None):  # noqa: D107
        funcs = tuple(tuple(int(x) for x in f) for f in functionals)
        r = len(funcs)
        if any(len(f) != r for f in funcs):
            raise ValueError("need exactly r functionals of length r")
        basis = tuple(tuple(int(x) for x in row) for row in (lattice_basis or _identity(r)))
        if len(basis) != r or any(len(row) != r for row in basis):
            raise ValueError("lattice basis must be an r x r integer matrix")
        if _adjugate(basis)[1] == 0:
            raise ValueError("lattice basis is singular")
        if _adjugate(funcs)[1] == 0:
            raise ValueError("functionals are linearly dependent (cone is not sharp)")
        object.__setattr__(self, "rank", r)
        object.__setattr__(self, "lattice_basis", basis)
        object.__setattr__(self, "functionals", funcs)

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
        adj, det = _adjugate(self.lattice_basis)
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
    G the functionals in lattice coordinates, G adj(G) = det(G) I, so column
    j of adj(G) is such a line in lattice coordinates; divided by its gcd and
    multiplied by sign(det G) it is a_j, which the lattice basis maps back to
    ambient coordinates.
    """
    r = cone.rank
    adj, det = _adjugate([_mat_vec_row(f, cone.basis_columns) for f in cone.functionals])
    sign = 1 if det > 0 else -1
    gens = []
    for j in range(r):
        col = [adj[i][j] for i in range(r)]
        g = math.gcd(*col)
        gens.append(_mat_vec(cone.lattice_basis, [sign * x // g for x in col]))
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


def _lattice_points_in_box(g, bound: int) -> np.ndarray:
    """Points of the lattice g Z^r in the box (0, bound]^r, in lexicographic order.

    With h the Hermite form of g, a point is w = h y.  Once y_1..y_{k-1} are
    fixed, w_k = s + h_kk y_k with s = sum_{j<k} h_kj y_j, so the y_k that keep
    w_k in (0, bound] form one interval.  Each coordinate expands every
    partial point by its interval, in order, so only lattice points are
    generated.  Returns an (r, n) array; since 0 <= h_kj < h_kk, every
    |y_k| <= 2^(k-1) bound and every partial sum stays below
    max_k h_kk * bound * 2^r, which picks int64 or exact integers.  The k-th
    interval holds at most ceil(bound / h_kk) values; raises ValueError when
    their product exceeds FUNDAMENTAL_INDEX_CAP, before listing any point.
    """
    h = _lower_hermite_form(g)
    r = len(h)
    most = math.prod(-(-bound // h[k][k]) for k in range(r))
    if most > FUNDAMENTAL_INDEX_CAP:
        raise ValueError(f"the box (0, {bound}]^{r} holds up to {most} lattice points, "
                         f"more than the cap of {FUNDAMENTAL_INDEX_CAP}")
    dtype = _int_dtype(max(h[k][k] for k in range(r)) * bound << r)
    y = np.zeros((0, 1), dtype=dtype)
    for k, row in enumerate(h):
        s = np.array(row[:k], dtype=dtype) @ y
        lo = -((s - 1) // row[k])                   # ceil((1 - s) / h_kk)
        counts = np.maximum((bound - s) // row[k] - lo + 1, 0).astype(np.int64)
        prefix = np.repeat(np.arange(len(counts)), counts)
        offsets = np.arange(len(prefix)) - (np.cumsum(counts) - counts)[prefix]
        y = np.vstack([y[:, prefix], lo[prefix] + offsets])
    return np.array(h, dtype=dtype) @ y


def fundamental_domain(cone: LatticeCone,
                       generators: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Lattice points of the half-open parallelepiped spanned by the generators.

    These are exactly the coset representatives v0 of Sigma modulo the
    sublattice generated by a_1..a_r that lie in the open cone while every
    v0 - a_j falls outside it.  With d = |det A| for the generator matrix A,
    the half-open condition 0 < t <= 1 on barycentric coordinates t = A^-1 v
    reads d A^-1 v in (0, d]^r, where d A^-1 = sign(det A) adj A, so the
    points are v = A w / d for the points w of the image lattice d A^-1 Sigma
    in that box, listed exactly from its Hermite form.  Raises ValueError
    when the lattice index |F| exceeds FUNDAMENTAL_INDEX_CAP.
    """
    r = cone.rank
    a_mat = [[generators[j][i] for j in range(r)] for i in range(r)]  # generators as columns
    adj_a, det_a = _adjugate(a_mat)
    expected = abs(det_a // _adjugate(cone.lattice_basis)[1])
    if expected > FUNDAMENTAL_INDEX_CAP:
        raise ValueError(f"fundamental set has {expected} points, "
                         f"more than the cap of {FUNDAMENTAL_INDEX_CAP}")
    d = abs(det_a)
    sign = 1 if det_a > 0 else -1
    g = [_mat_vec_row([sign * x for x in row], cone.basis_columns) for row in adj_a]
    w = _lattice_points_in_box(g, d)
    max_a = max(abs(x) for row in a_mat for x in row)
    v = np.array(a_mat, dtype=_int_dtype(max_a * d * r)) @ w // d
    out = tuple(map(tuple, v[:, np.lexsort(v[::-1])].T.tolist()))
    if len(out) != expected:
        raise AssertionError(
            f"fundamental set size {len(out)} != lattice index {expected}")
    return out


def decompose(cone: LatticeCone, decomposition: ConeDecomposition, v):
    """Unique expression v = v0 + sum k_j a_j, or None when v is outside the cone.

    Raises ValueError when v is not a lattice point at all.
    """
    v = tuple(int(x) for x in v)
    if not cone.in_lattice(v):
        raise ValueError(f"{v} is not in the lattice")
    if not cone.contains(v):
        return None
    a_cols = tuple(tuple(g[i] for g in decomposition.generators) for i in range(cone.rank))
    adj, det = _adjugate(a_cols)
    # k_j = ceil(t_j) - 1 for the barycentric coordinates t = adj(A) v / det A
    ks = tuple(-(-x // det) - 1 for x in _mat_vec(adj, v))
    v0 = tuple(
        v[i] - sum(k * g[i] for k, g in zip(ks, decomposition.generators))
        for i in range(cone.rank)
    )
    if v0 not in decomposition.fundamental_set or any(k < 0 for k in ks):
        raise AssertionError(f"decomposition failed for {v}")
    return v0, ks


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
        acc = Fraction(1) if all(isinstance(m, (int, Fraction)) for m in self.multipliers) else 1.0
        for m, e in zip(self.multipliers, v):
            if isinstance(m, (int, Fraction)):
                m = Fraction(m)
                if abs(e) > EXACT_POWER_CAP and abs(m) != 1:
                    raise ValueError(f"exact power {m}**{e} exceeds the exponent cap "
                                     f"of {EXACT_POWER_CAP}")
            acc = acc * m ** int(e)
        return acc

    @staticmethod
    def trivial(rank: int) -> "CharacterData":
        return CharacterData((Fraction(1),) * rank)


@dataclass(frozen=True)
class ConeClosedForm:
    """Finite-sum-over-poles closed form of the cone lattice-point series.

    ``terms`` lists (coefficient, exponent vector) for the fundamental-set
    numerator; ``pole_factors`` lists (coefficient, k_j) for the factors
    1/(1 - coeff * u_j^k_j), one per cone side.
    """

    terms: tuple
    pole_factors: tuple

    def evaluate(self, u):
        num = 0
        for coeff, exps in self.terms:
            mono = coeff
            for uj, e in zip(u, exps):
                mono *= uj ** e
            num += mono
        den = 1
        for j, (coeff, k) in enumerate(self.pole_factors):
            factor = 1 - coeff * u[j] ** k
            if factor == 0:
                raise ZeroDivisionError(
                    f"u = {tuple(u)} is a pole: the factor 1 - ({coeff}) u_{j + 1}^{k} vanishes")
            den *= factor
        return num / den

    def converges_at(self, u) -> bool:
        return all(abs(complex(c) * complex(uj) ** k) < 1
                   for (c, k), uj in zip(self.pole_factors, u))

    def to_json_dict(self) -> dict:
        """JSON form; an int coefficient encodes like the equal Fraction."""
        def enc(x):
            if isinstance(x, Fraction) or type(x) is int:
                return {"num": str(x.numerator), "den": str(x.denominator)}
            if isinstance(x, complex):
                return {"re": x.real, "im": x.imag}
            return x
        # one shared encoding per distinct coefficient; 1, 1.0 and True are
        # equal dict keys but encode differently, so the key carries the type
        shared = {key: enc(key[1]) for key in {(type(c), c) for c, _ in self.terms}}
        return {
            "terms": [{"coeff": shared[type(c), c], "exponents": list(e)}
                      for c, e in self.terms],
            "pole_factors": [{"coeff": enc(c), "power": k} for c, k in self.pole_factors],
        }


def _character_values(character: CharacterData, points: np.ndarray) -> list:
    """character.value(v) for every column v of the integer array ``points``.

    With +-1 multipliers the values are the ints 1 and -1.
    """
    mults = character.multipliers
    if all(isinstance(m, (int, Fraction)) and m in (1, -1) for m in mults):
        odd = sum((row & 1 for m, row in zip(mults, points) if m == -1),
                  np.zeros(points.shape[1], dtype=points.dtype)) & 1
        return (1 - 2 * odd).tolist()
    return [character.value(v) for v in points.T.tolist()]


def cone_series_closed_form(cone: LatticeCone, decomposition: ConeDecomposition,
                            character: CharacterData | None = None) -> ConeClosedForm:
    """Exact closed form of sum over cone lattice points of chi(v) u^alpha(v).

    The exponent of u_j at v is the integer alpha_j(v); splitting v into
    fundamental point plus generator multiples factors the series into a
    finite numerator and r geometric pole factors.
    """
    if character is None:
        character = CharacterData.trivial(cone.rank)
    fset = decomposition.fundamental_set
    max_f = max(abs(x) for f in cone.functionals for x in f)
    max_v = max(map(abs, chain.from_iterable(fset)))
    dtype = _int_dtype(max_f * max_v * cone.rank)
    points = np.array(fset, dtype=dtype).T
    alphas = np.array(cone.functionals, dtype=dtype) @ points
    terms = tuple(zip(_character_values(character, points),
                      map(tuple, alphas.T.tolist())))
    poles = tuple(
        (character.value(a), cone.alpha(j, a))
        for j, a in enumerate(decomposition.generators)
    )
    return ConeClosedForm(terms=terms, pole_factors=poles)


def truncated_cone_points(cone: LatticeCone, bound: int):
    """Exponent vectors w = alpha(v) and points v of the truncated cone.

    A lattice point v corresponds one-to-one to its integer exponent vector
    w = (alpha_1(v), ..., alpha_r(v)); the truncation alpha_j(v) <= bound is
    exactly the image-lattice part of the box (0, bound]^r, listed in
    lexicographic order of w from the Hermite form of the functionals in
    lattice coordinates.  The points are v = adj(alpha) w / det(alpha), in
    int64 when max|adj(alpha)| * bound * r and |det(alpha)| fit and in exact
    Python integers otherwise.  Returns a pair of integer arrays of shape
    (r, n): the exponent vectors and the points.  Raises ValueError when the
    box may hold more than FUNDAMENTAL_INDEX_CAP points.
    """
    r = cone.rank
    if bound < 1:
        return (np.zeros((r, 0), dtype=np.int64),) * 2
    g = [_mat_vec_row(cone.functionals[j], cone.basis_columns) for j in range(r)]
    w = _lattice_points_in_box(g, bound)
    adj, det_f = _adjugate(cone.functionals)
    dtype = _int_dtype(max(max(abs(x) for row in adj for x in row) * bound * r, abs(det_f)))
    return w, np.array(adj, dtype=dtype) @ w.astype(dtype) // det_f


def evaluate_partial_sum(cone: LatticeCone, character: CharacterData | None,
                         u, bound: int):
    """Direct sum of chi(v) u^alpha(v) over lattice points with alpha_j(v) <= bound.

    Enumerates the truncated cone directly (no use of the decomposition);
    this is the numeric oracle the closed form is checked against.  A
    multiplier or an exponent beyond float range, or a sum that is not finite
    because a term overflows, raises ValueError.
    """
    if character is None:
        character = CharacterData.trivial(cone.rank)
    w, v = truncated_cone_points(cone, bound)
    if w.shape[1] == 0:
        return 0.0
    is_complex = any(isinstance(m, complex) for m in character.multipliers) \
        or any(isinstance(x, complex) for x in u)
    dtype = complex if is_complex else float
    terms = np.ones(w.shape[1], dtype=dtype)
    try:
        with np.errstate(all="ignore"):                  # judged by the total below
            for j, uj in enumerate(u):
                terms *= np.power(dtype(uj), w[j].astype(float))
            for i, m in enumerate(character.multipliers):
                m = dtype(float(m)) if isinstance(m, (int, Fraction)) else dtype(m)
                if m != 1:
                    e = v[i] % 2 if m == -1 else v[i]    # exact parity beyond 2^53
                    terms *= np.power(m, e.astype(float))
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
