"""Exact integer polynomial and power-series layer.

Everything here is exact: coefficients are Python ints, never floats, and
divisions of integer polynomials are integer long divisions.  The one use
of floats is for residues: the dense charpoly kernel holds integers modulo
primes below 2^22 in float64, where every sum it forms stays below 2^53 and
is therefore exact.  Fractions enter only where a result can be
non-integral: the log-derivative of a polynomial whose constant term is not
+-1 (zetas and primitive products have constant term 1, so theirs stay in
ints), ``series_exp_neg_integral``, ``series_product`` and the values of a
RationalFn.  Reverse characteristic polynomials ``det(I - u*M)`` of integer
matrices are products over the strongly connected components of M's
nonzero pattern, and each block's coefficients are bounded by a
Hadamard-style bound.  A block with many nonzeros below its subdiagonal
gets the traces of its powers modulo a few word-size primes (batched BLAS
products), Newton's identities and one CRT; any other block gets one
Hessenberg reduction modulo a Mersenne prime above twice its bound.  Either
way the balanced lift of the residues is provably the exact result.  A gcd
of two polynomials is heuristic (GCDHEU, one integer gcd of their values
at a large integer) but proven by exact division of both, which also gives
the cofactors; the primitive pseudo-remainder sequence is the fallback.

One routine multiplies: ``_sparse_product`` takes factors as (exponent,
coefficient) pairs, keeps the product as {exponent: coefficient} and drops
the terms above an optional order as they arise.  ``IntPolynomial``
products, ``series_product``, the block product of ``char_poly_reverse``
and the Euler products over primitive classes in ``zeta`` and
``geodesics`` all read it; the last take each (1 - u^l)^m from
``_cycle_factor``, its binomial expansion.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "IntPolynomial",
    "RationalFn",
    "PowerSeriesPrefix",
    "char_poly_reverse",
    "log_derivative_series",
    "series_exp_neg_integral",
    "series_inverse",
    "series_product",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    ``coeffs[k]`` is the coefficient of ``u**k``; trailing zeros are stripped
    so the representation is canonical.  The zero polynomial has empty
    coefficients and degree -1 (sentinel).
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):  # noqa: D107
        coeffs = tuple(map(int, coeffs))
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:  # trailing zeros, cut by one slice
            end -= 1
        object.__setattr__(self, "coeffs", coeffs[:end])

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

    @staticmethod
    def monomial(k: int, c: int = 1) -> "IntPolynomial":
        return IntPolynomial([0] * k + [c])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(self[k] + other[k] for k in range(n))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_sparse_product((enumerate(self.coeffs), enumerate(other.coeffs))))

    def scale(self, c: int) -> "IntPolynomial":
        return IntPolynomial(c * a for a in self.coeffs)

    def pow(self, n: int) -> "IntPolynomial":
        result = IntPolynomial.one()
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- substitutions and evaluation ---------------------------------------

    def subst_neg_u(self) -> "IntPolynomial":
        """Return p(-u)."""
        return IntPolynomial(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs))

    def subst_u_power(self, m: int) -> "IntPolynomial":
        """Return p(u**m)."""
        if m < 1:
            raise ValueError("power substitution needs m >= 1")
        out = [0] * (m * len(self.coeffs))
        for k, c in enumerate(self.coeffs):
            out[m * k] = c
        return IntPolynomial(out)

    def eval(self, x):
        """Horner evaluation; works for int, Fraction, float and complex x."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    # -- exact division and gcd ---------------------------------------------

    def content(self) -> int:
        return math.gcd(*self.coeffs)

    def primitive_part(self) -> "IntPolynomial":
        """self over its content, signed so the leading coefficient is positive; 0 stays 0."""
        c = self.content()
        if c and self.coeffs[-1] < 0:
            c = -c
        return self if c in (0, 1) else IntPolynomial(a // c for a in self.coeffs)

    def divmod_exact(self, d: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Polynomial division over Q, returned as (quotient, remainder).

        Integer long division: raises ValueError at the first leading
        coefficient that lc(d) does not divide.  The quotient over Q is
        unique, so this happens exactly when it is not integral; an integral
        quotient leaves an integral remainder.
        """
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < d.degree:
            return IntPolynomial(), self
        if d.coeffs == (1,):  # the gcd of coprime polynomials
            return self, IntPolynomial()
        rem = list(self.coeffs)
        dc = d.coeffs
        lead = dc[-1]
        q = [0] * (len(rem) - len(dc) + 1)
        for k in range(len(q) - 1, -1, -1):
            factor, r = divmod(rem[k + len(dc) - 1], lead)
            if r:
                raise ValueError("division is not integral")
            q[k] = factor
            if factor:
                for j, c in enumerate(dc):
                    rem[k + j] -= factor * c
        return IntPolynomial(q), IntPolynomial(rem)

    def divide_exact(self, d: "IntPolynomial") -> "IntPolynomial | None":
        """Return self / d when the division is exact over Z, else None."""
        try:
            q, r = self.divmod_exact(d)
        except ValueError:
            return None
        return q if r.is_zero() else None

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*u" if abs(c) != 1 else ("u" if c > 0 else "-u"))
            else:
                parts.append(f"{c}*u^{k}" if abs(c) != 1 else (f"u^{k}" if c > 0 else f"-u^{k}"))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd of two integer polynomials (positive leading coefficient).

    The heuristic gcd, proven by exact division (``_gcd_cofactors``); the gcd
    of two zero polynomials is zero.
    """
    if a.is_zero() and b.is_zero():
        return a
    return _gcd_cofactors(a, b)[0]


# GCDHEU tries before the pseudo-remainder fallback
_HEURISTIC_TRIES = 6


def _gcd_cofactors(a: IntPolynomial, b: IntPolynomial,
                   ) -> tuple[IntPolynomial, IntPolynomial, IntPolynomial]:
    """(g, a / g, b / g) for g = poly_gcd(a, b); a and b are not both zero.

    The primitive parts p and q go through the heuristic gcd
    (``_heuristic_gcd``), whose accepting divisions give p / g and q / g;
    when every try fails, ``_prs_gcd`` finds g and two exact divisions the
    cofactors.  a / g is p / g times a's signed content.
    """
    if a.is_zero() or b.is_zero():
        g = (a or b).primitive_part()
        return g, a.divmod_exact(g)[0], b.divmod_exact(g)[0]
    p, q = a.primitive_part(), b.primitive_part()
    found = _heuristic_gcd(p, q)
    if found is None:
        g = _prs_gcd(p, q)
        found = g, p.divmod_exact(g)[0], q.divmod_exact(g)[0]
    g, cp, cq = found
    unit_a, unit_b = a.coeffs[-1] // p.coeffs[-1], b.coeffs[-1] // q.coeffs[-1]
    return (g, cp if unit_a == 1 else cp.scale(unit_a),
            cq if unit_b == 1 else cq.scale(unit_b))


def _heuristic_gcd(p: IntPolynomial, q: IntPolynomial,
                   ) -> tuple[IntPolynomial, IntPolynomial, IntPolynomial] | None:
    """(g, p / g, q / g) for the gcd g of nonzero primitive p and q, or None.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): with
    xi >= 2 min(|p|_inf, |q|_inf) + 2, the symmetric base-xi digits of
    gamma = gcd(p(xi), q(xi)) are the coefficients of a polynomial G with
    G(xi) = gamma, and h = pp(G) is the gcd as soon as it divides p and q.
    (If g = h k, k(xi) divides cont(G) <= xi/2; every root of k is a root
    of p and of q, so below 1 + min(|p|, |q|) <= xi/2 in modulus, and
    |k(xi)| > xi/2 unless k is a constant.)  Each failed try grows xi by
    73794/27011; None after ``_HEURISTIC_TRIES`` of them.
    """
    xi = 2 * min(max(map(abs, p.coeffs)), max(map(abs, q.coeffs))) + 2
    for _ in range(_HEURISTIC_TRIES):
        gamma = math.gcd(p.eval(xi), q.eval(xi))
        digits, half = [], xi // 2
        while gamma:
            d = gamma % xi
            if d > half:  # the digit in (-xi/2, xi/2]
                d -= xi
            digits.append(d)
            gamma = (gamma - d) // xi
        h = IntPolynomial(digits).primitive_part()
        found = _exact_cofactors(h, p, q)
        if found is not None:
            return (h, *found)
        xi = xi * 73794 // 27011
    return None


def _exact_cofactors(h: IntPolynomial, p: IntPolynomial, q: IntPolynomial,
                     ) -> tuple[IntPolynomial, IntPolynomial] | None:
    """(p / h, q / h) when h divides both exactly over Z, else None."""
    cp = p.divide_exact(h)
    cq = None if cp is None else q.divide_exact(h)
    return None if cq is None else (cp, cq)


def _prs_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """``poly_gcd`` by the primitive pseudo-remainder sequence.

    Intermediate coefficients stay bounded; the fallback of
    ``_gcd_cofactors`` and the oracle of its tests.
    """
    if a.is_zero():
        return b.primitive_part()
    if b.is_zero():
        return a.primitive_part()
    p, q = a.primitive_part(), b.primitive_part()
    if p.degree < q.degree:
        p, q = q, p
    while not q.is_zero():
        # pseudo-remainder: lc(q)^(deg p - deg q + 1) * p mod q is integral
        shift = p.degree - q.degree + 1
        rem = p.scale(q.coeffs[-1] ** shift)
        rem = rem.divmod_exact(q)[1]
        p, q = q, rem.primitive_part()
    return p.primitive_part()


@dataclass(frozen=True)
class RationalFn:
    """Quotient of integer polynomials in normalized form.

    Normalization: the polynomial gcd is removed, the pair has joint integer
    content 1, and the lowest-order nonzero denominator coefficient is
    positive (so zeta-shaped denominators read 1 - ... as usual).
    """

    num: IntPolynomial
    den: IntPolynomial

    def __init__(self, num: IntPolynomial, den: IntPolynomial):  # noqa: D107
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num == den:  # the gcd is num itself, as for Z2(-u) = Z1(u^2) on tori
            num = den = IntPolynomial.one()
        else:
            num, den = _gcd_cofactors(num, den)[1:]
        c = math.gcd(num.content(), den.content())
        if c > 1:
            num = IntPolynomial(a // c for a in num.coeffs)
            den = IntPolynomial(a // c for a in den.coeffs)
        if next(x for x in den.coeffs if x != 0) < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def eval(self, x):
        return Fraction(self.num.eval(x), self.den.eval(x)) if isinstance(x, (int, Fraction)) \
            else self.num.eval(x) / self.den.eval(x)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


@dataclass(frozen=True)
class PowerSeriesPrefix:
    """Truncated power series: exact coefficients c_1..c_M (index = exponent).

    ``coeffs[m]`` holds c_m for 1 <= m <= order; coeffs[0] is the constant
    term and is kept for convenience.  All arithmetic in this module keeps
    coefficients exact (ints, or Fractions in intermediate computations).
    """

    coeffs: tuple
    order: int

    def __init__(self, coeffs: Sequence, order: int | None = None):  # noqa: D107
        coeffs = tuple(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) != order + 1:
            raise ValueError("series prefix must carry exactly order+1 coefficients")
        object.__setattr__(self, "coeffs", tuple(_normalize_number(c) for c in coeffs))
        object.__setattr__(self, "order", order)

    def __getitem__(self, m: int):
        return self.coeffs[m]

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeriesPrefix) and self.order == other.order \
            and self.coeffs == other.coeffs


def _normalize_number(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


# ---------------------------------------------------------------------------
# reverse characteristic polynomial det(I - u M)
# ---------------------------------------------------------------------------


# Exponents e from 61 up for which 2^e - 1 is a Mersenne prime (checked by
# Lucas-Lehmer in the tests); on Python ints a smaller modulus saves nothing.
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)

# The dense kernel's primes: the 202 largest primes below 2^22, 2^22 - d for
# these d, largest first (checked in the tests).  With n <= _DENSE_MAX_DIM
# every float64 sum of n products of residues stays below 2^53, hence exact,
# and p > n lets Newton's identities divide by every m <= n.  Their product
# exceeds 2^4423, so they cover every bound the Mersenne table covers.
_WORD_PRIMES = tuple((1 << 22) - d for d in (
    3, 17, 27, 33, 57, 87, 105, 113, 117, 123, 131, 137, 161, 167, 173, 197, 201, 281,
    293, 297, 327, 333, 341, 347, 365, 375, 395, 435, 497, 501, 503, 515, 545, 551, 561,
    603, 641, 671, 731, 735, 753, 755, 773, 791, 797, 845, 857, 861, 887, 893, 911, 915,
    923, 927, 935, 945, 951, 977, 995, 1001, 1007, 1025, 1035, 1041, 1053, 1055, 1065,
    1083, 1095, 1113, 1133, 1155, 1163, 1173, 1191, 1215, 1217, 1253, 1263, 1265, 1307,
    1317, 1341, 1361, 1385, 1431, 1433, 1443, 1463, 1515, 1545, 1547, 1551, 1595, 1607,
    1637, 1667, 1677, 1691, 1697, 1701, 1733, 1737, 1743, 1751, 1757, 1785, 1793, 1805,
    1811, 1827, 1875, 1877, 1893, 1901, 1905, 1923, 1943, 1953, 1961, 1965, 2003, 2015,
    2021, 2027, 2031, 2033, 2037, 2043, 2073, 2075, 2085, 2115, 2135, 2141, 2147, 2175,
    2183, 2211, 2213, 2217, 2231, 2253, 2265, 2271, 2283, 2297, 2313, 2321, 2331, 2351,
    2355, 2357, 2373, 2385, 2397, 2411, 2447, 2475, 2507, 2511, 2517, 2541, 2547, 2565,
    2595, 2603, 2625, 2645, 2663, 2681, 2691, 2705, 2723, 2741, 2775, 2777, 2783, 2813,
    2817, 2841, 2843, 2861, 2877, 2901, 2913, 2931, 2951, 2955, 2967, 2975, 2993, 3045,
    3071, 3077, 3087, 3111, 3123, 3125, 3147, 3153, 3167))
_DENSE_MAX_DIM = 512
_TRACE_BUDGET = 1 << 16  # floats in one call's stack of baby steps, over all its primes


def _int_rows(mat) -> list[list[int]]:
    """Rows of a square matrix, dense or a ``SparseIntMatrix``'s triplets, in Python ints.

    A non-integer entry raises TypeError, a non-square input ValueError."""
    if hasattr(mat, "entries"):
        rows = [[0] * mat.dim for _ in range(mat.dim)]
        for r, c, v in mat.entries:
            rows[r][c] += v
        return rows
    rows = list(mat)
    if not all(hasattr(row, "__len__") and len(row) == len(rows) for row in rows):
        raise ValueError("matrix must be square")
    return [list(map(operator.index, row)) for row in rows]


def _exact_array(rows) -> np.ndarray:
    """Integer rows as an int64 array, or as an object array of Python ints beyond int64."""
    if isinstance(rows, np.ndarray) and rows.dtype in (np.int64, object):
        return rows
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _entries(mat) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(n, row, col, value): the nonzero entries of a square integer matrix, row by row.

    A signed integer ndarray is read by ``np.nonzero``; a ``SparseIntMatrix``'s
    repeated positions add up; any other input goes through ``_int_rows``.
    Values are int64, or Python ints in an object array beyond it.
    """
    if hasattr(mat, "entries"):
        merged: dict = {}
        for r, c, v in mat.entries:  # sorted, so the positions stay row by row
            merged[r, c] = merged.get((r, c), 0) + v
        pairs = [pair for pair, v in merged.items() if v]
        at = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
        return mat.dim, at[:, 0], at[:, 1], _exact_array([merged[pair] for pair in pairs])
    if isinstance(mat, np.ndarray) and mat.dtype.kind == "i":
        a = mat.astype(np.int64, copy=False)
        if a.ndim != 2 or len(a) != a.shape[1]:
            raise ValueError("matrix must be square")
    else:
        rows = _int_rows(mat)
        a = _exact_array(rows).reshape(len(rows), len(rows))
    row, col = np.nonzero(a)
    return len(a), row, col, a[row, col]


def _strong_components(succ: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """(components, label): the strongly connected components of the digraph v -> w in succ[v].

    Iterative Tarjan (SIAM J. Comput. 1, 1972), in reverse topological
    order; label[v] is the index of v's component.  Each component lists its
    indices in reverse order of discovery: along a cycle v0 -> v1 -> ...
    every arc but the closing one then lands on the subdiagonal, so a
    cycle's block is already upper Hessenberg.
    """
    n = len(succ)
    # order[v] is v's visit number while v is on the stack and n once its
    # component is out, where it no longer lowers any low-link
    order, low, label = [-1] * n, [0] * n, [0] * n
    stack: list[int] = []
    components: list[list[int]] = []
    visited = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, arcs = path[-1]
            for w in arcs:
                seen = order[w]
                if seen < 0:
                    order[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if seen < low[v]:
                    low[v] = seen
            else:
                path.pop()
                lv = low[v]
                if path and lv < low[path[-1][0]]:
                    low[path[-1][0]] = lv
                if lv == order[v]:
                    # v's component is the top of the stack down to v
                    i = len(stack) - 1
                    while stack[i] != v:
                        i -= 1
                    component = stack[i:]
                    del stack[i:]
                    component.reverse()
                    for w in component:
                        order[w], label[w] = n, len(components)
                    components.append(component)
    return components, label


def _charpoly_mod(rows: list[list[int]], p: int) -> list[int]:
    """Coefficients of det(x I - M) mod p, degree-ascending, via Hessenberg."""
    h = [[x % p for x in row] for row in rows]
    n = len(h)
    # reduce to upper Hessenberg form by similarity transforms mod p
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue
        if piv != k + 1:
            h[k + 1], h[piv] = h[piv], h[k + 1]
            for row in h:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        top = h[k + 1]
        inv = pow(top[k], -1, p)
        # top[k + 1] may change below (column operations), so it is always visited
        support = [k + 1] + [j for j in range(k + 2, n) if top[j]]
        for i in range(k + 2, n):
            row = h[i]
            if not row[k]:
                continue
            f = row[k] * inv % p
            row[k] = 0
            for j in support:
                row[j] = (row[j] - f * top[j]) % p
            for r in h:
                if r[i]:
                    r[k + 1] = (r[k + 1] + f * r[i]) % p
    # leading-principal-minor recurrence for det(xI - H); a zero subdiagonal
    # entry ends the chain of products, so block-triangular H stays cheap
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[-1]
        d = h[k - 1][k - 1]
        cur = [0] + prev
        for j, c in enumerate(prev):
            cur[j] -= d * c
        beta = 1
        for i in range(k - 1, 0, -1):
            beta = beta * h[i][i - 1] % p
            if not beta:
                break
            term = beta * h[i - 1][k - 1] % p
            if term:
                for j, c in enumerate(polys[i - 1]):
                    cur[j] -= term * c
        polys.append([c % p for c in cur])
    return polys[n]


def _bound_bits(rows) -> int:
    """bits such that every coefficient of det(xI - M) is below 2^bits in absolute value.

    The k-th coefficient is a sum of principal k-minors, each at most the
    product of its rows' norms (Hadamard), so it is at most e_k(a_1, ...,
    a_n), the elementary symmetric function of the rounded-up row norms
    a_i = ceil(||row_i||); bits is the bit length of the largest e_k.  The
    squared norms are read from the array (in int64 while they fit).  The
    e_k are the base-2^w digits of the product of (1 + a_i 2^w) in one
    Python int: e_k <= C(n, k) A^k < 2^w for the largest norm A and
    w = n * (bit length of A + 1), so no digit carries into the next.
    """
    a = _exact_array(rows)
    n, top = len(a), max(int(a.max(initial=0)), -int(a.min(initial=0)))  # |-2^63| too
    if a.dtype != object and n * top * top >> 63:
        a = a.astype(object)
    norms = Counter(math.isqrt(r - 1) + 1 for r in (a * a).sum(axis=1).tolist() if r)
    w = n * (max(norms, default=0).bit_length() + 1)
    packed = math.prod(((norm << w) + 1) ** m for norm, m in norms.items())
    return max(((packed >> (k * w)) & ((1 << w) - 1)).bit_length() for k in range(n + 1))


def _balanced_lift(residues: Iterable[int], modulus: int) -> list[int]:
    """The representatives in (-modulus/2, modulus/2].

    They are the exact values of integers below 2^bits in absolute value
    when modulus > 2^(bits + 1).
    """
    half = modulus // 2
    return [c - modulus if c > half else c for c in residues]


def _char_poly_reverse_rows(rows) -> IntPolynomial:
    """Exact det(I - u*M) for dense integer rows (lists or an array) by one Hessenberg pass.

    One Hessenberg pass modulo the smallest tabulated Mersenne prime above
    2^(bits + 1), with bits from ``_bound_bits``, and the balanced lift
    recover the coefficients exactly.  A bound beyond the largest tabulated
    prime raises ValueError.
    """
    n = len(rows)
    if n == 0:
        return IntPolynomial.one()
    bits = _bound_bits(rows)
    if bits + 2 > _MERSENNE_EXPONENTS[-1]:
        raise ValueError(
            f"coefficient bound 2^{bits} needs a prime above 2^{bits + 1}; the largest "
            f"tabulated Mersenne prime is 2^{_MERSENNE_EXPONENTS[-1]} - 1")
    p = (1 << next(e for e in _MERSENNE_EXPONENTS if e >= bits + 2)) - 1
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    # det(I - uM) = u^n * charpoly_M(1/u): reverse the coefficient order
    return IntPolynomial(reversed(_balanced_lift(_charpoly_mod(rows, p), p)))


def _reduce(x: np.ndarray, q: np.ndarray, qinv: np.ndarray) -> np.ndarray:
    """x minus its nearest multiple of q, in place, for integral float64 x with |x| < 2^52.

    For q < 2^22, x * qinv is within 2^-22 of x/q, so the rounded quotient f
    is the integer nearest to x/q or its neighbour across a half:
    |x - f q| < q/2 + 1.  f q and the difference are integers below 2^53,
    hence exact.
    """
    t = x * qinv
    np.rint(t, out=t)
    t *= q
    x -= t
    return x


def _power_traces(m: np.ndarray, q: np.ndarray, s: int) -> np.ndarray:
    """tr(M^j) mod q for j = 0..n, one row per (n, n) residue matrix of the (g, n, n) stack m.

    Baby steps M^0..M^(s-1) and giant steps G^j with G = M^s, for some
    2 <= s about sqrt(n), take about 2 sqrt(n) batched products, and
    tr(G^j M^i) = sum_ab G^j[a, b] (M^i)^T[a, b] pairs G^j with the
    transposed baby steps in O(n^2).  Every matrix is kept in balanced
    residues, |x| < q/2 + 1 < 2^21 + 1, so each float64 sum of n <= 512
    products stays below 2^52 and is exact, and so does a whole pairing's
    sum of n^2 products when n^2 < 2048.
    """
    g, n = len(m), m.shape[1]
    qq = q[:, None, None]
    qinv = 1 / qq
    mt = _reduce(m, qq, qinv).transpose(0, 2, 1)
    babies = np.empty((g, s, n, n))  # babies[:, i] = (M^i)^T = M^T (M^(i-1))^T
    babies[:, 0] = np.eye(n)
    babies[:, 1] = mt
    for i in range(2, s):
        _reduce(np.matmul(mt, babies[:, i - 1], out=babies[:, i]), qq, qinv)
    step = _reduce(mt @ babies[:, s - 1], qq, qinv).transpose(0, 2, 1)
    giant, product = babies[:, 0], np.empty((g, n, n))
    traces = []
    for j in range(n // s + 1):
        if j:
            giant = _reduce(np.matmul(giant, step, out=product), qq, qinv) if j > 1 else step
        if n * n < 2048:  # one float64 dot of n^2 products per trace
            pairs = babies.reshape(g, s, n * n) @ giant.reshape(g, n * n, 1)
            traces.append(pairs[..., 0].astype(np.int64))
        else:  # the sums over b, then their sum over a, below 2^61, in int64
            traces.append(np.einsum("gab,gsab->gsa", giant, babies).astype(np.int64).sum(axis=2))
    return np.concatenate(traces, axis=1)[:, :n + 1] % q.astype(np.int64)[:, None]


def _char_poly_reverse_dense(rows) -> IntPolynomial:
    """Exact det(I - u*M) for dense integer rows (lists or an array) from tr(M^m) mod word primes.

    The first k word primes whose product Q exceeds 2^(bits + 1), bits from
    ``_bound_bits``, reduce M exactly (on int64, or on Python ints beyond
    it); a bound that all of them together do not pass raises ValueError.
    For each prime the traces p_m = tr(M^m), m = 1..n, come from batched
    float64 products (``_power_traces``); one CRT takes them modulo Q, where
    Newton's identities m c_m = -(p_1 c_(m-1) + ... + p_m c_0) give the
    coefficients c_m of det(I - uM) = sum c_m u^m (every prime exceeds n,
    so m is invertible), and the balanced lift makes them exact.  The
    primes go through in groups whose stacks of s = isqrt(n) + 1 baby steps
    hold at most ``_TRACE_BUDGET`` floats, or one prime's s n^2 where that
    alone is more: a small block takes all its primes in one call.  Needs
    n <= _DENSE_MAX_DIM.
    """
    n = len(rows)
    if n == 0:
        return IntPolynomial.one()
    exact = _exact_array(rows)
    bits = _bound_bits(exact)
    modulus, k = 1, 0
    while modulus >> (bits + 1) == 0:
        if k == len(_WORD_PRIMES):
            raise ValueError(
                f"coefficient bound 2^{bits} needs primes whose product passes 2^{bits + 1}; "
                f"the {k} tabulated word primes below 2^22 multiply to less than "
                f"2^{modulus.bit_length()}")
        modulus *= _WORD_PRIMES[k]
        k += 1
    primes = _WORD_PRIMES[:k]
    s = math.isqrt(n) + 1
    group = max(1, _TRACE_BUDGET // (s * n * n))
    traces = np.concatenate([
        _power_traces(np.array([exact % p for p in primes[lo:lo + group]], dtype=np.float64),
                      np.array(primes[lo:lo + group], dtype=np.float64), s)
        for lo in range(0, k, group)]).T
    # one CRT: each trace modulo Q
    weights = [modulus // p * pow(modulus // p % p, -1, p) for p in primes]
    power_sums = [sum(map(operator.mul, row, weights)) % modulus for row in traces.tolist()]
    coeffs = [1]
    for m in range(1, n + 1):
        acc = sum(map(operator.mul, power_sums[1:m + 1], reversed(coeffs)))
        coeffs.append(-acc * pow(m, -1, modulus) % modulus)
    return IntPolynomial(_balanced_lift(coeffs, modulus))


def char_poly_reverse(mat) -> IntPolynomial:
    """Exact det(I - u*M) for a square integer matrix, one SCC block at a time.

    Accepts a ``SparseIntMatrix``, an integer ndarray (int64 or an object
    array of Python ints) or a dense square integer array-like; a
    non-integer entry raises TypeError, a non-square input ValueError.
    Sparse and dense input share one path from their nonzero entries
    (``_entries``).  Ordering the indices by the strongly connected
    components of the nonzero pattern, in topological order, makes M block
    triangular, so det(I - u*M) is the product of det(I - u*M_C) over the
    diagonal blocks M_C.  A component of one index without a self-loop
    contributes 1; every other block is cut out as an array, gets its own
    Hadamard bound and one of two exact kernels, which share that bound and
    the balanced lift.  A block of dimension n <= _DENSE_MAX_DIM with more
    than max(4, n/32) nonzeros below the subdiagonal, in the component's
    own (Tarjan) order, goes to the word-prime trace kernel
    (``_char_poly_reverse_dense``).  Every other block goes to one
    Hessenberg pass modulo the smallest tabulated Mersenne prime above
    twice its bound (``_char_poly_reverse_rows``): near-cycles, whose
    Hessenberg form is almost there, and small blocks (one of dimension 4
    has at most three nonzeros below the subdiagonal).  A block whose bound
    is beyond its kernel's primes raises ValueError.
    """
    n, row, col, value = _entries(mat)
    if not len(row):  # the zero matrix, 0x0 on every torus: no component pass
        return IntPolynomial.one()
    ptr = np.searchsorted(row, np.arange(n + 1)).tolist()
    flat = col.tolist()
    components, label = _strong_components([flat[a:b] for a, b in zip(ptr, ptr[1:])])
    label = np.array(label, dtype=np.int64)
    local = np.empty(n, dtype=np.int64)
    for members in components:
        local[members] = np.arange(len(members))
    inside = label[row] == label[col]
    block, r, c = label[row[inside]], local[row[inside]], local[col[inside]]
    below = np.bincount(block[r > c + 1], minlength=len(components)).tolist()
    order = np.argsort(block, kind="stable")  # each block's entries in one run
    r, c, value = r[order], c[order], value[inside][order]
    ends = np.cumsum(np.bincount(block, minlength=len(components))).tolist()
    factors = []
    for members, low, start, end in zip(components, below, [0] + ends, ends):
        if start == end:  # one index without a self-loop gives a factor 1
            continue
        rows = np.zeros((len(members), len(members)), dtype=value.dtype)
        rows[r[start:end], c[start:end]] = value[start:end]
        dense = low > max(4, len(rows) / 32) and len(rows) <= _DENSE_MAX_DIM
        kernel = _char_poly_reverse_dense if dense else _char_poly_reverse_rows
        factors.append(enumerate(kernel(rows).coeffs))
    return IntPolynomial(_sparse_product(factors))


def _sparse_product(factors, order: int | None = None) -> list:
    """Dense coefficients of the product of factors given as (exponent, coefficient) pairs.

    The product is kept as {exponent: coefficient}, so sparse factors such
    as 1 - u^18 stay sparse.  Zero coefficients are skipped on input and
    dropped as they arise, and so are the terms above ``order`` when it is
    given.  The result has order + 1 coefficients, or, with no order, runs
    to the highest exponent left (none for a zero product).
    """
    limit = math.inf if order is None else order
    terms = {0: 1}
    for factor in factors:
        step: dict = {}
        for i, a in factor:
            if a:
                for j, b in terms.items():
                    if i + j <= limit:
                        step[i + j] = step.get(i + j, 0) + a * b
        terms = {k: c for k, c in step.items() if c}
    top = max(terms, default=-1) if order is None else order
    return [terms.get(k, 0) for k in range(top + 1)]


def _cycle_factor(length: int, m: int, order: int | None = None) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of (1 - u^length)^m, expanded binomially up to u^order."""
    top = m if order is None else min(m, order // length)
    return [(k * length, (-1) ** k * math.comb(m, k)) for k in range(top + 1)]


def berkowitz_char_poly_reverse(mat) -> IntPolynomial:
    """Division-free Berkowitz computation of det(I - u*M); small dims only.

    Kept as an independent exact route for cross-checking the modular path.
    """
    rows = _int_rows(mat)
    n = len(rows)
    if n == 0:
        return IntPolynomial.one()
    # vectors[k] holds coefficients of det(xI - M_k) for leading k x k block
    vec = [1, -rows[0][0]]
    for k in range(1, n):
        a = rows[k][k]
        row = rows[k][:k]
        col = [rows[i][k] for i in range(k)]
        # Toeplitz coefficients: 1, -a, -(R col), -(R M col), ...
        toep = [1, -a]
        cur = col
        for _ in range(k):
            toep.append(-sum(r * c for r, c in zip(row, cur)))
            cur = [sum(rows[i][j] * cur[j] for j in range(k)) for i in range(k)]
        new = [0] * (k + 2)
        for i, t in enumerate(toep):
            if t == 0:
                continue
            for j, v in enumerate(vec):
                if i + j <= k + 1:
                    new[i + j] += t * v
        vec = new
    # vec holds det(xI - M) with leading coefficient first, which is exactly
    # the ascending-u coefficient list of det(I - uM)
    return IntPolynomial(vec)


# ---------------------------------------------------------------------------
# logarithmic derivative and series helpers
# ---------------------------------------------------------------------------


def _log_deriv_of_poly(p: IntPolynomial, order: int) -> list:
    """Coefficients c_1..c_order of -u p'(u)/p(u); requires p(0) != 0."""
    if p.is_zero() or p[0] == 0:
        raise ValueError("logarithmic derivative needs a nonzero constant term")
    a = p.coeffs
    inv = _normalize_number(Fraction(1, a[0]))
    c = [0] * (order + 1)
    for m in range(1, order + 1):
        acc = m * a[m] if m <= p.degree else 0
        for k in range(1, min(m - 1, p.degree) + 1):  # a[k] = 0 beyond the degree
            acc += c[m - k] * a[k]
        c[m] = -acc * inv
    return c


def log_derivative_series(f, order: int) -> PowerSeriesPrefix:
    """Coefficients of -u * d/du log f(u) up to the given order.

    ``f`` may be an IntPolynomial or a RationalFn with nonzero value at 0.
    For f = det(I - u*T) the coefficient of u^m equals trace(T^m); in all
    such cases the result is integral and returned as exact ints.
    """
    if isinstance(f, RationalFn):
        cn = _log_deriv_of_poly(f.num, order)
        cd = _log_deriv_of_poly(f.den, order)
        coeffs = [cn[m] - cd[m] for m in range(order + 1)]
    else:
        coeffs = _log_deriv_of_poly(f, order)
    coeffs[0] = 0
    return PowerSeriesPrefix(coeffs, order)


def series_inverse(p: IntPolynomial, order: int) -> PowerSeriesPrefix:
    """Power-series inverse of p up to the given order; requires p(0) = +-1.

    With p(0) = +-1 the inverse of p(0) is p(0) itself, so the coefficients
    stay integers.
    """
    a0 = p[0]
    if a0 not in (1, -1):
        raise ValueError("series inverse needs constant term +-1")
    inv = [0] * (order + 1)
    inv[0] = a0
    for m in range(1, order + 1):
        inv[m] = -a0 * sum(p[j] * inv[m - j] for j in range(1, m + 1))
    return PowerSeriesPrefix(inv, order)


def series_product(a: PowerSeriesPrefix, b: PowerSeriesPrefix) -> PowerSeriesPrefix:
    order = min(a.order, b.order)
    return PowerSeriesPrefix(
        _sparse_product((enumerate(a.coeffs), enumerate(b.coeffs)), order), order)


def series_exp_neg_integral(counts: Sequence, order: int) -> PowerSeriesPrefix:
    """exp(-sum_m counts[m] u^m / m) as an exact truncated series.

    ``counts[m]`` is indexed by exponent (counts[0] ignored).  This is the
    standard exponential of the termwise-integrated series: the formal
    inverse of the logarithmic-derivative map, used to rebuild a zeta
    polynomial from closed-path counts.
    """
    a = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        a[m] = -Fraction(counts[m], m) if m < len(counts) else Fraction(0)
    e = [Fraction(0)] * (order + 1)
    e[0] = Fraction(1)
    for m in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            acc += k * a[k] * e[m - k]
        e[m] = acc / m
    return PowerSeriesPrefix(e, order)
