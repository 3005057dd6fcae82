from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from btzeta.operators import SparseIntMatrix
from btzeta.polynomials import (
    IntPolynomial,
    PowerSeriesPrefix,
    RationalFn,
    berkowitz_char_poly_reverse,
    char_poly_reverse,
    log_derivative_series,
    poly_gcd,
    series_exp_neg_integral,
    series_inverse,
    series_product,
)
from btzeta.polynomials import (
    _DENSE_MAX_DIM,
    _MERSENNE_EXPONENTS,
    _WORD_PRIMES,
    _bound_bits,
    _char_poly_reverse_dense,
    _char_poly_reverse_rows,
    _charpoly_mod,
    _int_rows,
)
from btzeta.zeta import zeta_chamber, zeta_edge
from conftest import closed_typed_complex


def unsplit(mat) -> IntPolynomial:
    """det(I - u*M) by one Hessenberg pass over the whole matrix, no SCC split."""
    return _char_poly_reverse_rows(_int_rows(mat))


def cyclic_permutation(n: int) -> np.ndarray:
    mat = np.zeros((n, n), dtype=int)
    for i in range(n):
        mat[(i + 1) % n, i] = 1
    return mat


# small coefficients and coefficients beyond the 2^53 of a float mantissa
COEFFS = st.integers(-9, 9) | st.integers(-2**70, 2**70)


def _fraction_divmod(p, d):
    """Long division over Q: (quotient, remainder) as Fraction lists."""
    if len(p) < len(d):
        return [], [Fraction(c) for c in p]
    rem = [Fraction(c) for c in p]
    q = [Fraction(0)] * (len(p) - len(d) + 1)
    for k in reversed(range(len(q))):
        q[k] = rem[k + len(d) - 1] / d[-1]
        for j, c in enumerate(d):
            rem[k + j] -= q[k] * c
    return q, rem


class TestIntPolynomial:
    def test_canonical_form_strips_trailing_zeros(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([0, 0]).coeffs == ()
        assert IntPolynomial().degree == -1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=8), st.integers(0, 3),
           st.sampled_from(["list", "int64", "generator"]))
    def test_constructor_matches_the_per_coefficient_strip(self, coeffs, zeros, form):
        coeffs = coeffs + [0] * zeros
        given_as = {"list": lambda: coeffs,
                    "int64": lambda: np.array(coeffs, dtype=np.int64),
                    "generator": lambda: (c for c in coeffs)}[form]()
        # the constructor's former expression: one int() per coefficient through a
        # generator, then trailing zeros popped one by one
        old = [int(c) for c in coeffs]
        while old and old[-1] == 0:
            old.pop()
        p = IntPolynomial(given_as)
        assert p.coeffs == tuple(old)
        assert all(type(c) is int for c in p.coeffs)

    def test_arithmetic(self):
        p = IntPolynomial([1, 1])
        assert (p * p).coeffs == (1, 2, 1)
        assert (p - p).is_zero()
        assert p.pow(3).coeffs == (1, 3, 3, 1)

    def test_substitutions(self):
        p = IntPolynomial([1, -2, 3])
        assert p.subst_neg_u().coeffs == (1, 2, 3)
        assert p.subst_u_power(2).coeffs == (1, 0, -2, 0, 3)

    def test_divide_exact(self):
        p = IntPolynomial([1, 0, 0, -1])  # 1 - u^3
        d = IntPolynomial([1, -1])        # 1 - u
        q = p.divide_exact(d)
        assert q is not None and q * d == p
        assert p.divide_exact(IntPolynomial([1, -2])) is None

    @settings(max_examples=300, deadline=None)
    @given(st.lists(COEFFS, min_size=0, max_size=5),
           st.lists(COEFFS, min_size=0, max_size=4),
           st.sampled_from([1, -1, 2, -3, 6, 2**54, -(3**40)]),
           st.lists(COEFFS, min_size=0, max_size=4),
           st.booleans())
    def test_divmod_exact_matches_fraction_division(self, quot, low, lead, rem, plant):
        d = IntPolynomial(low + [lead])
        if plant:  # p = q d + r with deg r < deg d: integral quotient q
            p = IntPolynomial(quot) * d + IntPolynomial(rem[:d.degree])
        else:
            p = IntPolynomial(quot + rem)
        q_ref, r_ref = _fraction_divmod(p.coeffs, d.coeffs)
        if all(c.denominator == 1 for c in q_ref):
            assert p.divmod_exact(d) == (IntPolynomial(q_ref), IntPolynomial(r_ref))
        else:
            with pytest.raises(ValueError, match="not integral"):
                p.divmod_exact(d)

    def test_eval_exact(self):
        p = IntPolynomial([1, -2, 1])
        assert p.eval(Fraction(1, 2)) == Fraction(1, 4)

    @given(st.lists(st.integers(-9, 9), min_size=0, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_gcd_divides_both(self, a, b):
        p, q = IntPolynomial(a), IntPolynomial(b)
        g = poly_gcd(p, q)
        if g.is_zero():
            assert p.is_zero() and q.is_zero()
        else:
            assert p.is_zero() or p.divide_exact(g) is not None
            assert q.is_zero() or q.divide_exact(g) is not None


class TestCharPolyReverse:
    def test_cyclic_permutation(self):
        assert char_poly_reverse(cyclic_permutation(3)) == IntPolynomial([1, 0, 0, -1])

    def test_zero_matrix(self):
        assert char_poly_reverse(np.zeros((5, 5), dtype=int)) == IntPolynomial([1])

    def test_scalar(self):
        assert char_poly_reverse(np.array([[2]])) == IntPolynomial([1, -2])

    def test_permutation_cycle_type(self):
        # permutation with cycles (2, 3) -> (1-u^2)(1-u^3)
        perm = np.zeros((5, 5), dtype=int)
        for i, j in [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]:
            perm[j, i] = 1
        expected = IntPolynomial([1, 0, -1]) * IntPolynomial([1, 0, 0, -1])
        assert char_poly_reverse(perm) == expected

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_against_sympy(self, dim):
        rng = random.Random(dim)
        mat = np.array([[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])
        ours = char_poly_reverse(mat)
        x = sympy.symbols("x")
        charpoly = sympy.Matrix(mat.tolist()).charpoly(x).all_coeffs()
        # det(I - uM) ascending in u equals det(xI - M) descending in x
        assert list(ours.coeffs) == [int(c) for c in _strip_trailing(charpoly)]

    def test_berkowitz_agrees_with_modular(self):
        rng = random.Random(7)
        for dim in (2, 4, 6):
            mat = np.array([[rng.randint(-4, 4) for _ in range(dim)] for _ in range(dim)])
            assert berkowitz_char_poly_reverse(mat) == char_poly_reverse(mat)

    def test_sparse_triplets_match_dense(self):
        rng = random.Random(5)
        for dim in (1, 3, 7, 12):
            # repeated (row, col) triplets add up, as in ``to_dense``
            entries = [(rng.randrange(dim), rng.randrange(dim), rng.randint(-3, 3))
                       for _ in range(3 * dim)]
            mat = SparseIntMatrix(dim, entries)
            dense = mat.to_dense().tolist()
            assert char_poly_reverse(mat) == char_poly_reverse(dense) == \
                berkowitz_char_poly_reverse(mat)

    @pytest.mark.parametrize("routine", [char_poly_reverse, berkowitz_char_poly_reverse])
    @pytest.mark.parametrize("mat", [
        [1, 2], np.array([1, 2]), [[1, 2]], [[1, 2], [3]], np.zeros((2, 3), dtype=int),
    ], ids=["list-1d", "array-1d", "wide", "ragged", "array-2x3"])
    def test_non_square_refused(self, routine, mat):
        with pytest.raises(ValueError, match="matrix must be square"):
            routine(mat)

    def test_large_entries_stay_exact(self):
        mat = np.array([[10 ** 12, 1], [1, 10 ** 12]], dtype=object)
        p = char_poly_reverse(mat)
        assert p == IntPolynomial([1, -2 * 10 ** 12, 10 ** 24 - 1])

    def test_entries_beyond_float_range(self):
        mat = np.array([[2 ** 1100]], dtype=object)
        assert char_poly_reverse(mat) == IntPolynomial([1, -2 ** 1100])
        mat = np.array([[2 ** 600, 3], [5, -2 ** 600]], dtype=object)
        assert char_poly_reverse(mat) == IntPolynomial([1, 0, -2 ** 1200 - 15])
        # the bound 2^4401 just fits below the largest tabulated prime 2^4423 - 1
        assert char_poly_reverse([[2 ** 4400]]) == IntPolynomial([1, -2 ** 4400])

    def test_bound_beyond_largest_prime_raises(self):
        with pytest.raises(ValueError, match=r"bound 2\^4501"):
            char_poly_reverse([[2 ** 4500]])

    @pytest.mark.parametrize("routine", [char_poly_reverse, berkowitz_char_poly_reverse])
    @pytest.mark.parametrize("mat", [
        [[1.5]], [[Fraction(1, 2)]], np.array([[1.0, 0.0], [0.0, 1.0]]), [[1, 2], [3, 2.5]],
    ], ids=["float", "fraction", "float-array", "mixed"])
    def test_non_integer_entries_refused(self, routine, mat):
        with pytest.raises(TypeError):
            routine(mat)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 20),
           st.sampled_from([0.05, 0.2, 0.5, 1.0]),
           st.sampled_from([1, 9, 10 ** 6]),
           st.sampled_from(["general", "zero-columns", "row-swaps", "upper", "nilpotent"]),
           st.randoms(use_true_random=False))
    def test_matches_berkowitz(self, dim, density, bound, shape, rng):
        mat = [[rng.randint(-bound, bound) if rng.random() < density else 0
                for _ in range(dim)] for _ in range(dim)]
        if shape == "zero-columns":  # no pivot in these columns
            for j in rng.sample(range(dim), dim // 2):
                for row in mat:
                    row[j] = 0
        elif shape == "row-swaps":  # the subdiagonal pivot is zero, a lower entry is not
            for k in range(dim - 2):
                mat[k + 1][k] = 0
                mat[rng.randrange(k + 2, dim)][k] = rng.choice([-bound, bound])
        elif shape in ("upper", "nilpotent"):
            for i in range(dim):
                for j in range(i + (shape == "nilpotent")):
                    mat[i][j] = 0
            if shape == "nilpotent":  # conjugate by a permutation
                perm = rng.sample(range(dim), dim)
                mat = [[mat[perm[i]][perm[j]] for j in range(dim)] for i in range(dim)]
        expected = berkowitz_char_poly_reverse(mat)
        assert char_poly_reverse(np.array(mat, dtype=object)) == expected == unsplit(mat)
        if shape == "nilpotent":
            assert expected == IntPolynomial.one()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(["self-loop", "zero-diagonal", "nilpotent", "general"]),
                    min_size=1, max_size=8),
           st.sampled_from([0.0, 0.3, 1.0]),
           st.sampled_from([1, 9, 10 ** 6]),
           st.randoms(use_true_random=False))
    def test_block_triangular_under_permutation(self, kinds, coupling, bound, rng):
        # diagonal blocks along the diagonal, entries above them, then the
        # indices shuffled: det(I - uM) is the product of the blocks' factors
        blocks = []
        for kind in kinds:
            size = 1 if kind in ("self-loop", "zero-diagonal") else rng.randint(1, 5)
            block = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
            if kind == "self-loop":
                block[0][0] = rng.choice([-bound, bound])
            elif kind == "zero-diagonal":
                block[0][0] = 0
            elif kind == "nilpotent":
                block = [[x if j > i else 0 for j, x in enumerate(row)]
                         for i, row in enumerate(block)]
            blocks.append(block)
        dim = sum(len(b) for b in blocks)
        mat = [[0] * dim for _ in range(dim)]
        start = 0
        for block in blocks:
            for i, row in enumerate(block):
                mat[start + i][start:start + len(block)] = row
                for j in range(start + len(block), dim):
                    if rng.random() < coupling:
                        mat[start + i][j] = rng.randint(-bound, bound)
            start += len(block)
        perm = rng.sample(range(dim), dim)
        mat = [[mat[perm[i]][perm[j]] for j in range(dim)] for i in range(dim)]
        expected = IntPolynomial.one()
        for block in blocks:
            expected = expected * berkowitz_char_poly_reverse(block)
        sparse = SparseIntMatrix(dim, [(i, j, v) for i, row in enumerate(mat)
                                       for j, v in enumerate(row)])
        assert char_poly_reverse(mat) == char_poly_reverse(sparse) == expected
        assert berkowitz_char_poly_reverse(mat) == unsplit(mat) == expected

    def test_bound_is_per_block(self):
        # nine 500-cycles on shuffled indices: dimension 4500 puts the
        # whole-matrix bound 2^4500 beyond the largest tabulated prime, while
        # each cycle's bound 2^500 takes the 2^521 - 1 prime
        rng = random.Random(3)
        perm = rng.sample(range(4500), 4500)
        mat = SparseIntMatrix(4500, [(perm[500 * b + i], perm[500 * b + (i + 1) % 500], 1)
                                     for b in range(9) for i in range(500)])
        assert char_poly_reverse(mat) == (IntPolynomial.one() - IntPolynomial.monomial(500)).pow(9)

    def test_one_pass_per_block(self, monkeypatch):
        # three 2-cycles, two of them with the same entries: three Hessenberg passes
        passes = []

        def recording(rows, p):
            passes.append(rows)
            return _charpoly_mod(rows, p)

        monkeypatch.setattr("btzeta.polynomials._charpoly_mod", recording)
        mat = SparseIntMatrix(6, [(0, 1, 1), (1, 0, 1), (2, 3, 2), (3, 2, 3),
                                  (4, 5, 1), (5, 4, 1)])
        one_minus_u2 = IntPolynomial([1, 0, -1])
        assert char_poly_reverse(mat) == one_minus_u2 * one_minus_u2 * IntPolynomial([1, 0, -6])
        assert len(passes) == 3

    def test_blocks_bound_and_prime_their_own_entries(self, monkeypatch):
        # a 2^600 self-loop beside a 0/1 3-cycle: the cycle's pass runs modulo
        # the smallest tabulated prime, only the self-loop needs 2^607 - 1
        moduli = []

        def recording(rows, p):
            moduli.append((len(rows), p))
            return _charpoly_mod(rows, p)

        monkeypatch.setattr("btzeta.polynomials._charpoly_mod", recording)
        mat = [[0, 1, 0, 5], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 2 ** 600]]
        assert char_poly_reverse(mat) == \
            IntPolynomial([1, 0, 0, -1]) * IntPolynomial([1, -2 ** 600])
        assert sorted(moduli) == [(1, 2 ** 607 - 1), (3, 2 ** 61 - 1)]


def _lucas_lehmer(e: int) -> bool:
    """Whether 2^e - 1 is prime, for an odd prime e."""
    p, s = (1 << e) - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % p
    return s == 0


@pytest.mark.parametrize("e", _MERSENNE_EXPONENTS)
def test_tabulated_moduli_are_mersenne_primes(e):
    assert sympy.isprime(e) and _lucas_lehmer(e)


def test_word_primes_serve_every_dense_block():
    # prime, above every n the dense kernel takes, n (p - 1)^2 < 2^53, and
    # together above the largest Mersenne prime, so they cover every bound
    assert list(_WORD_PRIMES) == sorted(set(_WORD_PRIMES), reverse=True)
    assert all(sympy.isprime(p) for p in _WORD_PRIMES)
    assert min(_WORD_PRIMES) > _DENSE_MAX_DIM
    assert _DENSE_MAX_DIM * (max(_WORD_PRIMES) - 1) ** 2 < 2 ** 53
    assert math.prod(_WORD_PRIMES) >> _MERSENNE_EXPONENTS[-1]


def random_block(rng, dim: int, bound: int, density: float = 1.0) -> list[list[int]]:
    return [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(dim)]
            for _ in range(dim)]


class TestDenseKernel:
    """``_char_poly_reverse_dense`` called directly, whatever block it is given."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.sampled_from([0.3, 1.0]), st.sampled_from([1, 2, 10 ** 6]),
           st.randoms(use_true_random=False))
    def test_matches_berkowitz(self, dim, density, bound, rng):
        mat = random_block(rng, dim, bound, density)
        assert _char_poly_reverse_dense(mat) == berkowitz_char_poly_reverse(mat)

    def test_dim_120_matches_hessenberg(self):
        # the full-bound Hessenberg pass needs 2^3217 - 1 here and takes about a
        # minute, so both kernels are compared modulo 2^61 - 1, a modulus the
        # dense kernel does not use
        mat = random_block(random.Random(120), 120, 10 ** 6)
        p = (1 << 61) - 1
        dense = _char_poly_reverse_dense(mat)
        assert dense.degree == 120
        assert [c % p for c in dense.coeffs] == _charpoly_mod(mat, p)[::-1]

    def test_entries_beyond_float_range(self):
        assert _char_poly_reverse_dense([[2 ** 1100]]) == IntPolynomial([1, -2 ** 1100])
        mat = [[2 ** 600, 3], [5, -2 ** 600]]
        assert _char_poly_reverse_dense(mat) == IntPolynomial([1, 0, -2 ** 1200 - 15])
        mat = [[2 ** 70, 1, -2 ** 65], [-1, 3, 2 ** 80], [7, -2 ** 90, 0]]
        assert _char_poly_reverse_dense(mat) == berkowitz_char_poly_reverse(mat)
        assert _char_poly_reverse_dense([[2 ** 4400]]) == IntPolynomial([1, -2 ** 4400])
        with pytest.raises(ValueError, match=r"bound 2\^4501"):
            _char_poly_reverse_dense([[2 ** 4500]])

    def test_empty_and_nilpotent(self):
        assert _char_poly_reverse_dense([]) == IntPolynomial.one()
        assert _char_poly_reverse_dense([[0, 1], [0, 0]]) == IntPolynomial.one()

    def test_live_arrays_are_k_matrices(self):
        # n = 35 with entries up to 10^6 takes k = 37 primes and s = 6 baby
        # steps: a stack of every prime's baby steps alone would hold 6k matrices
        n = 35
        mat = random_block(random.Random(35), n, 10 ** 6)
        bits = _bound_bits(mat)
        k = next(i for i in range(len(_WORD_PRIMES)) if math.prod(_WORD_PRIMES[:i]) >> (bits + 1))
        assert k == 37
        tracemalloc.start()
        try:
            _char_poly_reverse_dense(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * k * n * n * 8


def _recording_kernels(monkeypatch) -> list[tuple[str, int]]:
    """Patch both block kernels to record (kernel, block dimension) per call."""
    calls = []
    for name, kernel in (("hessenberg", _char_poly_reverse_rows),
                         ("dense", _char_poly_reverse_dense)):
        def recording(rows, name=name, kernel=kernel):
            calls.append((name, len(rows)))
            return kernel(rows)
        monkeypatch.setattr(f"btzeta.polynomials.{kernel.__name__}", recording)
    return calls


class TestKernelChoice:
    def test_near_cycles_take_hessenberg(self, monkeypatch):
        # in Tarjan order a cycle's block is upper Hessenberg, so only chords
        # land below the subdiagonal: at most 4 in the random ones
        calls = _recording_kernels(monkeypatch)
        rng = random.Random(4)
        for n, chords in ((200, 1), (60, 3), (17, 0)):
            perm = rng.sample(range(n), n)
            arcs = [(perm[(i + 1) % n], perm[i], 1) for i in range(n)]
            arcs += [(perm[rng.randrange(n)], perm[rng.randrange(n)], 2) for _ in range(chords)]
            char_poly_reverse(SparseIntMatrix(n, arcs))
        # ten chords i + 2 -> i put 9 nonzeros below it, not more than 320/32
        n = 320
        arcs = [((i + 1) % n, i, 1) for i in range(n)] + [(i + 2, i, 1) for i in range(0, 20, 2)]
        char_poly_reverse(SparseIntMatrix(n, arcs))
        assert calls == [("hessenberg", 200), ("hessenberg", 60), ("hessenberg", 17),
                         ("hessenberg", 320)]

    def test_branching_x_takes_dense(self, monkeypatch):
        # a random closed complex with four vertices per type: the non-cycle
        # components of each relation are one block of X with many arcs below
        # its subdiagonal
        calls = _recording_kernels(monkeypatch)
        c = closed_typed_complex(random.Random(1), (4, 4, 4), p_chamber=0.625)
        zeta_edge(c)
        zeta_chamber(c)
        assert [name for name, dim in calls if dim > 1] == ["dense", "dense"]

    def test_small_and_huge_blocks_take_hessenberg(self, monkeypatch):
        calls = _recording_kernels(monkeypatch)
        rng = random.Random(6)
        # 39 nonzeros below the subdiagonal, more than 513/32, but a dimension
        # beyond the dense kernel's 2^53 bound
        n = _DENSE_MAX_DIM + 1
        arcs = [((i + 1) % n, i, 1) for i in range(n)] + [(i + 2, i, 1) for i in range(0, 80, 2)]
        char_poly_reverse(SparseIntMatrix(n, arcs))
        # 1x1 blocks, 2x2 blocks and a dense 3x3 block have at most one
        char_poly_reverse(random_block(rng, 3, 9))
        assert {name for name, _ in calls} == {"hessenberg"}


def _strip_trailing(desc_coeffs):
    out = list(desc_coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


class TestLogDerivative:
    def test_one_minus_u3(self):
        series = log_derivative_series(IntPolynomial([1, 0, 0, -1]), 12)
        assert [series[m] for m in range(13)] == [0, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3]

    def test_geometric(self):
        series = log_derivative_series(IntPolynomial([1, -2]), 10)
        assert [series[m] for m in range(1, 11)] == [2 ** m for m in range(1, 11)]

    def test_equals_trace_powers(self):
        rng = random.Random(11)
        mat = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        poly = char_poly_reverse(np.array(mat))
        series = log_derivative_series(poly, 8)
        power = [row[:] for row in mat]
        for m in range(1, 9):
            assert series[m] == sum(power[i][i] for i in range(4))
            power = [[sum(power[i][k] * mat[k][j] for k in range(4))
                      for j in range(4)] for i in range(4)]

    def test_rational_fn_is_difference(self):
        f = RationalFn(IntPolynomial([1, 0, 0, -1]), IntPolynomial([1, -2]))
        series = log_derivative_series(f, 6)
        num = log_derivative_series(IntPolynomial([1, 0, 0, -1]), 6)
        den = log_derivative_series(IntPolynomial([1, -2]), 6)
        assert all(series[m] == num[m] - den[m] for m in range(1, 7))

    def test_high_order_closed_forms(self):
        # -u d/du log(1 - a u^3) = sum_k 3 a^k u^(3k), at an order far above deg p
        order = 3000
        one = log_derivative_series(IntPolynomial([1, 0, 0, -1]), order)
        assert list(one.coeffs) == [3 if m and m % 3 == 0 else 0 for m in range(order + 1)]
        ratio = log_derivative_series(
            RationalFn(IntPolynomial([1, 0, 0, -1]), IntPolynomial([1, 0, 0, -8])), order)
        assert list(ratio.coeffs) == [
            3 - 3 * 8 ** (m // 3) if m and m % 3 == 0 else 0 for m in range(order + 1)]

    def test_rejects_vanishing_constant_term(self):
        with pytest.raises(ValueError):
            log_derivative_series(IntPolynomial([0, 1]), 4)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, -1, 2, -3]), st.lists(st.integers(-20, 20), max_size=8),
           st.integers(0, 15))
    def test_matches_fraction_recurrence(self, a0, tail, order):
        # ints throughout when p(0) = +-1, the same values as in Fractions
        p = IntPolynomial([a0] + tail)
        ref = [Fraction(0)] * (order + 1)
        for m in range(1, order + 1):
            ref[m] = -(m * p[m] + sum(ref[j] * p[m - j] for j in range(1, m))) / Fraction(a0)
        series = log_derivative_series(p, order)
        assert list(series.coeffs) == ref
        if abs(a0) == 1:
            assert all(type(x) is int for x in series.coeffs)


class TestRationalFn:
    def test_normalization_removes_gcd(self):
        num = IntPolynomial([1, 0, 0, -1]) * IntPolynomial([1, 1])
        den = IntPolynomial([1, 0, 0, -1]) * IntPolynomial([1, -1])
        f = RationalFn(num, den)
        assert f.num == IntPolynomial([1, 1])
        assert f.den == IntPolynomial([1, -1])

    def test_content_and_sign(self):
        f = RationalFn(IntPolynomial([2, 2]), IntPolynomial([-4]))
        assert f.num == IntPolynomial([-1, -1])
        assert f.den == IntPolynomial([2])

    def test_substitution_consistency(self):
        # evaluating the normalized quotient equals evaluating the raw pair
        num = IntPolynomial([1, 0, 0, 0, 0, 0, -1])
        den = IntPolynomial([1, 0, 0, -1]) * IntPolynomial([1, 0, -1])
        f = RationalFn(num, den)
        for u0 in (Fraction(1, 3), Fraction(-1, 5), Fraction(2, 7)):
            assert f.eval(u0) == Fraction(num.eval(u0), den.eval(u0))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn(IntPolynomial([1]), IntPolynomial())

    @pytest.mark.parametrize("coeffs", [[1], [-3], [1, 0, 0, -1], [-2, 4, 6], [0, 5]])
    def test_equal_pair_is_one_without_gcd(self, monkeypatch, coeffs):
        # the gcd of p and p is p itself; p over -p still takes the gcd route
        p = IntPolynomial(coeffs)
        f = RationalFn(p, -p)
        assert (f.num.coeffs, f.den.coeffs) == ((-1,), (1,))

        def refuse(*args):
            raise AssertionError("poly_gcd called")

        monkeypatch.setattr("btzeta.polynomials.poly_gcd", refuse)
        f = RationalFn(p, IntPolynomial(coeffs))
        assert (f.num.coeffs, f.den.coeffs) == ((1,), (1,))


class TestSeries:
    def test_inverse_of_polynomial(self):
        p = IntPolynomial([1, 0, 0, -1])
        inv = series_inverse(p, 9)
        assert [inv[m] for m in range(10)] == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1]

    def test_product_and_inverse_cancel(self):
        p = IntPolynomial([1, -3, 2, 5])
        prod = series_product(series_inverse(p, 8),
                              PowerSeriesPrefix([p[m] for m in range(9)], 8))
        assert [prod[m] for m in range(9)] == [1] + [0] * 8

    def test_exp_neg_integral_rebuilds_zeta(self):
        # counts of a permutation with cycle type (3): exp(-sum 3 u^{3k}/3k) = 1 - u^3
        counts = [0, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3]
        series = series_exp_neg_integral(counts, 12)
        expected = IntPolynomial([1, 0, 0, -1])
        assert [series[m] for m in range(13)] == [expected[m] for m in range(13)]

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 5), min_size=3, max_size=8))
    def test_exp_inverts_log_derivative(self, tail):
        # round trip: polynomial -> log-derivative coefficients -> exp back
        poly = IntPolynomial([1] + [0] * len(tail))  # placeholder, built below
        # build a product of (1 - u^k) factors from the sampled multiplicities
        acc = IntPolynomial([1])
        for k, mult in enumerate(tail, start=1):
            for _ in range(min(mult, 2)):
                acc = acc * IntPolynomial([1] + [0] * (k - 1) + [-1])
        order = 10
        series = log_derivative_series(acc, order)
        back = series_exp_neg_integral([0] + [series[m] for m in range(1, order + 1)], order)
        assert all(back[m] == acc[m] for m in range(order + 1))
