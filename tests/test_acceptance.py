"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every comparison labelled exact is integer-exact; tolerances and
runtime budgets are asserted, not aspirational.
"""

from __future__ import annotations

import math
import os
import random
import sys
import time

import numpy as np
import pytest

from btzeta import (
    ApartmentSpec,
    BallSpec,
    ConeDecomposition,
    IntPolynomial,
    LatticeCone,
    TypedComplex,
    classify_ramanujan,
    cone_generators,
    cone_series_closed_form,
    count_closed_paths,
    decompose,
    enumerate_primitive_classes,
    euler_characteristic,
    evaluate_partial_sum,
    fundamental_domain,
    gen_apartment_torus,
    gen_building_ball,
    gen_cycle_complex,
    load_complex,
    log_derivative_series,
    polynomial_roots,
    primitive_counts,
    ratio,
    save_complex,
    simplex_counts,
    zeta_chamber,
    zeta_edge,
)
from btzeta import rh
from btzeta.cli import run_verify
from btzeta.operators import directed_edges, edge_successors

M = 12


def report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def suite_complexes() -> list[tuple[str, TypedComplex]]:
    single = TypedComplex([(0, 0), (1, 1), (2, 2)],
                          edges=[(0, 1), (1, 2), (0, 2)], chambers=[(0, 1, 2)])
    return [
        ("3-cycle", gen_cycle_complex(3)),
        ("6-cycle", gen_cycle_complex(6)),
        ("single-chamber", single),
        ("torus 3*id", gen_apartment_torus(ApartmentSpec(((3, 0), (0, 3))))),
        ("torus skew", gen_apartment_torus(ApartmentSpec(((3, 1), (0, 4))))),
    ]


def test_criterion_1_duality_suite():
    started = time.perf_counter()
    for name, c in suite_complexes():
        for kind, zeta_fn in (("edge", zeta_edge), ("gallery", zeta_chamber)):
            series = log_derivative_series(zeta_fn(c), M)
            counts = count_closed_paths(c, M, kind)
            assert [series[m] for m in range(M + 1)] == counts, (name, kind)
    report(1, "log-derivative coefficients equal brute-force closed-path "
              "counts for both operators on all five complexes, m <= 12, exact",
           started, 60.0)


# -- criterion 2: cones ------------------------------------------------------


def _random_cone(rng: random.Random) -> LatticeCone:
    while True:
        r = rng.randint(1, 3)
        funcs = tuple(tuple(rng.randint(-5, 5) for _ in range(r)) for _ in range(r))
        try:
            return LatticeCone(funcs)
        except ValueError:
            continue


def _exhaustive_box_check(cone: LatticeCone, deco: ConeDecomposition,
                          rng: random.Random, box: int = 30) -> None:
    """Exact decomposition bijection over the whole coordinate box."""
    r = cone.rank
    alpha = np.array([list(f) for f in cone.functionals], dtype=np.int64)
    gen_cols = np.array([[deco.generators[j][i] for j in range(r)]
                         for i in range(r)], dtype=np.int64)
    det = int(round(np.linalg.det(gen_cols.astype(float))))
    sign = 1 if det > 0 else -1
    adj = np.linalg.inv(gen_cols.astype(float)) * det
    adj = np.rint(adj).astype(np.int64) * sign
    d = abs(det)
    axes = [np.arange(-box, box + 1, dtype=np.int64)] * r
    grids = np.meshgrid(*axes, indexing="ij")
    v = np.stack([g.ravel() for g in grids])
    member = (alpha @ v > 0).all(axis=0)
    vm = v[:, member]
    w = adj @ vm
    ks = -((-w) // d) - 1                      # ceil(w/d) - 1, exact
    v0 = vm - gen_cols @ ks
    assert (ks >= 0).all(), "negative generator multiple inside the cone"
    shift, base = 300, 601
    assert v0.size == 0 or abs(v0).max() <= shift
    enc = np.zeros(v0.shape[1], dtype=np.int64)
    for i in range(r):
        enc = enc * base + (v0[i] + shift)
    f_enc = set()
    for point in deco.fundamental_set:
        code = 0
        for x in point:
            code = code * base + (x + shift)
        f_enc.add(code)
    assert set(np.unique(enc).tolist()) <= f_enc
    assert (gen_cols @ ks + v0 == vm).all()
    # spot-check the scalar API against the vectorized sweep
    idx_all = rng.sample(range(v.shape[1]), min(40, v.shape[1]))
    member_list = member.tolist()
    for idx in idx_all:
        point = tuple(int(x) for x in v[:, idx])
        result = decompose(cone, deco, point)
        assert (result is not None) == member_list[idx]
        if result is not None:
            v0s, kss = result
            rebuilt = tuple(
                v0s[i] + sum(k * g[i] for k, g in zip(kss, deco.generators))
                for i in range(r))
            assert rebuilt == point


def test_criterion_2_cone_suite():
    started = time.perf_counter()
    rng = random.Random(20260809)
    for trial in range(200):
        cone = _random_cone(rng)
        gens = cone_generators(cone)
        for j, a in enumerate(gens):
            assert all(cone.alpha(i, a) == 0 for i in range(cone.rank) if i != j)
            assert cone.alpha(j, a) > 0
            assert math.gcd(*(abs(x) for x in a)) == 1  # minimal on its ray
        fset = fundamental_domain(cone, gens)
        deco = ConeDecomposition(gens, fset)
        for v0 in fset:
            assert cone.contains(v0)
            for a in gens:
                assert not cone.contains(tuple(x - y for x, y in zip(v0, a)))
        _exhaustive_box_check(cone, deco, rng)
        closed = cone_series_closed_form(cone, deco)
        for _ in range(5):
            point = tuple(rng.uniform(0.1, 0.5) for _ in range(cone.rank))
            value = float(closed.evaluate(point))
            oracle = evaluate_partial_sum(cone, None, point, 60)
            assert abs(value - oracle) <= 1e-9 * max(abs(value), 1e-12), trial
    report(2, "200 random cones: generator minimality, fundamental-set "
              "conditions, exact bijection on the +-30 box, closed form vs "
              "partial sums < 1e-9", started, 120.0)


def test_criterion_3_building_local_suite():
    started = time.perf_counter()
    for q in (2, 3):
        ball = gen_building_ball(BallSpec(q=q, radius=1))
        assert len(ball.neighbors(0)) == 2 * (q * q + q + 1)
        per_type = {}
        for w in ball.neighbors(0):
            per_type[ball.type_of[w]] = per_type.get(ball.type_of[w], 0) + 1
        assert set(per_type.values()) == {q * q + q + 1}
        chamber_count: dict[tuple[int, int], int] = {}
        for a, b, c in ball.chambers:
            for e in ((a, b), (a, c), (b, c)):
                chamber_count[e] = chamber_count.get(e, 0) + 1
        assert {chamber_count[e] for e in ball.edges if 0 in e} == {q + 1}
        into_center = [e for e in directed_edges(ball) if e.head == 0]
        assert {len(edge_successors(ball, e)) for e in into_center} == {q * q}
        if q == 2:
            counts = simplex_counts(ball)
            assert (counts.N0, counts.N1, counts.N2) == (15, 35, 21)
            assert euler_characteristic(ball) == 1
    report(3, "radius-1 balls for q in {2,3} match the subspace oracle: "
              "degrees q^2+q+1 per type, q+1 chambers per interior edge, "
              "q^2 straight continuations, (15,35,21) at q=2", started, 30.0)


def test_criterion_4_primitive_structure():
    started = time.perf_counter()
    for name, c in suite_complexes():
        for kind in ("edge", "gallery"):
            counts = count_closed_paths(c, M, kind)
            prims = primitive_counts(enumerate_primitive_classes(c, M, kind), M)
            for m in range(1, M + 1):
                assert counts[m] == sum(
                    d * prims[d] for d in range(1, m + 1) if m % d == 0), (name, kind, m)
    report(4, "N[m] = sum of d*P[d] over divisors holds exactly on every "
              "generated complex, both kinds, m <= 12", started, 60.0)


def test_criterion_5_identity_harness(tmp_path):
    started = time.perf_counter()
    recorded_lines = []
    for i, (name, c) in enumerate(suite_complexes()):
        path = tmp_path / f"complex{i}.json"
        save_complex(c, path)
        rep, _ = run_verify(str(path), M)
        for kind in ("edge", "gallery"):
            assert rep["checks"][f"exp_identity_{kind}"]["passed"], (name, kind)  # exact
        recorded = rep["recorded"]
        recorded_lines.append(f"    {name}: product == Z1(u^2)/Z2(-u): "
                              f"{recorded['product_vs_ratio_neg_u']}; "
                              f"+u: {recorded['product_vs_ratio_pos_u']}")
    dataset = os.environ.get("BTZ_RAMANUJAN_DATASET")
    if dataset:
        c = load_complex(dataset)
        assert c.q is not None and c.q >= 2, "dataset must carry a q tag"
        f = ratio(c)
        sc = simplex_counts(c)
        rep = classify_ramanujan((f.num, f.den), c.q,
                                 chi=euler_characteristic(c),
                                 tol=1e-6,
                                 counts=(sc.N0, sc.N1, sc.N2))
        assert rep.pole_factor_found and rep.exponent_matches_chi
        assert rep.verdict == "ramanujan"
        dataset_line = f"    dataset {os.path.basename(dataset)}: verdict {rep.verdict}"
    else:
        dataset_line = ("    dataset-dependent factorization: skipped "
                        "(set BTZ_RAMANUJAN_DATASET to a quotient file)")
    report(5, "exp(-integrated length series) equals the primitive product "
              "exactly on every complex; sign-convention outcomes recorded",
           started, 60.0)
    for line in recorded_lines:
        print(line)
    print(dataset_line)


def test_criterion_6_rh_classifier():
    started = time.perf_counter()
    rng = random.Random(17)
    u3 = IntPolynomial([1, 0, 0, -1])
    for trial in range(100):
        q = rng.choice([2, 3, 4, 5])
        chi = rng.randint(1, 4)
        pools = {
            "sqrt": [IntPolynomial([1, -a, q]) for a in range(-5, 6) if a * a < 4 * q],
            "q": [IntPolynomial([1, q])]
                 + [IntPolynomial([1, -a, q * q])
                    for a in range(-5, 6) if a * a < 4 * q * q and a != -q],
            "one": [IntPolynomial([1, 1]), IntPolynomial([1, 0, 1])],
        }
        budget = 60 - 3 * (chi - 1) - 3

        def build(max_degree: int, tempered_only: bool):
            nonlocal budget
            factors, planted = [], []
            for _ in range(rng.randint(0, 4)):
                cls = "sqrt" if tempered_only else rng.choice(list(pools))
                if not pools[cls]:
                    continue
                f = pools[cls].pop(rng.randrange(len(pools[cls])))
                if f.degree > min(max_degree, budget):
                    continue
                factors.append(f)
                planted.append((cls, f.degree))
                budget -= f.degree
            return factors, planted

        tempered_trial = rng.random() < 0.5
        p1_factors, p1_planted = build(30, tempered_trial)
        p2_factors, p2_planted = build(30, tempered_trial)
        num = u3.pow(chi - 1)
        for f in p1_factors:
            num = num * f
        den = IntPolynomial([1, 0, 0, -(q ** 3)])
        for f in p2_factors:
            den = den * f
        assert num.degree + den.degree <= 66

        rep = classify_ramanujan((num, den), q=q, chi=chi, tol=1e-9)
        planted = p1_planted + p2_planted
        has_witness = any(cls != "sqrt" for cls, _ in planted)
        expected = "non_tempered_witness" if has_witness else "ramanujan"
        assert rep.verdict == expected, (trial, planted)
        assert rep.euler_factor_exponent == chi - 1
        assert rep.pole_factor_found

        # every residual root must land on its planted modulus class
        targets = {"sqrt": q ** -0.5, "q": 1.0 / q, "one": 1.0}
        expected_moduli = sorted(
            targets[cls] for cls, deg in planted for _ in range(deg))
        got_moduli = sorted(abs(z) for z in rep.P1_roots + rep.P2_roots)
        assert len(got_moduli) == len(expected_moduli), trial
        for g, e in zip(got_moduli, expected_moduli):
            assert abs(g - e) < 1e-9, (trial, g, e)
    report(6, "100 synthetic ratios with planted moduli in {sqrt(q), q, 1}: "
              "verdicts and root classes recovered exactly at tol 1e-9",
           started, 30.0)


def test_criterion_6_verdicts_read_no_root(monkeypatch, capsys):
    # criterion 6 runs as it stands; each of its classifications is repeated
    # with a root finder that finds no root, and must keep its verdict
    classify = classify_ramanujan
    blind_verdicts = []

    def classify_twice(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(rh, "polynomial_roots", lambda p: [])
            blind_verdicts.append(classify(*args, **kwargs).verdict)
        rep = classify(*args, **kwargs)
        assert rep.verdict == blind_verdicts[-1]
        return rep

    monkeypatch.setattr(sys.modules[__name__], "classify_ramanujan", classify_twice)
    test_criterion_6_rh_classifier()
    assert len(blind_verdicts) == 100
    assert set(blind_verdicts) == {"ramanujan", "non_tempered_witness"}
