"""Traced replicas of ``btz verify``, ``btz cone`` and ``btz rh``.

Each replica makes the public library calls the CLI command makes, in the
same order, with one span around each call, and returns the JSON document
the command prints.  The traced run checks that this document equals the
CLI's output, so a replica that drifts from the CLI fails the run instead
of timing something else.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from btzeta.cli import SCHEMA_VERSION
from btzeta.complexes import (
    euler_characteristic,
    load_complex,
    simplex_counts,
    validate_complex,
)
from btzeta.cones import (
    CharacterData,
    ConeDecomposition,
    LatticeCone,
    cone_generators,
    cone_series_closed_form,
    evaluate_partial_sum,
    fundamental_domain,
)
from btzeta.geodesics import (
    DEFAULT_ORDER,
    assemble_S_series,
    count_closed_paths,
    enumerate_primitive_classes,
    primitive_counts,
    primitive_product,
    torus_trace_counts,
)
from btzeta.operators import build_chamber_operator, build_edge_operator
from btzeta.polynomials import (
    IntPolynomial,
    PowerSeriesPrefix,
    char_poly_reverse,
    log_derivative_series,
    series_exp_neg_integral,
    series_inverse,
    series_product,
)
from btzeta.rh import DEFAULT_TOL, classify_ramanujan
from btzeta.zeta import ratio as zeta_ratio


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _poly_strings(p: IntPolynomial) -> list[str]:
    return [str(c) for c in p.coeffs]


def verify(args: list[str], tr, counters: Counter) -> str:
    """``btz verify FILE --no-timings`` at the default order."""
    path = args[1]
    order = DEFAULT_ORDER
    report: dict = {"schema_version": SCHEMA_VERSION, "input": Path(path).name}
    with tr.span("complexes.load"):
        cx = load_complex(path)
    with tr.span("complexes.validate"):
        vr = validate_complex(cx)
        sc = simplex_counts(cx)
        chi = euler_characteristic(cx)
    if not vr.ok:
        raise ValueError(f"{path}: invalid complex")
    report["complex"] = {"N0": sc.N0, "N1": sc.N1, "N2": sc.N2, "chi": chi, "q": cx.q}

    with tr.span("operators.build[edge]"):
        t_edge = build_edge_operator(cx)
    with tr.span("polynomials.charpoly[edge]"):
        z1 = char_poly_reverse(t_edge)
    counters["operators.dim"] += t_edge.dim
    counters["operators.nnz"] += len(t_edge.entries)
    if cx.chambers:
        with tr.span("operators.build[chamber]"):
            t_chamber = build_chamber_operator(cx)
        with tr.span("polynomials.charpoly[chamber]"):
            z2 = char_poly_reverse(t_chamber)
        counters["operators.dim"] += t_chamber.dim
        counters["operators.nnz"] += len(t_chamber.entries)
    else:
        z2 = IntPolynomial.one()
    with tr.span("zeta.ratio"):
        rat = zeta_ratio(cx, negate_u=True)
    report["zeta"] = {
        "Z1": _poly_strings(z1),
        "Z2": _poly_strings(z2),
        "ratio": {"num": _poly_strings(rat.num), "den": _poly_strings(rat.den)},
    }

    checks: dict[str, dict] = {}
    recorded: dict = {}
    mandatory_pass = True
    series_by_kind = {}
    for kind, poly in (("edge", z1), ("gallery", z2)):
        with tr.span(f"polynomials.series[log_deriv {kind}]"):
            log_deriv = log_derivative_series(poly, order)
        with tr.span(f"geodesics.count[{kind}]"):
            brute = count_closed_paths(cx, order, kind)
        with tr.span(f"geodesics.classes[{kind}]"):
            classes = enumerate_primitive_classes(cx, order, kind)
        with tr.span(f"geodesics.assemble[primitive {kind}]"):
            prims = primitive_counts(classes, order)
        counters["geodesics.closed_paths"] += sum(brute)
        counters["geodesics.classes"] += len(classes)
        duality_ok = all(log_deriv[m] == brute[m] for m in range(1, order + 1))
        structure_ok = all(
            brute[m] == sum(d * prims[d] for d in range(1, m + 1) if m % d == 0)
            for m in range(1, order + 1))
        with tr.span(f"geodesics.assemble[S {kind}]"):
            s_series = assemble_S_series(classes, order)
        with tr.span(f"polynomials.series[exp {kind}]"):
            exp_side = series_exp_neg_integral(
                [0] + [s_series[m] for m in range(1, order + 1)], order)
        with tr.span(f"geodesics.assemble[product {kind}]"):
            prim_prod = primitive_product(classes, order)
        exp_ok = exp_side == prim_prod
        checks[f"duality_{kind}"] = {"passed": duality_ok, "order": order}
        checks[f"primitive_structure_{kind}"] = {"passed": structure_ok}
        checks[f"exp_identity_{kind}"] = {"passed": exp_ok}
        mandatory_pass &= duality_ok and structure_ok and exp_ok
        series_by_kind[kind] = {"N": brute, "P": prims, "product": prim_prod}
    report["counts"] = {kind: {"N": data["N"], "P": data["P"]}
                        for kind, data in series_by_kind.items()}

    prim_prod = series_by_kind["edge"]["product"]
    z1_sq = z1.subst_u_power(2)
    z1_prefix = PowerSeriesPrefix([z1_sq[m] for m in range(order + 1)], order)
    for label, sign in (("product_vs_ratio_neg_u", True), ("product_vs_ratio_pos_u", False)):
        with tr.span(f"polynomials.series[identity {'neg' if sign else 'pos'}]"):
            num = z2.subst_neg_u() if sign else z2
            quotient = series_product(series_inverse(num, order), z1_prefix)
        recorded[label] = bool(all(quotient[m] == prim_prod[m] for m in range(order + 1)))

    geom_path = Path(path).with_suffix(".geom")
    geom = json.loads(geom_path.read_text(encoding="utf-8")) if geom_path.exists() else None
    if geom is None:
        recorded["torus_geometric_oracle"] = "skipped (no geometry sidecar)"
    elif geom.get("kind") == "torus":
        geo_checks = {}
        for kind in ("edge", "gallery"):
            with tr.span(f"geodesics.oracle[{kind}]"):
                expected = torus_trace_counts(geom["basis"], order, kind)
            geo_checks[kind] = series_by_kind[kind]["N"] == expected
        checks["torus_geometric_oracle"] = {"passed": all(geo_checks.values()),
                                            "detail": geo_checks}
        mandatory_pass &= all(geo_checks.values())
    else:
        recorded["torus_geometric_oracle"] = "skipped (sidecar is not torus geometry)"

    with tr.span("rh.classify"):
        rh_report = classify_ramanujan((rat.num, rat.den), cx.q, chi=chi,
                                       counts=(sc.N0, sc.N1, sc.N2))
    report["rh"] = rh_report.to_json_dict()
    report["checks"] = checks
    report["recorded"] = recorded
    report["passed"] = mandatory_pass
    return canonical(report)


def _option(args: list[str], flag: str) -> str | None:
    return args[args.index(flag) + 1] if flag in args else None


def _vectors(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in part.split(",")) for part in text.split(";"))


def cone(args: list[str], tr, counters: Counter) -> str:
    """``btz cone --functionals F --eval U --oracle-bound B [--char C]``."""
    funcs = _vectors(_option(args, "--functionals"))
    char_text = _option(args, "--char")
    with tr.span("cones.lattice"):
        lc = LatticeCone(funcs, None)
    with tr.span("cones.generators"):
        gens = cone_generators(lc)
    with tr.span("cones.fundamental"):
        fset = fundamental_domain(lc, gens)
    counters["cones.fundamental_points"] += len(fset)
    with tr.span("cones.closed_form"):
        deco = ConeDecomposition(generators=gens, fundamental_set=fset)
        character = CharacterData(tuple(Fraction(x) for x in char_text.split(","))) \
            if char_text else CharacterData.trivial(lc.rank)
        closed = cone_series_closed_form(lc, deco, character)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rank": lc.rank,
        "generators": [list(a) for a in gens],
        "fundamental_set": [list(v) for v in fset],
        "closed_form": closed.to_json_dict(),
    }
    point = tuple(float(x) for x in _option(args, "--eval").split(","))
    with tr.span("cones.evaluate"):
        converges = closed.converges_at(point)
        value = closed.evaluate(point)
    value = float(value) if isinstance(value, Fraction) else complex(value).real
    entry: dict = {"point": list(point), "closed_form_value": value, "converges": converges}
    if converges:
        with tr.span("cones.partial_sum"):
            oracle = evaluate_partial_sum(lc, character, point,
                                          int(_option(args, "--oracle-bound")))
        oracle = float(oracle) if not isinstance(oracle, complex) else oracle.real
        entry["partial_sum"] = oracle
        entry["relative_error"] = abs(value - oracle) / max(abs(value), 1e-300)
    else:
        entry["partial_sum"] = "skipped (outside convergence region)"
    doc["evaluation"] = entry
    return canonical(doc)


def rh(args: list[str], tr, counters: Counter) -> str:
    """``btz rh RATIO.json --q Q --chi CHI`` on a ratio file."""
    doc = json.loads(Path(args[1]).read_text(encoding="utf-8"))
    num = IntPolynomial(int(c) for c in doc["num"])
    den = IntPolynomial(int(c) for c in doc["den"])
    with tr.span("rh.classify"):
        report = classify_ramanujan((num, den), int(_option(args, "--q")),
                                    chi=int(_option(args, "--chi")), tol=DEFAULT_TOL)
    counters["rh.roots"] += len(report.P1_roots) + len(report.P2_roots)
    return canonical({"schema_version": SCHEMA_VERSION, **report.to_json_dict()})


REPLICAS = {"verify": verify, "cone": cone, "rh": rh}
