"""Unified ``btz`` command line: generate, inspect, transform, verify.

Every subcommand prints a machine-readable JSON document on stdout (sorted
keys, fixed separators, so identical inputs give byte-identical output) and a
short human summary on stderr.  Options can also be supplied through
environment variables prefixed ``BTZ_`` (flags take precedence, then the
environment, then defaults).

Exit codes: 0 pass, 1 check failure, 2 input error, 3 resource limit.
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .complexes import (
    ComplexFormatError,
    TypedComplex,
    complex_from_json,
    euler_characteristic,
    load_complex,
    save_complex,
    simplex_counts,
    validate_complex,
)
from .cones import (
    CharacterData,
    ConeDecomposition,
    LatticeCone,
    cone_generators,
    cone_series_closed_form,
    evaluate_partial_sum,
    fundamental_domain,
)
from .generators import (
    ApartmentSpec,
    BallSpec,
    gen_apartment_torus,
    gen_building_ball,
    gen_cycle_complex,
)
from .geodesics import (
    DEFAULT_ORDER,
    ORDER_CAP,
    closed_paths,
    primitive_counts,
    primitive_product,
    torus_trace_counts,
)
from .operators import build_chamber_operator, build_edge_operator
from .polynomials import (
    IntPolynomial,
    PowerSeriesPrefix,
    log_derivative_series,
    series_exp_neg_integral,
    series_inverse,
    series_product,
)
from .rh import DEFAULT_TOL, classify_ramanujan
from .zeta import ratio as zeta_ratio
from .zeta import ratio_of, zeta_chamber, zeta_edge

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_LIMIT = 3


def _emit(doc: dict) -> None:
    click.echo(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _info(message: str) -> None:
    click.echo(message, err=True)


def _die(code: int, message: str) -> None:
    _info(f"error: {message}")
    sys.exit(code)


def _read_json(path: str):
    """The JSON document in a file; an unreadable file or invalid JSON exits 2."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        _die(EXIT_INPUT_ERROR, f"no such file: {path}")
    except OSError as exc:
        _die(EXIT_INPUT_ERROR, f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _die(EXIT_INPUT_ERROR,
             f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    except json.JSONDecodeError as exc:
        _die(EXIT_INPUT_ERROR,
             f"cannot parse {path}: not valid JSON: {exc.msg} (at line {exc.lineno})")


def _load(path: str, validate: bool = True) -> TypedComplex:
    """Parse a complex file and, unless told not to, check its invariants."""
    return _complex_from(path, _read_json(path), validate)


def _complex_from(path: str, doc, validate: bool = True) -> TypedComplex:
    try:
        cx = complex_from_json(doc)
    except ComplexFormatError as exc:
        _die(EXIT_INPUT_ERROR, f"cannot parse {path}: {exc}")
    if validate:
        report = validate_complex(cx)
        if not report.ok:
            _die(EXIT_INPUT_ERROR, f"invalid complex {path}: {'; '.join(report.violations)}")
    return cx


def _poly_strings(p: IntPolynomial | PowerSeriesPrefix) -> list[str]:
    return [str(c) for c in p.coeffs]


class _BtzGroup(click.Group):
    """Every subcommand runs in ``invoke``, where a library ValueError or
    ZeroDivisionError exits 2; an ArithmeticError marks a defect and surfaces."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, ZeroDivisionError) as exc:
            _die(EXIT_INPUT_ERROR, str(exc))


@click.group(cls=_BtzGroup, context_settings={"auto_envvar_prefix": "BTZ"})
@click.version_option(__version__)
def main() -> None:
    """Zeta functions of type-colored 2-dimensional simplicial complexes.

    Subcommand options may also be set through BTZ_<COMMAND>_<OPTION>
    environment variables; explicit flags win over the environment.
    """


# ---------------------------------------------------------------------------
# validate / info
# ---------------------------------------------------------------------------


@main.command()
@click.argument("file", type=click.Path())
def validate(file: str) -> None:
    """Check all structural invariants of a complex file."""
    cx = _load(file, validate=False)
    report = validate_complex(cx)
    _emit({"schema_version": SCHEMA_VERSION, "ok": report.ok,
           "violations": list(report.violations)})
    if not report.ok:
        _info(f"{file}: {len(report.violations)} violation(s)")
        sys.exit(EXIT_CHECK_FAILURE)
    _info(f"{file}: ok")


@main.command()
@click.argument("file", type=click.Path())
def info(file: str) -> None:
    """Simplex counts and Euler characteristic."""
    cx = _load(file)
    counts = simplex_counts(cx)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "N0": counts.N0, "N1": counts.N1, "N2": counts.N2,
        "chi": euler_characteristic(cx),
        "q": cx.q,
        "boundary_vertices": len(cx.boundary),
    })
    _info(f"{file}: N=({counts.N0},{counts.N1},{counts.N2}), "
          f"chi={euler_characteristic(cx)}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@main.group()
def gen() -> None:
    """Generate test complexes (with a .geom geometry sidecar)."""


def _cannot_write(path: str, exc: OSError) -> None:
    _die(EXIT_INPUT_ERROR, f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def _write_generated(cx: TypedComplex, geometry: dict | None, out: str) -> None:
    try:
        save_complex(cx, out)
        if geometry is not None:
            sidecar = str(Path(out).with_suffix(".geom"))
            with open(sidecar, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(geometry, sort_keys=True, separators=(",", ":")) + "\n")
    except OSError as exc:
        _cannot_write(out, exc)
    counts = simplex_counts(cx)
    _info(f"wrote {out}: N=({counts.N0},{counts.N1},{counts.N2})")


@gen.command()
@click.option("--basis", nargs=4, type=int, required=True,
              metavar="A B C D", help="row-major 2x2 matrix [[A,B],[C,D]]; "
              "its columns span the quotient translation lattice")
@click.option("-o", "--output", "out", required=True, type=click.Path())
def torus(basis: tuple[int, int, int, int], out: str) -> None:
    """Apartment torus quotient of the triangular tiling."""
    cx, geometry = gen_apartment_torus(ApartmentSpec((basis[:2], basis[2:])), with_geometry=True)
    _write_generated(cx, geometry, out)


@gen.command()
@click.option("--q", type=int, required=True, help="residue cardinality (prime power)")
@click.option("--radius", type=int, required=True)
@click.option("--center-type", type=click.IntRange(0, 2), default=0, show_default=True)
@click.option("-o", "--output", "out", required=True, type=click.Path())
def ball(q: int, radius: int, center_type: int, out: str) -> None:
    """Building ball with boundary marked."""
    cx, geometry = gen_building_ball(
        BallSpec(q=q, radius=radius, center_type=center_type), with_geometry=True)
    _write_generated(cx, geometry, out)


@gen.command()
@click.option("--n", type=int, required=True, help="cycle length (positive multiple of 3)")
@click.option("-o", "--output", "out", required=True, type=click.Path())
def cycle(n: int, out: str) -> None:
    """Typed n-cycle carrying a single closed positive geodesic."""
    _write_generated(gen_cycle_complex(n), {"version": 1, "kind": "cycle", "n": n}, out)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@main.group()
def op() -> None:
    """Build transfer operators as sparse integer matrices."""


def _op_command(file: str, out: str | None, builder, label: str) -> None:
    matrix = builder(_load(file))
    doc = matrix.to_json_dict()
    doc["schema_version"] = SCHEMA_VERSION
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        try:
            Path(out).write_text(payload, encoding="utf-8")
        except OSError as exc:
            _cannot_write(out, exc)
    else:
        click.echo(payload, nl=False)
    _info(f"{label} operator: dim={matrix.dim}, nonzeros={len(matrix.entries)}")


@op.command()
@click.argument("file", type=click.Path())
@click.option("-o", "--output", "out", type=click.Path())
def edges(file: str, out: str | None) -> None:
    """Positive-edge transfer operator."""
    _op_command(file, out, build_edge_operator, "edge")


@op.command()
@click.argument("file", type=click.Path())
@click.option("-o", "--output", "out", type=click.Path())
def chambers(file: str, out: str | None) -> None:
    """Pointed-chamber transfer operator."""
    _op_command(file, out, build_chamber_operator, "chamber")


# ---------------------------------------------------------------------------
# zeta / count
# ---------------------------------------------------------------------------


@main.command("zeta")
@click.argument("file", type=click.Path())
@click.option("--order", type=click.IntRange(min=0), default=DEFAULT_ORDER,
              show_default=True, help="truncation order for the log-derivative series")
@click.option("--which", type=click.Choice(["edge", "chamber", "ratio"]),
              default=None, help="restrict the output to one piece")
@click.option("--sign", type=click.Choice(["neg", "pos"]), default="neg",
              show_default=True, help="sign convention: chamber zeta at -u or +u")
def zeta_cmd(file: str, order: int, which: str | None, sign: str) -> None:
    """Zeta polynomials, their ratio, and the log-derivative series."""
    cx = _load(file)
    z1 = zeta_edge(cx)
    z2 = zeta_chamber(cx)
    rat = ratio_of(z1, z2, negate_u=(sign == "neg"))
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if which in (None, "edge"):
        doc["Z1"] = _poly_strings(z1)
    if which in (None, "chamber"):
        doc["Z2"] = _poly_strings(z2)
    if which in (None, "ratio"):
        doc["ratio"] = {"num": _poly_strings(rat.num), "den": _poly_strings(rat.den)}
    target = {None: rat, "ratio": rat, "edge": z1, "chamber": z2}[which]
    doc["log_deriv"] = _poly_strings(log_derivative_series(target, order))
    _emit(doc)
    _info(f"deg Z1 = {z1.degree}, deg Z2 = {z2.degree}")


@main.command()
@click.argument("file", type=click.Path())
@click.option("--max", "max_length", type=click.IntRange(min=1), default=DEFAULT_ORDER,
              show_default=True)
@click.option("--kind", type=click.Choice(["edge", "gallery"]), default="edge",
              show_default=True)
@click.option("--allow-large-order", is_flag=True,
              help=f"override the order cap of {ORDER_CAP}")
def count(file: str, max_length: int, kind: str, allow_large_order: bool) -> None:
    """Brute-force closed-path counts and primitive class decomposition."""
    cx = _load(file)
    if max_length > ORDER_CAP and not allow_large_order:
        _die(EXIT_RESOURCE_LIMIT,
             f"order {max_length} beyond cap {ORDER_CAP}; use --allow-large-order")
    n_counts, classes = closed_paths(cx, max_length, kind, allow_large=allow_large_order)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "N": n_counts,
        "P": primitive_counts(classes, max_length),
        "classes": [
            {"len": g.length, "prim_len": g.primitive_length, "power": g.power}
            for g in classes
        ],
    })
    _info(f"{len(classes)} classes up to length {max_length}")


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def _parse_vectors(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in part.split(",")) for part in text.split(";"))


def _parse_character(text: str, rank: int) -> CharacterData:
    try:
        multipliers = tuple(Fraction(x) for x in text.split(","))
    except ZeroDivisionError:
        raise ValueError(f"--char has a zero denominator: {text!r}") from None
    if len(multipliers) != rank:
        raise ValueError(f"--char has {len(multipliers)} multipliers "
                         f"for a cone of rank {rank}")
    return CharacterData(multipliers)


@main.command()
@click.option("--functionals", required=True,
              help="semicolon-separated integer covectors, e.g. '1,0;-1,2'")
@click.option("--lattice", default=None,
              help="semicolon-separated basis vectors of the sublattice "
              "(default: standard basis)")
@click.option("--char", "char_text", default=None,
              help="comma-separated rational multipliers, e.g. '1/2,1'")
@click.option("--eval", "eval_text", default=None,
              help="comma-separated evaluation point, e.g. '0.3,0.3'")
@click.option("--oracle-bound", type=click.IntRange(min=1), default=60, show_default=True)
def cone(functionals: str, lattice: str | None, char_text: str | None,
         eval_text: str | None, oracle_bound: int) -> None:
    """Sharp-cone lattice decomposition and the closed-form point series."""
    funcs = _parse_vectors(functionals)
    basis_vectors = _parse_vectors(lattice) if lattice else None
    r = len(funcs)
    basis_matrix = None
    if basis_vectors is not None:
        if len(basis_vectors) != r or any(len(v) != r for v in basis_vectors):
            raise ValueError("lattice basis must consist of r vectors of length r")
        basis_matrix = tuple(
            tuple(basis_vectors[j][i] for j in range(r)) for i in range(r))
    lc = LatticeCone(funcs, basis_matrix)
    character = _parse_character(char_text, r) if char_text \
        else CharacterData.trivial(r)
    point = tuple(float(x) for x in eval_text.split(",")) if eval_text else None
    if point is not None and len(point) != r:
        raise ValueError("evaluation point has wrong dimension")
    if point is not None and not all(map(math.isfinite, point)):
        raise ValueError(f"--eval coordinates must be finite, got {eval_text!r}")
    gens = cone_generators(lc)
    fset = fundamental_domain(lc, gens)
    deco = ConeDecomposition(generators=gens, fundamental_set=fset)
    closed = cone_series_closed_form(lc, deco, character)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rank": lc.rank,
        "generators": gens,
        "fundamental_set": fset,
        "closed_form": closed.to_json_dict(),
    }
    if point is not None:
        try:
            converges = closed.converges_at(point)
            value = closed.evaluate(point)
            value = float(value) if isinstance(value, Fraction) else complex(value).real
        except OverflowError:
            value = math.inf  # refused below, like a value that overflows to inf
        if not math.isfinite(value):
            _die(EXIT_INPUT_ERROR, f"the closed form overflows a float at --eval {eval_text!r}")
        entry: dict = {"point": list(point), "closed_form_value": value,
                       "converges": converges}
        if converges:
            oracle = evaluate_partial_sum(lc, character, point, oracle_bound)
            oracle = float(oracle) if not isinstance(oracle, complex) else oracle.real
            entry["partial_sum"] = oracle
            entry["relative_error"] = abs(value - oracle) / max(abs(value), 1e-300)
        else:
            entry["partial_sum"] = "skipped (outside convergence region)"
        doc["evaluation"] = entry
    _emit(doc)
    _info(f"rank {lc.rank}: |F| = {len(fset)}")


# ---------------------------------------------------------------------------
# rh classification
# ---------------------------------------------------------------------------


def _ratio_from_json(doc) -> tuple[IntPolynomial, IntPolynomial]:
    if isinstance(doc, dict) and "ratio" in doc:
        doc = doc["ratio"]
    num, den = (doc.get(k) if isinstance(doc, dict) else None for k in ("num", "den"))
    if not (isinstance(num, list) and isinstance(den, list)):
        raise ComplexFormatError("ratio JSON needs 'num' and 'den' arrays", "ratio")
    if not all(type(c) in (int, str) for c in num + den):
        raise ComplexFormatError("ratio coefficients must be integers or integer strings",
                                 "ratio")
    num, den = IntPolynomial(map(int, num)), IntPolynomial(map(int, den))
    if num.is_zero() or den.is_zero():
        raise ComplexFormatError("ratio numerator and denominator must be nonzero", "ratio")
    return num, den


@main.command()
@click.argument("file", type=click.Path())
@click.option("--q", "q_flag", type=int, default=None,
              help="residue cardinality (overrides the complex file tag)")
@click.option("--chi", type=int, default=None,
              help="Euler characteristic (derived from a complex file if absent)")
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True)
@click.option("--sign", type=click.Choice(["neg", "pos"]), default="neg",
              show_default=True)
def rh(file: str, q_flag: int | None, chi: int | None, tol: float, sign: str) -> None:
    """Classify a complex file or a ratio JSON against the critical modulus."""
    if not (math.isfinite(tol) and tol > 0):
        _die(EXIT_INPUT_ERROR, f"--tol must be positive and finite, got {tol}")
    doc = _read_json(file)
    counts = None
    if isinstance(doc, dict) and "vertices" in doc:
        cx = _complex_from(file, doc)
        rat = zeta_ratio(cx, negate_u=(sign == "neg"))
        f = (rat.num, rat.den)
        q = q_flag if q_flag is not None else cx.q
        chi = chi if chi is not None else euler_characteristic(cx)
        sc = simplex_counts(cx)
        counts = (sc.N0, sc.N1, sc.N2)
    else:
        f = _ratio_from_json(doc)
        q = q_flag
    report = classify_ramanujan(f, q, chi=chi, tol=tol, counts=counts)
    _emit({"schema_version": SCHEMA_VERSION, **report.to_json_dict()})
    _info(f"verdict: {report.verdict}")


# ---------------------------------------------------------------------------
# verify pipeline
# ---------------------------------------------------------------------------


def _sidecar_torus_basis(geom_path: Path) -> list | None:
    """The nonsingular 2x2 integer basis of a torus sidecar, or None if it has none."""
    try:
        geom = json.loads(geom_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(geom, dict) or geom.get("kind") != "torus":
        return None
    basis = geom.get("basis")
    if not (isinstance(basis, list) and len(basis) == 2 and all(
            isinstance(row, list) and len(row) == 2 and all(type(x) is int for x in row)
            for row in basis)):
        return None
    (a, b), (c, d) = basis
    return basis if a * d - b * c else None


def run_verify(path: str, max_order: int = DEFAULT_ORDER,
               allow_large_order: bool = False,
               with_timings: bool = True) -> tuple[dict, int]:
    """Full pipeline on one complex file; returns (report, exit code).

    Mandatory exact checks: the log-derivative coefficients of both zeta
    polynomials must equal the brute-force closed-path counts, the counts
    must satisfy the primitive power-structure identity, and the exponential
    of the negated integrated length series must reproduce the primitive
    product.  Sign-convention comparisons and the Ramanujan classification
    are recorded but never affect the exit code.

    ``report["timings"]`` lists ``[stage, seconds]`` pairs in pipeline order,
    each with that stage's own duration.
    """
    report: dict = {"schema_version": SCHEMA_VERSION, "input": Path(path).name}
    timings: list[list] = []
    t_last = time.perf_counter()

    def clock(stage: str) -> None:
        nonlocal t_last
        now = time.perf_counter()
        timings.append([stage, round(now - t_last, 6)])
        t_last = now

    try:
        cx = load_complex(path)
    except (OSError, UnicodeDecodeError, ComplexFormatError) as exc:
        report["error"] = {"stage": "load", "message": str(exc)}
        return report, EXIT_INPUT_ERROR
    clock("load")

    vr = validate_complex(cx)
    if not vr.ok:
        report["error"] = {"stage": "validate", "message": "; ".join(vr.violations)}
        return report, EXIT_INPUT_ERROR
    sc = simplex_counts(cx)
    chi = euler_characteristic(cx)
    report["complex"] = {"N0": sc.N0, "N1": sc.N1, "N2": sc.N2,
                         "chi": chi, "q": cx.q}
    clock("validate")

    if max_order > ORDER_CAP and not allow_large_order:
        report["error"] = {"stage": "order",
                           "message": f"order {max_order} beyond cap {ORDER_CAP}"}
        return report, EXIT_RESOURCE_LIMIT

    try:
        z1 = zeta_edge(cx)
        z2 = zeta_chamber(cx)
    except ValueError as exc:
        report["error"] = {"stage": "operators", "message": str(exc)}
        return report, EXIT_INPUT_ERROR
    rat = ratio_of(z1, z2, negate_u=True)
    report["zeta"] = {
        "Z1": _poly_strings(z1),
        "Z2": _poly_strings(z2),
        "ratio": {"num": _poly_strings(rat.num), "den": _poly_strings(rat.den)},
    }
    clock("zeta")

    checks: dict[str, dict] = {}
    recorded: dict = {}
    mandatory_pass = True

    series_by_kind = {}
    for kind, poly in (("edge", z1), ("gallery", z2)):
        log_deriv = log_derivative_series(poly, max_order)
        brute, classes = closed_paths(cx, max_order, kind, allow_large_order)
        prims = primitive_counts(classes, max_order)
        duality_ok = all(log_deriv[m] == brute[m] for m in range(1, max_order + 1))
        structure_ok = all(
            brute[m] == sum(d * prims[d] for d in range(1, m + 1) if m % d == 0)
            for m in range(1, max_order + 1))
        exp_side = series_exp_neg_integral(brute, max_order)
        prim_prod = primitive_product(classes, max_order)
        exp_ok = exp_side == prim_prod
        checks[f"duality_{kind}"] = {"passed": duality_ok, "order": max_order}
        checks[f"primitive_structure_{kind}"] = {"passed": structure_ok}
        checks[f"exp_identity_{kind}"] = {"passed": exp_ok}
        mandatory_pass &= duality_ok and structure_ok and exp_ok
        series_by_kind[kind] = {"N": brute, "P": prims, "product": prim_prod}
    report["counts"] = {
        kind: {"N": data["N"], "P": data["P"]}
        for kind, data in series_by_kind.items()
    }
    clock("counts")

    # primitive edge product against both sign conventions of the ratio
    prim_prod = series_by_kind["edge"]["product"]
    z1_sq = z1.subst_u_power(2)
    z1_sq_prefix = PowerSeriesPrefix([z1_sq[m] for m in range(max_order + 1)], max_order)
    for label, sign in (("product_vs_ratio_neg_u", True),
                        ("product_vs_ratio_pos_u", False)):
        num = z2.subst_neg_u() if sign else z2
        # series of Z1(u^2)/Z2(+-u) up to max_order
        quotient = series_product(series_inverse(num, max_order), z1_sq_prefix)
        recorded[label] = bool(
            all(quotient[m] == prim_prod[m] for m in range(max_order + 1)))
    clock("identity")

    geom_path = Path(path).with_suffix(".geom")
    if geom_path.exists():
        basis = _sidecar_torus_basis(geom_path)
        if basis is not None:
            geo_checks = {}
            for kind in ("edge", "gallery"):
                expected = torus_trace_counts(basis, max_order, kind)
                geo_checks[kind] = series_by_kind[kind]["N"] == expected
            checks["torus_geometric_oracle"] = {
                "passed": all(geo_checks.values()), "detail": geo_checks}
            mandatory_pass &= all(geo_checks.values())
        else:
            recorded["torus_geometric_oracle"] = "skipped (sidecar is not torus geometry)"
    else:
        recorded["torus_geometric_oracle"] = "skipped (no geometry sidecar)"
    clock("geometry")

    rh_report = classify_ramanujan((rat.num, rat.den), cx.q, chi=chi,
                                   counts=(sc.N0, sc.N1, sc.N2))
    report["rh"] = rh_report.to_json_dict()
    clock("rh")

    report["checks"] = checks
    report["recorded"] = recorded
    report["passed"] = mandatory_pass
    if with_timings:
        report["timings"] = timings
    return report, EXIT_PASS if mandatory_pass else EXIT_CHECK_FAILURE


@main.command()
@click.argument("file", type=click.Path())
@click.option("--max-order", type=click.IntRange(min=1), default=DEFAULT_ORDER,
              show_default=True)
@click.option("--allow-large-order", is_flag=True)
@click.option("--no-timings", is_flag=True, help="omit timings for byte-identical reports")
def verify(file: str, max_order: int, allow_large_order: bool, no_timings: bool) -> None:
    """Run the whole pipeline and check the duality identities exactly."""
    report, code = run_verify(file, max_order, allow_large_order,
                              with_timings=not no_timings)
    _emit(report)
    if code == EXIT_PASS:
        _info("all mandatory checks passed")
    else:
        _info(f"verification failed (exit {code})")
    sys.exit(code)


if __name__ == "__main__":
    main()
