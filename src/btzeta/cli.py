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
import numpy as np

from . import __version__
from .complexes import (
    ComplexFormatError,
    TypedComplex,
    complex_from_json,
    dumps_complex,
    euler_characteristic,
    simplex_counts,
    validate_complex,
)
from .cones import (
    CharacterData,
    LatticeCone,
    _closed_form,
    _fundamental_points,
    _rows_json,
    cone_generators,
    evaluate_partial_sum,
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
    _divisor_sums,
    assemble_S_series,
    closed_paths,
    enumerate_primitive_classes,
    primitive_counts,
    torus_trace_counts,
)
from .operators import build_chamber_operator, build_edge_operator
from .polynomials import IntPolynomial, PowerSeriesPrefix, log_derivative_series
from .rh import DEFAULT_TOL, classify_ramanujan
from .zeta import ratio as zeta_ratio
from .zeta import ratio_of, zeta_chamber, zeta_edge

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_LIMIT = 3

# enumeration cost grows exponentially with the order; ``count`` and ``verify``
# refuse orders above this with exit 3 unless --allow-large-order is given
ORDER_CAP = 20


def _canonical(doc) -> str:
    """A JSON document with sorted keys and fixed separators, newline-terminated."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(doc: dict) -> None:
    # color=True: the canonical JSON holds no escape codes, so click need not
    # scan it for them when stdout is not a terminal
    click.echo(_canonical(doc), nl=False, color=True)


def _info(message: str) -> None:
    click.echo(message, err=True)


def _read_json(path: str):
    """The JSON document in a file; an unreadable file or invalid JSON raises ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse {path}: not valid JSON: {exc.msg} (at line {exc.lineno})")


def _write(path: str, text: str) -> None:
    """Write a text file; an OSError raises ValueError naming the file."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


def _load(path: str, validate: bool = True) -> TypedComplex:
    """Parse a complex file and, unless told not to, check its invariants."""
    return _complex_from(path, _read_json(path), validate)


def _complex_from(path: str, doc, validate: bool = True) -> TypedComplex:
    try:
        cx = complex_from_json(doc)
    except ComplexFormatError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from None
    if validate:
        report = validate_complex(cx)
        if not report.ok:
            raise ValueError(f"invalid complex {path}: {'; '.join(report.violations)}")
    return cx


def _poly_strings(p: IntPolynomial | PowerSeriesPrefix) -> list[str]:
    return [str(c) for c in p.coeffs]


class _BtzGroup(click.Group):
    """Every subcommand runs in ``invoke``, the one place where a ValueError or
    ZeroDivisionError, the library's or a command's own, exits 2; an
    ArithmeticError marks a defect and surfaces."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, ZeroDivisionError) as exc:
            _info(f"error: {exc}")
            sys.exit(EXIT_INPUT_ERROR)


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


def _write_generated(cx: TypedComplex, geometry: dict, out: str) -> None:
    _write(out, dumps_complex(cx))
    _write(str(Path(out).with_suffix(".geom")), _canonical(geometry))
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
    if out:
        _write(out, _canonical(doc))
    else:
        _emit(doc)
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
def zeta_cmd(file: str, order: int, which: str | None) -> None:
    """Zeta polynomials, their ratio, and the log-derivative series."""
    cx = _load(file)
    z1 = zeta_edge(cx)
    z2 = zeta_chamber(cx)
    rat = ratio_of(z1, z2)
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
        _info(f"error: order {max_length} beyond cap {ORDER_CAP}; use --allow-large-order")
        sys.exit(EXIT_RESOURCE_LIMIT)
    classes = enumerate_primitive_classes(cx, max_length, kind)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "N": assemble_S_series(classes, max_length).coeffs,
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


def _parse_vectors(text: str, option: str) -> tuple[tuple[int, ...], ...]:
    try:
        return tuple(tuple(int(x) for x in part.split(",")) for part in text.split(";"))
    except ValueError:
        raise ValueError(f"{option} takes semicolon-separated integer vectors such as "
                         f"'1,0;-1,2', got {text!r}") from None


def _parse_character(text: str) -> CharacterData:
    try:
        multipliers = [Fraction(x) for x in text.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"--char has a zero denominator: {text!r}") from None
    except ValueError:
        raise ValueError("--char takes comma-separated rational multipliers such as "
                         f"'1/2,1', got {text!r}") from None
    return CharacterData(multipliers)


def _parse_point(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError("--eval takes comma-separated numbers such as '0.3,0.3', "
                         f"got {text!r}") from None


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
    funcs = _parse_vectors(functionals, "--functionals")
    basis_vectors = _parse_vectors(lattice, "--lattice") if lattice else None
    r = len(funcs)
    basis_matrix = None
    if basis_vectors is not None:
        if len(basis_vectors) != r or any(len(v) != r for v in basis_vectors):
            raise ValueError("lattice basis must consist of r vectors of length r")
        basis_matrix = tuple(
            tuple(basis_vectors[j][i] for j in range(r)) for i in range(r))
    lc = LatticeCone(funcs, basis_matrix)
    character = _parse_character(char_text) if char_text else CharacterData.trivial(r)
    point = _parse_point(eval_text) if eval_text else None
    if point is not None and not all(map(math.isfinite, point)):
        raise ValueError(f"--eval coordinates must be finite, got {eval_text!r}")
    gens = cone_generators(lc)
    points, exponents = _fundamental_points(lc, gens)
    closed = _closed_form(lc, gens, points, exponents, character)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rank": lc.rank,
        "generators": gens,
        "fundamental_set": None,  # both spliced in as text below
        "closed_form": None,
    }
    if point is not None:
        try:
            converges = closed.converges_at(point)
            value = closed.evaluate(point)
            value = float(value) if isinstance(value, Fraction) else complex(value).real
        except OverflowError:
            value = math.inf  # refused below, like a value that overflows to inf
        if not math.isfinite(value):
            raise ValueError(f"the closed form overflows a float at --eval {eval_text!r}")
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
    head, rest = _canonical(doc).split('"closed_form":null', 1)
    middle, tail = rest.split('"fundamental_set":null', 1)
    fset = "[%s]" % _rows_json(points.T, ["["], np.zeros(points.shape[1], np.intp), "]")
    text = f'{head}"closed_form":{closed.to_json()}{middle}"fundamental_set":{fset}{tail}'
    size = points.shape[1]
    del points, exponents, closed, fset  # freed before click copies the text out
    click.echo(text, nl=False, color=True)  # no escape codes, as in _emit
    _info(f"rank {lc.rank}: |F| = {size}")


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
    return IntPolynomial(map(int, num)), IntPolynomial(map(int, den))


@main.command()
@click.argument("file", type=click.Path())
@click.option("--q", "q_flag", type=int, default=None,
              help="residue cardinality (overrides the complex file tag)")
@click.option("--chi", type=int, default=None,
              help="Euler characteristic (derived from a complex file if absent)")
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True)
def rh(file: str, q_flag: int | None, chi: int | None, tol: float) -> None:
    """Classify a complex file or a ratio JSON against the critical modulus."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {tol}")
    doc = _read_json(file)
    counts = None
    if isinstance(doc, dict) and "vertices" in doc:
        cx = _complex_from(file, doc)
        rat = zeta_ratio(cx)
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


def _sidecar_torus_basis(geom_path: Path) -> tuple | None:
    """The nonsingular 2x2 integer basis of a torus sidecar, or None if it has none."""
    try:
        geom = _read_json(geom_path)
        if not isinstance(geom, dict) or geom.get("kind") != "torus":
            return None
        spec = ApartmentSpec(geom.get("basis"))
    except ValueError:  # GenerationError included
        return None
    return spec.basis if spec.det else None


def _product_matches_ratio(D: list[int], L1: list[int], L2: list[int], sign: int) -> bool:
    """Whether Z2(sign u) prod_d (1 - u^d)^P[d] = Z1(u^2) up to u^M, M = len(D) - 1.

    Z1, Z2 and the product have constant term 1, so they agree up to u^M
    exactly when their log-derivatives L1, L2 and D do: D[m] = [m even]
    2 L1[m/2] - sign^m L2[m] for 1 <= m <= M.  D is the divisor sums of P
    (``geodesics._divisor_sums``), the log-derivative of the product, so no
    polynomial is multiplied.
    """
    return all(D[m] == (0 if m % 2 else 2 * L1[m // 2]) - sign ** m * L2[m]
               for m in range(1, len(D)))


def run_verify(path: str, max_order: int = DEFAULT_ORDER,
               allow_large_order: bool = False,
               with_timings: bool = True) -> tuple[dict, int]:
    """Full pipeline on one complex file; returns (report, exit code).

    Every identity is an equality of integer sequences computed once per
    kind: the zeta log-derivative L, the counts (N, P) from ``closed_paths``
    and the divisor sums D of P (``geodesics._divisor_sums``, which the
    torus geometric oracle also reads).  Mandatory exact checks: L = N (duality),
    the primitive power structure N = D, and the primitive product equal to
    exp(-sum_m N_m u^m / m).  Both sides of the last have constant term 1
    and the product has log-derivative D, so it is the same equation N = D,
    read from one comparison into both report keys.  The edge product
    against Z1(u^2)/Z2(-+u) (``_product_matches_ratio``) and the Ramanujan
    classification are recorded but never affect the exit code.

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
        cx = complex_from_json(_read_json(path))
    except ValueError as exc:
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

    log_derivs, counts, divisor_sums = {}, {}, {}
    for kind, poly in (("edge", z1), ("gallery", z2)):
        log_deriv = list(log_derivative_series(poly, max_order).coeffs)
        brute, prims = closed_paths(cx, max_order, kind)
        dsums = _divisor_sums(prims)
        duality_ok = log_deriv[1:] == brute[1:]
        structure_ok = brute[1:] == dsums[1:]
        checks[f"duality_{kind}"] = {"passed": duality_ok, "order": max_order}
        checks[f"primitive_structure_{kind}"] = {"passed": structure_ok}
        checks[f"exp_identity_{kind}"] = {"passed": structure_ok}
        mandatory_pass &= duality_ok and structure_ok
        log_derivs[kind], divisor_sums[kind] = log_deriv, dsums
        counts[kind] = {"N": brute, "P": prims}
    report["counts"] = counts
    clock("counts")

    for label, sign in (("product_vs_ratio_neg_u", -1), ("product_vs_ratio_pos_u", 1)):
        recorded[label] = _product_matches_ratio(
            divisor_sums["edge"], log_derivs["edge"], log_derivs["gallery"], sign)
    clock("identity")

    geom_path = Path(path).with_suffix(".geom")
    if geom_path.exists():
        basis = _sidecar_torus_basis(geom_path)
        if basis is not None:
            geo_checks = {}
            for kind in ("edge", "gallery"):
                expected = torus_trace_counts(basis, max_order, kind)
                geo_checks[kind] = counts[kind]["N"] == expected
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
