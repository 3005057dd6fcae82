from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from btzeta import complexes, geodesics, operators, polynomials, zeta
from btzeta.cli import _divisor_sums, _product_matches_ratio, main, run_verify
from btzeta.complexes import save_complex
from btzeta.cones import ConeClosedForm
from btzeta.generators import ApartmentSpec, BallSpec, gen_apartment_torus, gen_building_ball
from btzeta.geodesics import product_of_primitive_counts
from btzeta.polynomials import IntPolynomial, log_derivative_series, series_inverse
from conftest import closed_typed_complex


# the branching complex of ``BRANCHING_DIGESTS`` and ``OP_DIGESTS``
B1 = closed_typed_complex(random.Random(1), (4, 4, 4))


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def write_torus(runner, path="torus.json"):
    result = invoke(runner, ["gen", "torus", "--basis", "3", "0", "0", "3", "-o", path])
    assert result.exit_code == 0
    return path


class TestGenerate:
    def test_torus_with_sidecar(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            doc = json.load(open("torus.json"))
            assert doc["version"] == 1 and len(doc["vertices"]) == 9
            geom = json.load(open("torus.geom"))
            assert geom["kind"] == "torus"

    def test_ball(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = invoke(runner, ["gen", "ball", "--q", "2", "--radius", "1",
                                     "-o", "ball.json"])
            assert result.exit_code == 0
            doc = json.load(open("ball.json"))
            assert len(doc["vertices"]) == 15 and doc["q"] == 2

    def test_cycle_error_exit_code(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, ["gen", "cycle", "--n", "4", "-o", "c.json"])
            assert result.exit_code == 2

    def test_degenerate_torus_exit_code(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(
                main, ["gen", "torus", "--basis", "1", "2", "2", "4", "-o", "t.json"])
            assert result.exit_code == 2

    @pytest.mark.parametrize("args, message", [
        (["torus", "--basis", "3", "0", "0", "99999999999999999999"],
         "torus of 299999999999999999997 vertices beyond bound 100000"),
        (["cycle", "--n", "300000000000000000000"],
         "cycle of 300000000000000000000 vertices beyond bound 100000"),
    ], ids=["torus", "cycle"])
    def test_beyond_vertex_bound_exit_two(self, runner, tmp_path, args, message):
        # listing the vertices of such a torus first ran until killed
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, ["gen", *args, "-o", "g.json"])
            assert result.exit_code == 2
            assert result.stderr == f"error: {message}\n"
            assert not Path("g.json").exists()

    def test_deterministic_output(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner, "a.json")
            write_torus(runner, "b.json")
            assert open("a.json").read() == open("b.json").read()


    def test_ball_q_beyond_bound_exits_two_at_once(self, runner, tmp_path):
        q = 2 ** 61 - 1  # prime: factoring it by trial division would not end
        with runner.isolated_filesystem(temp_dir=tmp_path):
            start = time.perf_counter()
            result = runner.invoke(main, ["gen", "ball", "--q", str(q), "--radius", "1",
                                          "-o", "b.json"])
            elapsed = time.perf_counter() - start
            assert not Path("b.json").exists()
        assert result.exit_code == 2
        assert result.stderr == f"error: unsupported q={q}: beyond bound 223\n"
        assert elapsed < 1

class TestValidateInfo:
    def test_validate_ok(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            result = invoke(runner, ["validate", "torus.json"])
            assert result.exit_code == 0
            assert json.loads(result.stdout)["ok"] is True

    def test_validate_failure_exit_one(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            bad = {"version": 1, "vertices": [{"id": 0, "type": 0},
                                              {"id": 1, "type": 0}],
                   "edges": [[0, 1]], "chambers": []}
            json.dump(bad, open("bad.json", "w"))
            result = runner.invoke(main, ["validate", "bad.json"])
            assert result.exit_code == 1

    def test_corrupt_file_exit_two(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            open("junk.json", "w").write("{broken")
            result = runner.invoke(main, ["validate", "junk.json"])
            assert result.exit_code == 2

    def test_missing_file_exit_two(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, ["info", "absent.json"])
            assert result.exit_code == 2

    def test_info_counts(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            doc = json.loads(invoke(runner, ["info", "torus.json"]).stdout)
            assert (doc["N0"], doc["N1"], doc["N2"], doc["chi"]) == (9, 27, 18, 0)


class TestOperators:
    def test_edges_matrix_format(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            result = invoke(runner, ["op", "edges", "torus.json", "-o", "m.json"])
            assert result.exit_code == 0
            doc = json.load(open("m.json"))
            assert doc["dim"] == 27
            assert all(v == 1 for _, _, v in doc["triplets"])
            assert doc["triplets"] == sorted(doc["triplets"])

    def test_boundary_refused_exit_two(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "ball", "--q", "2", "--radius", "1", "-o", "b.json"])
            result = runner.invoke(main, ["op", "chambers", "b.json"])
            assert result.exit_code == 2

    # sha256 of ``btz op`` stdout, recorded while ``operators`` built its own
    # chambers-of-edge table per kind; the triplets pin the index order
    OP_DIGESTS = {
        ("edges", "torus.json"):
            "0f99d794094314a1bfd3e0b125ef17b53ec68ab08a18d1fd5be31d0b0ff52e5c",
        ("chambers", "torus.json"):
            "6d3168a7882a8b6702e22ca8161c6e99c87db117496b01065fea0c4df26c3be6",
        ("edges", "skew.json"):
            "bc051bf74d606ae1e03317d5b1b6e6db54863957c7a9e72cd796bec3b63eea09",
        ("chambers", "skew.json"):
            "18b92c21a7917d30e0beccd272899ff7c607ed8e03404715508a6e423470c933",
        ("edges", "c3.json"):
            "f3e07c3377369fab9328aa7b46451260d9492db4cb691840767e9abbeb1012c2",
        ("chambers", "c3.json"):
            "df65bd4c634d73142698950ecd9285c9f238cc2918061da4e923f1392406de4c",
        ("edges", "b1.json"):
            "c8a40a239807eabb13a1fb3de5487cd31e4a550a9627f011054f8ea8971378da",
        ("chambers", "b1.json"):
            "87f53a1cc800c4bc53e6b0ca88f73888e82df3411bd2d321ec300a3f2c3c8c5f",
    }

    def test_outputs_are_byte_identical_to_recorded(self, runner, tmp_path, skew_torus):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            save_complex(skew_torus, "skew.json")
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            save_complex(closed_typed_complex(random.Random(1), (4, 4, 4)), "b1.json")
            for (which, name), digest in self.OP_DIGESTS.items():
                out = invoke(runner, ["op", which, name]).stdout
                assert hashlib.sha256(out.encode()).hexdigest() == digest, (which, name)


class TestZetaCount:
    def test_zeta_document(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            doc = json.loads(invoke(runner, ["zeta", "torus.json"]).stdout)
            assert set(doc) == {"schema_version", "Z1", "Z2", "ratio", "log_deriv"}
            assert doc["Z1"][0] == "1" and doc["Z1"][3] == "-9"
            assert doc["ratio"] == {"num": ["1"], "den": ["1"]}

    def test_zeta_which_edge(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            doc = json.loads(invoke(runner, ["zeta", "torus.json",
                                             "--which", "edge"]).stdout)
            assert "Z2" not in doc and "ratio" not in doc
            assert doc["log_deriv"][3] == "27"

    @pytest.mark.parametrize("tables, message", [
        ({"_WORD_PRIMES": polynomials._WORD_PRIMES[:2]},
         "the 2 tabulated word primes below 2^22 multiply to less than 2^44"),
        ({"_DENSE_MAX_DIM": 0, "_MERSENNE_EXPONENTS": (61,)},
         "the largest tabulated Mersenne prime is 2^61 - 1"),
    ], ids=["trace-kernel", "hessenberg"])
    def test_zeta_exits_two_past_a_kernels_primes(self, runner, tmp_path, monkeypatch,
                                                   tables, message):
        # the gallery X of this branching complex needs 2^76, past two word
        # primes and past 2^61 - 1; each kernel refuses it in its own words
        for name, value in tables.items():
            monkeypatch.setattr(polynomials, name, value)
        with runner.isolated_filesystem(temp_dir=tmp_path):
            save_complex(closed_typed_complex(random.Random(1), (4, 4, 4), p_chamber=0.625),
                         "b.json")
            result = runner.invoke(main, ["zeta", "b.json"])
            assert result.exit_code == 2
            assert result.stdout == ""
            assert message in result.stderr

    def test_count_document(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            doc = json.loads(invoke(runner, ["count", "c3.json", "--max", "9"]).stdout)
            assert doc["N"] == [0, 0, 0, 3, 0, 0, 3, 0, 0, 3]
            assert doc["P"] == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
            assert doc["classes"][0] == {"len": 3, "power": 1, "prim_len": 3}

    def test_count_order_cap_exit_three(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            result = runner.invoke(main, ["count", "c3.json", "--max", "25"])
            assert result.exit_code == 3
            assert result.stdout == ""
            assert result.stderr == "error: order 25 beyond cap 20; use --allow-large-order\n"

    def test_edgeless_complex_agrees_on_every_route(self, runner, tmp_path):
        # the relation is the only gate: no edges give empty relations, 0x0
        # operators and Z1 = Z2 = 1 on every command, not a refusal on some
        zeros = [0] * 13
        with runner.isolated_filesystem(temp_dir=tmp_path):
            Path("e.json").write_text('{"version":1,"vertices":[{"id":0,"type":0}]}')
            docs = {}
            for args in (["count", "--kind", "edge"], ["count", "--kind", "gallery"],
                         ["zeta"], ["rh"], ["op", "edges"], ["op", "chambers"],
                         ["verify", "--no-timings"]):
                result = runner.invoke(main, args + ["e.json"])
                assert result.exit_code == 0, (args, result.stderr)
                docs[" ".join(args)] = json.loads(result.stdout)
        for kind in ("edge", "gallery"):
            count = docs[f"count --kind {kind}"]
            assert (count["N"], count["P"], count["classes"]) == (zeros, zeros, [])
            assert docs["verify --no-timings"]["counts"][kind] == {"N": zeros, "P": zeros}
        zeta_doc = docs["zeta"]
        assert (zeta_doc["Z1"], zeta_doc["Z2"]) == (["1"], ["1"])
        assert zeta_doc["ratio"] == {"num": ["1"], "den": ["1"]}
        assert docs["verify --no-timings"]["zeta"] == {
            key: zeta_doc[key] for key in ("Z1", "Z2", "ratio")}
        assert docs["verify --no-timings"]["passed"] is True
        assert docs["verify --no-timings"]["rh"] == {
            key: v for key, v in docs["rh"].items() if key != "schema_version"}
        for op in ("edges", "chambers"):
            assert docs[f"op {op}"] == {"dim": 0, "schema_version": 1, "triplets": []}

    @pytest.mark.parametrize("command", ["zeta", "rh"])
    def test_no_sign_option(self, runner, tmp_path, command):
        # the chamber zeta is taken at -u; the library keeps both conventions
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            result = runner.invoke(main, [command, "torus.json", "--sign", "neg"])
            assert result.exit_code == 2
            assert "No such option '--sign'" in result.stderr

    @pytest.mark.parametrize("kind, operator", [("edge", "edge"), ("gallery", "chamber")])
    def test_count_on_ball_prints_operator_message(self, runner, tmp_path, kind, operator):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "ball", "--q", "2", "--radius", "1", "-o", "b.json"])
            result = runner.invoke(main, ["count", "b.json", "--max", "9", "--kind", kind])
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)
            assert result.stderr == (
                f"error: {operator} operator is undefined on complexes with marked boundary "
                "(14 boundary vertices); operators need closed complexes\n")


class TestCone:
    def test_coordinate_cone(self, runner):
        doc = json.loads(invoke(runner, ["cone", "--functionals", "1,0;0,1"]).stdout)
        assert doc["generators"] == [[1, 0], [0, 1]]
        assert doc["fundamental_set"] == [[1, 1]]

    def test_rank_one(self, runner):
        doc = json.loads(invoke(runner, ["cone", "--functionals", "1"]).stdout)
        assert doc["generators"] == [[1]]
        assert doc["closed_form"]["terms"] == [
            {"coeff": {"num": "1", "den": "1"}, "exponents": [1]}]

    def test_evaluation_against_oracle(self, runner):
        doc = json.loads(invoke(runner, [
            "cone", "--functionals", "1,0;-1,2", "--eval", "0.3,0.3"]).stdout)
        assert doc["evaluation"]["relative_error"] < 1e-9

    def test_dimension_mismatch_exit_two(self, runner):
        result = runner.invoke(main, ["cone", "--functionals", "1,0;0,1",
                                      "--eval", "0.5"])
        assert result.exit_code == 2

    def test_dependent_functionals_exit_two(self, runner):
        result = runner.invoke(main, ["cone", "--functionals", "1,1;2,2"])
        assert result.exit_code == 2

    MALFORMED = [
        (["--char", "1/0,1"], "zero denominator"),
        # int() named neither the option nor the text it refused
        (["--functionals", ""], "--functionals takes semicolon-separated integer vectors "
         "such as '1,0;-1,2', got ''"),
        (["--lattice", "1,0;0,x"], "--lattice takes semicolon-separated integer vectors "
         "such as '1,0;-1,2', got '1,0;0,x'"),
        # Fraction() and float() named neither the option nor the whole text
        (["--eval", "x,y"], "--eval takes comma-separated numbers such as '0.3,0.3', "
         "got 'x,y'"),
        (["--eval", "0.3,x"], "--eval takes comma-separated numbers such as '0.3,0.3', "
         "got '0.3,x'"),
        (["--char", "x,1"], "--char takes comma-separated rational multipliers such as "
         "'1/2,1', got 'x,1'"),
        (["--functionals", "1,0;1,1", "--char", "1,0"], "zero multiplier"),
        (["--char", "2"], "1 multipliers for a cone of rank 2"),
        (["--char", "1,1,1"], "3 multipliers for a cone of rank 2"),
        (["--eval", "0.3,0.3", "--oracle-bound", "-5"], "Invalid value for '--oracle-bound'"),
        (["--eval", "0.3,0.3", "--oracle-bound", "0"], "Invalid value for '--oracle-bound'"),
        (["--functionals", "5000000000,1;1,5000000000"], "more than the cap"),
        (["--lattice", "3000000000,7;5,3000000001"], "more than the cap"),
        # the pole factor chi(a_1) would be 2**(10**18) as an exact Fraction
        (["--functionals", "1,0;1000000000000000000,1", "--char", "1,1/2"],
         "exceeds the exponent cap"),
        # inf overflowed in the convergence test; nan, and 1e200 through inf / inf,
        # printed NaN, which is not JSON
        (["--eval", "inf,0.3"], "--eval coordinates must be finite"),
        (["--eval", "nan,0.3"], "--eval coordinates must be finite"),
        (["--eval", "1e200,1e200"], "the closed form overflows a float"),
        (["--functionals", "1", "--char", "-1", "--eval", "-1"],
         "is a pole: the factor 1 - (-1) u_1^1 vanishes"),
        # OverflowError in the convergence test, in a float power, and in the
        # coefficient 2^2000 of F = {(1000, 1000)} converted to float
        (["--functionals", "3", "--eval", "1e300"], "the closed form overflows a float"),
        (["--functionals", "-1,-2,7;3,-1,2;0,3,-2", "--eval", "0.9,1e300,-0.5"],
         "the closed form overflows a float"),
        (["--lattice", "1000,0;0,1000", "--char", "2,2", "--eval", "0.3,0.3"],
         "the closed form overflows a float"),
        # the oracle converted the multiplier 10^400 to float
        (["--functionals", "-1", "--char", "1e400", "--eval", "0.3"],
         "the partial-sum oracle needs multipliers and exponents that fit a float"),
        # the oracle's box would hold 5000^3 points
        (["--functionals", "1,0,0;0,1,0;0,0,1", "--eval", "0.3,0.3,0.3",
          "--oracle-bound", "5000"], "more than the cap of 1000000"),
    ]

    @pytest.mark.parametrize("args, message", MALFORMED,
                             ids=[" ".join(args) for args, _ in MALFORMED])
    def test_malformed_input_exit_two(self, runner, args, message):
        defaults = ["--functionals", "1,0;0,1"] if "--functionals" not in args else []
        result = runner.invoke(main, ["cone", *defaults, *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.stderr

    # the terms (1e-301)^v (1e300)^v are 0.1^v, but u^w underflowed to 0 while m^v
    # overflowed to inf: their NaN sum was printed, which is not JSON, then refused
    SPILLED = [
        (["--functionals", "1", "--char", "1e300", "--eval", "1e-301", "--oracle-bound", "5"],
         0.11111),
        (["--functionals", "1", "--char", "1e200", "--eval", "1e-201", "--oracle-bound", "2"],
         0.11),
    ]

    @pytest.mark.parametrize("args, partial_sum", SPILLED, ids=["1e300", "1e200"])
    def test_partial_sum_of_finite_terms(self, runner, args, partial_sum):
        doc = json.loads(invoke(runner, ["cone", *args]).stdout)
        assert doc["evaluation"]["partial_sum"] == pytest.approx(partial_sum, rel=1e-12)

    def test_large_lattice_entries(self, runner):
        # this basis spans Z^2; scanning its lattice-coordinate box needed 22 GiB
        doc = json.loads(invoke(runner, [
            "cone", "--functionals", "1,0;0,1", "--lattice", "3000000000,1;1,0",
            "--eval", "0.3,0.3"]).stdout)
        assert doc["fundamental_set"] == [[1, 1]]
        assert doc["evaluation"]["relative_error"] < 1e-9

    BEYOND_INT64 = [
        # lattice coordinates of the oracle's points pass 2^63 although the
        # points themselves are small; int64 wrapped them to a partial sum of inf
        ["--functionals", "2,1;1,3", "--lattice", "1000000000000000001,1000000000000000000;"
         "999999999999999999,999999999999999998", "--char", "1/2,1"],
        # the lattice basis itself does not fit in int64
        ["--functionals", "1,0;0,1", "--lattice", "10000000000000000000,1;1,0"],
        # the points pass 2^63; a float exponent would lose their parity
        ["--functionals", "1,0;1000000000000000000,1", "--char", "1,-1"],
    ]

    @pytest.mark.parametrize("args", BEYOND_INT64, ids=range(len(BEYOND_INT64)))
    def test_oracle_beyond_int64(self, runner, args):
        doc = json.loads(invoke(runner, ["cone", *args, "--eval", "0.3,0.3"]).stdout)
        assert doc["evaluation"]["relative_error"] < 1e-9

    # sha256 of ``btz cone`` stdout, recorded with the closed form built one
    # point at a time and the partial sums filtered from the whole box
    CONE_DIGESTS = {
        ("--functionals", "3", "--eval", "0.4"):
            "ce9baa63d6951fc25adbc07f92f4e679469b591891de0a7a796a12d8a69d6997",
        ("--functionals", "1,0;-1,2", "--eval", "0.3,0.3"):
            "eb1be05a57e08cdecc75bbba23296c3d4d3c3bdfabaf662dd0b63813ec05ac7a",
        ("--functionals", "2,1,0;-1,3,1;0,-2,5", "--eval", "0.2,0.3,0.25"):
            "32d9b7c1770ecef17e87cc2a2126d13463b5f77a84772a041da6b0a42e4e4a23",
        ("--functionals", "1,2;-1,3", "--lattice", "2,1;0,3", "--eval", "0.3,0.4"):
            "06e5f3f5a230424f8b1a3d508894ed51c260f75986807a4a15218c17649350f4",
        ("--functionals", "2,1,0;-1,3,1;0,-2,5", "--char", "-1,1,-1",
         "--eval", "0.2,0.3,0.25"):
            "ea2fd58df4af64437d135c704dc34a362ffa9b7b5ac3c6b02f211cd54bf1bd75",
        ("--functionals", "1,0;-1,2", "--char", "1/2,1/3", "--eval", "0.3,0.3"):
            "16e1c6502e5406e7edc14a2d43c1f427f1cd6a81904bc8ce1af2c59e12732045",
        # |F| = 11881
        ("--functionals", "-5,1,1;-2,3,5;-1,2,-5", "--eval", "0.3,0.2,0.25",
         "--oracle-bound", "30"):
            "266b3ccf05fc768f5c82cb937eda55fd7a0454b1245687f37d022cea5c86b19a",
        # |F| = 23762 on an index-2 sublattice, with a +-1 character
        ("--functionals", "-5,1,1;-2,3,5;-1,2,-5", "--lattice", "1,1,0;0,2,0;0,0,1",
         "--char", "-1,1,-1", "--eval", "0.3,0.2,0.25", "--oracle-bound", "30"):
            "876176f995be065bee6fafae33a6f49d23a9ed62a5b0af52b8d590002677e252",
        # |F| = 578, det alpha = 34 (even), with a +-1 character
        ("--functionals", "2,-1,1;1,3,-2;-1,1,4", "--char", "-1,-1,1",
         "--eval", "0.3,0.25,0.2"):
            "bd30a60cda8de31bde217087b53dbf1c1cfa8b40862339b024cb1eb5e3d3fff8",
        # |F| = 961, det alpha = -31, with a +-1 character
        ("--functionals", "3,1,0;1,-2,1;0,1,4", "--char", "1,-1,-1",
         "--eval", "0.25,0.3,0.2", "--oracle-bound", "40"):
            "cbada034fbe2e5ce293e091e9df9b7f2f4a6dfd27d1c962d1f67d087b806e18f",
        # |F| = 1250 with a rational character whose values are Fractions
        ("--functionals", "4,1,-1;1,-3,2;2,1,3", "--char", "1/2,-1,3/2",
         "--eval", "0.3,0.2,0.25", "--oracle-bound", "40"):
            "e96534c6ce421145f2d9783bf0f2429850194db499caf0a8701054e380a18263",
    }

    def test_outputs_are_byte_identical_to_recorded(self, runner):
        for args, digest in self.CONE_DIGESTS.items():
            out = invoke(runner, ["cone", *args]).stdout
            assert hashlib.sha256(out.encode()).hexdigest() == digest, args

    def test_output_builds_no_per_term_dict(self, runner, monkeypatch):
        # the closed form goes out as the text of ConeClosedForm.to_json
        def refuse(self):
            raise AssertionError("to_json_dict called")

        monkeypatch.setattr("btzeta.cones.ConeClosedForm.to_json_dict", refuse)
        args = ("--functionals", "-5,1,1;-2,3,5;-1,2,-5", "--eval", "0.3,0.2,0.25",
                "--oracle-bound", "30")
        out = invoke(runner, ["cone", *args]).stdout
        assert hashlib.sha256(out.encode()).hexdigest() == self.CONE_DIGESTS[args]
        closed = ConeClosedForm(terms=(), pole_factors=())
        with pytest.raises(AssertionError, match="to_json_dict called"):
            closed.to_json_dict()


class TestInputErrorRule:
    """A ValueError from any library call exits 2 through the one handler on ``main``."""

    @pytest.mark.parametrize("target, args", [
        ("zeta_edge", ["zeta", "c3.json"]),
        ("enumerate_primitive_classes", ["count", "c3.json"]),
        ("gen_apartment_torus", ["gen", "torus", "--basis", "3", "0", "0", "3", "-o", "t.json"]),
    ], ids=["zeta", "count", "gen-torus"])
    def test_value_error_exits_two(self, runner, tmp_path, monkeypatch, target, args):
        def boom(*args, **kwargs):
            raise ValueError("boom")

        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            monkeypatch.setattr(f"btzeta.cli.{target}", boom)
            result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: boom\n"

    def test_arithmetic_error_is_not_an_input_error(self, runner, tmp_path, monkeypatch):
        def clustered(*args, **kwargs):
            raise ArithmeticError("clustered roots")

        with runner.isolated_filesystem(temp_dir=tmp_path):
            json.dump({"num": [1, -1, 2], "den": [1]}, open("ratio.json", "w"))
            monkeypatch.setattr("btzeta.cli.classify_ramanujan", clustered)
            result = runner.invoke(main, ["rh", "ratio.json", "--q", "2"])
        assert isinstance(result.exception, ArithmeticError)


class TestRH:
    def test_ratio_json_input(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            ratio_doc = {"num": [1, 0, 0, -1], "den": [1, 0, 0, -8]}
            json.dump(ratio_doc, open("ratio.json", "w"))
            doc = json.loads(invoke(runner, ["rh", "ratio.json", "--q", "2"]).stdout)
            assert doc["euler_factor_exponent"] == 1
            assert doc["pole_factor_found"] is True
            assert doc["verdict"] == "ramanujan"

    def test_complex_file_read_once(self, runner, tmp_path, monkeypatch):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            opened = []
            real_open = open

            def counting_open(file, *args, **kwargs):
                opened.append(str(file))
                return real_open(file, *args, **kwargs)

            monkeypatch.setattr("builtins.open", counting_open)
            result = invoke(runner, ["rh", "c3.json"])
        assert result.exit_code == 0
        assert opened.count("c3.json") == 1

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0"])
    def test_tolerance_must_be_positive_and_finite(self, runner, tmp_path, tol):
        # with nan no root passed the test, so the tempered 1 - u + 2u^2 was non-tempered
        with runner.isolated_filesystem(temp_dir=tmp_path):
            json.dump({"num": [1, -1, 2], "den": [1]}, open("ratio.json", "w"))
            result = runner.invoke(main, ["rh", "ratio.json", "--q", "2", "--tol", tol])
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)
            assert "--tol must be positive and finite" in result.stderr

    def test_complex_input_without_q(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            doc = json.loads(invoke(runner, ["rh", "c3.json"]).stdout)
            assert doc["verdict"] == "inconclusive"


class TestVerify:
    def test_torus_passes(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            result = invoke(runner, ["verify", "torus.json", "--no-timings"])
            assert result.exit_code == 0
            doc = json.loads(result.stdout)
            assert doc["passed"] is True
            assert doc["checks"]["duality_edge"]["passed"] is True
            assert doc["checks"]["torus_geometric_oracle"]["passed"] is True
            assert doc["recorded"]["product_vs_ratio_neg_u"] is False
            assert "timings" not in doc

    def test_deterministic_reports(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            a = invoke(runner, ["verify", "torus.json", "--no-timings"]).stdout
            b = invoke(runner, ["verify", "torus.json", "--no-timings"]).stdout
            assert a == b

    def test_corrupt_file(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            open("junk.json", "w").write("]")
            result = runner.invoke(main, ["verify", "junk.json"])
            assert result.exit_code == 2

    def test_verify_beyond_cap_exit_three(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            result = runner.invoke(main, ["verify", "c3.json", "--no-timings",
                                          "--max-order", "21"])
            assert result.exit_code == 3
            doc = json.loads(result.stdout)
            assert doc["error"] == {"stage": "order", "message": "order 21 beyond cap 20"}
            assert "zeta" not in doc

    def test_verify_beyond_cap_with_override(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            result = runner.invoke(main, ["verify", "c3.json", "--no-timings",
                                          "--allow-large-order", "--max-order", "21"])
            assert result.exit_code == 0
            assert json.loads(result.stdout)["checks"]["duality_edge"]["order"] == 21

    def test_skipped_entries_visible(self, runner, tmp_path, three_cycle):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            save_complex(three_cycle, "c3.json")
            result = invoke(runner, ["verify", "c3.json", "--no-timings"])
            doc = json.loads(result.stdout)
            assert doc["rh"]["verdict"] == "inconclusive"  # q-absent policy
            assert doc["zeta"]["ratio"] == {"num": ["1"],
                                            "den": ["1", "0", "0", "0", "0", "0", "-1"]}
            assert doc["recorded"]["torus_geometric_oracle"].startswith("skipped")

    def test_verify_imports_no_heavy_module(self, tmp_path):
        # btzeta needs neither mpmath nor sympy (a test-only dependency): a
        # top-level import of either fails here
        script = "\n".join([
            "import sys",
            "from click.testing import CliRunner",
            "import btzeta.cli",
            "runner = CliRunner()",
            "with runner.isolated_filesystem(temp_dir=sys.argv[1]):",
            "    for args in (['gen', 'torus', '--basis', '3', '0', '0', '3', '-o', 't.json'],",
            "                 ['verify', 't.json', '--no-timings']):",
            "        assert runner.invoke(btzeta.cli.main, args).exit_code == 0",
            "print(sorted({'mpmath', 'sympy'} & set(sys.modules)))",
        ])
        src = Path(__file__).resolve().parent.parent / "src"
        path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        result = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_rh_and_verify_run_without_mpmath(self, tmp_path):
        # sympy installs mpmath for the tests; blocking its import shows that
        # no command needs it
        script = "\n".join([
            "import json, sys",
            "sys.modules['mpmath'] = None",
            "from click.testing import CliRunner",
            "import btzeta.cli",
            "runner = CliRunner()",
            "with runner.isolated_filesystem(temp_dir=sys.argv[1]):",
            "    json.dump({'num': [1, -1, 2], 'den': [1, 0, 0, -8]}, open('r.json', 'w'))",
            "    rh = runner.invoke(btzeta.cli.main, ['rh', 'r.json', '--q', '2'])",
            "    gen = runner.invoke(btzeta.cli.main,",
            "                        ['gen', 'torus', '--basis', '3', '0', '0', '3', '-o', 't.json'])",
            "    verify = runner.invoke(btzeta.cli.main, ['verify', 't.json', '--no-timings'])",
            "print(rh.exit_code, gen.exit_code, verify.exit_code, json.loads(rh.stdout)['verdict'])",
        ])
        src = Path(__file__).resolve().parent.parent / "src"
        path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        result = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0 0 0 ramanujan\n"

    def test_run_verify_api(self, tmp_path, torus):
        path = tmp_path / "t.json"
        save_complex(torus, path)
        report, code = run_verify(str(path), max_order=8)
        assert code == 0 and report["passed"]
        assert "timings" in report

    def test_run_verify_builds_no_class(self, tmp_path, monkeypatch):
        # verify reads N and P only, which the walk counts without class objects
        def refuse(*args, **kwargs):
            raise AssertionError("a GeodesicClass was built")

        branching = closed_typed_complex(random.Random(1), (4, 4, 4), p_chamber=0.7)
        path = tmp_path / "b.json"
        save_complex(branching, path)
        monkeypatch.setattr(geodesics, "GeodesicClass", refuse)
        report, code = run_verify(str(path))
        assert code == 0 and report["passed"]
        assert all(sum(report["counts"][kind]["P"]) > 0 for kind in ("edge", "gallery"))
        with pytest.raises(AssertionError, match="GeodesicClass"):
            geodesics.enumerate_primitive_classes(branching, 6)

    def test_timings_are_per_stage_in_pipeline_order(self, tmp_path, torus):
        path = tmp_path / "t.json"
        save_complex(torus, path)
        start = time.perf_counter()
        report, _ = run_verify(str(path), max_order=8)
        elapsed = time.perf_counter() - start
        stages = [stage for stage, _ in report["timings"]]
        assert stages == ["load", "validate", "zeta", "counts", "identity",
                          "geometry", "rh"]
        durations = [seconds for _, seconds in report["timings"]]
        assert all(d >= 0 for d in durations)
        # cumulative stamps would add up to more than the whole run
        assert sum(durations) <= elapsed + 1e-5

    # sha256 of ``btz verify --no-timings`` stdout, recorded with the pipeline
    # that computed each zeta polynomial and each walk twice; refactors of the
    # pipeline must keep these bytes
    VERIFY_DIGESTS = {
        "torus.json": "f7c017ff1ecebefc025a56104f702c18f894d8f788ab6e327e093e63d23a12b1",
        "skew.json": "0339ef2b992d986385631a7b346dc65a2bf634ae080f92949d364f3a1fabd979",
        "c3.json": "fc1c2218c9005fbf0abc45334b667a1e596dcde50556a82f7258748b8443f9ba",
    }

    def test_reports_are_byte_identical_to_recorded(self, runner, tmp_path, skew_torus):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)  # with its torus sidecar
            save_complex(skew_torus, "skew.json")  # no sidecar
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])  # cycle sidecar
            for name, digest in self.VERIFY_DIGESTS.items():
                out = invoke(runner, ["verify", name, "--no-timings"]).stdout
                assert hashlib.sha256(out.encode()).hexdigest() == digest, name

    # sha256 of ``verify --no-timings`` and ``count`` stdout on a branching
    # complex, where the closed-path walk does real work; recorded with the
    # walk that started at every node and compared all rotations
    BRANCHING_DIGESTS = {
        ("verify", "--no-timings"):
            "2114fd3e0ae29655663c278b22dd9efb53febbf4da29b33700e9a721386ebba3",
        ("count", "--kind", "edge"):
            "3dc40f47b5aceb621cc562063c4d8ba21f895f2f75b97190cc163e8b3f4d6bdd",
        ("count", "--kind", "gallery"):
            "183866bd9e31881fa32a1b6c1a18bd1183a024239a2e0fc6bf85ba101a2deee9",
    }

    def test_branching_outputs_are_byte_identical_to_recorded(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            save_complex(closed_typed_complex(random.Random(1), (4, 4, 4)), "b1.json")
            for args, digest in self.BRANCHING_DIGESTS.items():
                out = invoke(runner, [args[0], "b1.json", *args[1:]]).stdout
                assert hashlib.sha256(out.encode()).hexdigest() == digest, args

    # sha256 of ``count`` stdout where every component of the relation is a
    # cycle; recorded with the walk that started at every node
    COUNT_DIGESTS = {
        ("torus.json", "edge"):
            "377f79b4bc1f4559febbb06a2ade13f679ce3baabc35c85012ff5a51eada44a4",
        ("torus.json", "gallery"):
            "be6310206f39427d82e8d21de3c913ed03c1b26cc25ddbe1d103bf21b6f4ca20",
        ("skew.json", "edge"):
            "39534595ee035ca2dffde7a8cbde6773ac38c90a4a361580376e3e65cc6d89a1",
        ("skew.json", "gallery"):
            "f93f39424b42a0d66233e85f043f4b1caedc97804d946f8e4588bf3e4aa10c97",
        ("c3.json", "edge"):
            "2156c75c440c598b936ce6ef18a4c49f546fc439eddb3515331102d14294a376",
        ("c3.json", "gallery"):
            "183866bd9e31881fa32a1b6c1a18bd1183a024239a2e0fc6bf85ba101a2deee9",
    }

    def test_count_outputs_are_byte_identical_to_recorded(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            invoke(runner, ["gen", "torus", "--basis", "6", "3", "0", "9", "-o", "skew.json"])
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            for (name, kind), digest in self.COUNT_DIGESTS.items():
                out = invoke(runner, ["count", name, "--kind", kind]).stdout
                assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, kind)

    def test_env_var_configuration(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            doc = json.loads(invoke(runner, ["count", "c3.json"],
                                    env={"BTZ_COUNT_MAX_LENGTH": "6"}).stdout)
            assert len(doc["N"]) == 7


@st.composite
def verify_sequences(draw):
    """(P, N, Z1, Z2, planted sign) up to an order M.

    N is the divisor-sum sequence D of P, and Z2 is planted so that
    Z2(sign u) prod_d (1 - u^d)^P[d] = Z1(u^2) up to u^M for a drawn sign;
    each then gets zero to two perturbations, which may be zero.
    """
    M = draw(st.integers(1, 10))
    P = [0] + draw(st.lists(st.integers(0, 4), min_size=M, max_size=M))

    def perturbed(seq):
        seq = list(seq)
        for m, delta in draw(st.lists(st.tuples(st.integers(1, M), st.integers(-2, 2)),
                                      max_size=2)):
            seq[m] += delta
        return seq

    N = perturbed(_divisor_sums(P))
    z1 = IntPolynomial([1] + draw(st.lists(st.integers(-5, 5), max_size=6)))
    sign = draw(st.sampled_from([None, -1, 1]))
    if sign is None:
        z2 = IntPolynomial([1] + draw(st.lists(st.integers(-5, 5), max_size=M)))
    else:
        # Q = Z1(u^2) / prod up to u^M, and Z2(v) = Q(sign v)
        inverse = series_inverse(IntPolynomial(product_of_primitive_counts(P, M).coeffs), M)
        z1_sq = z1.subst_u_power(2)
        q = [sum(z1_sq[j] * inverse[m - j] for j in range(m + 1)) for m in range(M + 1)]
        z2 = IntPolynomial(perturbed([sign ** m * c for m, c in enumerate(q)]))
    return P, N, z1, z2, sign


class TestVerifySequenceIdentities:
    """run_verify's sequence identities against the polynomial route they replace."""

    @settings(max_examples=300, deadline=None)
    @given(verify_sequences())
    def test_same_booleans_as_polynomial_products(self, data):
        P, N, z1, z2, _ = data
        M = len(P) - 1
        prod = IntPolynomial(product_of_primitive_counts(P, M).coeffs)
        prod_log_deriv = log_derivative_series(prod, M)
        exp_ok = all(prod_log_deriv[m] == N[m] for m in range(1, M + 1))
        structure_ok = all(N[m] == sum(d * P[d] for d in range(1, m + 1) if m % d == 0)
                           for m in range(1, M + 1))
        D = _divisor_sums(P)
        assert (N[1:] == D[1:]) == exp_ok == structure_ok

        L1, L2 = (list(log_derivative_series(z, M).coeffs) for z in (z1, z2))
        z1_sq = z1.subst_u_power(2)
        for sign, num in ((-1, z2.subst_neg_u()), (1, z2)):
            lhs = num * prod
            product_ok = all(lhs[m] == z1_sq[m] for m in range(M + 1))
            assert _product_matches_ratio(D, L1, L2, sign) == product_ok

    def test_planted_identities_hold(self):
        # the unperturbed draws: N = D, and the planted sign matches
        P = [0, 2, 1, 0, 3, 1, 0, 2]
        M = len(P) - 1
        D = _divisor_sums(P)
        assert D == [0, 2, 4, 2, 16, 7, 4, 16]
        z1 = IntPolynomial([1, -3, 2])
        inverse = series_inverse(IntPolynomial(product_of_primitive_counts(P, M).coeffs), M)
        z1_sq = z1.subst_u_power(2)
        q = [sum(z1_sq[j] * inverse[m - j] for j in range(m + 1)) for m in range(M + 1)]
        for sign in (-1, 1):
            z2 = IntPolynomial([sign ** m * c for m, c in enumerate(q)])
            L1, L2 = (list(log_derivative_series(z, M).coeffs) for z in (z1, z2))
            assert _product_matches_ratio(D, L1, L2, sign)
            assert not _product_matches_ratio(D, L1, L2, -sign)


class TestEachQuantityOnce:
    """Each charpoly and each closed-path walk runs once per command."""

    @pytest.fixture()
    def charpoly_dims(self, monkeypatch):
        dims = []
        original = zeta.char_poly_reverse

        def counting(matrix):
            dims.append(len(matrix))  # X reaches the charpoly as an integer array
            return original(matrix)

        monkeypatch.setattr(zeta, "char_poly_reverse", counting)
        return dims

    @pytest.fixture()
    def walk_kinds(self, monkeypatch):
        kinds = []
        original = geodesics.transitions

        def counting(c, kind):
            kinds.append(kind)
            return original(c, kind)

        monkeypatch.setattr(geodesics, "transitions", counting)
        return kinds

    # the zetas are det(I - u^3 X) on the smallest type grade of the relation's
    # components that are not cycles, times 1 - u^length per cycle; every
    # component of a torus relation is a cycle, so each charpoly is 0x0, and
    # on b1 one edge grade of 15 nodes remains and no closed gallery
    def test_verify_charpoly_once_per_operator(self, tmp_path, torus, charpoly_dims):
        for name, c, dims in (("t.json", torus, [0, 0]), ("b1.json", B1, [15, 0])):
            path = tmp_path / name
            save_complex(c, path)
            charpoly_dims.clear()
            run_verify(str(path), max_order=6)
            assert charpoly_dims == dims, name

    def test_zeta_command_charpoly_once_per_operator(self, runner, tmp_path,
                                                     charpoly_dims):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            invoke(runner, ["zeta", "torus.json"])
            assert charpoly_dims == [0, 0]
            save_complex(B1, "b1.json")
            charpoly_dims.clear()
            invoke(runner, ["zeta", "b1.json"])
            assert charpoly_dims == [15, 0]

    def test_verify_finds_relation_components_once(self, tmp_path, torus, monkeypatch):
        # one components pass per kind, shared by the zeta and the walk: one walk
        # along the torus's permutation relations, Tarjan on b1's
        passes = []
        for name in ("_permutation_cycles", "_strong_components"):
            def counting(succ, name=name, original=getattr(operators, name)):
                passes.append((name, len(succ)))
                return original(succ)

            monkeypatch.setattr(operators, name, counting)
        for name, c in (("t.json", torus), ("b1.json", B1)):
            save_complex(c, tmp_path / name)
            run_verify(str(tmp_path / name), max_order=6)
        assert passes == [("_permutation_cycles", 27), ("_permutation_cycles", 54),
                          ("_strong_components", len(operators.directed_edges(B1))),
                          ("_strong_components", 3 * len(B1.chambers))]

    def test_verify_builds_no_node_tuple_and_runs_no_tarjan(self, tmp_path, monkeypatch):
        path = tmp_path / "t9.json"
        save_complex(gen_apartment_torus(ApartmentSpec(((9, 0), (0, 9)))), path)

        def refuse(*args, **kwargs):
            raise AssertionError("built on the verify route")

        for cls in (operators.DirectedEdge, operators.PointedChamber):
            monkeypatch.setattr(cls, "__new__", refuse)
        monkeypatch.setattr(operators, "_strong_components", refuse)
        with pytest.raises(AssertionError, match="verify route"):
            operators.DirectedEdge(0, 1)
        report, code = run_verify(str(path))
        assert code == 0 and report["passed"]

    def test_verify_walks_once_per_kind(self, tmp_path, torus, walk_kinds):
        path = tmp_path / "t.json"
        save_complex(torus, path)
        run_verify(str(path), max_order=6)
        assert walk_kinds == ["edge", "gallery"]

    @pytest.mark.parametrize("kind", ["edge", "gallery"])
    def test_count_command_walks_once(self, runner, tmp_path, walk_kinds, kind):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            invoke(runner, ["count", "torus.json", "--max", "6", "--kind", kind])
        assert walk_kinds == [kind]

    def test_verify_builds_each_relation_once(self, tmp_path, torus, monkeypatch):
        # the zeta operators and the walks share one relation per kind
        built = []
        for name in ("_edge_relation", "_gallery_relation"):
            def counting(cells, name=name, original=getattr(operators, name)):
                built.append(name)
                return original(cells)

            monkeypatch.setattr(operators, name, counting)
        path = tmp_path / "t.json"
        save_complex(torus, path)
        run_verify(str(path), max_order=6)
        assert sorted(built) == ["_edge_relation", "_gallery_relation"]

    @pytest.fixture()
    def tables(self, monkeypatch):
        """Each cell layout built: the arrays whose CSR lists the chambers on each edge."""
        built = []
        original = complexes._Cells.__init__

        def recording(cells, *args, **kwargs):
            original(cells, *args, **kwargs)
            built.append(cells)

        monkeypatch.setattr(complexes._Cells, "__init__", recording)
        return built

    def test_verify_builds_the_chambers_of_edge_table_once(self, tmp_path, torus, tables,
                                                          monkeypatch):
        read = []
        for name in ("_edge_relation", "_gallery_relation"):
            def recording(cells, original=getattr(operators, name)):
                read.append(cells)
                return original(cells)

            monkeypatch.setattr(operators, name, recording)
        path = tmp_path / "t.json"
        save_complex(torus, path)
        run_verify(str(path), max_order=6)
        # one table, for the one complex loaded, and both relations read it:
        # every edge of the torus lies on two chambers
        assert len(tables) == 1 and len(read) == 2
        assert all(cells is tables[0] for cells in read)
        assert np.diff(tables[0].indptr).tolist() == [2] * 27

    def test_gallery_successors_read_the_complex_table(self, tables):
        ball = gen_building_ball(BallSpec(q=2, radius=2))
        nodes = operators.pointed_chambers(ball)
        built = len(tables)
        cells = ball._cells
        for pc in nodes:
            # the other chambers on the pointer's edge, from the CSR table
            i = cells.edge(*pc.pointer)
            assert len(operators.gallery_successors(ball, pc)) == \
                cells.indptr[i + 1] - cells.indptr[i] - 1
        assert len(tables) == built and ball._cells is tables[-1]


DANGLING_EDGE = {"version": 1, "vertices": [{"id": 0, "type": 0}, {"id": 1, "type": 1}],
                 "edges": [[0, 1], [1, 7]], "chambers": []}
BOOLEAN_Q = {"version": 1, "q": True, "vertices": [{"id": 0, "type": 0}, {"id": 1, "type": 1}],
             "edges": [[0, 1]], "chambers": []}


class TestMalformedInput:
    @pytest.mark.parametrize("doc", [DANGLING_EDGE, BOOLEAN_Q], ids=["dangling", "bool-q"])
    @pytest.mark.parametrize("command", [
        ["info"], ["zeta"], ["op", "edges"], ["op", "chambers"], ["count"], ["rh"],
        ["verify"],
    ], ids=" ".join)
    def test_exit_two_without_traceback(self, runner, tmp_path, command, doc):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            json.dump(doc, open("bad.json", "w"))
            result = runner.invoke(main, command + ["bad.json"])
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("args", [
        ["verify", "--max-order", "0"], ["verify", "--max-order", "-1"],
        ["count", "--max", "0"], ["count", "--max", "-1"], ["zeta", "--order", "-1"],
    ], ids=" ".join)
    def test_bad_order_exit_two(self, runner, tmp_path, args):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            result = runner.invoke(main, args + ["c3.json"])
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)
            assert f"Invalid value for '{args[1]}'" in result.stderr

    @pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
    @pytest.mark.parametrize("command", [["info"], ["verify"], ["rh"]], ids=" ".join)
    def test_unreadable_file_exit_two(self, runner, tmp_path, command, unreadable):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            if unreadable == "directory":
                Path("in.json").mkdir()
            else:
                Path("in.json").write_bytes(b"\xff\xfe{}")
            result = runner.invoke(main, command + ["in.json"])
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)
            if command == ["verify"]:
                assert json.loads(result.stdout)["error"]["stage"] == "load"
                # the same text as the other commands print
                other = runner.invoke(main, ["info", "in.json"])
                assert "error: " + json.loads(result.stdout)["error"]["message"] + "\n" \
                    == other.stderr
            else:
                assert "error: cannot read in.json" in result.stderr

    def test_missing_file_same_message_in_verify(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, ["verify", "in.json"])
            assert result.exit_code == 2
            assert json.loads(result.stdout)["error"] == {
                "stage": "load", "message": "no such file: in.json"}
            assert runner.invoke(main, ["info", "in.json"]).stderr == \
                "error: no such file: in.json\n"

    @pytest.mark.parametrize("sidecar", [b"\xff\xfe{}", b"[1]", None],
                             ids=["not-utf8", "not-object", "directory"])
    def test_unreadable_sidecar_is_skipped(self, runner, tmp_path, sidecar):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            Path("c3.geom").unlink()
            if sidecar is None:
                Path("c3.geom").mkdir()
            else:
                Path("c3.geom").write_bytes(sidecar)
            result = invoke(runner, ["verify", "c3.json", "--no-timings"])
            assert result.exit_code == 0
            assert json.loads(result.stdout)["recorded"]["torus_geometric_oracle"] == \
                "skipped (sidecar is not torus geometry)"

    @pytest.mark.parametrize("geom", [
        {"kind": "torus"},
        {"kind": "torus", "basis": [[1, 0], [0, 0]]},
        {"kind": "torus", "basis": "ab"},
        {"kind": "torus", "basis": [[3, 0], [0, 1.5]]},
        {"kind": "torus", "basis": [[True, 0], [0, 1]]},
    ], ids=["no-basis", "degenerate", "string", "float", "bool"])
    def test_malformed_torus_sidecar_is_skipped(self, runner, tmp_path, geom):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            Path("c3.geom").write_text(json.dumps(geom))
            result = invoke(runner, ["verify", "c3.json", "--no-timings"])
            assert result.exit_code == 0
            assert json.loads(result.stdout)["recorded"]["torus_geometric_oracle"] == \
                "skipped (sidecar is not torus geometry)"

    @pytest.mark.parametrize("args, path", [
        (["gen", "torus", "--basis", "3", "0", "0", "3", "-o", "missing/t.json"],
         "missing/t.json"),
        (["gen", "cycle", "--n", "3", "-o", "adir"], "adir"),
        (["gen", "torus", "--basis", "3", "0", "0", "3", "-o", "t.json"], "t.geom"),
        (["op", "edges", "c3.json", "-o", "missing/x.json"], "missing/x.json"),
    ], ids=["gen-missing-dir", "gen-directory", "gen-sidecar-directory",
            "op-missing-dir"])
    def test_unwritable_output_exit_two(self, runner, tmp_path, args, path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            Path("adir").mkdir()
            Path("t.geom").mkdir()
            result = runner.invoke(main, args)
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)
            assert f"error: cannot write {path}: " in result.stderr

    @pytest.mark.parametrize("args", [["count", "--max"], ["verify", "--max-order"]],
                             ids=" ".join)
    def test_order_beyond_recursion_limit_exit_zero(self, runner, tmp_path, args):
        # the closed-path walks keep their own stack, so the order may exceed
        # Python's recursion limit (1000 by default)
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            result = runner.invoke(main, args + ["1200", "--allow-large-order", "c3.json"])
            assert result.exit_code == 0
            doc = json.loads(result.stdout)
            counts = doc["N"] if "N" in doc else doc["counts"]["edge"]["N"]
            assert len(counts) == 1201 and counts[1200] == 3

    def test_validate_reports_dangling_edge_as_violation(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            json.dump(DANGLING_EDGE, open("bad.json", "w"))
            result = runner.invoke(main, ["validate", "bad.json"])
            assert result.exit_code == 1
            assert json.loads(result.stdout)["violations"] == [
                "edge (1,7) references unknown vertex"]

    @pytest.mark.parametrize("ratio_doc", [
        {"num": [True], "den": [1]}, {"num": [1], "den": 5}, [1, 2], 7,
        {"num": [None], "den": [1]}, {"num": [1], "den": []}, {"num": [0], "den": [1]},
        {"num": [1, 10 ** 400, 1], "den": [1]},
    ])
    def test_rh_ratio_json_exit_two(self, runner, tmp_path, ratio_doc):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            json.dump(ratio_doc, open("ratio.json", "w"))
            result = runner.invoke(main, ["rh", "ratio.json", "--q", "2"])
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)
