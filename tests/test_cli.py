from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from btzeta import geodesics, zeta
from btzeta.cli import main, run_verify
from btzeta.complexes import save_complex
from conftest import closed_typed_complex


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

    def test_deterministic_output(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner, "a.json")
            write_torus(runner, "b.json")
            assert open("a.json").read() == open("b.json").read()


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
        (["--eval", "x,y"], "could not convert"),
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
        # the oracle's terms (1e-301)^w * (1e300)^v underflow to 0 times inf;
        # their NaN sum was printed, which is not JSON
        (["--functionals", "1", "--char", "1e300", "--eval", "1e-301", "--oracle-bound", "5"],
         "the partial-sum oracle overflows a float"),
    ]

    @pytest.mark.parametrize("args, message", MALFORMED,
                             ids=[" ".join(args) for args, _ in MALFORMED])
    def test_malformed_input_exit_two(self, runner, args, message):
        defaults = ["--functionals", "1,0;0,1"] if "--functionals" not in args else []
        result = runner.invoke(main, ["cone", *defaults, *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.stderr

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
    }

    def test_outputs_are_byte_identical_to_recorded(self, runner):
        for args, digest in self.CONE_DIGESTS.items():
            out = invoke(runner, ["cone", *args]).stdout
            assert hashlib.sha256(out.encode()).hexdigest() == digest, args


class TestInputErrorRule:
    """A ValueError from any library call exits 2 through the one handler on ``main``."""

    @pytest.mark.parametrize("target, args", [
        ("zeta_edge", ["zeta", "c3.json"]),
        ("closed_paths", ["count", "c3.json"]),
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

    def test_run_verify_api(self, tmp_path, torus):
        path = tmp_path / "t.json"
        save_complex(torus, path)
        report, code = run_verify(str(path), max_order=8)
        assert code == 0 and report["passed"]
        assert "timings" in report

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

    def test_env_var_configuration(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            invoke(runner, ["gen", "cycle", "--n", "3", "-o", "c3.json"])
            doc = json.loads(invoke(runner, ["count", "c3.json"],
                                    env={"BTZ_COUNT_MAX_LENGTH": "6"}).stdout)
            assert len(doc["N"]) == 7


class TestEachQuantityOnce:
    """Each charpoly and each closed-path walk runs once per command."""

    @pytest.fixture()
    def charpoly_dims(self, monkeypatch):
        dims = []
        original = zeta.char_poly_reverse

        def counting(matrix):
            dims.append(matrix.dim)
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

    # the zetas are det(I - u^3 X) on the smallest type grade, so each charpoly
    # runs on a third of the 27 positive edges and 54 pointed chambers
    def test_verify_charpoly_once_per_operator(self, tmp_path, torus, charpoly_dims):
        path = tmp_path / "t.json"
        save_complex(torus, path)
        run_verify(str(path), max_order=6)
        assert charpoly_dims == [9, 18]

    def test_zeta_command_charpoly_once_per_operator(self, runner, tmp_path,
                                                     charpoly_dims):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_torus(runner)
            invoke(runner, ["zeta", "torus.json"])
        assert charpoly_dims == [9, 18]

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
            else:
                assert "error: cannot read in.json" in result.stderr

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
