"""CLI contract: JSON I/O, exit codes, determinism, and the golden values
reached through the command path rather than the library path."""

import json

import numpy as np
import pytest

from spinorlab.cli import main


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


GOLDEN_A = {
    "p": 4,
    "q": 2,
    "field": "real",
    "terms": [{"indices": [1], "re": 1.0}, {"indices": [3, 6], "re": 1.0}],
}
GOLDEN_B = {
    "p": 4,
    "q": 2,
    "field": "real",
    "terms": [
        {"indices": [1], "re": 1.0},
        {"indices": [2], "re": 1.0},
        {"indices": [1, 4], "re": 1.0},
        {"indices": [2, 5], "re": 1.0},
    ],
}


class TestProduct:
    def test_golden_product(self, run, tmp_path):
        fa = write_json(tmp_path / "a.json", GOLDEN_A)
        fb = write_json(tmp_path / "b.json", GOLDEN_B)
        code, out, _ = run("product", "--sig", "4,2", fa, fb)
        assert code == 0
        doc = json.loads(out)
        got = {tuple(t["indices"]): t["re"] for t in doc["terms"]}
        assert got == {
            (): 1.0,
            (4,): 1.0,
            (1, 2): 1.0,
            (1, 2, 5): 1.0,
            (1, 3, 6): 1.0,
            (2, 3, 6): 1.0,
            (1, 3, 4, 6): -1.0,
            (2, 3, 5, 6): -1.0,
        }

    def test_volume_product_sig12(self, run, tmp_path):
        tau = {"p": 1, "q": 2, "field": "real", "terms": [{"indices": [1, 2, 3], "re": 1.0}]}
        f = write_json(tmp_path / "tau.json", tau)
        code, out, _ = run("product", "--sig", "1,2", f, f)
        assert code == 0
        assert json.loads(out)["terms"] == [{"indices": [], "re": -1.0}]

    def test_malformed_json_exits_1(self, run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        fb = write_json(tmp_path / "b.json", GOLDEN_B)
        code, out, err = run("product", "--sig", "4,2", str(bad), fb)
        assert code == 1 and out == "" and err != ""

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_coefficient_exits_1(self, run, tmp_path, bad):
        fa = tmp_path / "a.json"
        fa.write_text('{"p": 2, "q": 0, "terms": [{"indices": [1], "re": %s}]}' % bad)
        fb = write_json(tmp_path / "b.json", {"p": 2, "q": 0, "terms": [{"indices": [2], "re": 1.0}]})
        code, out, err = run("product", "--sig", "2,0", str(fa), fb)
        assert code == 1 and out == "" and "non-finite" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"p": 2, "q": 0.9, "terms": []},
            {"p": 2, "q": 0, "terms": [{"indices": [1.7, "2"], "re": 1.0}]},
            {"p": 2, "q": 0, "terms": [{"indices": [1], "re": "1.5"}]},
            {"p": 2, "q": 0, "terms": [{"indices": [1], "re": True}]},
        ],
    )
    def test_non_number_exits_1(self, run, tmp_path, doc):
        fa = write_json(tmp_path / "a.json", doc)
        fb = write_json(tmp_path / "b.json", {"p": 2, "q": 0, "terms": [{"indices": [2], "re": 1.0}]})
        code, out, err = run("product", "--sig", "2,0", fa, fb)
        assert code == 1 and out == "" and err.startswith("clif: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "indices, message",
        [([3], "indices [3] outside 1..2"), ([0, 1], "indices [0, 1] outside 1..2"),
         ([2, 1], "indices [2, 1] not strictly ascending"), ([1, 1], "indices [1, 1] not strictly ascending")],
    )
    def test_bad_blade_indices_exit_1(self, run, tmp_path, indices, message):
        fa = write_json(tmp_path / "a.json", {"p": 2, "q": 0, "terms": [{"indices": indices, "re": 1.0}]})
        fb = write_json(tmp_path / "b.json", {"p": 2, "q": 0, "terms": [{"indices": [2], "re": 1.0}]})
        code, out, err = run("product", "--sig", "2,0", fa, fb)
        assert (code, out, err) == (1, "", f"clif: {message}\n")

    def test_signature_mismatch_exits_1(self, run, tmp_path):
        fa = write_json(tmp_path / "a.json", GOLDEN_A)
        fb = write_json(tmp_path / "b.json", GOLDEN_B)
        code, out, _ = run("product", "--sig", "3,0", fa, fb)
        assert code == 1 and out == ""


class TestTable:
    def test_rows(self, run):
        code, out, _ = run("table", "--sig", "3,0")
        assert code == 0 and json.loads(out) == {"ring": "C", "dim": 2, "summands": 1}
        code, out, _ = run("table", "--sig", "1,3", "--spinors", "algebraic")
        assert json.loads(out) == {"ring": "H", "dim": 2, "summands": 1}
        code, out, _ = run("table", "--sig", "0,0")
        assert json.loads(out) == {"ring": "R", "dim": 1, "summands": 1}
        code, out, _ = run("table", "--sig", "4,0", "--complex")
        assert json.loads(out) == {"ring": "C", "dim": 4, "summands": 1}

    def test_out_of_range(self, run):
        code, out, _ = run("table", "--sig", "12,9")
        assert code == 1 and out == ""


class TestClassify:
    def test_example_41_spinor(self, run, tmp_path):
        psi = {"rep": "weyl", "components": [[0, -1], [0, 1], [1, 0], [1, 0]]}
        f = write_json(tmp_path / "psi.json", psi)
        code, out, _ = run("classify", "dirac", f)
        doc = json.loads(out)
        assert code == 0 and doc["class"] == 5
        assert doc["fpk_residual"] <= 1e-10
        assert abs(doc["bilinears"]["sigma"]) <= 1e-12

    def test_ghost_reports_none(self, run, tmp_path):
        psi = {"rep": "weyl", "components": [[0, 0]] * 4}
        f = write_json(tmp_path / "psi.json", psi)
        code, out, _ = run("classify", "dirac", f)
        assert code == 0 and json.loads(out)["class"] == "none"

    def test_m8_zero_and_generic(self, run, tmp_path):
        f = write_json(tmp_path / "z.json", {"real": [0.0] * 16})
        code, out, _ = run("classify", "m8", f)
        assert code == 0 and json.loads(out)["label"] == 0
        comps = [0.31, -0.7, 1.2, 0.45, -0.11, 0.9, -1.4, 0.66,
                 0.05, -0.23, 0.81, -0.92, 1.05, 0.37, -0.6, 0.14]
        f2 = write_json(tmp_path / "g.json", {"real": comps})
        code, out, _ = run("classify", "m8", f2)
        doc = json.loads(out)
        assert doc["label"] == 31 and doc["pattern"] == [True] * 5


    @pytest.mark.parametrize("kind", ["dirac", "m8"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1", "0", "abc"])
    def test_bad_tolerance_exits_1(self, run, tmp_path, kind, bad):
        # nan/inf printed class "none" / label 0 with exit 0; -1 was replaced by 1e-12
        doc = {"rep": "weyl", "components": [[1, 0], [0, 0], [1, 0], [0, 0]]}
        f = write_json(tmp_path / "x.json", doc if kind == "dirac" else {"real": [1.0] * 16})
        code, out, err = run("classify", kind, f, f"--tol={bad}")
        assert code == 1 and out == "" and "--tol" in err

    def test_tolerance_is_used(self, run, tmp_path):
        f = write_json(tmp_path / "x.json", {"real": [1.0] * 16})
        assert json.loads(run("classify", "m8", f, "--tol", "1e-9")[1])["label"] == 15
        assert json.loads(run("classify", "m8", f, "--tol", "100")[1])["label"] == 0

    def test_tolerance_below_1e12_is_used_as_given(self, run, tmp_path):
        # sigma and omega are ~1e-14 here: 1e-30 leaves them nonzero (class 1)
        from spinorlab.minkowski import DiracSpinor, classify_lounesto

        psi = DiracSpinor("weyl", (1, 0, 1 + 1e-14j, 0))
        doc = {"rep": "weyl", "components": [[1, 0], [0, 0], [1, 1e-14], [0, 0]]}
        code, out, _ = run("classify", "dirac", write_json(tmp_path / "x.json", doc), "--tol", "1e-30")
        assert code == 0
        assert json.loads(out)["class"] == classify_lounesto(psi, 1e-30) == 1

    def test_m8_bilinears_are_the_classified_maxima(self, run, tmp_path):
        from spinorlab.m8 import classify_m8

        rng = np.random.default_rng(18)
        xr, xi = rng.normal(size=16), rng.normal(size=16)
        f = write_json(tmp_path / "z.json", {"real": xr.tolist(), "imag": xi.tolist()})
        code, out, _ = run("classify", "m8", f)
        cls = classify_m8(xr, xi, 1e-10)
        assert code == 0 and json.loads(out)["bilinears"] == {
            f"E{k}": top for k, top in zip((0, 1, 4, 5, 8), cls.maxima)
        }

    @pytest.mark.parametrize(
        "kind,doc",
        [
            ("dirac", {"rep": "weyl", "components": [["a", 0], [0, 0], [0, 0], [0, 0]]}),
            ("dirac", {"rep": "weyl", "components": 5}),
            ("m8", {"real": [0.0] * 16, "imag": 3}),
            ("m8", {"real": [True] + [0.0] * 15}),
            ("dirac", {"rep": "weyl", "components": [["1", 0], [0, 0], [0, 0], [0, 0]]}),
            ("dirac", {"rep": "weyl", "components": [[True, 0], [0, 0], [0, 0], [0, 0]]}),
        ],
    )
    def test_malformed_spinor_exits_1(self, run, tmp_path, kind, doc):
        code, out, err = run("classify", kind, write_json(tmp_path / "x.json", doc))
        assert code == 1 and out == "" and err.startswith("clif: ") and err.count("\n") == 1


class TestVerify:
    def test_volume_exhaustive(self, run):
        code, out, _ = run("verify", "volume", "--trials", "0")
        doc = json.loads(out)
        assert code == 0 and doc["pass"] and doc["max_residual"] == 0.0

    @pytest.mark.parametrize("suite,trials", [
        ("fpk", "50"), ("fierz", "10"), ("truncated", "10"), ("groups", "10"),
    ])
    def test_random_suites_pass(self, run, suite, trials):
        code, out, _ = run("verify", suite, "--trials", trials, "--seed", "7")
        assert code == 0 and json.loads(out)["pass"]

    def test_deterministic_stdout(self, run):
        _, out1, _ = run("verify", "fpk", "--trials", "25", "--seed", "3")
        _, out2, _ = run("verify", "fpk", "--trials", "25", "--seed", "3")
        assert out1 == out2

    def test_unknown_suite(self, run):
        code, out, _ = run("verify", "bogus", "--trials", "5")
        assert code == 1 and out == ""

    def test_tolerance_env_override(self, run, monkeypatch):
        monkeypatch.setenv("CLIF_TOL", "1e-30")
        code, out, _ = run("verify", "fpk", "--trials", "25", "--seed", "3")
        assert code == 2  # residuals above an absurdly tight tolerance
        assert json.loads(out)["pass"] is False
        monkeypatch.setenv("CLIF_TOL", "not-a-number")
        code, out, _ = run("verify", "fpk", "--trials", "5", "--seed", "3")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0"])
    def test_non_finite_tolerance_exits_1(self, run, monkeypatch, bad):
        monkeypatch.setenv("CLIF_TOL", bad)
        code, out, err = run("verify", "fpk", "--trials", "5", "--seed", "3")
        assert code == 1 and out == "" and "CLIF_TOL" in err

    @pytest.mark.parametrize("nan_at", [0, 3])
    def test_nan_residual_fails_the_suite(self, run, monkeypatch, nan_at):
        # max(0.0, nan) is 0.0: a plain max would let the planted NaN pass
        import spinorlab.cli as cli

        calls = []

        def planted(*quad):
            calls.append(None)
            return float("nan") if len(calls) == nan_at + 1 else 0.0

        monkeypatch.setattr(cli, "fierz_identity_residual", planted)
        code, out, _ = run("verify", "fierz", "--trials", "5", "--seed", "0")
        doc = json.loads(out)
        assert code == 2 and doc["pass"] is False and doc["max_residual"] != doc["max_residual"]


    @pytest.mark.parametrize("entry", ["k_plus_j", "auxiliary"])
    def test_nan_inside_one_fpk_report_fails_the_suite(self, run, monkeypatch, entry):
        # the report's own fold must keep the NaN for the suite reducer to see it
        import dataclasses

        import spinorlab.cli as cli

        original, calls = cli.fpk_residuals, []

        def planted(B):
            report = original(B)
            calls.append(None)
            if len(calls) != 2:
                return report
            if entry == "auxiliary":
                return dataclasses.replace(report, auxiliary=(0.0, float("nan")))
            return dataclasses.replace(report, k_plus_j=float("nan"))

        monkeypatch.setattr(cli, "fpk_residuals", planted)
        code, out, _ = run("verify", "fpk", "--trials", "5", "--seed", "0")
        doc = json.loads(out)
        assert len(calls) == 5
        assert code == 2 and doc["pass"] is False and doc["max_residual"] != doc["max_residual"]


class TestReconstruct:
    def test_round_trip_through_cli(self, run, tmp_path):
        psi = {"rep": "weyl", "components": [[1, 0], [0, 0], [1, 1], [0, 0]]}
        f = write_json(tmp_path / "psi.json", psi)
        _, out, _ = run("classify", "dirac", f)
        bil = json.loads(out)["bilinears"]
        fb = write_json(tmp_path / "bil.json", bil)
        code, out, _ = run("reconstruct", fb)
        assert code == 0
        doc = json.loads(out)
        assert doc["rep"] == "weyl" and doc["N"] > 0
        f2 = write_json(tmp_path / "psi2.json", {"rep": doc["rep"], "components": doc["components"]})
        _, out2, _ = run("classify", "dirac", f2)
        bil2 = json.loads(out2)["bilinears"]
        assert all(abs(bil[k1] - bil2[k1]) <= 1e-8 for k1 in ("sigma", "omega"))
        for key in ("J", "S", "K"):
            assert max(abs(a - b) for a, b in zip(bil[key], bil2[key])) <= 1e-8

    def test_zero_bilinears_exit_2(self, run, tmp_path):
        doc = {"sigma": 0.0, "J": [0.0] * 4, "S": [0.0] * 6, "K": [0.0] * 4, "omega": 0.0}
        f = write_json(tmp_path / "b.json", doc)
        code, out, _ = run("reconstruct", f)
        assert code == 2
        assert json.loads(out)["error"] == "ReconstructionFailed"

    @pytest.mark.parametrize("key,bad", [("sigma", float("nan")), ("J", [0.0, float("inf"), 0.0, 0.0])])
    def test_non_finite_bilinears_exit_1(self, run, tmp_path, key, bad):
        doc = {"sigma": 1.0, "J": [1.0, 0.0, 0.0, 0.0], "S": [0.0] * 6, "K": [0.0] * 4, "omega": 0.0}
        doc[key] = bad
        f = write_json(tmp_path / "b.json", doc)
        code, out, err = run("reconstruct", f)
        assert code == 1 and out == "" and "non-finite" in err

    @pytest.mark.parametrize("key,bad", [("sigma", "1.5"), ("J", [True, "0", 0, 0])])
    def test_non_number_bilinears_exit_1(self, run, tmp_path, key, bad):
        doc = {"sigma": 1.0, "J": [1.0, 0.0, 0.0, 0.0], "S": [0.0] * 6, "K": [0.0] * 4, "omega": 0.0}
        doc[key] = bad
        code, out, err = run("reconstruct", write_json(tmp_path / "b.json", doc))
        assert code == 1 and out == "" and err.startswith("clif: ") and err.count("\n") == 1

    def test_string_block_exits_1(self, run, tmp_path):
        # a string J once read as its characters, J = (1, 2, 3, 4)
        doc = {"sigma": 1.0, "J": "1234", "S": [0.0] * 6, "K": [0.0] * 4, "omega": 0.0}
        code, out, err = run("reconstruct", write_json(tmp_path / "b.json", doc))
        assert code == 1 and out == "" and err.startswith("clif: ") and err.count("\n") == 1


class TestRep:
    def test_idempotent_dump(self, run):
        code, out, _ = run("rep", "--sig", "2,0")
        doc = json.loads(out)
        assert code == 0 and doc["size"] == 2
        assert doc["matrices"]["e1"]["re"] == [1.0, 0.0, 0.0, -1.0]
        assert doc["matrices"]["e12"]["re"] == [0.0, 1.0, -1.0, 0.0]

    def test_builtin_dump(self, run):
        code, out, _ = run("rep", "--builtin", "weyl")
        doc = json.loads(out)
        assert code == 0 and doc["dim"] == 4 and len(doc["gammas"]) == 4
        g0 = doc["gammas"][0]
        assert g0["re"][2] == 1.0  # off-diagonal identity block


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "dirac", "f", "--tol", "-inf"),
            ("verify", "fpk"),
            (),
            ("frobnicate",),
            ("verify", "fpk", "--trials", "many"),
        ],
        ids=["tol-minus-inf", "missing-trials", "bare", "unknown-command", "bad-int"],
    )
    def test_usage_errors_exit_1(self, run, argv):
        code, out, err = run(*argv)
        assert code == 1 and out == "" and err.startswith("clif: ") and err.count("\n") == 1

    def test_help_exits_0(self, run):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
        with pytest.raises(SystemExit) as exc:
            run("verify", "--help")
        assert exc.value.code == 0


class TestExitCodeContract:
    def test_exit_2_paths_emit_json(self, run, tmp_path):
        # a mathematical failure (unsupported ring) still carries a JSON diagnostic
        code, out, err = run("rep", "--sig", "2,0")
        assert code == 0
        code, out, err = run("rep", "--sig", "3,0")
        assert code == 1 and out == ""  # wired for 2,0 only: invalid input

    def test_verify_failure_is_json(self, run, monkeypatch):
        monkeypatch.setenv("CLIF_TOL", "1e-30")
        code, out, _ = run("verify", "groups", "--trials", "5", "--seed", "1")
        assert code == 2
        json.loads(out)
