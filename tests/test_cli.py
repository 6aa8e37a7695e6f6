import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smoothcure
from smoothcure import (
    CsvSchema,
    CureModelError,
    NumericalError,
    cli,
    fit_cure_model,
    load_csv,
    make_scenario,
    prediction_error,
    write_csv,
)
from smoothcure.cli import main
from smoothcure.simulate import DEFAULT_SEED, generate


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "toy.csv"
    ds = generate(make_scenario("m1/s1/c1", n=120), seed=42)
    write_csv(ds, path)
    return str(path)


SCHEMA = ["--time", "time", "--status", "status", "--x", "x1", "--z", "x1"]


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_artifact_csv(path, seed=DEFAULT_SEED):
    # Commands without --seed record the default.
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        assert first.startswith("# ")
        assert "version=" in first and "config_hash=" in first
        assert f"seed={seed}" in first.rstrip("\n").split(", ")
        return list(csv.DictReader(fh))


class TestFit:
    def test_fit_presmooth_report(self, data_csv, tmp_path):
        out = tmp_path / "report.json"
        lam = tmp_path / "lambda.csv"
        pihat = tmp_path / "pihat.csv"
        code = main(
            ["fit", "--input", data_csv, *SCHEMA, "--out", str(out),
             "--lambda-out", str(lam), "--dump-pihat", str(pihat)]
        )
        assert code == 0
        report = read_report(out)
        assert {"version", "config_hash", "seed", "estimates"} <= set(report)
        assert report["seed"] == DEFAULT_SEED
        block = report["estimates"][0]
        assert block["method"] == "presmooth"
        assert block["converged"] is True
        assert set(block["gamma"]) == {"gamma_intercept", "gamma_x1"}
        assert len(read_artifact_csv(lam)) > 10
        assert len(read_artifact_csv(pihat)) == 120

    def test_both_methods_share_schema(self, data_csv, tmp_path):
        out = tmp_path / "both.json"
        code = main(["fit", "--input", data_csv, *SCHEMA, "--method", "both", "--out", str(out)])
        assert code == 0
        blocks = read_report(out)["estimates"]
        assert [b["method"] for b in blocks] == ["presmooth", "mle"]
        assert set(blocks[0]["gamma"]) == set(blocks[1]["gamma"])
        assert set(blocks[0]) - set(blocks[1]) <= {"bandwidth", "lambda_csv", "pihat_csv"}

    def test_fit_without_latency_covariates(self, data_csv, tmp_path):
        out = tmp_path / "noz.json"
        schema = ["--time", "time", "--status", "status", "--x", "x1"]
        code = main(["fit", "--input", data_csv, *schema, "--method", "both", "--out", str(out)])
        assert code == 0
        for block in read_report(out)["estimates"]:
            assert block["beta"] == {}

    def test_bandwidth_override_recorded(self, data_csv, tmp_path):
        out = tmp_path / "bw.json"
        code = main(["fit", "--input", data_csv, *SCHEMA, "--bandwidth", "0.5", "--out", str(out)])
        assert code == 0
        assert read_report(out)["estimates"][0]["bandwidth"] == [0.5]

    def test_bandwidth_grid_flag(self, data_csv, tmp_path):
        out = tmp_path / "grid.json"
        code = main(
            ["fit", "--input", data_csv, *SCHEMA, "--bandwidth-grid", "0.3:1.5:6", "--out", str(out)]
        )
        assert code == 0
        bw = read_report(out)["estimates"][0]["bandwidth"][0]
        assert 0.3 <= bw <= 1.5

    @pytest.mark.parametrize("value", ["nope", ""])
    def test_malformed_bandwidth_grid_exits_one(self, data_csv, tmp_path, value):
        code = main(
            ["fit", "--input", data_csv, *SCHEMA, "--bandwidth-grid", value,
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 1

    def test_grid_without_continuous_covariate_exits_one(self, tmp_path, capsys):
        # An m3 draw loaded with its discrete incidence covariates only has
        # no bandwidth to search for.
        path = tmp_path / "m3.csv"
        write_csv(generate(make_scenario("m3/s1/c1", n=120), seed=5), path)
        out = tmp_path / "x.json"
        code = main(["fit", "--input", str(path), "--time", "time", "--status", "status",
                     "--xdiscrete", "x2,x3", "--z", "x1", "--bandwidth-grid", "0.1:1:5", "--out", str(out)])
        assert code == 1 and not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigurationError"

    @pytest.mark.parametrize("value", ["abc", "0.5,", ""])
    def test_malformed_bandwidth_exits_one(self, data_csv, tmp_path, capsys, value):
        # A typed error line that names the flag, not a traceback.
        code = main(["fit", "--input", data_csv, *SCHEMA, "--bandwidth", value, "--out", str(tmp_path / "x.json")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigurationError" and "--bandwidth" in error["message"]

    @pytest.mark.parametrize("flags", [["--latency-tol", "inf"], ["--latency-max-iter", "0"]],
                             ids=["tol-inf", "max-iter-zero"])
    def test_em_stop_rule_it_cannot_honour_exits_one(self, data_csv, tmp_path, capsys, flags):
        out = tmp_path / "x.json"
        code = main(["fit", "--input", data_csv, *SCHEMA, "--bandwidth", "0.5", *flags, "--out", str(out)])
        assert code == 1 and not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigurationError"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--bandwidth", "0.4", "--bandwidth-grid", "0.1:1:5"],
            ["--method", "mle", "--bandwidth", "0.5"],
            ["--method", "mle", "--bandwidth-grid", "0.1:1:5"],
            ["--method", "mle", "--dump-pihat", "pihat.csv"],
        ],
        ids=["bandwidth-and-grid", "mle-bandwidth", "mle-grid", "mle-dump-pihat"],
    )
    def test_unused_fit_input_exits_one(self, data_csv, tmp_path, capsys, monkeypatch, flags):
        # A flag the requested fit would drop is refused, and nothing is written.
        monkeypatch.chdir(tmp_path)
        code = main(["fit", "--input", data_csv, *SCHEMA, *flags, "--out", "x.json"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigurationError"
        assert list(tmp_path.iterdir()) == []

    def test_both_sends_bandwidth_to_presmoothing_only(self, data_csv, tmp_path):
        out = tmp_path / "both.json"
        code = main(["fit", "--input", data_csv, *SCHEMA, "--method", "both", "--bandwidth", "0.5",
                     "--out", str(out)])
        assert code == 0
        presmooth, mle = read_report(out)["estimates"]
        assert presmooth["bandwidth"] == [0.5] and "bandwidth" not in mle

    @pytest.mark.parametrize("absolute", [False, True])
    def test_lambda_out_prefix_goes_on_the_file_name(self, data_csv, tmp_path, monkeypatch, absolute):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        target = tmp_path / "sub" / "hazard.csv" if absolute else Path("sub", "hazard.csv")
        out = tmp_path / "both.json"
        code = main(["fit", "--input", data_csv, *SCHEMA, "--method", "both", "--lambda-out", str(target),
                     "--out", str(out)])
        assert code == 0
        blocks = read_report(out)["estimates"]
        for block in blocks:
            path = target.with_name(f"{block['method']}_hazard.csv")
            assert block["lambda_csv"] == str(path)
            assert len(read_artifact_csv(path)) > 10
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["mle_hazard.csv", "presmooth_hazard.csv"]

    def test_missing_flag_exits_two(self, data_csv):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", data_csv, "--status", "status"])
        assert exc.value.code == 2

    def test_nonconvergent_fit_exits_one(self, tmp_path):
        # all-event data: the joint EM cannot identify a cure fraction
        rng = np.random.default_rng(0)
        path = tmp_path / "allevents.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time,status,x1\n")
            for _ in range(60):
                fh.write(f"{rng.exponential():.6f},1,{rng.normal():.6f}\n")
        out = tmp_path / "r.json"
        code = main(
            ["fit", "--input", str(path), *SCHEMA, "--method", "mle",
             "--latency-max-iter", "40", "--out", str(out)]
        )
        assert code == 1
        assert read_report(out)["estimates"][0]["converged"] is False

    def test_numerical_error_is_a_json_error(self, data_csv, tmp_path, capsys, monkeypatch):
        # A fit that fails numerically ends in one JSON line, not a traceback.
        def fit_cure_model(ds, method, **options):
            raise NumericalError("weighted risk-set mass nan at event time 1.0")

        monkeypatch.setattr(cli, "fit_cure_model", fit_cure_model)
        code = main(["fit", "--input", data_csv, *SCHEMA, "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "NumericalError"


class TestSimulate:
    def test_registry_key_and_artifact(self, tmp_path):
        out = tmp_path / "study.csv"
        code = main(
            ["simulate", "--key", "m1/s1/c1",
             "--n", "50", "--reps", "10", "--seed", "5", "--methods", "mle", "--out", str(out)]
        )
        assert code == 0
        rows = read_artifact_csv(out, seed=5)
        assert {r["parameter"] for r in rows} == {"gamma_intercept", "gamma_x1", "beta_x1"}
        truth = {r["parameter"]: float(r["truth"]) for r in rows}
        assert truth["gamma_intercept"] == 1.75 and truth["gamma_x1"] == 2.0

    def test_demo_and_explicit_keys_resolve(self, tmp_path):
        out = tmp_path / "demo.csv"
        code = main(
            ["simulate", "--key", "demo/convergence", "--n", "60", "--reps", "10",
             "--seed", "5", "--methods", "mle", "--out", str(out)]
        )
        assert code == 0
        assert len(read_artifact_csv(out, seed=5)) == 8 * 1  # 5 gamma + 3 beta, one method
        out2 = tmp_path / "nojump.csv"
        code = main(
            ["simulate", "--key", "m3nj/s1/c2", "--n", "60", "--reps", "10",
             "--seed", "5", "--methods", "mle", "--out", str(out2)]
        )
        assert code == 0

    @pytest.mark.parametrize("flags,n", [([], make_scenario("demo/convergence").n), (["--n", "60"], 60)])
    def test_sample_size_defaults_to_the_scenario(self, monkeypatch, tmp_path, flags, n):
        # Without --n a study runs at the scenario's own sample size.
        seen = []

        def run_study(scenario, *args, **kwargs):
            seen.append(scenario.n)
            raise CureModelError("stop before fitting")

        monkeypatch.setattr(cli, "run_study", run_study)
        code = main(["simulate", "--key", "demo/convergence", *flags, "--reps", "10",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1 and seen == [n]
        assert make_scenario("demo/convergence").n != 200  # the old fixed default

    def test_unknown_key_exits_one(self, tmp_path):
        code = main(
            ["simulate", "--key", "m9/s9/c9", "--n", "50", "--reps", "10",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1


class TestBootstrap:
    def test_same_seed_same_bytes(self, data_csv, tmp_path):
        out = tmp_path / "boot.csv"
        args = ["bootstrap", "--input", data_csv, *SCHEMA, "--method", "mle",
                "--B", "8", "--seed", "9", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    DEMO_SCHEMA = ["--time", "time", "--status", "status", "--x", "x1,x2", "--xdiscrete", "x3,x4",
                   "--z", "x1,x3,x4"]

    @pytest.mark.parametrize(
        "replication, B, message",
        [(15, "8", "did not converge"), (9, "3", "1 of 3 bootstrap refits converged")],
        ids=["full-fit-not-converged", "one-refit-converged"],
    )
    def test_no_inference_exits_one(self, tmp_path, capsys, replication, B, message):
        # demo/convergence at the default seed: replication 15's joint-EM
        # fit does not converge (fit --method mle exits 1 on it too), and on
        # replication 9 only 1 of 3 refits does.  Either ends in one JSON
        # InferenceError line and no artifact.
        data = tmp_path / "demo.csv"
        write_csv(generate(make_scenario("demo/convergence"), DEFAULT_SEED, replication), data)
        out = tmp_path / "boot.csv"
        code = main(["bootstrap", "--input", str(data), *self.DEMO_SCHEMA, "--method", "mle",
                     "--B", B, "--seed", "1", "--out", str(out)])
        assert code == 1 and not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "InferenceError" and message in error["message"]


class TestWorkersFlag:
    @pytest.mark.parametrize("command, workers", [("simulate", "-1"), ("bootstrap", "0")])
    def test_fewer_than_one_exits_one(self, command, workers, data_csv, tmp_path, capsys):
        # One JSON error line, no traceback and no artifact.
        inputs = (["--key", "m1/s1/c1", "--n", "60", "--reps", "10"] if command == "simulate"
                  else ["--input", data_csv, *SCHEMA, "--B", "4"])
        out = tmp_path / "out.csv"
        code = main([command, *inputs, "--workers", workers, "--out", str(out)])
        assert code == 1 and not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigurationError" and f"n_jobs={workers}" in error["message"]

    def test_bootstrap_defaults_to_the_library_rule(self, data_csv, tmp_path, monkeypatch):
        # Without --workers the bootstrap leaves the worker count to bootstrap_se.
        seen = []

        def bootstrap_se(ds, **kwargs):
            seen.append(kwargs["n_jobs"])
            raise CureModelError("stop before fitting")

        monkeypatch.setattr(cli, "bootstrap_se", bootstrap_se)
        args = ["bootstrap", "--input", data_csv, *SCHEMA, "--B", "4", "--out", str(tmp_path / "b.csv")]
        assert main(args) == 1
        assert main([*args, "--workers", "2"]) == 1
        assert seen == [None, 2]


class TestPredict:
    def test_artifact_and_pe(self, data_csv, tmp_path, capsys):
        test_csv = tmp_path / "test.csv"
        ds = generate(make_scenario("m1/s1/c1", n=60), seed=43)
        write_csv(ds, test_csv)
        out = tmp_path / "pred.csv"
        code = main(
            ["predict", "--train", data_csv, "--test", str(test_csv), *SCHEMA,
             "--method", "mle", "--out", str(out)]
        )
        assert code == 0
        rows = read_artifact_csv(out)
        assert len(rows) == 60
        for r in rows:
            assert 0.0 <= float(r["phi"]) <= 1.0
            assert 0.0 <= float(r["weight"]) <= 1.0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["prediction_error"] >= 0.0
        schema = CsvSchema("time", "status", x_continuous=("x1",), z=("x1",))
        fit = fit_cure_model(load_csv(data_csv, schema), "mle")
        assert payload["prediction_error"] == prediction_error(fit, load_csv(test_csv, schema))

    def test_missing_train_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--test", "nope.csv", *SCHEMA, "--out", "x.csv"])
        assert exc.value.code == 2


class TestKm:
    def test_curve_and_groups(self, data_csv, tmp_path):
        out = tmp_path / "km.csv"
        assert main(["km", "--input", data_csv, *SCHEMA, "--out", str(out)]) == 0
        rows = read_artifact_csv(out)
        surv = [float(r["survival"]) for r in rows]
        assert all(0.0 <= s <= 1.0 for s in surv)
        assert all(a >= b - 1e-12 for a, b in zip(surv, surv[1:]))

    def test_group_column(self, tmp_path):
        path = tmp_path / "grouped.csv"
        rng = np.random.default_rng(1)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time,status,arm\n")
            for i in range(40):
                fh.write(f"{rng.exponential():.5f},{int(rng.random() < 0.7)},{i % 2}\n")
        out = tmp_path / "km.csv"
        code = main(
            ["km", "--input", str(path), "--time", "time", "--status", "status",
             "--xdiscrete", "arm", "--group", "arm", "--out", str(out)]
        )
        assert code == 0
        rows = read_artifact_csv(out)
        assert {r["group"] for r in rows} == {"0", "1"}

    def test_nonexistent_input_exits_two(self, tmp_path):
        code = main(
            ["km", "--input", str(tmp_path / "missing.csv"), *SCHEMA, "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_config_hash_same_across_processes(self, data_csv, tmp_path):
        # The hash covers the parsed options only, nothing that differs
        # between two interpreters running the same command.
        out = tmp_path / "km.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(smoothcure.__file__).parents[1])}
        hashes = []
        for _ in range(2):
            subprocess.run(
                [sys.executable, "-m", "smoothcure.cli", "km", "--input", data_csv, *SCHEMA, "--out", str(out)],
                env=env, check=True, timeout=120,
            )
            first = out.read_text(encoding="utf-8").splitlines()[0]
            hashes.append(dict(item.split("=", 1) for item in first[2:].split(", "))["config_hash"])
        assert hashes[0] == hashes[1]


class TestSeedFlag:
    """Only simulate and bootstrap draw random numbers, so only they take --seed."""

    @pytest.mark.parametrize("command", ["fit", "predict", "km"])
    def test_rejected_where_nothing_is_drawn(self, command, data_csv, tmp_path):
        inputs = ["--train", data_csv, "--test", data_csv] if command == "predict" else ["--input", data_csv]
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, *SCHEMA, "--seed", "5", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "bootstrap"])
    def test_negative_seed_exits_one(self, command, data_csv, tmp_path, capsys):
        # One JSON error line, no traceback and no artifact.
        inputs = (["--key", "m1/s1/c1", "--n", "60", "--reps", "10"] if command == "simulate"
                  else ["--input", data_csv, *SCHEMA, "--B", "4"])
        out = tmp_path / "out.csv"
        code = main([command, *inputs, "--seed", "-5", "--out", str(out)])
        assert code == 1 and not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigurationError" and "seed=-5" in error["message"]
