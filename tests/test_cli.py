"""End-to-end tests for the command-line surface.

Commands run in-process through main(argv) on small matrices so the whole
file stays fast; one test goes through the installed console script.
"""

import hashlib
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from kronlift.cli import main
from kronlift.data_model import load_matrix
from kronlift.errors import DivergenceError


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


SMALL_SCENARIO = {
    "schema_version": 1,
    "scenario": {
        "channels": 4,
        "samples": 60,
        "white_sigma": 0.01,
        "noise": {"b": 0.5, "snr": 100.0, "enabled": True},
        "seed": 3,
    },
    "detector": {
        "k": 2,
        "n": 2,
        "window_width": 30,
        "use_residual": False,
        "baseline_span": 5,
        "seed": 0,
    },
    "sae": {
        "k": 2,
        "n": 2,
        "learning_rate": 0.001,
        "max_iterations": 40,
        "train_span": [1, 30],
        "seed": 0,
    },
    "esd": {"use_residual": False, "snapshot_at": [40]},
}


@pytest.fixture
def small_data(tmp_path):
    """A 4x60 synthetic matrix CSV plus its config file."""
    cfg = write_config(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "synth"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    return str(out / "data.csv"), cfg


class TestSynth:
    def test_writes_csv_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "run"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        M = load_matrix(out / "data.csv")
        assert M.values.shape == (4, 60)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["outputs"]["data.csv"] == sha256(out / "data.csv")
        assert manifest["config"]["channels"] == 4

    def test_packaged_scenario_name(self, tmp_path):
        out = tmp_path / "case_a"
        assert main(["synth", "--config", "case_a_step",
                     "--out", str(out)]) == 0
        M = load_matrix(out / "data.csv")
        assert M.values.shape == (28, 1000)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["synth", "--config", str(bad), "--out",
                   str(tmp_path / "o")])
        assert rc == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["synth", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("version", [2, True, "1"])
    def test_bad_schema_version_exits_2(self, tmp_path, capsys, version):
        cfg = write_config(tmp_path, {"schema_version": version})
        assert main(["synth", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_unknown_section_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": {}})
        assert main(["synth", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["synth", "--config", cfg, "--out", str(out1)])
        main(["synth", "--config", cfg, "--out", str(out2)])
        assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["synth", "--config", cfg, "--out", str(out1)])
        main(["synth", "--config", cfg, "--out", str(out2), "--seed", "99"])
        assert (out1 / "data.csv").read_bytes() != (out2 / "data.csv").read_bytes()
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 99


class TestDetectRmt:
    def test_curves_alarms_manifest(self, small_data, tmp_path):
        data, cfg = small_data
        out = tmp_path / "rmt"
        rc = main(["detect-rmt", data, "--config", cfg, "--out", str(out),
                   "--eval-from", "35", "--eval-to", "45"])
        assert rc == 0
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "t,les_raw,les_norm,msr_raw,msr_norm"
        assert len(lines) == 1 + 11  # t in 35..45
        first = lines[1].split(",")
        assert int(first[0]) == 35
        norm = float(first[2])
        assert 0.0 < norm <= 1.0
        assert (out / "alarms.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "detect-rmt"
        assert "data.csv" in manifest["inputs"]
        assert manifest["config"]["k"] == 2
        assert manifest["config"]["use_residual"] is False

    def test_snapshot_files(self, small_data, tmp_path):
        data, cfg = small_data
        out = tmp_path / "rmt"
        rc = main(["detect-rmt", data, "--config", cfg, "--out", str(out),
                   "--eval-from", "35", "--eval-to", "45",
                   "--snapshot-at", "40,41"])
        assert rc == 0
        for t in (40, 41):
            doc = json.loads((out / f"snapshot_t{t}.json").read_text())
            assert doc["t"] == t
            assert doc["dim"] == 4
            assert len(doc["mp_support"]) == 2
            assert 0.0 <= doc["ks_distance_mp"] <= 1.0
            assert 0.0 <= doc["ring_coverage"] <= 1.0

    def test_oversized_window_exits_3(self, small_data, tmp_path, capsys):
        data, cfg = small_data
        rc = main(["detect-rmt", data, "--config", cfg,
                   "--out", str(tmp_path / "o"), "--window", "2000"])
        assert rc == 3

    def test_identity_lift_k1(self, small_data, tmp_path):
        data, cfg = small_data
        out = tmp_path / "k1"
        rc = main(["detect-rmt", data, "--config", cfg, "--out", str(out),
                   "--k", "1", "--eval-from", "35", "--eval-to", "40"])
        assert rc == 0
        assert (out / "curves.csv").exists()

    def test_rerun_identical_digests(self, small_data, tmp_path):
        data, cfg = small_data
        args = ["detect-rmt", data, "--config", cfg,
                "--eval-from", "35", "--eval-to", "40",
                "--snapshot-at", "38"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]

    def test_missing_data_exits_2(self, tmp_path):
        rc = main(["detect-rmt", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_ring_solver_failure_exits_4(self, small_data, tmp_path,
                                         monkeypatch, capsys):
        data, cfg = small_data

        def eigvals(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        rc = main(["detect-rmt", data, "--config", cfg,
                   "--out", str(tmp_path / "o"),
                   "--eval-from", "35", "--eval-to", "45"])
        assert rc == 4
        assert ("window ending at t=35: ring eigensolver failed"
                in capsys.readouterr().err)


class TestDetectSae:
    def test_training_outputs(self, small_data, tmp_path):
        data, cfg = small_data
        out = tmp_path / "sae"
        assert main(["detect-sae", data, "--config", cfg,
                     "--out", str(out)]) == 0
        rmse = (out / "rmse.csv").read_text().splitlines()
        assert rmse[0] == "t,rmse"
        assert len(rmse) == 1 + 30  # t in 31..60
        assert int(rmse[1].split(",")[0]) == 31
        trace = (out / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,loss"
        assert len(trace) == 1 + 40  # max_iterations rows
        losses = [float(r.split(",")[1]) for r in trace[1:]]
        assert losses[-1] < losses[0]
        assert (out / "model.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {
            "rmse.csv", "loss_trace.csv", "model.json"}

    def test_checkpoint_inference_bit_exact(self, small_data, tmp_path):
        data, cfg = small_data
        train_out = tmp_path / "train"
        main(["detect-sae", data, "--config", cfg, "--out", str(train_out)])
        infer_out = tmp_path / "infer"
        rc = main(["detect-sae", data, "--config", cfg,
                   "--out", str(infer_out),
                   "--checkpoint", str(train_out / "model.json")])
        assert rc == 0
        assert (infer_out / "rmse.csv").read_bytes() == \
            (train_out / "rmse.csv").read_bytes()
        assert not (infer_out / "model.json").exists()

    def test_checkpoint_dimension_mismatch_exits_2(self, small_data, tmp_path):
        data, cfg = small_data
        train_out = tmp_path / "train"
        main(["detect-sae", data, "--config", cfg, "--out", str(train_out)])
        # an 8-channel matrix lifts to dimension 16, not the model's 4
        wide_doc = dict(SMALL_SCENARIO,
                        scenario=dict(SMALL_SCENARIO["scenario"], channels=8),
                        sae=dict(SMALL_SCENARIO["sae"], k=2, n=4))
        wide_cfg = write_config(tmp_path, wide_doc, name="wide.json")
        wide_out = tmp_path / "wide"
        assert main(["synth", "--config", wide_cfg,
                     "--out", str(wide_out)]) == 0
        rc = main(["detect-sae", str(wide_out / "data.csv"),
                   "--config", wide_cfg, "--out", str(tmp_path / "o"),
                   "--checkpoint", str(train_out / "model.json")])
        assert rc == 2

    @pytest.mark.parametrize("doc,message", [
        ({"schema_version": 1}, "has no key 'layer_sizes'"),
        ([1, 2], "is not a JSON object"),
        ("truncated scaler", "scaler does not have 4 coordinates"),
        ("relu activation", "activation 'relu' is not supported"),
        ("nan weight", "non-finite weights"),
        ("infinite span", "non-finite scaler span"),
    ])
    def test_malformed_checkpoint_exits_2(self, small_data, tmp_path, capsys,
                                          doc, message):
        data, cfg = small_data
        ckpt = tmp_path / "model.json"
        if isinstance(doc, str):
            main(["detect-sae", data, "--config", cfg, "--out", str(tmp_path)])
            trained = json.loads(ckpt.read_text())
            if doc == "truncated scaler":
                trained["scaler"]["lo"].pop()
            elif doc == "relu activation":
                trained["activation"] = "relu"
            elif doc == "nan weight":
                trained["weights"][1][0][0] = float("nan")
            else:
                trained["scaler"]["span"][0] = float("inf")
            doc = trained
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["detect-sae", data, "--config", cfg,
                   "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("kronlift detect-sae: ")
        assert str(ckpt) in err and message in err

    @pytest.mark.parametrize("span", [[1, 2000], [0, -10], [300, 100]])
    def test_bad_train_span_exits_2_in_both_modes(self, small_data,
                                                    tmp_path, capsys, span):
        data, cfg = small_data
        train_out = tmp_path / "train"
        assert main(["detect-sae", data, "--config", cfg,
                     "--out", str(train_out)]) == 0
        bad_cfg = write_config(tmp_path, with_section("sae", train_span=span),
                               name="span.json")
        for flags in ([], ["--checkpoint", str(train_out / "model.json")]):
            out = tmp_path / "o"
            capsys.readouterr()
            rc = main(["detect-sae", data, "--config", bad_cfg,
                       "--out", str(out), *flags])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith(f"kronlift detect-sae: train span {span}")
            assert not (out / "rmse.csv").exists()

    def test_divergence_maps_to_exit_4(self, small_data, tmp_path,
                                       monkeypatch, capsys):
        data, cfg = small_data

        def boom(*a, **kw):
            raise DivergenceError("loss became non-finite at iteration 7")

        monkeypatch.setattr("kronlift.cli.run_sae_detailed", boom)
        rc = main(["detect-sae", data, "--config", cfg,
                   "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "non-finite" in capsys.readouterr().err


class TestEsdCheck:
    def test_summary_and_plot_data(self, small_data, tmp_path):
        data, cfg = small_data
        out = tmp_path / "esd"
        rc = main(["esd-check", data, "--config", cfg, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["t"] == 40
        assert doc["dim"] == 4
        assert set(doc) >= {"c_ratio", "mp_support", "ks_distance_mp",
                            "ring_inner", "ring_coverage"}
        hist = (out / "histogram.csv").read_text().splitlines()
        assert hist[0] == "eigenvalue"
        assert len(hist) == 1 + 4
        scatter = (out / "ring_scatter.csv").read_text().splitlines()
        assert scatter[0] == "re,im"
        assert len(scatter) == 1 + 4

    def test_all_data_window(self, small_data, tmp_path):
        data, cfg = small_data
        out = tmp_path / "esd_all"
        rc = main(["esd-check", data, "--config", cfg, "--out", str(out),
                   "--snapshot-at", "all"])
        assert rc == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["window"] == "all"
        assert doc["t"] == 60

    def test_ambiguous_config_times_exit_2(self, small_data, tmp_path, capsys):
        data, _ = small_data
        doc = dict(SMALL_SCENARIO, esd={"use_residual": False,
                                        "snapshot_at": [30, 40]})
        cfg = write_config(tmp_path, doc, name="ambig.json")
        rc = main(["esd-check", data, "--config", cfg,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--snapshot-at" in capsys.readouterr().err

    def test_oversized_window_exits_3(self, small_data, tmp_path, capsys):
        data, cfg = small_data
        capsys.readouterr()
        rc = main(["esd-check", data, "--config", cfg, "--out",
                   str(tmp_path / "o"), "--snapshot-at", "40",
                   "--window", "2000"])
        assert rc == 3
        assert "60 usable samples < window width 2000" in capsys.readouterr().err

    def test_determinism(self, small_data, tmp_path):
        data, cfg = small_data
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["esd-check", data, "--config", cfg, "--out", str(out1)])
        main(["esd-check", data, "--config", cfg, "--out", str(out2)])
        assert (out1 / "summary.json").read_bytes() == \
            (out2 / "summary.json").read_bytes()
        assert (out1 / "ring_scatter.csv").read_bytes() == \
            (out2 / "ring_scatter.csv").read_bytes()


class TestExitCodeMatrix:
    """0 success, 2 config/format, 3 precondition, 4 numerical."""

    def test_all_four_codes(self, small_data, tmp_path, monkeypatch, capsys):
        data, cfg = small_data
        assert main(["esd-check", data, "--config", cfg,
                     "--out", str(tmp_path / "ok")]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        assert main(["synth", "--config", str(bad),
                     "--out", str(tmp_path / "o2")]) == 2
        assert main(["detect-rmt", data, "--config", cfg,
                     "--out", str(tmp_path / "o3"),
                     "--window", "9999"]) == 3

        def boom(*a, **kw):
            raise DivergenceError("non-finite loss")

        monkeypatch.setattr("kronlift.cli.run_sae_detailed", boom)
        assert main(["detect-sae", data, "--config", cfg,
                     "--out", str(tmp_path / "o4")]) == 4
        capsys.readouterr()


def with_section(name, **entries):
    """SMALL_SCENARIO with entries written over section name."""
    return dict(SMALL_SCENARIO, **{name: dict(SMALL_SCENARIO[name], **entries)})


MALFORMED = [
    # (command, config, text the error must contain)
    ("detect-rmt", with_section("detector", window_widht=30),
     "detector.window_widht"),
    ("detect-sae", with_section("sae", learnig_rate=0.5), "sae.learnig_rate"),
    ("esd-check", with_section("esd", sede=7), "esd.sede"),
    ("detect-rmt", with_section("detector", use_residual="no"),
     "detector.use_residual"),
    ("detect-rmt", with_section("detector", alarms_enabled=0),
     "detector.alarms_enabled"),
    ("detect-rmt", with_section("detector", window_width="thirty"),
     "detector.window_width"),
    ("detect-rmt", with_section("detector", snapshot_at=5),
     "detector.snapshot_at"),
    ("detect-sae", with_section("sae", train_span=[1, "b"]),
     "sae.train_span"),
    ("detect-sae", with_section("sae", learning_rate=None),
     "sae.learning_rate"),
    ("detect-sae", with_section("sae", learning_rate=0.0),
     "learning_rate must be positive and finite"),
    ("detect-sae", with_section("sae", learning_rate=float("nan")),
     "sae.learning_rate: bad value nan"),
    ("detect-rmt", with_section("detector", threshold_sigmas=float("nan")),
     "detector.threshold_sigmas: bad value nan"),
    ("detect-rmt", with_section("detector", threshold_sigmas=0.0),
     "detector.threshold_sigmas must be positive, got 0.0"),
    ("detect-rmt", with_section("detector", threshold_sigmas=-5),
     "detector.threshold_sigmas must be positive, got -5.0"),
    ("synth", with_section("scenario", seed=-1), "scenario.seed: bad value -1"),
    ("detect-rmt", with_section("detector", seed=-1),
     "detector.seed: bad value -1"),
    ("detect-sae", with_section("sae", seed=-1), "sae.seed: bad value -1"),
    ("esd-check", with_section("esd", seed=-1), "esd.seed: bad value -1"),
    ("synth", with_section("scenario", noise={"snr": float("inf")}),
     "scenario.noise.snr: bad value inf"),
    ("esd-check", with_section("esd", seed="s"), "esd.seed"),
    ("esd-check", with_section("esd", use_residual=1), "esd.use_residual"),
    ("synth", with_section("scenario", channels="x"), "scenario.channels"),
    ("synth", with_section("scenario", anomalies=[
        {"kind": "step", "onset": "q", "channels": [1], "magnitude": 0.1}]),
     "scenario.anomalies[0].onset"),
    ("synth", with_section("scenario", noise=3), "scenario.noise"),
    ("detect-rmt", dict(SMALL_SCENARIO, detector=5), "detector"),
]


@pytest.mark.parametrize("command,doc,where", MALFORMED,
                         ids=[case[2] for case in MALFORMED])
def test_malformed_config_exits_2(small_data, tmp_path, capsys,
                                  command, doc, where):
    data, _ = small_data
    cfg = write_config(tmp_path, doc, name="malformed.json")
    argv = [command] + ([] if command == "synth" else [data])
    capsys.readouterr()
    rc = main(argv + ["--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"kronlift {command}: ")
    assert where in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["synth", "detect-rmt", "detect-sae",
                                     "esd-check"])
def test_negative_seed_flag_exits_2(small_data, tmp_path, capsys, command):
    """argparse rejects the flag before the command runs, with its usage."""
    data, cfg = small_data
    argv = [command] + ([] if command == "synth" else [data])
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "-1"])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert (f"kronlift {command}: error: argument --seed: expected a "
            "non-negative integer, got '-1'") in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["synth", "detect-rmt", "detect-sae",
                                     "esd-check"])
def test_out_naming_a_file_exits_2_before_any_work(small_data, tmp_path,
                                                    capsys, monkeypatch,
                                                    command):
    def kernel(*a, **kw):
        raise AssertionError("window kernel called")

    monkeypatch.setattr("kronlift.rmt_detector.window_spectra", kernel)
    data, cfg = small_data
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    argv = [command] + ([] if command == "synth" else [data])
    capsys.readouterr()
    rc = main(argv + ["--config", cfg, "--out", str(blocker)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"kronlift {command}: ")
    assert str(blocker) in err
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("command,name", [
    ("synth", "data.csv"), ("detect-rmt", "curves.csv"),
    ("detect-sae", "model.json"), ("esd-check", "summary.json")])
def test_unwritable_output_exits_2(small_data, tmp_path, capsys, command,
                                   name):
    data, cfg = small_data
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    argv = [command] + ([] if command == "synth" else [data])
    capsys.readouterr()
    rc = main(argv + ["--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"kronlift {command}: cannot write {out / name}: "
                   "Is a directory\n")


@pytest.mark.parametrize("bad", ["data", "config"])
def test_non_utf8_input_exits_2(small_data, tmp_path, capsys, bad):
    data, cfg = small_data
    path = tmp_path / "latin1"
    if bad == "data":
        # a Latin-1 micro sign at the end of the header
        text = Path(data).read_bytes()
        path.write_bytes(text.replace(b"\r\n", b"\xb5\r\n", 1))
        data = str(path)
    else:
        doc = dict(SMALL_SCENARIO, description="caf\xe9")
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        cfg = str(path)
    capsys.readouterr()
    rc = main(["esd-check", data, "--config", cfg, "--out",
               str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("kronlift esd-check: ")
    assert f"{path}" in err and "not UTF-8 text" in err
    assert "Traceback" not in err


MANIFEST_CONFIGS = [
    (["synth"], {
        "channels": 4, "samples": 60, "baselines": 1.0, "white_sigma": 0.01,
        "anomalies": [], "noise": {"b": 0.5, "snr": 100.0, "enabled": True},
        "seed": 3}),
    (["detect-rmt", "DATA", "--eval-from", "35", "--eval-to", "45"], {
        "k": 2, "n": 2, "window_width": 30, "stride": 1,
        "test_function": "entropy", "use_residual": False,
        "scale_mode": "sqrt-dim", "baseline_span": 5,
        "threshold_sigmas": 5.0, "alarms_enabled": True, "seed": 0,
        "eval_from": 35, "eval_to": 45, "snapshot_at": []}),
    (["detect-rmt", "DATA", "--eval-from", "35", "--eval-to", "45",
      "--k", "1", "--window", "20", "--seed", "5", "--snapshot-at", "40"], {
        "k": 1, "n": 4, "window_width": 20, "stride": 1,
        "test_function": "entropy", "use_residual": False,
        "scale_mode": "sqrt-dim", "baseline_span": 5,
        "threshold_sigmas": 5.0, "alarms_enabled": True, "seed": 5,
        "eval_from": 35, "eval_to": 45, "snapshot_at": [40]}),
    (["detect-sae", "DATA"], {
        "k": 2, "n": 2, "learning_rate": 0.001, "max_iterations": 40,
        "train_span": [1, 30], "seed": 0}),
    (["esd-check", "DATA"], {
        "k": 2, "n": 2, "window": 30, "use_residual": False, "seed": 0,
        "snapshot_at": "40"}),
    (["esd-check", "DATA", "--k", "1", "--window", "20", "--seed", "7",
      "--snapshot-at", "all"], {
        "k": 1, "n": 4, "window": "all", "use_residual": False, "seed": 7,
        "snapshot_at": "all"}),
]


@pytest.mark.parametrize("argv,config", MANIFEST_CONFIGS,
                         ids=[" ".join(a[:1] + a[2:]) for a, _ in MANIFEST_CONFIGS])
def test_manifest_config_is_the_settings_run(small_data, tmp_path, argv,
                                             config):
    data, cfg = small_data
    argv = [data if a == "DATA" else a for a in argv]
    out = tmp_path / "o"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == config
    assert manifest["seed"] == config["seed"]


def test_no_residual_flag_writes_use_residual(small_data, tmp_path):
    data, _ = small_data
    cfg = write_config(tmp_path, with_section("esd", use_residual=True))
    out = tmp_path / "o"
    assert main(["esd-check", data, "--config", cfg, "--out", str(out),
                 "--no-residual"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["use_residual"] is False


@pytest.mark.skipif(shutil.which("kronlift") is None,
                    reason="console script not on PATH")
def test_console_script_version():
    out = subprocess.run(["kronlift", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip()


def test_lift_factorization_mismatch_exits_2(small_data, tmp_path):
    data, _ = small_data
    doc = dict(SMALL_SCENARIO,
               detector={"k": 2, "n": 14, "window_width": 30})
    cfg = write_config(tmp_path, doc, name="mismatch.json")
    rc = main(["detect-rmt", data, "--config", cfg,
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_odd_channel_split_exits_2(tmp_path):
    doc = {
        "scenario": {"channels": 5, "samples": 40, "seed": 0},
        "detector": {"k": 2, "window_width": 20},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "synth"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    rc = main(["detect-rmt", str(out / "data.csv"), "--config", cfg,
               "--out", str(tmp_path / "o")])
    assert rc == 2
