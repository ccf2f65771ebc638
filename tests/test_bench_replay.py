"""The benchmark's traced replay reproduces the CLI's files byte for byte.

perfbench/traced.py re-runs each command it traces through the library's
public functions and run.py judges a traced round `incorrect` when its
files differ from the untraced CLI round's.  These tests run both on a
tiny generated scenario, so a library change that the replay can no
longer follow fails here rather than only in a full benchmark run.  The
perfbench modules are imported read-only: no bytecode is written there.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from kronlift.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_perfbench():
    saved_flag, saved_path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
        import traced
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode = saved_flag
        sys.path[:] = saved_path
    return checks, traced, tracing, workloads


checks, traced, tracing, workloads = _import_perfbench()


@dataclasses.dataclass(frozen=True)
class TinyWorkload(workloads.Workload):
    """A workload whose config is the file work/tiny.json."""

    def config_arg(self, work: Path) -> str:
        return str(work / "tiny.json")


SCENARIO = {
    "channels": 12, "samples": 60, "white_sigma": 0.01,
    "noise": {"b": 0.5, "snr": 100.0, "enabled": True}, "seed": 4,
}
# k=3, n=4: 64 lifted dims against a 30-sample window
RMT_DOC = {
    "schema_version": 1,
    "scenario": SCENARIO,
    "detector": {
        "k": 3, "n": 4, "window_width": 30, "stride": 1,
        "test_function": "entropy", "use_residual": False,
        "scale_mode": "sqrt-dim", "baseline_span": 5,
        "threshold_sigmas": 5.0, "seed": 0,
    },
    "esd": {"use_residual": True},
}
SAE_DOC = {
    "schema_version": 1,
    "scenario": SCENARIO,
    "sae": {
        "k": 2, "n": 6, "learning_rate": 0.001, "max_iterations": 30,
        "train_span": [1, 30], "seed": 0,
    },
}
CASES = {
    "rmt_k3": (RMT_DOC, TinyWorkload(
        name="rmt_k3", kind="rmt", config="tiny", k=None,
        eval_range=(35, 55), snapshots=(40,), onset=0)),
    "sae_score": (SAE_DOC, TinyWorkload(
        name="sae_score", kind="sae", config="tiny", k=None,
        eval_range=None, snapshots=(), onset=0)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_replay_reproduces_cli_outputs(tmp_path, case):
    doc, w = CASES[case]
    work = tmp_path / "work"
    work.mkdir()
    Path(w.config_arg(work)).write_text(json.dumps(doc), encoding="utf-8")
    assert main(["synth", "--config", w.config_arg(work),
                 "--out", str(tmp_path / "data")]) == 0
    data = tmp_path / "data" / "data.csv"

    cli_round, traced_round = tmp_path / "round", tmp_path / "traced"
    assert main(w.detect_argv(data, work, cli_round / "detect")) == 0
    followups = w.followup_argvs(data, work, cli_round / "detect", cli_round)
    for _, argv in followups:
        assert main(argv) == 0
    traced.replay_round(tracing.Tracer(), w, doc, data, work, traced_round)

    names = ["detect", *(name for name, _ in followups)]
    assert len(names) == 2
    problems = [p for name in names
                for p in checks.same_outputs(cli_round / name,
                                             traced_round / name)]
    assert problems == []
    # esd-check's settings too, key for key and in order; the replayed
    # detect-rmt and detect-sae manifests still record other settings
    if w.kind == "rmt":
        assert _config(traced_round / "esd_t40") == \
            _config(cli_round / "esd_t40")


def _config(out: Path) -> list:
    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return list(doc["config"].items())
