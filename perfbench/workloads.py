"""The four benchmark workloads, shared by run.py and child.py.

A workload names its scenario config, the detection command, the
follow-up commands that reuse the detection's input or output, and what
the independent output checks expect (onset, alarm window, sampled
windows).  Command lines are built relative to one round directory so
that every round writes fresh files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Times every process of the benchmark fixes its BLAS pool to.  1 is the
# canonical mode (bit-stable curves) and leaves the second core to the OS.
BLAS_THREADS = 1

# Follow-up command sets run after each detection; their median over all
# sets of a run is followup_s.
FOLLOWUP_SETS = 16

# The generated k=3 scenario: 27 channels (k=3, n=9, 729 lifted dims, more
# than the 200-sample window), a step on one channel of each segment.
K3_CONFIG = {
    "schema_version": 1,
    "name": "k3_step",
    "description": "27 channels at unit baseline; a 0.05 per-unit step hits "
                   "channels 3, 12, 21 from t = 301 onward.",
    "scenario": {
        "channels": 27,
        "samples": 400,
        "baselines": 1.0,
        "white_sigma": 0.001,
        "anomalies": [{"kind": "step", "onset": 301, "end": 400,
                       "channels": [3, 12, 21], "magnitude": 0.05}],
        "noise": {"b": 0.5, "snr": 1000.0, "enabled": True},
        "seed": 0,
    },
    "detector": {
        "k": 3, "n": 9, "window_width": 200, "stride": 1,
        "test_function": "entropy", "use_residual": False,
        "scale_mode": "sqrt-dim", "baseline_span": 40,
        "threshold_sigmas": 5.0, "seed": 0,
    },
    "esd": {"use_residual": True},
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "rmt" or "sae"
    config: str  # packaged scenario name, or "k3_step" (written to disk)
    k: int | None  # --k override; None keeps the config's factorization
    eval_range: tuple[int, int] | None  # --eval-from/--eval-to
    snapshots: tuple[int, ...]  # esd-check times (rmt workloads)
    onset: int
    # the first alarm of each indicator in alarm_kinds at or after
    # alarm_window[0] must come by alarm_window[1]; alarms before the window
    # are not checked (the deviation rule raises false alarms in the
    # baseline on some seeds)
    alarm_kinds: tuple[str, ...] = ()
    alarm_window: tuple[int, int] = (0, 0)
    check_times: tuple[int, ...] = ()  # windows recomputed by checks (a)/(b)

    def config_doc(self, root: Path) -> dict:
        """The config the commands read, from the checkout or K3_CONFIG."""
        if self.config == "k3_step":
            return K3_CONFIG
        path = root / "src" / "kronlift" / "scenarios" / f"{self.config}.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def config_arg(self, work: Path) -> str:
        if self.config == "k3_step":
            return str(work / "k3_step.json")
        return self.config

    def lift(self, doc: dict) -> tuple[int, int]:
        section = doc["sae" if self.kind == "sae" else "detector"]
        channels = doc["scenario"]["channels"]
        if self.k is None:
            return int(section["k"]), int(section["n"])
        return self.k, channels // self.k

    def detect_argv(self, data: Path, work: Path, out: Path) -> list[str]:
        cmd = "detect-sae" if self.kind == "sae" else "detect-rmt"
        argv = [cmd, str(data), "--config", self.config_arg(work),
                "--out", str(out)]
        if self.k is not None:
            argv += ["--k", str(self.k)]
        if self.eval_range is not None:
            argv += ["--eval-from", str(self.eval_range[0]),
                     "--eval-to", str(self.eval_range[1])]
        return argv

    def followup_argvs(self, data: Path, work: Path, detect_out: Path,
                       out: Path) -> list[tuple[str, list[str]]]:
        """(output directory name, argv) of one follow-up set."""
        base = [str(data), "--config", self.config_arg(work)]
        if self.k is not None:
            base += ["--k", str(self.k)]
        if self.kind == "sae":
            return [("score", ["detect-sae", *base, "--out", str(out / "score"),
                               "--checkpoint",
                               str(detect_out / "model.json")])]
        return [(f"esd_t{t}", ["esd-check", *base,
                               "--out", str(out / f"esd_t{t}"),
                               "--snapshot-at", str(t)])
                for t in self.snapshots]


WORKLOADS = {
    w.name: w
    for w in (
        # k=2 on the packaged step: the MSR ring path dominates each window.
        # The range keeps the 300 pre-onset baseline windows of c3a.
        Workload(
            name="rmt_lifted_step", kind="rmt", config="case_a_step", k=None,
            eval_range=(201, 510), snapshots=(500, 501), onset=501,
            alarm_kinds=("LES", "MSR"), alarm_window=(500, 502),
            check_times=(201, 500, 501, 510),
        ),
        # k=1 over the whole ramp record: per-window Python overhead.
        Workload(
            name="rmt_unlifted_ramp", kind="rmt", config="case_b_ramp", k=1,
            eval_range=None, snapshots=(500, 501), onset=501,
            alarm_kinds=("LES",), alarm_window=(501, 651),
            check_times=(200, 500, 651, 1000),
        ),
        # autoencoder training and checkpoint scoring; no spectral code.
        Workload(
            name="sae_lifted_step", kind="sae", config="case_a_step", k=None,
            eval_range=None, snapshots=(), onset=501,
        ),
        # k=3, n=9: lift and covariance layers, ring on the transpose.
        Workload(
            name="rmt_k3_step", kind="rmt", config="k3_step", k=None,
            eval_range=(261, 310), snapshots=(300, 301), onset=301,
            alarm_kinds=("LES",), alarm_window=(300, 302),
            check_times=(261, 300, 301, 310),
        ),
    )
}
