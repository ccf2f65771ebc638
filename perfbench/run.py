"""kronlift benchmark: end-to-end CLI timings and a traced per-layer split.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds T]
                             [--trace 0|1]

Run from the root of a kronlift checkout (the directory holding src/).
Each workload runs in child processes with the BLAS thread count fixed
in their environment: SETUP_REPEATS set-up children (import kronlift,
synth.generate, write data.csv), then one child that drives
kronlift.cli.main in whole rounds for T seconds.  This process then
checks every output apart from the program (checks.py), counts attempted
and failed operations, and prints each metric with its unit.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a traced replay of each round.  Outputs and spans go under
.perfbench_out/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import BLAS_THREADS, WORKLOADS

os.environ.update({v: str(BLAS_THREADS) for v in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import checks  # noqa: E402  (numpy must load after the thread count is set)
from tracing import self_times  # noqa: E402

HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
# the direct children of each traced command span must cover at least this
# share of it; the rest is the CLI's own formatting and manifest work
MIN_CHILD_SHARE = 0.90

END_TO_END = {"setup_s": "s", "detect_s": "s", "followup_s": "s",
              "peak_rss_mb": "MB"}
# per-layer metric -> span whose summed self time it reports
LAYER_SPANS = {
    "spectral.ring_eigvals_s": "spectral.ring_eigvals",
    "spectral.singular_value_equivalent_s":
        "spectral.singular_value_equivalent",
    "spectral.haar_unitary_s": "spectral.haar_unitary",
    "spectral.tensor_covariance_s": "spectral.tensor_covariance",
    "spectral.covariance_eigenvalues_s": "spectral.covariance_eigenvalues",
    "spectral.row_standardize_s": "spectral.row_standardize",
    "spectral.summarize_window_s": "spectral.summarize_window",
    "lift.lift_matrix_s": "lift.lift_matrix",
    "indicators.les_s": "indicators.les",
    "indicators.msr_s": "indicators.msr",
    "indicators.normalize_curve_s": "indicators.normalize_curve",
    "rmt_detector.self_s": "rmt_detector.run_rmt",
    "rmt_detector.deviation_alarms_s": "rmt_detector.deviation_alarms",
    "data_model.load_matrix_s": "data_model.load_matrix",
    "autoencoder.loss_and_gradients_s": "autoencoder.loss_and_gradients",
    "autoencoder.adam_step_s": "autoencoder.adam_step",
    "autoencoder.save_checkpoint_s": "autoencoder.save_checkpoint",
    "autoencoder.load_checkpoint_s": "autoencoder.load_checkpoint",
    "autoencoder.score_matrix_s": "autoencoder.score_matrix",
}
# per-layer counter -> (span, counter key, how counters of a round combine)
LAYER_COUNTERS = {
    "lift.lifted_bytes": ("lift.lift_matrix", "bytes", max),
    "rmt_detector.windows": ("rmt_detector.run_rmt", "windows", sum),
    "rmt_detector.alarms": ("rmt_detector.run_rmt", "alarms", sum),
    "autoencoder.iterations": ("autoencoder.train", "iterations", sum),
    "autoencoder.iterations_to_tolerance":
        ("autoencoder.train", "iterations_to_tolerance", sum),
}
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    "lift.lifted_bytes": "B", "rmt_detector.windows": "count",
    "rmt_detector.alarms": "count", "autoencoder.iterations": "count",
    "autoencoder.iterations_to_tolerance": "count",
    "cli.self_s": "s", "cli.output_bytes": "B",
    "synth.generate_s": "s", "data_model.save_matrix_s": "s",
    "trace.overhead_share": "share", "trace.child_share": "share",
}


def fix_child_layout() -> None:
    """Start child processes without address-space randomization.

    With it, each child's heap lands at another address, and the short
    Python-heavy follow-up commands ran up to 20% apart from one process
    to the next (per-process medians 34.9-41.9 ms against 33.7-35.9 ms
    without).  The flag is inherited by the children this process
    starts; it changes nothing outside them.  Where the personality call
    is missing, the children keep the randomized layout, and the
    timings spread more.
    """
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current == -1 or libc.personality(current | addr_no_randomize) == -1:
            raise OSError(ctypes.get_errno(), "personality")
    except (OSError, AttributeError) as exc:
        print(f"perfbench: children keep a randomized layout ({exc})",
              file=sys.stderr)


class BenchError(Exception):
    """A child process failed outright; no result can be reported."""


def child(root: Path, args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args], cwd=root, env=env,
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:3]} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[:3]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def check_round(w, doc: dict, data: tuple, data_path: Path, rec: dict,
                trace: bool) -> list[tuple[str, list[str], bool]]:
    """(operation, problems, whether it ran) for each operation of a round.

    An operation that exits with a non-zero code did not run; its outputs
    are not checked.
    """
    k, n = w.lift(doc)
    inputs = {data_path.name: data_path}
    rdir = Path(rec["dir"])
    detect_out = rdir / "detect"
    ops = []

    def op(name: str, rc: int, out: Path, check) -> None:
        if rc != 0:
            ops.append((name, [f"exit code {rc}"], False))
        else:
            ops.append((name, checks.check_manifest(out, inputs) + check(out),
                        True))

    if w.kind == "sae":
        span = tuple(doc["sae"]["train_span"])
        inputs["model.json"] = detect_out / "model.json"
        op("detect-sae", rec["detect"]["rc"], detect_out,
           lambda out: checks.check_sae_train(out, data, k, n, span, w.onset))
        follow = lambda name, out: checks.check_sae_score(out, detect_out)
    else:
        det = doc["detector"]
        width = int(det["window_width"])
        residual = bool(doc["esd"].get("use_residual", True))
        op("detect-rmt", rec["detect"]["rc"], detect_out,
           lambda out: checks.check_detect_rmt(out, data, w, det, k, n))
        follow = lambda name, out: checks.check_esd(
            out, data, int(name.removeprefix("esd_t")), width, k, n, residual)
    for j, fset in enumerate(rec["followups"]):
        for fop in fset["ops"]:
            out = rdir / f"f{j}" / fop["out"]
            op(fop["argv"][0], fop["rc"], out,
               lambda out, name=fop["out"]: follow(name, out))

    if trace:
        tdir = rdir / "traced"
        pairs = [(detect_out, tdir / "detect")]
        pairs += [(rdir / "f0" / fop["out"], tdir / fop["out"])
                  for fop in rec["followups"][0]["ops"]]
        for plain, traced in pairs:
            if not rec["traced_ok"]:
                problems = ["traced replay raised"]
            else:
                problems = (checks.check_manifest(traced, inputs)
                            + checks.same_outputs(plain, traced))
            ops.append((f"traced {traced.name}", problems, True))
    return ops


def layer_metrics(spans: list[list], rec: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        by_name[name] += t
    out = {metric: by_name.get(span, 0.0)
           for metric, span in LAYER_SPANS.items()}
    for metric, (span, key, combine) in LAYER_COUNTERS.items():
        vals = [c[key] for name, _, _, _, c in spans
                if name == span and key in c]
        out[metric] = combine(vals) if vals else 0
    roots = [s for s in spans if s[3] < 0 and s[0].startswith("cli.")]
    traced_total = sum(end - start for _, start, end, _, _ in roots)
    out["cli.self_s"] = sum(t for s, t in zip(spans, own)
                            if s[3] < 0 and s[0].startswith("cli."))
    out["cli.output_bytes"] = sum(c.get("output_bytes", 0)
                                  for *_, c in roots)
    out["trace.child_share"] = 1.0 - out["cli.self_s"] / traced_total
    untraced = (rec["detect"]["s"]
                + statistics.median(f["s"] for f in rec["followups"]))
    out["trace.overhead_share"] = traced_total / untraced - 1.0
    return out


def timings(setups: list[dict], rounds: list[dict], key: str) -> dict:
    """Median set-up, detection and follow-up set time; key "s" or "ref_s"."""
    return {
        "setup_s": statistics.median(s["setup_" + key] for s in setups),
        "detect_s": statistics.median(r["detect"][key] for r in rounds),
        "followup_s": statistics.median(
            f[key] for r in rounds for f in r["followups"]),
    }


def run_workload(root: Path, w, seed: int, seconds: int,
                 trace: bool) -> dict:
    work = root / ".perfbench_out" / f"{w.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc = w.config_doc(root)
    if w.config == "k3_step":
        (work / "k3_step.json").write_text(json.dumps(doc, indent=2),
                                           encoding="utf-8")
    flags = ["--workload", w.name, "--work", str(work)]
    setups = [child(root, ["setup", "--seed", str(seed), *flags])
              for _ in range(SETUP_REPEATS)]
    rounds, spans = [], []
    started = time.perf_counter()
    while True:
        r = len(rounds)
        rec = child(root, ["round", "--round", str(r), *flags])
        rec["dir"] = str(work / f"round{r}")
        if trace:
            rec["traced_ok"] = child(root, ["replay", "--round", str(r),
                                            *flags])["ok"]
            spans.append(json.loads(
                (work / f"round{r}" / "spans.json").read_text(encoding="utf-8")))
        rounds.append(rec)
        if time.perf_counter() - started >= seconds:
            break
    if trace:
        (work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")

    data_path = work / "data.csv"
    data = checks.read_matrix(data_path)
    ops, per_round = [], []
    for rec, round_spans in zip(rounds, spans or [None] * len(rounds)):
        round_ops = check_round(w, doc, data, data_path, rec, trace)
        if trace:
            per_round.append(layer_metrics(round_spans, rec))
            share = per_round[-1]["trace.child_share"]
            if share < MIN_CHILD_SHARE:
                traced_detect = next(p for name, p, _ in round_ops
                                     if name == "traced detect")
                traced_detect.append(
                    f"children cover {share:.3f} of the traced commands, "
                    f"below {MIN_CHILD_SHARE}")
        ops += round_ops
    failed = [(name, problems) for name, problems, _ in ops if problems]

    wall = {}
    if trace:
        # median_low keeps counters whole when the rounds are even
        metrics = {m: statistics.median_low(r[m] for r in per_round)
                   for m in per_round[0]}
        for name in ("synth.generate", "data_model.save_matrix"):
            metrics[f"{name}_s"] = statistics.median(
                end - start for s in setups for n, start, end, _, _ in s["spans"]
                if n == name)
        units = PER_LAYER_UNITS
    else:
        # timings at the reference host speed (speed.py); the wall times
        # are printed alongside for reading, not reported
        metrics = timings(setups, rounds, "ref_s")
        wall = timings(setups, rounds, "s")
        metrics["peak_rss_mb"] = max(r["peak_rss_kb"] for r in rounds) / 1024.0
        units = END_TO_END
    for rec in rounds:
        shutil.rmtree(rec["dir"], ignore_errors=True)
    for name, problems in failed:
        print(f"{w.name}: {name} failed: {'; '.join(problems)}",
              file=sys.stderr)
    return {
        # an operation that exits non-zero fails without making its
        # outputs wrong; any other problem is a wrong output
        "correct": not any(problems for _, problems, ran in ops if ran),
        "attempted": len(ops),
        "failed": len(failed),
        "rounds": len(rounds),
        "wall": wall,
        "metrics": {m: {"value": metrics[m], "unit": units[m]}
                    for m in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kronlift" / "cli.py").is_file():
        print(f"perfbench: {root} is not a kronlift checkout "
              "(no src/kronlift/cli.py)", file=sys.stderr)
        return 2
    fix_child_layout()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            res = run_workload(root, WORKLOADS[name], args.seed, args.seconds,
                               bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        results[name] = res
        print(f"{name}: {res['attempted']} operations in {res['rounds']} "
              f"rounds, {res['failed']} failed")
        for m, v in res["metrics"].items():
            print(f"  {m} = {v['value']:.6g} {v['unit']}")
        for m, v in res["wall"].items():
            print(f"  (wall time) {m} = {v:.6g} s")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps({key: final[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
