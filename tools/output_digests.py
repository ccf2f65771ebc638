"""Digest every output of a fixed set of kronlift commands.

    python3 tools/output_digests.py WORKDIR

Runs `kronlift.cli.main` in-process, from the `src/` of the checkout this
file sits in, on both packaged scenarios: `synth`; `detect-rmt --k 1`;
`esd-check --snapshot-at 500`, and `esd-check --window 999
--snapshot-at 1000`, the whole differenced record; `detect-sae`
training and `--checkpoint` scoring of its model; and, on case_a_step
only, `detect-rmt` at k=2 over [201, 510]; `esd-check --window 196
--snapshot-at 500`, whose 196 dims against 196 columns put the
Marchenko-Pastur law at ratio c = 1; `esd-check --window 100
--snapshot-at 500`, whose 196 dims against 100 columns give a
rank-deficient covariance and a ring on the transposed window;
`esd-check --k 1 --snapshot-at 500` and `501`, whose differenced k=1
windows (the esd section differences) tell one time from another where
the undifferenced ones all read the same KS distance; `detect-rmt --k 1`
under a copy of its config with detector `"use_residual": true`; and the
same run with `"scale_mode": "unit-norm"` as well, whose curves are an
affine map of the sqrt-dim ones.  The two configs are written under
WORKDIR/errors with the failing commands' inputs.  Then it
prints one `relative-path sha256` line per file under WORKDIR (best
empty or new), sorted.  A manifest is digested without its
`duration_seconds`, re-dumped as the CLI writes it (`indent=2`), so its
settings, key order and digests are compared but not its run time.

Then it runs a fixed set of commands whose exit code and message it
prints, on inputs it writes under WORKDIR/errors (which the listing
skips); all but one must fail: `esd-check --snapshot-at 500` on a CSV
with a bad float on line 3, `esd-check` with detector `"scale_mode":
"bogus"` and with `"baseline_span": 1`, `detect-rmt --k 1 --window 20`
on a 4-channel record whose third channel is flat from t=31,
`esd-check --snapshot-at 500` with a directory as the data path, `esd-check --window 2000 --snapshot-at 500` on case_a_step (a
window wider than the record, exit 3), `detect-sae --k 2` with learning
rate 1.7e308 on a 4-channel record of 60 samples (a non-finite loss,
exit 4), `detect-rmt --k 2 --no-residual --window 20` on the same
record with its first two channels 0 at t=41 (a zero segment, exit 3),
`esd-check --k 2 --no-residual --window 20 --snapshot-at 30` on that
record, whose window ends before the zero segment and is the one that
succeeds (exit 0: a command lifts only the columns its windows read),
and `detect-sae --checkpoint` on case_a_step with four corrupted copies
of its trained model.json (each exit 2): scaler `flagged` entries that
are the string "no", a scaler `span` of 0 on the first coordinate that
`flagged` does not pin, a `"seed"` of 1.7, and a first weight of
`true`.
For each it prints `fail/<label> exit=<code> <line>`, where the line is
the CLI's `kronlift <command>:` line on stderr (numpy's warnings may
come before it), or else the first stderr line (none on success), with
WORKDIR written as `WORKDIR`.

It sets OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS to
1 before numpy loads, as the benchmark does, because MSR values move by
about 1e-10 from one BLAS thread count to another.  With the BLAS at one
thread on a host with 2 or more CPUs, the commands spread their work
over forked processes: the `detect-rmt` windows, and the two halves of
the 196 x 100 `esd-check --window 100` window.  A checkout whose copy of
this tool does not set the variables needs `OPENBLAS_NUM_THREADS=1` in
its environment.

Run it on two checkouts and diff the two listings to see whether a
change kept every output byte, exit code and error message.  Exits 1 if
a digested command does not exit 0; the commands under WORKDIR/errors
do not change the exit status.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

os.environ.update({v: "1" for v in (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")})

import numpy as np  # noqa: E402  (loads after the thread count is set)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from kronlift.cli import load_config, main  # noqa: E402
from kronlift.data_model import SpatioTemporalMatrix, save_matrix  # noqa: E402


def commands(work: Path):
    inputs = work / "errors"
    inputs.mkdir(parents=True, exist_ok=True)
    differenced = {}
    for label, scale_mode in (("residual", "sqrt-dim"),
                              ("unit_norm", "unit-norm")):
        doc = load_config("case_a_step")
        doc["detector"].update(scale_mode=scale_mode, use_residual=True)
        differenced[label] = inputs / f"{label}.json"
        differenced[label].write_text(json.dumps(doc), encoding="utf-8")
    for name in ("case_a_step", "case_b_ramp"):
        d = work / name
        data = str(d / "synth" / "data.csv")
        run = ["--config", name, "--out"]
        yield ["synth", *run, str(d / "synth")]
        yield ["detect-rmt", data, "--k", "1", *run, str(d / "rmt_k1")]
        yield ["esd-check", data, "--snapshot-at", "500", *run, str(d / "esd_500")]
        yield ["esd-check", data, "--window", "999", "--snapshot-at", "1000",
               *run, str(d / "esd_all")]
        yield ["detect-sae", data, *run, str(d / "sae")]
        yield ["detect-sae", data, "--checkpoint", str(d / "sae" / "model.json"),
               *run, str(d / "sae_checkpoint")]
    yield ["detect-rmt", str(work / "case_a_step" / "synth" / "data.csv"),
           "--eval-from", "201", "--eval-to", "510",
           "--config", "case_a_step",
           "--out", str(work / "case_a_step" / "rmt_k2")]
    for width, label in (("196", "esd_c1"), ("100", "esd_w100")):
        yield ["esd-check", str(work / "case_a_step" / "synth" / "data.csv"),
               "--window", width, "--snapshot-at", "500",
               "--config", "case_a_step",
               "--out", str(work / "case_a_step" / label)]
    for t in ("500", "501"):
        yield ["esd-check", str(work / "case_a_step" / "synth" / "data.csv"),
               "--k", "1", "--snapshot-at", t, "--config", "case_a_step",
               "--out", str(work / "case_a_step" / f"esd_k1_{t}")]
    for label, config in differenced.items():
        yield ["detect-rmt", str(work / "case_a_step" / "synth" / "data.csv"),
               "--k", "1", "--config", str(config),
               "--out", str(work / "case_a_step" / f"rmt_k1_{label}")]


def failing_commands(errors: Path, data: str):
    """(label, argv) of each command that must fail, after writing its inputs."""
    errors.mkdir(exist_ok=True)
    bad = errors / "bad_float.csv"
    bad.write_text("t,a,b\n1,0.5,0.25\n2,0.5,x\n", encoding="utf-8")
    yield "bad_float", ["esd-check", str(bad), "--snapshot-at", "500"]
    for key, value in (("scale_mode", "bogus"), ("baseline_span", 1)):
        doc = load_config("case_a_step")
        doc["detector"][key] = value
        cfg = errors / f"{key}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        yield key, ["esd-check", data, "--snapshot-at", "500",
                    "--config", str(cfg)]
    values = np.random.default_rng(0).normal(size=(4, 60))
    values[2, 30:] = 1.0
    flat = errors / "flat_span.csv"
    save_matrix(SpatioTemporalMatrix(values, list("abcd")), flat)
    cfg = errors / "flat_span.json"
    cfg.write_text(json.dumps({"detector": {"baseline_span": 10}}),
                   encoding="utf-8")
    yield "flat_span", ["detect-rmt", str(flat), "--k", "1", "--window", "20",
                        "--config", str(cfg)]
    yield "directory", ["esd-check", str(errors), "--snapshot-at", "500"]
    yield "wide_window", ["esd-check", data, "--window", "2000",
                          "--snapshot-at", "500"]
    values = np.random.default_rng(0).normal(size=(4, 60))
    save_matrix(SpatioTemporalMatrix(values, list("abcd")), errors / "diverge.csv")
    values[:2, 40] = 0.0
    save_matrix(SpatioTemporalMatrix(values, list("abcd")),
                errors / "zero_segment.csv")
    cfg = errors / "diverge.json"
    cfg.write_text(json.dumps({"sae": {
        "learning_rate": 1.7e308, "max_iterations": 20, "train_span": [1, 30]}}),
        encoding="utf-8")
    yield "diverge", ["detect-sae", str(errors / "diverge.csv"), "--k", "2",
                      "--config", str(cfg)]
    yield "zero_segment", ["detect-rmt", str(errors / "zero_segment.csv"),
                           "--k", "2", "--no-residual", "--window", "20"]
    yield "zero_segment_unread", ["esd-check", str(errors / "zero_segment.csv"),
                                  "--k", "2", "--no-residual", "--window", "20",
                                  "--snapshot-at", "30"]
    trained = errors.parent / "case_a_step" / "sae" / "model.json"
    for label in ("flagged_string", "span_zero", "fractional_seed",
                  "boolean_weight"):
        doc = json.loads(trained.read_text(encoding="utf-8"))
        sc = doc["scaler"]
        if label == "flagged_string":
            sc["flagged"] = ["no"] * len(sc["flagged"])
        elif label == "span_zero":  # on the first coordinate left unpinned
            sc["span"][sc["flagged"].index(False)] = 0.0
        elif label == "fractional_seed":
            doc["seed"] = 1.7
        else:
            doc["weights"][0][0][0] = True
        ckpt = errors / f"{label}.json"
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        yield label, ["detect-sae", data, "--config", "case_a_step",
                      "--checkpoint", str(ckpt)]


def main_digests(work: Path) -> int:
    for argv in commands(work):
        if main(argv) != 0:
            print(f"failed: kronlift {' '.join(argv)}", file=sys.stderr)
            return 1
    errors = work / "errors"
    for path in sorted(work.rglob("*")):
        if not path.is_file() or errors in path.parents:
            continue
        content = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(content)
            del doc["duration_seconds"]
            content = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
        print(path.relative_to(work).as_posix(),
              hashlib.sha256(content).hexdigest())
    data = str(work / "case_a_step" / "synth" / "data.csv")
    for label, argv in failing_commands(errors, data):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", str(errors / label)])
            lines = stderr.getvalue().splitlines()
            # numpy's RuntimeWarnings may come first; print the CLI's own line
            line = next((s for s in lines if s.startswith("kronlift ")),
                        lines[0] if lines else "")
        except Exception as exc:  # the console script's traceback, exit 1
            code, line = 1, f"uncaught {type(exc).__name__}: {exc}"
        print(f"fail/{label} exit={code}",
              line.replace(str(work), "WORKDIR"))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main_digests(Path(sys.argv[1])))
