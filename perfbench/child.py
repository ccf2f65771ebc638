"""Child process of the benchmark: one set-up, one round, or one replay.

    python3 child.py setup --workload W --work DIR --seed S
    python3 child.py round --workload W --work DIR --round R
    python3 child.py replay --workload W --work DIR --round R

`setup` imports kronlift, generates the workload's scenario with
`synth.generate` and writes DIR/data.csv, timing all three (with a span
each around the last two, a few microseconds).  `round`
drives `kronlift.cli.main` in-process: one detection command, then
FOLLOWUP_SETS follow-up sets, into DIR/roundR.  `replay` repeats the
detection and one follow-up set through traced.py into DIR/roundR/traced
and writes its spans to DIR/roundR/spans.json.  Every round and replay is
a fresh process, so each command is timed as a CLI user meets it, the
first call in its process.  Set-ups and rounds record each time twice:
as wall time (`s`) and scaled to the reference host speed (`ref_s`, see
speed.py).  The last stdout line is a JSON record for run.py, which
checks the outputs.  The caller fixes the BLAS thread count and
PYTHONPATH in the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import FOLLOWUP_SETS, WORKLOADS


def setup(w, seed: int, work: Path) -> dict:
    started = perf_counter()
    tracer = Tracer()
    import kronlift
    from kronlift.synth import scenario_from_dict

    from speed import SpeedMeter  # numpy is loaded by now

    meter = SpeedMeter()
    meter.start()
    doc = w.config_doc(Path.cwd())
    cfg = dataclasses.replace(scenario_from_dict(doc["scenario"]), seed=seed)
    with tracer.span("synth.generate"):
        M = kronlift.generate(cfg)
    with tracer.span("data_model.save_matrix"):
        kronlift.save_matrix(M, work / "data.csv")
    ended = perf_counter()
    wall = ended - started - meter.paused
    meter.idle()
    meter.stop()
    return {"setup_s": wall, "setup_ref_s": meter.reference(wall, started, ended),
            "spans": tracer.spans}


def run_command(meter, main, argv: list[str]) -> dict:
    """One CLI call: its exit code and wall time from call to return."""

    def call() -> int:
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            return -1

    rc, wall, started, ended = meter.time(call)
    return {"argv": argv, "rc": rc, "s": wall, "span": (started, ended)}


def run_round(w, work: Path, rdir: Path) -> dict:
    from kronlift.cli import main

    from speed import SpeedMeter

    meter = SpeedMeter()
    meter.start()
    meter.idle()
    data = work / "data.csv"
    detect_out = rdir / "detect"
    rec = {"detect": run_command(meter, main,
                                 w.detect_argv(data, work, detect_out)),
           "followups": []}
    for j in range(FOLLOWUP_SETS):
        ops = [dict(run_command(meter, main, argv), out=name)
               for name, argv in w.followup_argvs(data, work, detect_out,
                                                  rdir / f"f{j}")]
        rec["followups"].append({"s": sum(op["s"] for op in ops), "ops": ops})
    meter.idle()
    meter.stop()
    rec["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for op in [rec["detect"]] + [op for f in rec["followups"] for op in f["ops"]]:
        op["ref_s"] = meter.reference(op["s"], *op.pop("span"))
    for fset in rec["followups"]:
        fset["ref_s"] = sum(op["ref_s"] for op in fset["ops"])
    return rec


def replay(w, work: Path, rdir: Path) -> dict:
    import traced

    tracer = Tracer()
    try:
        traced.replay_round(tracer, w, w.config_doc(Path.cwd()),
                            work / "data.csv", work, rdir / "traced")
        ok = True
    except Exception:
        traceback.print_exc()
        ok = False
    (rdir / "spans.json").write_text(json.dumps(tracer.spans),
                                     encoding="utf-8")
    return {"ok": ok}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "round", "replay"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--round", type=int, default=0)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    rdir = args.work / f"round{args.round}"
    if args.mode == "setup":
        result = setup(w, args.seed, args.work)
    elif args.mode == "round":
        result = run_round(w, args.work, rdir)
    else:
        result = replay(w, args.work, rdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
