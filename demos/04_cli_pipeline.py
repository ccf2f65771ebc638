"""
The command-line pipeline, end to end
=====================================

Every subcommand writes its outputs plus a manifest with sha256 digests
into its own directory.  This script drives synth -> detect-rmt ->
esd-check on a small scenario and shows that a rerun with the same seed
reproduces every output digest bit for bit.
"""

import json
import tempfile
from pathlib import Path

from kronlift.cli import main

with tempfile.TemporaryDirectory(prefix="kronlift-demo-") as tmp:
    work = Path(tmp)
    print(f"working under {work}")

    # a small scenario so the whole tour takes seconds: 16 channels lift
    # to 8^2 = 64 dimensions under a 40-sample window.  The spectrum check
    # runs on differenced data; a raw window sits on the constant operating
    # level and its covariance is near rank one.
    config = {
        "schema_version": 1,
        "scenario": {"channels": 16, "samples": 80, "white_sigma": 0.01,
                     "noise": {"b": 0.5, "snr": 100.0, "enabled": True},
                     "seed": 7},
        "detector": {"k": 2, "n": 8, "window_width": 40,
                     "use_residual": False, "baseline_span": 10, "seed": 0},
        "esd": {"use_residual": True, "snapshot_at": [50]},
    }
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))

    # 1. synthesize the measurement matrix
    rc = main(["synth", "--config", str(cfg_path), "--out", str(work / "synth")])
    assert rc == 0
    data = str(work / "synth" / "data.csv")
    print(f"synth      -> {data}")

    # 2. run the windowed spectral detector over t in [45, 70]
    rc = main(["detect-rmt", data, "--config", str(cfg_path),
               "--out", str(work / "rmt"),
               "--eval-from", "45", "--eval-to", "70", "--snapshot-at", "50"])
    assert rc == 0
    curves = (work / "rmt" / "curves.csv").read_text().splitlines()
    print(f"detect-rmt -> {len(curves) - 1} curve points, "
          f"snapshot_t50.json, alarms.jsonl")

    # 3. one-window spectrum check against the reference laws (differenced);
    # a 64-dim desk-scale window tracks the law loosely, the first demo
    # shows how tight it gets at 729 dimensions
    rc = main(["esd-check", data, "--config", str(cfg_path),
               "--out", str(work / "esd")])
    assert rc == 0
    summary = json.loads((work / "esd" / "summary.json").read_text())
    print(f"esd-check  -> KS distance {summary['ks_distance_mp']:.4f}, "
          f"ring coverage {summary['ring_coverage']:.3f}")

    # 4. determinism: rerun the detector and compare manifest digests
    rc = main(["detect-rmt", data, "--config", str(cfg_path),
               "--out", str(work / "rmt2"),
               "--eval-from", "45", "--eval-to", "70", "--snapshot-at", "50"])
    assert rc == 0
    d1 = json.loads((work / "rmt" / "manifest.json").read_text())["outputs"]
    d2 = json.loads((work / "rmt2" / "manifest.json").read_text())["outputs"]
    assert d1 == d2
    print("rerun      -> all output digests identical")
