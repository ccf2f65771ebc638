"""Digest every output of a fixed set of kronlift commands.

    OPENBLAS_NUM_THREADS=1 python3 tools/output_digests.py WORKDIR

Runs `kronlift.cli.main` in-process, from the `src/` of the checkout this
file sits in, on both packaged scenarios: `synth`; `detect-rmt --k 1
--snapshot-at 500,501`; `esd-check --snapshot-at 500` and `--snapshot-at
all`; `detect-sae` training and `--checkpoint` scoring of its model; and,
on case_a_step only, `detect-rmt` at k=2 over [201, 510] with the same
snapshots and `esd-check --window 196 --snapshot-at 500`, whose 196 dims
against 196 columns put the Marchenko-Pastur law at ratio c = 1.  Then it
prints one `relative-path sha256` line per file under WORKDIR (best
empty or new), sorted.  A manifest is digested without its
`duration_seconds`, re-dumped as the CLI writes it (`indent=2`), so its
settings, key order and digests are compared but not its run time.

Run it on two checkouts at the same BLAS thread count and diff the two
listings to see whether a change kept every output byte.  Exits 1 if a
command does not exit 0.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from kronlift.cli import main  # noqa: E402


def commands(work: Path):
    for name in ("case_a_step", "case_b_ramp"):
        d = work / name
        data = str(d / "synth" / "data.csv")
        run = ["--config", name, "--out"]
        yield ["synth", *run, str(d / "synth")]
        yield ["detect-rmt", data, "--k", "1", "--snapshot-at", "500,501",
               *run, str(d / "rmt_k1")]
        yield ["esd-check", data, "--snapshot-at", "500", *run, str(d / "esd_500")]
        yield ["esd-check", data, "--snapshot-at", "all", *run, str(d / "esd_all")]
        yield ["detect-sae", data, *run, str(d / "sae")]
        yield ["detect-sae", data, "--checkpoint", str(d / "sae" / "model.json"),
               *run, str(d / "sae_checkpoint")]
    yield ["detect-rmt", str(work / "case_a_step" / "synth" / "data.csv"),
           "--eval-from", "201", "--eval-to", "510", "--snapshot-at", "500,501",
           "--config", "case_a_step",
           "--out", str(work / "case_a_step" / "rmt_k2")]
    yield ["esd-check", str(work / "case_a_step" / "synth" / "data.csv"),
           "--window", "196", "--snapshot-at", "500", "--config", "case_a_step",
           "--out", str(work / "case_a_step" / "esd_c1")]


def main_digests(work: Path) -> int:
    for argv in commands(work):
        if main(argv) != 0:
            print(f"failed: kronlift {' '.join(argv)}", file=sys.stderr)
            return 1
    for path in sorted(work.rglob("*")):
        if not path.is_file():
            continue
        content = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(content)
            del doc["duration_seconds"]
            content = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
        print(path.relative_to(work).as_posix(),
              hashlib.sha256(content).hexdigest())
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main_digests(Path(sys.argv[1])))
