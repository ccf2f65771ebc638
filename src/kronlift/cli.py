"""Command-line surface tying the modules into reproducible runs.

Four subcommands: synth writes a scenario matrix to CSV, detect-rmt runs
the windowed spectral detector, detect-sae trains and scores the
reconstruction-error detector, esd-check summarizes one window's
spectrum against the reference laws.  Every command writes its outputs
plus a manifest.json recording the effective configuration, the seed,
and sha256 digests of inputs and outputs, into the --out directory.

Configs are JSON with a schema_version field and optional scenario /
detector / sae / esd sections; --config accepts a path or the name of a
packaged scenario (case_a_step, case_b_ramp).  Flags override config
values.  Exit codes: 0 success, 2 config or format problem, 3 violated
precondition, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from importlib import resources
from pathlib import Path

from . import __version__
from .autoencoder import (
    TrainConfig,
    load_checkpoint,
    run_sae_detailed,
    save_checkpoint,
    score_matrix,
)
from .data_model import (
    LiftConfig,
    SpatioTemporalMatrix,
    WindowSpec,
    load_matrix,
    residual_matrix,
    save_matrix,
)
from .errors import ConfigError, KronliftError
from .indicators import TestFunction, chebyshev, entropy, likelihood_ratio
from .lift import lift_matrix
from .rmt_detector import DeviationRule, RmtDetectorConfig, run_rmt, window_at
from .spectral import summarize_window
from .synth import generate, scenario_from_dict

SCHEMA_VERSION = 1
_SECTIONS = {"schema_version", "name", "description",
             "scenario", "detector", "sae", "esd"}


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def resolve_config(name_or_path: str) -> str:
    """A filesystem path, or the name of a packaged scenario config."""
    p = Path(name_or_path)
    if p.is_file():
        return p.read_text(encoding="utf-8")
    base = name_or_path if name_or_path.endswith(".json") else name_or_path + ".json"
    packaged = resources.files("kronlift").joinpath("scenarios", base)
    if packaged.is_file():
        return packaged.read_text(encoding="utf-8")
    raise ConfigError(f"config not found: {name_or_path!r} "
                      "(not a file and not a packaged scenario)")


def load_config(name_or_path: str | None) -> dict:
    if name_or_path is None:
        return {}
    text = resolve_config(name_or_path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version!r}")
    unknown = set(doc) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return doc


def _parse_test_function(choice) -> TestFunction:
    if choice is None or choice == "entropy":
        return entropy()
    if choice == "likelihood_ratio":
        return likelihood_ratio()
    if isinstance(choice, dict) and choice.get("kind") == "chebyshev":
        return chebyshev(tuple(float(c) for c in choice.get("coefficients", ())))
    raise ConfigError(f"unknown test function {choice!r}")


def _lift_for(channels: int, section: dict, k_flag: int | None) -> LiftConfig:
    """Factorization channels = k * n, honoring a --k override."""
    k = k_flag if k_flag is not None else int(section.get("k", 2))
    if "n" in section and k_flag is None:
        n = int(section["n"])
        if k * n != channels:
            raise ConfigError(
                f"lift factorization {k} * {n} != {channels} channels")
        return LiftConfig(k=k, n=n)
    if k == 1:
        return LiftConfig(k=1, n=channels)
    if channels % k != 0:
        raise ConfigError(f"{channels} channels do not split into {k} segments")
    return LiftConfig(k=k, n=channels // k)


def _parse_snapshot_list(text: str | None) -> tuple[int, ...]:
    if text is None:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --snapshot-at value {text!r}") from exc


def write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    seed: int,
    inputs: dict[str, Path],
    outputs: list[Path],
    started: float,
) -> Path:
    """One manifest per output directory; digests cover all other files."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "seed": seed,
        "library_version": __version__,
        "inputs": {name: _sha256(p) for name, p in inputs.items()},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "duration_seconds": round(time.monotonic() - started, 3),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(path_str: str) -> SpatioTemporalMatrix:
    path = Path(path_str)
    try:
        return load_matrix(path)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc


def cmd_synth(args) -> int:
    started = time.monotonic()
    doc = load_config(args.config)
    section = doc.get("scenario")
    if section is None:
        section = {k: v for k, v in doc.items() if k not in _SECTIONS}
    cfg = scenario_from_dict(section)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = _out_dir(args)
    M = generate(cfg)
    data_path = out / "data.csv"
    save_matrix(M, data_path)
    write_manifest(out, "synth", dataclasses.asdict(cfg), cfg.seed,
                   {}, [data_path], started)
    return 0


def _detector_config(doc: dict, args, channels: int) -> tuple[
        RmtDetectorConfig, dict, tuple[int, ...]]:
    section = doc.get("detector", {})
    lift = _lift_for(channels, section, args.k)
    width = args.window if args.window is not None else int(
        section.get("window_width", 200))
    use_residual = bool(section.get("use_residual", True))
    if args.no_residual:
        use_residual = False
    seed = args.seed if args.seed is not None else int(section.get("seed", 0))
    tf_spec = section.get("test_function", "entropy")
    rule = DeviationRule(
        baseline_span=int(section.get("baseline_span", 300)),
        threshold_sigmas=float(section.get("threshold_sigmas", 5.0)),
        enabled=bool(section.get("alarms_enabled", True)),
    )
    cfg = RmtDetectorConfig(
        lift=lift,
        window=WindowSpec(width=width, stride=int(section.get("stride", 1))),
        test_function=_parse_test_function(tf_spec),
        use_residual=use_residual,
        seed=seed,
        deviation_rule=rule,
        scale_mode=str(section.get("scale_mode", "sqrt-dim")),
        eval_from=args.eval_from,
        eval_to=args.eval_to,
    )
    snapshots = _parse_snapshot_list(args.snapshot_at)
    if not snapshots:
        snapshots = tuple(int(t) for t in section.get("snapshot_at", ()))
    snapshot_doc = {
        "k": lift.k, "n": lift.n, "window_width": width,
        "stride": cfg.window.stride, "test_function": tf_spec,
        "use_residual": use_residual, "scale_mode": cfg.scale_mode,
        "baseline_span": rule.baseline_span,
        "threshold_sigmas": rule.threshold_sigmas,
        "alarms_enabled": rule.enabled, "seed": seed,
        "eval_from": cfg.eval_from, "eval_to": cfg.eval_to,
        "snapshot_at": list(snapshots),
    }
    return cfg, snapshot_doc, snapshots


def _summary_doc(t, summary) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "t": t,
        "dim": int(summary.covariance_eigs.size),
        "c_ratio": summary.c_ratio,
        "mp_support": [summary.mp_support[0], summary.mp_support[1]],
        "ks_distance_mp": summary.ks_distance_mp,
        "ring_inner": summary.ring_inner,
        "ring_coverage": summary.ring_coverage,
    }


def cmd_detect_rmt(args) -> int:
    started = time.monotonic()
    M = _load_data(args.data)
    doc = load_config(args.config)
    cfg, snapshot_doc, snapshots = _detector_config(doc, args, M.channels)
    report = run_rmt(M, cfg, snapshot_at=snapshots)

    out = _out_dir(args)
    curves_path = out / "curves.csv"
    with open(curves_path, "w", encoding="utf-8", newline="") as f:
        f.write("t,les_raw,les_norm,msr_raw,msr_norm\n")
        for j, t in enumerate(report.les_raw.times()):
            f.write(",".join([
                str(t),
                _fmt(report.les_raw.values[j]),
                _fmt(report.les_curve.values[j]),
                _fmt(report.msr_raw.values[j]),
                _fmt(report.msr_curve.values[j]),
            ]) + "\n")

    alarms_path = out / "alarms.jsonl"
    with open(alarms_path, "w", encoding="utf-8", newline="") as f:
        for alarm in report.alarms:
            f.write(json.dumps({
                "t": alarm.t,
                "indicator": alarm.indicator,
                "deviation_sigmas": alarm.deviation_sigmas,
            }) + "\n")

    outputs = [curves_path, alarms_path]
    for t, summary in sorted(report.spectral_snapshots.items()):
        snap_path = out / f"snapshot_t{t}.json"
        snap_path.write_text(
            json.dumps(_summary_doc(t, summary), indent=2) + "\n",
            encoding="utf-8")
        outputs.append(snap_path)

    write_manifest(out, "detect-rmt", snapshot_doc, cfg.seed,
                   {Path(args.data).name: Path(args.data)}, outputs, started)
    return 0


def _sae_settings(doc: dict, args, channels: int):
    section = doc.get("sae", {})
    lift = _lift_for(channels, section, args.k)
    span = section.get("train_span", [1, 200])
    if not (isinstance(span, (list, tuple)) and len(span) == 2):
        raise ConfigError(f"train_span must be a [start, end] pair, got {span!r}")
    seed = args.seed if args.seed is not None else int(section.get("seed", 0))
    train_cfg = TrainConfig(
        learning_rate=float(section.get("learning_rate", 1e-4)),
        max_iterations=int(section.get("max_iterations", 1000)),
        seed=seed,
    )
    snapshot_doc = {
        "k": lift.k, "n": lift.n,
        "learning_rate": train_cfg.learning_rate,
        "max_iterations": train_cfg.max_iterations,
        "train_span": [int(span[0]), int(span[1])],
        "seed": seed,
    }
    return lift, (int(span[0]), int(span[1])), train_cfg, snapshot_doc


def cmd_detect_sae(args) -> int:
    started = time.monotonic()
    M = _load_data(args.data)
    doc = load_config(args.config)
    lift, span, train_cfg, snapshot_doc = _sae_settings(doc, args, M.channels)
    out = _out_dir(args)
    inputs = {Path(args.data).name: Path(args.data)}

    if args.checkpoint:
        model, scaler = load_checkpoint(args.checkpoint)
        lifted = lift_matrix(M, lift, scale_mode="unit-norm")
        if model.layer_sizes[0] != lifted.dim:
            raise ConfigError(
                f"checkpoint expects dimension {model.layer_sizes[0]}, "
                f"lifted data has {lifted.dim}")
        first = span[1] + 1 - lifted.t0
        rmse = score_matrix(model, scaler, lifted.values[:, first:])
        times = range(span[1] + 1, span[1] + 1 + rmse.size)
        inputs[Path(args.checkpoint).name] = Path(args.checkpoint)
        snapshot_doc = dict(snapshot_doc, checkpoint=Path(args.checkpoint).name)
        outputs = [_write_rmse(out, times, rmse)]
    else:
        result = run_sae_detailed(M, lift, train_span=span, cfg=train_cfg)
        rmse_path = _write_rmse(out, result.series.times(), result.series.values)
        trace_path = out / "loss_trace.csv"
        with open(trace_path, "w", encoding="utf-8", newline="") as f:
            f.write("iteration,loss\n")
            for i, loss in enumerate(result.trace.losses, start=1):
                f.write(f"{i},{_fmt(loss)}\n")
        model_path = out / "model.json"
        save_checkpoint(result.model, result.scaler, model_path)
        outputs = [rmse_path, trace_path, model_path]

    write_manifest(out, "detect-sae", snapshot_doc, train_cfg.seed,
                   inputs, outputs, started)
    return 0


def _write_rmse(out: Path, times, values) -> Path:
    path = out / "rmse.csv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("t,rmse\n")
        for t, v in zip(times, values):
            f.write(f"{t},{_fmt(v)}\n")
    return path


def cmd_esd_check(args) -> int:
    started = time.monotonic()
    M = _load_data(args.data)
    doc = load_config(args.config)
    section = doc.get("esd", {})
    detector = doc.get("detector", {})
    lift = _lift_for(M.channels, detector, args.k)
    width = args.window if args.window is not None else int(
        detector.get("window_width", 200))
    use_residual = bool(section.get("use_residual", True))
    if args.no_residual:
        use_residual = False
    seed = args.seed if args.seed is not None else int(section.get("seed", 0))

    choice = args.snapshot_at
    if choice is None:
        listed = section.get("snapshot_at", [])
        if len(listed) != 1:
            raise ConfigError(
                f"config lists {len(listed)} snapshot times; pick one "
                "with --snapshot-at T (or --snapshot-at all)")
        choice = str(listed[0])

    data = residual_matrix(M) if use_residual else M
    lifted = lift_matrix(data, lift, scale_mode="sqrt-dim")
    t_last = lifted.t0 + lifted.samples - 1
    if choice == "all":
        t = t_last
        W = lifted.values
        window_label = "all"
    else:
        try:
            t = int(choice)
        except ValueError as exc:
            raise ConfigError(f"bad --snapshot-at value {choice!r}") from exc
        W = window_at(lifted, t, width)
        window_label = width
    summary = summarize_window(W, seed=(seed, t))

    out = _out_dir(args)
    summary_path = out / "summary.json"
    doc_out = _summary_doc(t, summary)
    doc_out["window"] = window_label
    summary_path.write_text(json.dumps(doc_out, indent=2) + "\n",
                            encoding="utf-8")

    hist_path = out / "histogram.csv"
    with open(hist_path, "w", encoding="utf-8", newline="") as f:
        f.write("eigenvalue\n")
        for lam in summary.covariance_eigs:
            f.write(_fmt(lam) + "\n")

    scatter_path = out / "ring_scatter.csv"
    with open(scatter_path, "w", encoding="utf-8", newline="") as f:
        f.write("re,im\n")
        for z in summary.ring_eigs:
            f.write(f"{_fmt(z.real)},{_fmt(z.imag)}\n")

    config_doc = {
        "k": lift.k, "n": lift.n, "window": window_label,
        "use_residual": use_residual, "seed": seed, "snapshot_at": choice,
    }
    write_manifest(out, "esd-check", config_doc, seed,
                   {Path(args.data).name: Path(args.data)},
                   [summary_path, hist_path, scatter_path], started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronlift",
        description="Kronecker-lift spectral and reconstruction-error "
                    "anomaly detection for multichannel time series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        if data:
            p.add_argument("data", help="input matrix CSV")
        p.add_argument("--config", help="config JSON path or packaged "
                       "scenario name (case_a_step, case_b_ramp)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("synth", help="generate a synthetic scenario matrix")
    common(p, data=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect-rmt",
                       help="windowed spectral detector (LES and MSR curves)")
    common(p)
    p.add_argument("--k", type=int, help="number of Kronecker segments")
    p.add_argument("--window", type=int, help="moving window width")
    p.add_argument("--no-residual", action="store_true",
                   help="skip temporal differencing")
    p.add_argument("--snapshot-at", metavar="T,...",
                   help="comma-separated times for spectral snapshot JSONs")
    p.add_argument("--eval-from", type=int,
                   help="first time to evaluate; trimming keeps the raw "
                   "values but renormalizes the curves and recomputes the "
                   "alarms over the trimmed range")
    p.add_argument("--eval-to", type=int, help="last time to evaluate")
    p.set_defaults(func=cmd_detect_rmt)

    p = sub.add_parser("detect-sae",
                       help="reconstruction-error detector (train or score)")
    common(p)
    p.add_argument("--k", type=int, help="number of Kronecker segments")
    p.add_argument("--checkpoint",
                   help="score with an existing model instead of training")
    p.set_defaults(func=cmd_detect_sae)

    p = sub.add_parser("esd-check",
                       help="one-window spectrum vs the reference laws")
    common(p)
    p.add_argument("--k", type=int, help="number of Kronecker segments")
    p.add_argument("--window", type=int, help="window width")
    p.add_argument("--no-residual", action="store_true",
                   help="skip temporal differencing")
    p.add_argument("--snapshot-at", metavar="T|all",
                   help="window end time, or 'all' for the whole record")
    p.set_defaults(func=cmd_esd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KronliftError as exc:
        print(f"kronlift {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
