"""Command-line surface tying the modules into reproducible runs.

Four subcommands: synth writes a scenario matrix to CSV, detect-rmt runs
the windowed spectral detector, detect-sae trains and scores the
reconstruction-error detector, esd-check summarizes one window's
spectrum against the reference laws.  Every command writes its outputs
plus a manifest.json recording the settings it ran with, the seed, and
sha256 digests of inputs and outputs, into the --out directory.  main
creates that directory before the command does any work, and writes the
manifest from the (config, seed, inputs, outputs) the command returns.

Configs are JSON with a schema_version field and optional scenario /
detector / sae / esd sections; --config accepts a path or the name of a
packaged scenario (case_a_step, case_b_ramp).  A command reads its
sections against the schemas below, writes the flags named after config
keys over them, builds its dataclasses from that settings dict, and
records the same dict as the manifest config.  Exit codes: 0 success,
2 config or format problem, 3 violated precondition, 4 numerical failure.
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
    score_sae,
)
from .data_model import (
    LiftConfig,
    SpatioTemporalMatrix,
    WindowSpec,
    boolean,
    integer,
    list_of,
    load_matrix,
    non_negative,
    number,
    read_section,
    residual_matrix,
    save_matrix,
)
from .errors import ConfigError, KronliftError
from .indicators import TestFunction, chebyshev, entropy, likelihood_ratio
from .rmt_detector import DeviationRule, RmtDetectorConfig, lift_window, run_rmt
from .spectral import summarize_window
from .synth import generate, scenario_from_dict

SCHEMA_VERSION = 1
_SECTIONS = {"schema_version", "name", "description",
             "scenario", "detector", "sae", "esd"}


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _written(path: Path, write, *args) -> Path:
    """path, after write(*args, path); an OSError is a ConfigError naming it."""
    try:
        write(*args, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


def _claim(out: Path, *names: str) -> None:
    """Refuse, before any work, an output name that a non-regular file holds:
    a directory fails only at the write, and a FIFO blocks it."""
    for name in names:
        path = out / name
        if path.exists() and not path.is_file():
            reason = "Is a directory" if path.is_dir() else "not a regular file"
            raise ConfigError(f"cannot write {path}: {reason}")


def _put_lines(lines, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(line + "\n" for line in lines)


def _write_lines(path: Path, lines) -> Path:
    return _written(path, _put_lines, lines)


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
        try:
            return p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"config {p} is not UTF-8 text ({exc.reason})") from None
        except OSError as exc:
            raise ConfigError(
                f"cannot read config {p}: {exc.strerror or exc}") from None
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
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # true == 1
        raise ConfigError(f"unsupported config schema_version {version!r}")
    unknown = set(doc) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return doc


def _test_function(spec) -> TestFunction:
    if spec == "entropy":
        return entropy()
    if spec == "likelihood_ratio":
        return likelihood_ratio()
    if isinstance(spec, dict) and spec.get("kind") == "chebyshev":
        return chebyshev(read_section(spec, CHEBYSHEV_SCHEMA,
                                      "detector.test_function")["coefficients"])
    raise ConfigError(f"detector.test_function: unknown test function {spec!r}")


def _train_span(value) -> tuple[int, int]:
    start, end = map(integer, value)
    return start, end


def _seed(text: str) -> int:
    """--seed N: an integer >= 0."""
    try:
        return non_negative(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}") from None


CHEBYSHEV_SCHEMA = {"kind": (str, None), "coefficients": (list_of(number), ())}
DETECTOR_SCHEMA = {
    "k": (integer, 2), "n": (integer, None),
    "window_width": (integer, WindowSpec.width),
    "stride": (integer, WindowSpec.stride),
    "test_function": (lambda spec: spec,  # _test_function checks it
                      RmtDetectorConfig.test_function.kind),
    "use_residual": (boolean, RmtDetectorConfig.use_residual),
    "scale_mode": (str, RmtDetectorConfig.scale_mode),
    "baseline_span": (integer, DeviationRule.baseline_span),
    "threshold_sigmas": (number, DeviationRule.threshold_sigmas),
    "alarms_enabled": (boolean, DeviationRule.enabled),
    "seed": (non_negative, RmtDetectorConfig.seed),
}
SAE_SCHEMA = {
    "k": (integer, 2), "n": (integer, None),
    "learning_rate": (number, TrainConfig.learning_rate),
    "max_iterations": (integer, TrainConfig.max_iterations),
    "train_span": (_train_span, (1, 200)),
    "seed": (non_negative, TrainConfig.seed),
}
ESD_SCHEMA = {"use_residual": DETECTOR_SCHEMA["use_residual"]}


def _settings(doc: dict, name: str, schema: dict, args) -> dict:
    """Section name, read, with the flags named after its keys written over
    it.  --k clears n, which then follows from the channel count."""
    settings = read_section(doc.get(name, {}), schema, name)
    for key in schema:
        if getattr(args, key, None) is not None:
            settings[key] = getattr(args, key)
            if key == "k":
                settings["n"] = None
    return settings


def _lift(settings: dict, channels: int) -> LiftConfig:
    """Factorization channels = k * n; records n = channels // k if unset."""
    k, n = settings["k"], settings["n"]
    if n is None:
        if k < 1 or channels % k:
            raise ConfigError(f"{channels} channels do not split into {k} segments")
        n = settings["n"] = channels // k
    elif k * n != channels:
        raise ConfigError(f"lift factorization {k} * {n} != {channels} channels")
    return LiftConfig(k=k, n=n)


def _detector(settings: dict, channels: int) -> RmtDetectorConfig:
    """The detector settings as a config, for detect-rmt and esd-check alike."""
    return RmtDetectorConfig(
        lift=_lift(settings, channels),
        window=WindowSpec(settings["window_width"], settings["stride"]),
        test_function=_test_function(settings["test_function"]),
        use_residual=settings["use_residual"], seed=settings["seed"],
        deviation_rule=DeviationRule(settings["baseline_span"],
                                     settings["threshold_sigmas"],
                                     settings["alarms_enabled"]),
        scale_mode=settings["scale_mode"],
        eval_from=settings.get("eval_from"), eval_to=settings.get("eval_to"))


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
    return _write_lines(out_dir / "manifest.json", [json.dumps(doc, indent=2)])


def _out_dir(path_str: str) -> Path:
    out = Path(path_str)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _load_data(path_str: str) -> tuple[SpatioTemporalMatrix, dict[str, Path]]:
    """The data matrix, and the manifest inputs entry naming its file."""
    path = Path(path_str)
    try:
        return load_matrix(path), {path.name: path}
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc


def cmd_synth(args, out: Path):
    _claim(out, "data.csv")
    cfg = scenario_from_dict(load_config(args.config).get("scenario", {}))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    data_path = _written(out / "data.csv", save_matrix, generate(cfg))
    return dataclasses.asdict(cfg), cfg.seed, {}, [data_path]


def cmd_detect_rmt(args, out: Path):
    M, inputs = _load_data(args.data)
    settings = _settings(load_config(args.config), "detector",
                         DETECTOR_SCHEMA, args)
    settings.update(eval_from=args.eval_from, eval_to=args.eval_to)
    cfg = _detector(settings, M.channels)
    _claim(out, "curves.csv", "alarms.jsonl")
    report = run_rmt(M, cfg)

    curves = zip(report.les_raw.times(), report.les_raw.values,
                 report.les_curve.values, report.msr_raw.values,
                 report.msr_curve.values)
    outputs = [
        _write_lines(out / "curves.csv", [
            "t,les_raw,les_norm,msr_raw,msr_norm",
            *(",".join([str(t), *map(_fmt, v)]) for t, *v in curves)]),
        _write_lines(out / "alarms.jsonl",
                     (json.dumps(dataclasses.asdict(a)) for a in report.alarms)),
    ]
    return settings, cfg.seed, inputs, outputs


def cmd_detect_sae(args, out: Path):
    M, inputs = _load_data(args.data)
    settings = _settings(load_config(args.config), "sae", SAE_SCHEMA, args)
    lift = _lift(settings, M.channels)
    span = settings["train_span"]
    train_cfg = TrainConfig(learning_rate=settings["learning_rate"],
                            max_iterations=settings["max_iterations"],
                            seed=settings["seed"])

    if args.checkpoint:
        _claim(out, "rmse.csv")
        checkpoint = Path(args.checkpoint)
        if checkpoint.exists() and not checkpoint.is_file():  # digested again
            raise ConfigError(f"{checkpoint}: not a regular file")
        model, scaler = load_checkpoint(args.checkpoint)
        series = score_sae(M, lift, model, scaler, span)
        inputs[checkpoint.name] = checkpoint
        settings["checkpoint"] = checkpoint.name
        outputs = [_write_rmse(out, series)]
    else:
        _claim(out, "rmse.csv", "loss_trace.csv", "model.json")
        result = run_sae_detailed(M, lift, train_span=span, cfg=train_cfg)
        rmse_path = _write_rmse(out, result.series)
        trace_path = _write_lines(out / "loss_trace.csv", [
            "iteration,loss",
            *(f"{i},{_fmt(v)}" for i, v in enumerate(result.trace.losses, 1))])
        model_path = _written(out / "model.json", save_checkpoint,
                              result.model, result.scaler)
        outputs = [rmse_path, trace_path, model_path]
    return settings, train_cfg.seed, inputs, outputs


def _write_rmse(out: Path, series) -> Path:
    return _write_lines(out / "rmse.csv", ["t,rmse", *(
        f"{t},{_fmt(v)}" for t, v in zip(series.times(), series.values))])


def cmd_esd_check(args, out: Path):
    _claim(out, "summary.json", "histogram.csv", "ring_scatter.csv")
    M, inputs = _load_data(args.data)
    doc = load_config(args.config)
    cfg = _detector(_settings(doc, "detector", DETECTOR_SCHEMA, args),
                    M.channels)
    esd = _settings(doc, "esd", ESD_SCHEMA, args)
    t, width = args.snapshot_at, cfg.window.width
    data = residual_matrix(M) if esd["use_residual"] else M
    summary = summarize_window(lift_window(data, cfg.lift, t, width),
                               seed=(cfg.seed, t))

    outputs = [
        _write_lines(out / "summary.json", [json.dumps({
            "schema_version": SCHEMA_VERSION,
            "t": t,
            "dim": int(summary.covariance_eigs.size),
            "c_ratio": summary.c_ratio,
            "mp_support": [summary.mp_support[0], summary.mp_support[1]],
            "ks_distance_mp": summary.ks_distance_mp,
            "ring_inner": summary.ring_inner,
            "ring_coverage": summary.ring_coverage,
            "window": width,
        }, indent=2)]),
        _write_lines(out / "histogram.csv", [
            "eigenvalue", *map(_fmt, summary.covariance_eigs)]),
        _write_lines(out / "ring_scatter.csv", ["re,im", *(
            f"{_fmt(z.real)},{_fmt(z.imag)}" for z in summary.ring_eigs)]),
    ]
    config = {"k": cfg.lift.k, "n": cfg.lift.n, "window": width, **esd,
              "seed": cfg.seed, "snapshot_at": t}
    return config, cfg.seed, inputs, outputs


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
        p.add_argument("--seed", type=_seed, help="override the config seed")
        if data:
            p.add_argument("--k", type=int, help="number of Kronecker segments")

    def window_flags(p):
        p.add_argument("--window", type=int, dest="window_width",
                       metavar="WINDOW", help="moving window width")
        p.add_argument("--no-residual", action="store_false",
                       dest="use_residual", default=None,
                       help="skip temporal differencing")

    p = sub.add_parser("synth", help="generate a synthetic scenario matrix")
    common(p, data=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect-rmt",
                       help="windowed spectral detector (LES and MSR curves)")
    common(p)
    window_flags(p)
    p.add_argument("--eval-from", type=int,
                   help="first time to evaluate; trimming keeps the raw "
                   "values but renormalizes the curves and recomputes the "
                   "alarms over the trimmed range")
    p.add_argument("--eval-to", type=int, help="last time to evaluate")
    p.set_defaults(func=cmd_detect_rmt)

    p = sub.add_parser("detect-sae",
                       help="reconstruction-error detector (train or score)")
    common(p)
    p.add_argument("--checkpoint",
                   help="score with an existing model instead of training")
    p.set_defaults(func=cmd_detect_sae)

    p = sub.add_parser("esd-check",
                       help="one-window spectrum vs the reference laws")
    common(p)
    window_flags(p)
    p.add_argument("--snapshot-at", type=int, required=True, metavar="T",
                   help="time the window ends at")
    p.set_defaults(func=cmd_esd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        out = _out_dir(args.out)
        _claim(out, "manifest.json")
        config, seed, inputs, outputs = args.func(args, out)
        write_manifest(out, args.command, config, seed, inputs, outputs, started)
    except KronliftError as exc:
        print(f"kronlift {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
