"""Traced replicas of the CLI commands the workloads run.

Each replica makes the calls `kronlift.cli` makes for the command, in the
same order, through the public functions of the library modules, with a
span around each call, and writes the same output files.  run.py
compares those files byte for byte with the ones the untraced command
wrote, which proves the trace measured the same work.  Spans are named
`<module>.<function>`; the root span of a command is `cli.<command>` and
its self time is the CLI's own work (formatting, writing, sha256
manifest).
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from kronlift import cli
from kronlift.autoencoder import (
    AdamState,
    AutoencoderModel,
    TrainConfig,
    fit_scaler,
    init_model,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    score_matrix,
)
from kronlift.data_model import (
    IndicatorSeries,
    LiftConfig,
    WindowSpec,
    load_matrix,
    residual_matrix,
)
from kronlift.indicators import entropy, les, msr, normalize_curve
from kronlift.lift import lift_matrix
from kronlift.rmt_detector import (
    DeviationRule,
    RmtDetectorConfig,
    deviation_alarms,
    window_at,
)
from kronlift.spectral import (
    covariance_eigenvalues,
    haar_unitary,
    row_standardize,
    singular_value_equivalent,
    summarize_window,
    tensor_covariance,
)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _finish(root: dict, out: Path, command: str, config: dict, seed: int,
            inputs: dict, outputs: list, started: float) -> None:
    manifest = cli.write_manifest(out, command, config, seed, inputs,
                                  outputs, started)
    root["output_bytes"] = sum(p.stat().st_size for p in [*outputs, manifest])


def _detector_config(w, doc: dict) -> RmtDetectorConfig:
    det = doc["detector"]
    k, n = w.lift(doc)
    lo, hi = w.eval_range if w.eval_range is not None else (None, None)
    return RmtDetectorConfig(
        lift=LiftConfig(k=k, n=n),
        window=WindowSpec(width=int(det["window_width"]),
                          stride=int(det.get("stride", 1))),
        test_function=entropy(),
        use_residual=bool(det["use_residual"]),
        seed=int(det["seed"]),
        deviation_rule=DeviationRule(
            baseline_span=int(det["baseline_span"]),
            threshold_sigmas=float(det["threshold_sigmas"])),
        scale_mode=str(det["scale_mode"]),
        eval_from=lo,
        eval_to=hi,
    )


def _run_rmt(tr, D, cfg: RmtDetectorConfig, counters: dict):
    """rmt_detector.run_rmt, one span per library call of each window."""
    if cfg.use_residual:
        with tr.span("data_model.residual_matrix"):
            D = residual_matrix(D)
    with tr.span("lift.lift_matrix") as c:
        lifted = lift_matrix(D, cfg.lift, scale_mode=cfg.scale_mode)
        c["bytes"] = lifted.values.nbytes
    width = cfg.window.width
    first = lifted.t0 + width - 1
    last = lifted.t0 + lifted.samples - 1
    lo = first if cfg.eval_from is None else max(first, int(cfg.eval_from))
    hi = last if cfg.eval_to is None else min(last, int(cfg.eval_to))
    times = np.arange(lo, hi + 1, cfg.window.stride)

    les_vals = np.empty(times.size)
    msr_vals = np.empty(times.size)
    for i, t in enumerate(times):
        W = window_at(lifted, int(t), width)
        with tr.span("spectral.tensor_covariance"):
            M = tensor_covariance(W, cfg.weights)
        with tr.span("spectral.covariance_eigenvalues"):
            eigs = covariance_eigenvalues(M)
        with tr.span("indicators.les"):
            les_vals[i] = les(eigs, cfg.test_function)
        with tr.span("spectral.row_standardize"):
            Z = row_standardize(W if W.shape[0] <= W.shape[1] else W.T)
        with tr.span("spectral.singular_value_equivalent"):
            Xu = singular_value_equivalent(Z, (cfg.seed, int(t)))
        with tr.span("spectral.ring_eigvals"):
            ring = np.linalg.eigvals(Xu)
        with tr.span("indicators.msr"):
            msr_vals[i] = msr(ring)
    counters["windows"] = int(times.size)
    counters["ring_rows"] = int(min(W.shape))
    counters["last_t"] = int(times[-1])

    stride = cfg.window.stride
    les_raw = IndicatorSeries(int(times[0]), les_vals, "LES", stride)
    msr_raw = IndicatorSeries(int(times[0]), msr_vals, "MSR", stride)
    with tr.span("indicators.normalize_curve"):
        les_norm = normalize_curve(replace(les_raw, values=np.abs(les_vals)))
    with tr.span("indicators.normalize_curve"):
        msr_norm = normalize_curve(msr_raw)
    with tr.span("rmt_detector.deviation_alarms"):
        alarms = deviation_alarms(les_norm, cfg.deviation_rule)
    with tr.span("rmt_detector.deviation_alarms"):
        alarms += deviation_alarms(msr_norm, cfg.deviation_rule)
    alarms.sort(key=lambda a: (a.t, a.indicator))
    counters["alarms"] = len(alarms)
    return les_raw, les_norm, msr_raw, msr_norm, alarms


def detect_rmt(tr, w, doc: dict, data: Path, work: Path, out: Path) -> None:
    with tr.span("cli.detect-rmt") as root:
        started = time.monotonic()
        with tr.span("data_model.load_matrix"):
            M = load_matrix(data)
        cli.load_config(w.config_arg(work))
        cfg = _detector_config(w, doc)
        with tr.span("rmt_detector.run_rmt") as counters:
            les_raw, les_norm, msr_raw, msr_norm, alarms = _run_rmt(
                tr, M, cfg, counters)
        root.update(counters)

        out.mkdir(parents=True, exist_ok=True)
        curves_path = out / "curves.csv"
        with open(curves_path, "w", encoding="utf-8", newline="") as f:
            f.write("t,les_raw,les_norm,msr_raw,msr_norm\n")
            for j, t in enumerate(les_raw.times()):
                f.write(",".join([
                    str(t), _fmt(les_raw.values[j]), _fmt(les_norm.values[j]),
                    _fmt(msr_raw.values[j]), _fmt(msr_norm.values[j]),
                ]) + "\n")
        alarms_path = out / "alarms.jsonl"
        with open(alarms_path, "w", encoding="utf-8", newline="") as f:
            for a in alarms:
                f.write(json.dumps({"t": a.t, "indicator": a.indicator,
                                    "deviation_sigmas": a.deviation_sigmas})
                        + "\n")
        config = {"k": cfg.lift.k, "n": cfg.lift.n,
                  "window_width": cfg.window.width,
                  "eval_from": cfg.eval_from, "eval_to": cfg.eval_to,
                  "seed": cfg.seed}
        _finish(root, out, "detect-rmt", config, cfg.seed,
                {data.name: data}, [curves_path, alarms_path], started)

    # haar_unitary runs inside singular_value_equivalent, out of the
    # trace's reach; time one extra call at the ring size and the seed of
    # the last window, outside the command's span.
    with tr.span("spectral.haar_unitary"):
        haar_unitary(root["ring_rows"],
                     np.random.default_rng((cfg.seed, root["last_t"])))


def esd_check(tr, w, doc: dict, data: Path, work: Path, t: int,
              out: Path) -> None:
    with tr.span("cli.esd-check") as root:
        started = time.monotonic()
        with tr.span("data_model.load_matrix"):
            M = load_matrix(data)
        cli.load_config(w.config_arg(work))
        k, n = w.lift(doc)
        width = int(doc["detector"]["window_width"])
        section = doc["esd"]
        use_residual = bool(section.get("use_residual", True))
        seed = int(section.get("seed", 0))
        if use_residual:
            with tr.span("data_model.residual_matrix"):
                M = residual_matrix(M)
        with tr.span("lift.lift_matrix") as c:
            lifted = lift_matrix(M, LiftConfig(k=k, n=n), scale_mode="sqrt-dim")
            c["bytes"] = lifted.values.nbytes
        W = window_at(lifted, t, width)
        with tr.span("spectral.summarize_window"):
            summary = summarize_window(W, seed=(seed, t))

        out.mkdir(parents=True, exist_ok=True)
        summary_path = out / "summary.json"
        doc_out = {
            "schema_version": cli.SCHEMA_VERSION,
            "t": t,
            "dim": int(summary.covariance_eigs.size),
            "c_ratio": summary.c_ratio,
            "mp_support": [summary.mp_support[0], summary.mp_support[1]],
            "ks_distance_mp": summary.ks_distance_mp,
            "ring_inner": summary.ring_inner,
            "ring_coverage": summary.ring_coverage,
            "window": width,
        }
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
        config = {"k": k, "n": n, "window": width,
                  "use_residual": use_residual, "seed": seed, "snapshot_at": t}
        _finish(root, out, "esd-check", config, seed, {data.name: data},
                [summary_path, hist_path, scatter_path], started)


def _write_rmse(out: Path, times, values) -> Path:
    path = out / "rmse.csv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("t,rmse\n")
        for t, v in zip(times, values):
            f.write(f"{t},{_fmt(v)}\n")
    return path


def _sae_settings(w, doc: dict):
    section = doc["sae"]
    k, n = w.lift(doc)
    span = (int(section["train_span"][0]), int(section["train_span"][1]))
    cfg = TrainConfig(learning_rate=float(section["learning_rate"]),
                      max_iterations=int(section["max_iterations"]),
                      seed=int(section["seed"]))
    return LiftConfig(k=k, n=n), span, cfg


def _train(tr, model: AutoencoderModel, data: np.ndarray, cfg: TrainConfig,
           counters: dict):
    """autoencoder.train, one span per loss/gradient and per Adam step."""
    X = np.asarray(data, dtype=float).T
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    n_layers = len(weights)
    adam = AdamState.for_params(weights + biases, cfg.learning_rate,
                                beta1=cfg.beta1, beta2=cfg.beta2,
                                epsilon=cfg.epsilon)
    losses = np.empty(cfg.max_iterations)
    for it in range(cfg.max_iterations):
        current = AutoencoderModel(layer_sizes=model.layer_sizes,
                                   weights=weights, biases=biases,
                                   seed=model.seed)
        with tr.span("autoencoder.loss_and_gradients"):
            loss, gW, gb = loss_and_gradients(current, X)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at iteration {it}")
        losses[it] = loss
        with tr.span("autoencoder.adam_step"):
            new = adam.step(weights + biases, gW + gb)
        weights, biases = new[:n_layers], new[n_layers:]
    hit = np.flatnonzero(losses <= 1.1 * losses[-1])
    counters["iterations"] = cfg.max_iterations
    counters["iterations_to_tolerance"] = int(hit[0]) if hit.size else -1
    trained = AutoencoderModel(layer_sizes=model.layer_sizes, weights=weights,
                               biases=biases, seed=model.seed)
    return trained, losses


def detect_sae(tr, w, doc: dict, data: Path, work: Path, out: Path) -> None:
    with tr.span("cli.detect-sae") as root:
        started = time.monotonic()
        with tr.span("data_model.load_matrix"):
            M = load_matrix(data)
        cli.load_config(w.config_arg(work))
        lift, (lo_t, hi_t), cfg = _sae_settings(w, doc)
        out.mkdir(parents=True, exist_ok=True)
        with tr.span("autoencoder.run_sae_detailed"):
            with tr.span("lift.lift_matrix") as c:
                vals = lift_matrix(M, lift, scale_mode="unit-norm").values
                c["bytes"] = vals.nbytes
            t = M.t0 + np.arange(M.samples)
            train_cols = vals[:, (t >= lo_t) & (t <= hi_t)]
            with tr.span("autoencoder.fit_scaler"):
                scaler = fit_scaler(train_cols)
            with tr.span("autoencoder.init_model"):
                model0 = init_model(vals.shape[0], cfg.seed)
            scaled = scaler.apply(train_cols)
            with tr.span("autoencoder.train") as counters:
                model, losses = _train(tr, model0, scaled, cfg, counters)
            with tr.span("autoencoder.score_matrix"):
                scores = score_matrix(model, scaler, vals[:, t > hi_t])
        root.update(counters)

        rmse_path = _write_rmse(out, hi_t + 1 + np.arange(scores.size), scores)
        trace_path = out / "loss_trace.csv"
        with open(trace_path, "w", encoding="utf-8", newline="") as f:
            f.write("iteration,loss\n")
            for i, loss in enumerate(losses, start=1):
                f.write(f"{i},{_fmt(loss)}\n")
        model_path = out / "model.json"
        with tr.span("autoencoder.save_checkpoint"):
            save_checkpoint(model, scaler, model_path)
        config = {"k": lift.k, "n": lift.n, "train_span": [lo_t, hi_t],
                  "seed": cfg.seed}
        _finish(root, out, "detect-sae", config, cfg.seed, {data.name: data},
                [rmse_path, trace_path, model_path], started)


def score_sae(tr, w, doc: dict, data: Path, work: Path, checkpoint: Path,
              out: Path) -> None:
    with tr.span("cli.detect-sae") as root:
        started = time.monotonic()
        with tr.span("data_model.load_matrix"):
            M = load_matrix(data)
        cli.load_config(w.config_arg(work))
        lift, (lo_t, hi_t), cfg = _sae_settings(w, doc)
        out.mkdir(parents=True, exist_ok=True)
        with tr.span("autoencoder.load_checkpoint"):
            model, scaler = load_checkpoint(checkpoint)
        with tr.span("lift.lift_matrix") as c:
            lifted = lift_matrix(M, lift, scale_mode="unit-norm")
            c["bytes"] = lifted.values.nbytes
        first = hi_t + 1 - lifted.t0
        with tr.span("autoencoder.score_matrix"):
            rmse = score_matrix(model, scaler, lifted.values[:, first:])
        rmse_path = _write_rmse(out, range(hi_t + 1, hi_t + 1 + rmse.size),
                                rmse)
        config = {"k": lift.k, "n": lift.n, "train_span": [lo_t, hi_t],
                  "seed": cfg.seed, "checkpoint": checkpoint.name}
        _finish(root, out, "detect-sae", config, cfg.seed,
                {data.name: data, checkpoint.name: checkpoint}, [rmse_path],
                started)


def replay_round(tr, w, doc: dict, data: Path, work: Path, out: Path) -> None:
    """The detection command and one follow-up set, traced, into out/."""
    detect_out = out / "detect"
    if w.kind == "sae":
        detect_sae(tr, w, doc, data, work, detect_out)
        score_sae(tr, w, doc, data, work, detect_out / "model.json",
                  out / "score")
        return
    detect_rmt(tr, w, doc, data, work, detect_out)
    for t in w.snapshots:
        esd_check(tr, w, doc, data, work, t, out / f"esd_t{t}")
