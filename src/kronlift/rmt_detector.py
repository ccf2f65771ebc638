"""Moving-window random-matrix detector.

Slides a window over the (optionally differenced) lifted data, extracts
the covariance spectrum and the ring spectrum per window, and emits LES
and MSR indicator curves plus robust-deviation alarms.  The lift works
column by column, so only the columns the windows read are lifted.

Windows are independent (ring randomness is keyed by (seed, t)), so
run_rmt evaluates one contiguous chunk of them per worker through
_workers, which describes the fork protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _workers
from .data_model import (
    IndicatorSeries,
    LiftConfig,
    SpatioTemporalMatrix,
    WindowSpec,
    check_seed,
    residual_matrix,
)
from .errors import ConfigError, KronliftError, PreconditionError
from .indicators import TestFunction, entropy, les, msr, normalize_curve
from .lift import SCALE_MODES, LiftedMatrix, lift_matrix
from .spectral import window_spectra

MAD_TO_SIGMA = 1.4826  # consistency factor for Gaussian data


@dataclass(frozen=True)
class DeviationRule:
    """Robust alarm rule on a normalized curve.

    Baseline statistics (median and MAD-derived sigma) come from the first
    baseline_span points; any point deviating by threshold_sigmas or more
    raises an alarm.  Plumbing on top of the indicator curves; disable it
    to get curves only.
    """

    baseline_span: int = 300
    threshold_sigmas: float = 5.0
    enabled: bool = True

    def __post_init__(self):
        if not self.threshold_sigmas > 0:  # would flag every point
            raise ConfigError(
                f"detector.threshold_sigmas must be positive, "
                f"got {self.threshold_sigmas}"
            )
        if self.enabled and self.baseline_span < 2:  # no spread to measure
            raise ConfigError(
                f"detector.baseline_span must be >= 2, got {self.baseline_span}"
            )


@dataclass(frozen=True)
class RmtDetectorConfig:
    """Settings of run_rmt; the covariance weights every window column 1/N'."""

    lift: LiftConfig
    window: WindowSpec = WindowSpec()
    test_function: TestFunction = entropy()
    use_residual: bool = True
    seed: int = 0
    deviation_rule: DeviationRule = DeviationRule()
    scale_mode: str = "sqrt-dim"
    # evaluation range on the public time axis; None means full history.
    # Narrowing it leaves the raw LES/MSR values of the kept windows
    # unchanged (per-window randomness is keyed by absolute time); the
    # normalized curves and the alarms are recomputed over the range.
    eval_from: int | None = None
    eval_to: int | None = None
    weights = None  # a class attribute, not a field: readable, never set

    def __post_init__(self):
        check_seed(self.seed)
        if self.scale_mode not in SCALE_MODES:
            raise ConfigError(f"scale_mode must be one of {SCALE_MODES}")


@dataclass(frozen=True)
class Alarm:
    t: int
    indicator: str
    deviation_sigmas: float


@dataclass(frozen=True)
class DetectionReport:
    les_curve: IndicatorSeries  # normalized magnitude curve
    msr_curve: IndicatorSeries  # normalized curve
    les_raw: IndicatorSeries  # signed statistic values
    msr_raw: IndicatorSeries
    alarms: list[Alarm]


def _window_ends(data, width: int) -> tuple[int, int]:
    """First and last public times a width-column window of data can end at."""
    if data.samples < width:
        raise PreconditionError(f"{data.samples} usable samples < window width {width}")
    return data.t0 + width - 1, data.t0 + data.samples - 1


def _check_end(data, t: int, width: int) -> None:
    """PreconditionError unless a width-column window of data ends at t."""
    first, last = _window_ends(data, width)
    if t < first or t > last:
        raise PreconditionError(
            f"window ending at t={t} needs t in [{first}, {last}]"
        )


def window_at(lifted: LiftedMatrix, t: int, width: int) -> np.ndarray:
    """The width most recent lifted columns ending at public time t."""
    _check_end(lifted, t, width)
    j = t - lifted.t0
    return lifted.values[:, j - width + 1 : j + 1]


def lift_window(
    data: SpatioTemporalMatrix, lift: LiftConfig, t: int, width: int
) -> np.ndarray:
    """window_at of data's sqrt-dim lift, which the reference laws assume,
    lifting only the window's columns: a zero segment outside the window
    does not stop it.  esd-check summarizes this window."""
    _check_end(data, t, width)
    return lift_matrix(data.columns(t - width + 1, t), lift,
                       scale_mode="sqrt-dim").values


def _check_baseline(rule: DeviationRule, points: int) -> None:
    if rule.enabled and rule.baseline_span > points:
        raise ConfigError(
            f"baseline_span {rule.baseline_span} does not fit a curve of "
            f"{points} points"
        )


def deviation_alarms(
    curve: IndicatorSeries, rule: DeviationRule
) -> list[Alarm]:
    """Apply the robust deviation rule to one normalized curve."""
    if not rule.enabled:
        return []
    v = curve.values
    _check_baseline(rule, v.size)
    base = v[: rule.baseline_span]
    med = float(np.median(base))
    sigma = MAD_TO_SIGMA * float(np.median(np.abs(base - med)))
    dev = np.abs(v - med) / max(sigma, 1e-300)
    times = curve.times()
    return [
        Alarm(t=int(times[i]), indicator=curve.kind, deviation_sigmas=float(dev[i]))
        for i in np.flatnonzero(dev >= rule.threshold_sigmas)
    ]


def _evaluate(
    lifted: LiftedMatrix, times: np.ndarray, cfg: RmtDetectorConfig,
    out: np.ndarray,
) -> None:
    """Write LES (row 0) and MSR (row 1) of the windows ending at times."""
    for i, t in enumerate(times):
        W = window_at(lifted, int(t), cfg.window.width)
        try:
            cov_eigs, ring_eigs = window_spectra(W, (cfg.seed, int(t)))
            out[:, i] = les(cov_eigs, cfg.test_function), msr(ring_eigs)
        except KronliftError as exc:  # same class, so the same exit code
            raise type(exc)(f"window ending at t={t}: {exc}") from exc


def _evaluate_parallel(
    lifted: LiftedMatrix, times: np.ndarray, cfg: RmtDetectorConfig
) -> np.ndarray:
    """_evaluate over one chunk per worker, each filling its own columns
    of one shared result buffer (_workers.run_forked)."""
    workers = min(_workers.worker_count(), times.size)
    out = _workers.shared_array(2 * times.size, float).reshape(2, -1)
    chunks = np.array_split(times, workers)
    dests = np.array_split(out, workers, axis=1)  # views into out
    _workers.run_forked([partial(_evaluate, lifted, chunk, cfg, dest)
                         for chunk, dest in zip(chunks, dests)])
    return out


def run_rmt(D: SpatioTemporalMatrix, cfg: RmtDetectorConfig) -> DetectionReport:
    """End-to-end windowed pipeline producing LES-t and MSR-t curves.

    Per-window randomness (the ring unitary) is keyed by (cfg.seed, t), so
    raw values are independent of stride, evaluation range and CPU count.
    The LES curve is normalized on its magnitude: the entropy statistic of
    these spectra is negative, and the deviation rule wants a curve in
    (0, 1].
    """
    data = residual_matrix(D) if cfg.use_residual else D
    width = cfg.window.width
    first, last = _window_ends(data, width)
    lo = first if cfg.eval_from is None else max(first, int(cfg.eval_from))
    hi = last if cfg.eval_to is None else min(last, int(cfg.eval_to))
    if lo > hi:
        raise PreconditionError(
            f"evaluation range [{cfg.eval_from}, {cfg.eval_to}] is empty "
            f"within valid times [{first}, {last}]"
        )
    times = np.arange(lo, hi + 1, cfg.window.stride)
    # only the columns the windows read, from the first one's to the last's
    lifted = lift_matrix(data.columns(lo - width + 1, int(times[-1])),
                         cfg.lift, scale_mode=cfg.scale_mode)
    _check_baseline(cfg.deviation_rule, times.size)

    les_vals, msr_vals = _evaluate_parallel(lifted, times, cfg)

    stride = cfg.window.stride
    les_raw = IndicatorSeries(int(times[0]), les_vals, "LES", stride)
    msr_raw = IndicatorSeries(int(times[0]), msr_vals, "MSR", stride)
    les_norm = normalize_curve(replace(les_raw, values=np.abs(les_vals)))
    msr_norm = normalize_curve(msr_raw)

    alarms = deviation_alarms(les_norm, cfg.deviation_rule)
    alarms += deviation_alarms(msr_norm, cfg.deviation_rule)
    alarms.sort(key=lambda a: (a.t, a.indicator))

    return DetectionReport(
        les_curve=les_norm,
        msr_curve=msr_norm,
        les_raw=les_raw,
        msr_raw=msr_raw,
        alarms=alarms,
    )
