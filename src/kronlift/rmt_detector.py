"""Moving-window random-matrix detector.

Slides a window over the (optionally differenced) lifted data, extracts
the covariance spectrum and the ring spectrum per window, and emits LES
and MSR indicator curves plus robust-deviation alarms.

Windows are independent (ring randomness is keyed by (seed, t)), so
run_rmt splits them into contiguous chunks, one per worker, and
evaluates all but the first chunk in forked children.  Every chunk
writes its LES/MSR values into its own columns of one result buffer, an
anonymous shared mapping, so children return nothing but an exit
status.  Workers are the CPUs the process may run on divided by the BLAS
thread count, so a BLAS left to take every CPU gets one chunk, evaluated
in this process by the same loop.  Each window runs the same code in
whichever process evaluates it, so the curves do not depend on the
worker count.
"""

from __future__ import annotations

import mmap
import os
import signal
from dataclasses import dataclass, field, replace

import numpy as np

from .data_model import (
    IndicatorSeries,
    LiftConfig,
    SpatioTemporalMatrix,
    WindowSpec,
    check_seed,
    residual_matrix,
)
from .errors import ConfigError, NumericalError, WindowError
from .indicators import TestFunction, entropy, les, msr, normalize_curve
from .lift import LiftedMatrix, lift_matrix
from .spectral import SpectralSummary, summarize_window, window_spectra

MAD_TO_SIGMA = 1.4826  # consistency factor for Gaussian data
# where OpenBLAS reads its thread count, in its order (MKL also honours
# OMP_NUM_THREADS); an unknown count means the BLAS takes every CPU
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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


@dataclass(frozen=True)
class RmtDetectorConfig:
    lift: LiftConfig
    window: WindowSpec = WindowSpec()
    weights: np.ndarray | None = None  # per-column covariance weights
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

    def __post_init__(self):
        check_seed(self.seed)


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
    spectral_snapshots: dict[int, SpectralSummary] = field(default_factory=dict)


def _window_ends(data, width: int) -> tuple[int, int]:
    """First and last public times a width-column window of data can end at."""
    if data.samples < width:
        raise WindowError(f"{data.samples} usable samples < window width {width}")
    return data.t0 + width - 1, data.t0 + data.samples - 1


def window_at(lifted: LiftedMatrix, t: int, width: int) -> np.ndarray:
    """The width most recent lifted columns ending at public time t."""
    first, last = _window_ends(lifted, width)
    if t < first or t > last:
        raise WindowError(
            f"window ending at t={t} needs t in [{first}, {last}]"
        )
    j = t - lifted.t0
    return lifted.values[:, j - width + 1 : j + 1]


def _check_baseline(rule: DeviationRule, points: int) -> None:
    if rule.enabled and not 2 <= rule.baseline_span <= points:
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
            cov_eigs, ring_eigs = window_spectra(W, (cfg.seed, int(t)), cfg.weights)
        except NumericalError as exc:
            raise NumericalError(f"window ending at t={t}: {exc}") from exc
        out[:, i] = les(cov_eigs, cfg.test_function), msr(ring_eigs)


def _worker_count() -> int:
    """Processes to spread windows over: CPUs per BLAS thread count.

    The BLAS reads its thread count from the environment when numpy
    loads and starts one thread per CPU when none is set.  Its idle
    threads spin, so a second process would oversubscribe the CPUs: with
    2 processes of 2 OpenBLAS threads on 2 CPUs a k=2 run took 3.6x as
    long as the serial loop.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


def _evaluate_parallel(
    lifted: LiftedMatrix, times: np.ndarray, cfg: RmtDetectorConfig
) -> np.ndarray:
    """_evaluate over contiguous chunks, one per worker, the first here.

    Each chunk fills its own columns of one shared anonymous mapping.  A
    forked child runs only numpy and this module, takes no lock another
    thread could hold, and leaves by os._exit, so fork is safe here;
    OpenBLAS stops its own thread pool before each fork.  A chunk whose
    child did not exit 0 or never started is evaluated again here, in
    chunk order, so an error surfaces exactly as the serial loop raises it.
    """
    workers = min(_worker_count(), times.size) if hasattr(os, "fork") else 1
    out = np.frombuffer(mmap.mmap(-1, 16 * times.size)).reshape(2, -1)
    chunks = np.array_split(times, workers)
    dests = np.array_split(out, workers, axis=1)  # views into out
    pids: dict[int, int] = {}  # chunk index -> child pid
    try:
        for j in range(1, workers):
            try:
                pids[j] = os.fork()
            except OSError:
                continue
            if pids[j] == 0:
                code = 1
                try:
                    _evaluate(lifted, chunks[j], cfg, dests[j])
                    code = 0
                finally:
                    os._exit(code)  # skip the parent's exit handlers and buffers
        _evaluate(lifted, chunks[0], cfg, dests[0])
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = {j: os.waitpid(pid, 0)[1] for j, pid in pids.items()}
    for j in range(1, workers):
        if status.get(j, 1) != 0:  # failed, or never forked
            _evaluate(lifted, chunks[j], cfg, dests[j])
    return out


def run_rmt(
    D: SpatioTemporalMatrix,
    cfg: RmtDetectorConfig,
    snapshot_at: tuple[int, ...] = (),
) -> DetectionReport:
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
    lifted = lift_matrix(data, cfg.lift, scale_mode=cfg.scale_mode)
    lo = first if cfg.eval_from is None else max(first, int(cfg.eval_from))
    hi = last if cfg.eval_to is None else min(last, int(cfg.eval_to))
    if lo > hi:
        raise WindowError(
            f"evaluation range [{cfg.eval_from}, {cfg.eval_to}] is empty "
            f"within valid times [{first}, {last}]"
        )
    times = np.arange(lo, hi + 1, cfg.window.stride)
    _check_baseline(cfg.deviation_rule, times.size)
    # cut the snapshot windows first, so a bad time fails before any window runs
    snap_windows = {int(t): window_at(lifted, int(t), width) for t in snapshot_at}

    les_vals, msr_vals = _evaluate_parallel(lifted, times, cfg)

    stride = cfg.window.stride
    les_raw = IndicatorSeries(int(times[0]), les_vals, "LES", stride)
    msr_raw = IndicatorSeries(int(times[0]), msr_vals, "MSR", stride)
    les_norm = normalize_curve(replace(les_raw, values=np.abs(les_vals)))
    msr_norm = normalize_curve(msr_raw)

    alarms = deviation_alarms(les_norm, cfg.deviation_rule)
    alarms += deviation_alarms(msr_norm, cfg.deviation_rule)
    alarms.sort(key=lambda a: (a.t, a.indicator))

    snapshots = {t: summarize_window(W, seed=(cfg.seed, t), weights=cfg.weights)
                 for t, W in snap_windows.items()}
    return DetectionReport(
        les_curve=les_norm,
        msr_curve=msr_norm,
        les_raw=les_raw,
        msr_raw=msr_raw,
        alarms=alarms,
        spectral_snapshots=snapshots,
    )
