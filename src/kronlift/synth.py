"""Synthetic multichannel scenarios.

Channels sit at constant per-unit baselines with a small white
fluctuation; step or ramp anomalies hit chosen channel subsets; an AR(1)
colored measurement noise is mixed in at an amplitude set by a
signal-to-noise ratio.  Everything derives from one scenario seed:
the white field uses child seed (seed, 0) and noise row i uses
(seed, 1, i), so changing the channel count never reshuffles other rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import (
    SpatioTemporalMatrix,
    boolean,
    check_seed,
    integer,
    list_of,
    non_negative,
    number,
    read_section,
)
from .errors import ConfigError, ParameterError

ANOMALY_KINDS = ("step", "ramp")


@dataclass(frozen=True)
class AnomalySpec:
    """One anomaly: a level step or a linear ramp.

    A step adds magnitude to the affected channels from onset onward.  A
    ramp rises linearly from 0 at onset to magnitude at end and holds the
    final level afterwards.  channels are 1-based indices.  end=None
    resolves to the last sample.
    """

    kind: str
    onset: int = 501
    end: int | None = None
    channels: tuple = ()
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise ConfigError(f"unknown anomaly kind {self.kind!r}")
        if not self.channels:
            raise ConfigError("anomaly needs a non-empty channel subset")
        if not np.isfinite(self.magnitude):
            raise ConfigError("anomaly magnitude must be finite")
        object.__setattr__(
            self, "channels", tuple(int(c) for c in self.channels)
        )


@dataclass(frozen=True)
class NoiseConfig:
    """AR(1) measurement noise with unit stationary variance."""

    b: float = 0.5
    snr: float = 1000.0
    enabled: bool = True

    def __post_init__(self):
        if not (abs(self.b) < 1.0):
            raise ParameterError(f"AR coefficient must satisfy |b| < 1, got {self.b}")
        if not (self.snr > 0.0):
            raise ParameterError(f"snr must be positive, got {self.snr}")


@dataclass(frozen=True)
class ScenarioConfig:
    channels: int = 28
    samples: int = 1000
    baselines: float | tuple = 1.0
    white_sigma: float = 1e-3
    anomalies: tuple = ()
    noise: NoiseConfig = NoiseConfig()
    seed: int = 0

    def __post_init__(self):
        if self.channels < 1 or self.samples < 1:
            raise ConfigError("channels and samples must be positive")
        if self.white_sigma < 0:
            raise ConfigError("white_sigma must be >= 0")
        check_seed(self.seed)
        object.__setattr__(self, "anomalies", tuple(self.anomalies))
        for a in self.anomalies:
            end = self.samples if a.end is None else a.end
            if not (1 <= a.onset < end <= self.samples):
                raise ConfigError(
                    f"anomaly span [{a.onset}, {a.end}] outside 1..{self.samples}"
                )
            for c in a.channels:
                if not (1 <= c <= self.channels):
                    raise ConfigError(
                        f"anomaly channel {c} outside 1..{self.channels}"
                    )

    def baseline_vector(self) -> np.ndarray:
        base = np.asarray(self.baselines, dtype=float)
        if base.ndim == 0:
            return np.full(self.channels, float(base))
        if base.shape != (self.channels,):
            raise ConfigError(
                f"{base.size} baseline levels for {self.channels} channels"
            )
        return base


def colored_noise(
    P: int, N: int, noise: NoiseConfig, seed: int
) -> np.ndarray:
    """Independent AR(1) rows with stationary N(0, 1) marginals.

    Row i draws from child seed (seed, 1, i): the initial state from the
    stationary law, then N-1 innovations with variance 1 - b**2.
    """
    b = noise.b
    if not (abs(b) < 1.0):
        raise ParameterError(f"|b| must be < 1, got {b}")
    E = np.empty((P, N))
    scale = np.sqrt(1.0 - b * b)
    for i in range(P):
        rng = np.random.default_rng((seed, 1, i))
        E[i, 0] = rng.standard_normal()
        E[i, 1:] = rng.standard_normal(N - 1) * scale
    for t in range(1, N):
        E[:, t] += b * E[:, t - 1]
    return E


def snr_scale(D: np.ndarray, E: np.ndarray, snr: float) -> float:
    """Mixing amplitude m = sqrt(var(D) / (var(E) * snr)).

    Variances are taken over all matrix entries with the population
    (divide-by-count) convention.
    """
    var_d = float(np.var(D))
    var_e = float(np.var(E))
    if var_e <= 0.0:
        raise ParameterError("noise field has zero variance")
    if snr <= 0.0:
        raise ParameterError("snr must be positive")
    if var_d == 0.0:
        warnings.warn(
            "signal matrix is exactly constant; snr scale set to 0",
            stacklevel=2,
        )
        return 0.0
    return float(np.sqrt(var_d / (var_e * snr)))


def _anomaly_field(cfg: ScenarioConfig) -> np.ndarray:
    """Summed anomaly contributions on the channels x samples grid."""
    out = np.zeros((cfg.channels, cfg.samples))
    t = np.arange(1, cfg.samples + 1)
    for a in cfg.anomalies:
        end = cfg.samples if a.end is None else a.end
        if a.kind == "step":
            contrib = np.where(t >= a.onset, a.magnitude, 0.0)
        else:
            contrib = a.magnitude * np.clip(
                (t - a.onset) / (end - a.onset), 0.0, 1.0
            )
        for c in a.channels:
            out[c - 1] += contrib
    return out


def generate(cfg: ScenarioConfig) -> SpatioTemporalMatrix:
    """Compose baselines, white fluctuation, anomalies, and scaled noise.

    The SNR amplitude is computed from the variance of the composed signal
    including anomaly contributions, so anomalous scenarios carry slightly
    stronger measurement noise than quiet ones with the same settings.
    """
    base = cfg.baseline_vector()
    rng_white = np.random.default_rng((cfg.seed, 0))
    D = base[:, None] + rng_white.normal(
        0.0, cfg.white_sigma, size=(cfg.channels, cfg.samples)
    )
    D += _anomaly_field(cfg)
    if cfg.noise.enabled:
        E = colored_noise(cfg.channels, cfg.samples, cfg.noise, cfg.seed)
        D = D + snr_scale(D, E, cfg.noise.snr) * E
    ids = [f"ch{i+1:02d}" for i in range(cfg.channels)]
    return SpatioTemporalMatrix(values=D, channel_ids=ids, t0=1)


def _baselines(value):  # one level for every channel, or one per channel
    return number(value) if np.ndim(value) == 0 else list_of(number)(value)


def _anomalies(value) -> tuple:
    return tuple(
        AnomalySpec(**read_section(e, ANOMALY_SCHEMA, f"scenario.anomalies[{i}]"))
        for i, e in enumerate(value)
    )


ANOMALY_SCHEMA = {
    "kind": (str, "step"), "onset": (integer, 501), "end": (integer, None),
    "channels": (list_of(integer), ()), "magnitude": (number, 0.0),
}
NOISE_SCHEMA = {
    "b": (number, 0.5), "snr": (number, 1000.0), "enabled": (boolean, True),
}
SCENARIO_SCHEMA = {
    "channels": (integer, 28), "samples": (integer, 1000),
    "baselines": (_baselines, 1.0), "white_sigma": (number, 1e-3),
    "anomalies": (_anomalies, ()),
    "noise": (lambda doc: NoiseConfig(**read_section(
        doc, NOISE_SCHEMA, "scenario.noise")), NoiseConfig()),
    "seed": (non_negative, 0),
}


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document section."""
    return ScenarioConfig(**read_section(doc, SCENARIO_SCHEMA, "scenario"))
