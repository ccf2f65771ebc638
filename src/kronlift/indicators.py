"""Spectral indicator statistics.

Linear eigenvalue statistics (a pluggable scalar test function summed over
a real spectrum), the mean spectral radius of a complex spectrum, and curve
normalization into (0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data_model import IndicatorSeries
from .errors import ConfigError, PreconditionError

EIGENVALUE_FLOOR = 1e-12
NEGATIVE_TOLERANCE = 1e-9  # relative to the largest magnitude eigenvalue

KINDS = ("chebyshev", "entropy", "likelihood_ratio")


@dataclass(frozen=True)
class TestFunction:
    """Scalar function applied eigenvalue-wise inside les().

    entropy:          phi(x) = -x ln x        (phi(0) = 0)
    likelihood_ratio: phi(x) = x - ln x - 1
    chebyshev:        Chebyshev-basis polynomial with given coefficients
    """

    __test__ = False  # keep pytest from collecting this as a test class

    kind: str
    coefficients: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown test function kind {self.kind!r}")
        if self.kind == "chebyshev":
            if not self.coefficients:
                raise ConfigError("chebyshev test function needs coefficients")
            object.__setattr__(
                self, "coefficients", tuple(float(a) for a in self.coefficients)
            )

    @property
    def needs_nonnegative(self) -> bool:
        return self.kind in ("entropy", "likelihood_ratio")

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if self.kind == "chebyshev":
            return np.polynomial.chebyshev.chebval(lam, self.coefficients)
        if self.kind == "entropy":
            out = np.zeros_like(lam)
            pos = lam > 0.0
            out[pos] = -lam[pos] * np.log(lam[pos])
            return out
        # likelihood_ratio; caller guarantees lam > 0 after flooring
        return lam - np.log(lam) - 1.0


def entropy() -> TestFunction:
    return TestFunction(kind="entropy")


def likelihood_ratio() -> TestFunction:
    return TestFunction(kind="likelihood_ratio")


def chebyshev(coefficients) -> TestFunction:
    return TestFunction(kind="chebyshev", coefficients=tuple(coefficients))


def les(eigs: np.ndarray, phi: TestFunction) -> float:
    """Linear eigenvalue statistic: sum of phi over the spectrum.

    For the log-based test functions, eigenvalues that are zero up to
    solver roundoff are clamped to a small positive floor; anything more
    negative than the roundoff band is a genuine domain violation.
    """
    lam = np.asarray(eigs, dtype=float).ravel()
    if lam.size == 0:
        raise PreconditionError("empty spectrum")
    if phi.needs_nonnegative:
        scale = np.max(np.abs(lam))
        if np.min(lam) < -NEGATIVE_TOLERANCE * max(scale, 1e-300):
            raise PreconditionError(
                f"negative eigenvalue {np.min(lam):.3e} outside the "
                f"{phi.kind} test function's domain"
            )
        lam = np.clip(lam, EIGENVALUE_FLOOR, None)
    return float(np.sum(phi(lam)))


def msr(ring_eigs: np.ndarray) -> float:
    """Mean spectral radius: arithmetic mean of complex eigenvalue moduli."""
    lam = np.asarray(ring_eigs).ravel()
    if lam.size == 0:
        raise PreconditionError("empty spectrum")
    return float(np.mean(np.abs(lam)))


def normalize_curve(series: IndicatorSeries) -> IndicatorSeries:
    """Divide the curve by its maximum."""
    peak = float(np.max(series.values)) if series.values.size else 0.0
    if peak <= 0.0:
        raise PreconditionError(
            "curve has no strictly positive value to normalize by"
        )
    return replace(series, values=series.values / peak)
