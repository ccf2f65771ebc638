"""Covariance spectra and their theoretical references.

Builds weighted sample covariances from data windows, extracts real
(covariance) and complex (ring) spectra, and measures the distance of an
empirical spectral distribution to the Marchenko-Pastur law (its cdf in
closed form) and the annulus coverage against the single-ring reference.

Aspect-ratio conventions: mp_law takes c = dimension / samples (so c > 1
means a rank-deficient covariance with a point mass at zero), while the
reported SpectralSummary.c_ratio is samples / dimension.  The reciprocal
conversion happens in exactly one place, summarize_window.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    ParameterError,
    PreconditionError,
    StandardizationError,
)

RING_INNER_SLACK = 0.05
RING_OUTER_EDGE = 1.05
# a row with std <= DEAD_ROW_RTOL * max|entry| is constant up to rounding
# (about 1-3 eps); live benchmark windows sit at 8.5e-4 or more
DEAD_ROW_RTOL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class SpectralSummary:
    """One window's spectra and law-comparison metrics."""

    covariance_eigs: np.ndarray
    ring_eigs: np.ndarray
    c_ratio: float  # samples / dimension
    mp_support: tuple[float, float]
    ring_inner: float
    ks_distance_mp: float
    ring_coverage: float


class MarchenkoPastur:
    """Marchenko-Pastur law with ratio c = dimension/samples and scale sigma2.

    Support is sigma2*(1 +- sqrt(c))**2; for c > 1 the distribution has a
    point mass 1 - 1/c at zero.  The cdf is in closed form: with
    x = sigma2*(p + q*sin(theta)), p = 1 + c, q = 2*sqrt(c) and
    d = |1 - c|, the density's mass on [a, x] is
    (2/pi)*(G(theta) - G(-pi/2)) for the antiderivative
    G(theta) = cos(theta)/q + p*theta/q**2
               - (d/2c)*arctan((p*tan(theta/2) + q)/d),
    whose arctan term vanishes at c = 1.
    """

    def __init__(self, c: float, sigma2: float = 1.0):
        if not (c > 0.0) or not np.isfinite(c):
            raise ParameterError(f"mp_law ratio c must be positive, got {c}")
        if not (sigma2 > 0.0) or not np.isfinite(sigma2):
            raise ParameterError(f"sigma2 must be positive, got {sigma2}")
        self.c = float(c)
        self.sigma2 = float(sigma2)
        sc = np.sqrt(c)
        self._a = sigma2 * (1.0 - sc) ** 2
        self._b = sigma2 * (1.0 + sc) ** 2
        self.atom_at_zero = max(0.0, 1.0 - 1.0 / c)

    @property
    def support(self) -> tuple[float, float]:
        return (self._a, self._b)

    def _antiderivative(self, theta):
        """G(theta) of the class docstring."""
        c = self.c
        p, q, d = 1.0 + c, 2.0 * np.sqrt(c), abs(1.0 - c)
        # arctan2(y, d) is arctan(y/d) for d > 0, and its d = 0 term drops
        edge = np.arctan2(p * np.tan(0.5 * theta) + q, d)
        return np.cos(theta) / q + p * theta / q**2 - d / (2.0 * c) * edge

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        a, b = self._a, self._b
        xs = np.clip(x, a, b)
        # phi = theta + pi/2 from its half-angle tangent sqrt((x-a)/(b-x))
        # stays exact at the edges, where arcsin((x/sigma2 - p)/q) loses
        # digits
        phi = 2.0 * np.arctan2(np.sqrt(xs - a), np.sqrt(b - xs))
        theta = phi - 0.5 * np.pi
        mass = (2.0 / np.pi) * (
            self._antiderivative(theta) - self._antiderivative(-0.5 * np.pi)
        )
        out = np.clip(self.atom_at_zero + mass, 0.0, 1.0)
        out = np.where(x < 0.0, 0.0, np.where(x >= b, 1.0, out))
        return float(out) if out.ndim == 0 else out


def mp_law(c: float, sigma2: float = 1.0) -> MarchenkoPastur:
    """Marchenko-Pastur reference with ratio c = dimension/samples."""
    return MarchenkoPastur(c, sigma2)


def tensor_covariance(
    X: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Weighted sample covariance sum_j tau_j x_j x_j^T over window columns.

    weights holds tau_j, one per column; None means uniform 1/N'.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise DimensionError("window must be a non-empty 2-D matrix")
    n_cols = X.shape[1]
    if weights is None:
        tau = np.full(n_cols, 1.0 / n_cols)
    else:
        tau = np.asarray(weights, dtype=float)
        if tau.shape != (n_cols,):
            raise DimensionError(
                f"{tau.size} weights for {n_cols} window columns"
            )
        if not np.all(np.isfinite(tau)):
            raise ParameterError("covariance weights must be finite")
    M = (X * tau) @ X.T
    return 0.5 * (M + M.T)  # exact symmetry despite accumulation roundoff


def covariance_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Full ascending eigenvalue list of a symmetric matrix."""
    M = np.asarray(M, dtype=float)
    scale = np.max(np.abs(M)) if M.size else 0.0
    asym = np.max(np.abs(M - M.T)) if M.size else 0.0
    if asym > 1e-10 * max(scale, 1e-300):
        raise PreconditionError(
            f"matrix is not symmetric (relative asymmetry {asym / scale:.2e})"
        )
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigensolver failed on {M.shape[0]}x{M.shape[1]} "
            f"matrix with max entry {scale:.3e}: {exc}"
        ) from exc


def ring_reference(c: float) -> tuple[float, float]:
    """Single-ring annulus radii (inner, outer) for ratio c in (0, 1]."""
    if not (0.0 < c <= 1.0):
        raise ParameterError(
            f"ring reference needs 0 < c <= 1, got {c}"
        )
    return (float(np.sqrt(1.0 - c)), 1.0)


def row_standardize(X: np.ndarray) -> np.ndarray:
    """Center and scale each row to empirical mean 0, variance 1 (divisor N)."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=1, keepdims=True)
    std = X.std(axis=1, keepdims=True)
    dead = np.flatnonzero(std.ravel() <= DEAD_ROW_RTOL * np.abs(X).max(axis=1))
    if dead.size:
        raise StandardizationError(f"row {dead[0]} has zero variance")
    return (X - mean) / std


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))  # phase correction fixes the QR gauge


def singular_value_equivalent(
    X: np.ndarray, seed, *, row_normalize: bool = True
) -> np.ndarray:
    """sqrt(X X^T) times a seeded Haar unitary; optionally row-normalized.

    The output shares the singular values of the PSD square root, so its
    complex eigenvalues carry the window's singular spectrum onto the plane
    where the ring reference applies.  With row_normalize each row is
    rescaled to empirical variance 1/N'.
    """
    X = np.asarray(X, dtype=float)
    p, n_cols = X.shape
    if p > n_cols:
        warnings.warn(
            f"singular_value_equivalent: {p} rows exceed {n_cols} columns; "
            "the spectrum is rank-deficient",
            stacklevel=2,
        )
    try:
        w, V = np.linalg.eigh(X @ X.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"square-root eigendecomposition failed: {exc}") from exc
    w = np.clip(w, 0.0, None)
    root = (V * np.sqrt(w)) @ V.T
    U = haar_unitary(p, np.random.default_rng(seed))
    Xu = root @ U
    if row_normalize:
        rv = Xu.var(axis=1)
        if np.any(rv == 0.0):
            raise NumericalError("zero-variance row after unitary mixing")
        Xu = Xu * (1.0 / np.sqrt(n_cols * rv))[:, None]
    return Xu


def ring_coverage(ring_eigs: np.ndarray, inner: float) -> float:
    """Fraction of eigenvalue moduli in [inner - RING_INNER_SLACK, RING_OUTER_EDGE]."""
    r = np.abs(np.asarray(ring_eigs))
    if r.size == 0:
        raise DimensionError("empty ring spectrum")
    return float(np.mean((r >= inner - RING_INNER_SLACK) & (r <= RING_OUTER_EDGE)))


def esd_ks_distance(eigs: np.ndarray, law) -> float:
    """Kolmogorov-Smirnov distance, empirical spectrum vs reference law.

    Evaluated from both sides at every distinct eigenvalue and at the law's
    atom location, so tied eigenvalue blocks (the zero block of a
    rank-deficient covariance) compare against the law's left limits rather
    than double-counting the jump.
    """
    lam = np.asarray(eigs, dtype=float).ravel()
    if lam.size == 0:
        raise DimensionError("empty spectrum")
    scale = np.max(np.abs(lam))
    if scale > 0.0:
        # numerically-zero eigenvalues of rank-deficient windows become exact
        lam = np.where(np.abs(lam) < 1e-9 * scale, 0.0, lam)
    vals = np.sort(lam)
    m = vals.size
    cand = np.unique(np.concatenate([vals, [0.0]]))
    emp_right = np.searchsorted(vals, cand, side="right") / m
    emp_left = np.searchsorted(vals, cand, side="left") / m
    law_right = law.cdf(cand)
    law_left = law_right - np.where(cand == 0.0, law.atom_at_zero, 0.0)
    d = max(
        np.max(np.abs(emp_right - law_right)),
        np.max(np.abs(law_left - emp_left)),
    )
    return float(min(1.0, d))


def window_spectra(
    W: np.ndarray, seed, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Covariance eigenvalues and ring eigenvalues of one dim x N' window.

    The ring runs in the orientation whose row count does not exceed its
    column count: the other one would pin |dim - N'| eigenvalues at zero
    and bury the ring.  Ring randomness comes from seed alone.
    """
    W = np.asarray(W, dtype=float)
    cov_eigs = covariance_eigenvalues(tensor_covariance(W, weights))
    A = W if W.shape[0] <= W.shape[1] else W.T
    Xu = singular_value_equivalent(row_standardize(A), seed)
    try:
        ring_eigs = np.linalg.eigvals(Xu)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ring eigensolver failed: {exc}") from exc
    return cov_eigs, ring_eigs


def summarize_window(
    W: np.ndarray,
    *,
    seed,
    weights: np.ndarray | None = None,
) -> SpectralSummary:
    """Full spectral summary of one dim x N' window.

    The MP reference uses c = dim/N' (see module docstring for the
    convention; the summary's c_ratio field is the reciprocal N'/dim).
    The ring reference uses the ratio of the ring orientation chosen by
    window_spectra, rows over columns.
    """
    W = np.asarray(W, dtype=float)
    dim, n_cols = W.shape
    cov_eigs, ring_eigs = window_spectra(W, seed, weights)
    law = mp_law(dim / n_cols)  # the one dim/samples conversion site
    ks = esd_ks_distance(cov_eigs, law)
    inner = ring_reference(min(dim, n_cols) / max(dim, n_cols))[0]
    coverage = ring_coverage(ring_eigs, inner)
    return SpectralSummary(
        covariance_eigs=cov_eigs,
        ring_eigs=ring_eigs,
        c_ratio=n_cols / dim,
        mp_support=law.support,
        ring_inner=inner,
        ks_distance_mp=ks,
        ring_coverage=coverage,
    )
