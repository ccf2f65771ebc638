"""Covariance spectra and their theoretical references.

Builds sample covariances from data windows, extracts real (covariance)
and complex (ring) spectra, and measures the distance of an empirical
spectral distribution to the unit-scale Marchenko-Pastur law (its cdf in
closed form) and the annulus coverage of the ring, rescaled to outer
radius 1, against the single-ring reference.  The detector weights every
window column by 1/N' and lifts with the sqrt-dim scale, which puts each
window on the unit-variance scale the law assumes.

Aspect-ratio conventions: mp_law takes c = dimension / samples (so c > 1
means a rank-deficient covariance with a point mass at zero), while the
reported SpectralSummary.c_ratio is samples / dimension.  The reciprocal
conversion happens in exactly one place, summarize_window.

A window's two halves, the covariance spectrum and the ring, are
independent, and summarize_window solves a tall window's halves at once
through _workers, which describes the fork protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _workers
from .errors import ConfigError, NumericalError, PreconditionError

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
    """Unit-scale Marchenko-Pastur law with ratio c = dimension/samples.

    Support is (1 +- sqrt(c))**2; for c > 1 the distribution has a point
    mass 1 - 1/c at zero.  The cdf is in closed form: with
    x = p + q*sin(theta), p = 1 + c, q = 2*sqrt(c) and
    d = |1 - c|, the density's mass on [a, x] is
    (2/pi)*(G(theta) - G(-pi/2)) for the antiderivative
    G(theta) = cos(theta)/q + p*theta/q**2
               - (d/2c)*arctan((p*tan(theta/2) + q)/d),
    whose arctan term vanishes at c = 1.
    """

    def __init__(self, c: float):
        if not (c > 0.0) or not np.isfinite(c):
            raise ConfigError(f"mp_law ratio c must be positive, got {c}")
        self.c = float(c)
        sc = np.sqrt(c)
        self._a = (1.0 - sc) ** 2
        self._b = (1.0 + sc) ** 2
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
        # stays exact at the edges, where arcsin((x - p)/q) loses digits
        phi = 2.0 * np.arctan2(np.sqrt(xs - a), np.sqrt(b - xs))
        theta = phi - 0.5 * np.pi
        mass = (2.0 / np.pi) * (
            self._antiderivative(theta) - self._antiderivative(-0.5 * np.pi)
        )
        out = np.clip(self.atom_at_zero + mass, 0.0, 1.0)
        out = np.where(x < 0.0, 0.0, np.where(x >= b, 1.0, out))
        return float(out) if out.ndim == 0 else out


def mp_law(c: float) -> MarchenkoPastur:
    """Marchenko-Pastur reference with ratio c = dimension/samples."""
    return MarchenkoPastur(c)


def tensor_covariance(
    X: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Weighted sample covariance sum_j tau_j x_j x_j^T over window columns.

    weights holds tau_j, one per column; None means uniform 1/N'.  The
    uniform case is one X X^T product, which numpy hands to BLAS syrk: it
    fills one triangle and mirrors it, so the result is exactly symmetric
    and is the only dim x dim array built.  The weighted case, which only
    tests pass, stays a general product, symmetrized after.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise PreconditionError("window must be a non-empty 2-D matrix")
    n_cols = X.shape[1]
    if weights is None:
        M = X @ X.T
        M *= 1.0 / n_cols
        return M
    tau = np.asarray(weights, dtype=float)
    if tau.shape != (n_cols,):
        raise PreconditionError(
            f"{tau.size} weights for {n_cols} window columns"
        )
    if not np.all(np.isfinite(tau)):
        raise ConfigError("covariance weights must be finite")
    M = (X * tau) @ X.T
    return 0.5 * (M + M.T)  # exact symmetry despite accumulation roundoff


def covariance_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Full ascending eigenvalue list of a symmetric matrix.

    An exactly symmetric M, as tensor_covariance returns, goes straight to
    the solver.  Any other M, NaN included, must be symmetric to 1e-10
    relative to its largest entry.
    """
    M = np.asarray(M, dtype=float)
    if not np.array_equal(M, M.T):
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
            f"matrix with max entry {np.max(np.abs(M)):.3e}: {exc}"
        ) from exc


def ring_reference(c: float) -> float:
    """Inner radius of the single-ring annulus for ratio c in (0, 1].

    The outer radius is 1 on the unit scale summarize_window puts the ring on.
    """
    if not (0.0 < c <= 1.0):
        raise ConfigError(
            f"ring reference needs 0 < c <= 1, got {c}"
        )
    return float(np.sqrt(1.0 - c))


def row_standardize(X: np.ndarray) -> np.ndarray:
    """Center and scale each row to empirical mean 0, variance 1 (divisor N)."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=1, keepdims=True)
    std = X.std(axis=1, keepdims=True)
    peak = np.maximum(X.max(axis=1), -X.min(axis=1))  # no |X| copy
    dead = np.flatnonzero(std.ravel() <= DEAD_ROW_RTOL * peak)
    if dead.size:
        raise PreconditionError(f"row {dead[0]} has zero variance")
    out = X - mean
    out /= std
    return out


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Ginibre matrix."""
    z = np.empty((n, n), dtype=complex)
    z.real = rng.standard_normal((n, n))
    z.imag = rng.standard_normal((n, n))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q *= d / np.abs(d)  # phase correction fixes the QR gauge
    return q


def singular_value_equivalent(X: np.ndarray, seed) -> np.ndarray:
    """sqrt(X X^T) times a seeded Haar unitary, each row then rescaled to
    empirical variance 1/N' (N' = X's column count).

    The product shares the singular values of the PSD square root, so its
    complex eigenvalues carry the window's singular spectrum onto the plane
    where the ring reference applies.  window_spectra passes X with no
    more rows than columns.
    """
    X = np.asarray(X, dtype=float)
    p, n_cols = X.shape
    try:
        w, V = np.linalg.eigh(X @ X.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"square-root eigendecomposition failed: {exc}") from exc
    np.clip(w, 0.0, None, out=w)
    root = (V * np.sqrt(w)) @ V.T
    U = haar_unitary(p, np.random.default_rng(seed))
    Xu = root @ U
    rv = Xu.var(axis=1)
    if np.any(rv == 0.0):
        raise NumericalError("zero-variance row after unitary mixing")
    Xu *= (1.0 / np.sqrt(n_cols * rv))[:, None]
    return Xu


def ring_coverage(ring_eigs: np.ndarray, inner: float) -> float:
    """Fraction of eigenvalue moduli in [inner - RING_INNER_SLACK, RING_OUTER_EDGE]."""
    r = np.abs(np.asarray(ring_eigs))
    if r.size == 0:
        raise PreconditionError("empty ring spectrum")
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
        raise PreconditionError("empty spectrum")
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


def _covariance_spectrum(W: np.ndarray) -> np.ndarray:
    """Eigenvalues of the window covariance, every column weighted 1/N'."""
    return covariance_eigenvalues(tensor_covariance(W))


def _ring_spectrum(W: np.ndarray, seed) -> np.ndarray:
    """Complex eigenvalues of the window's singular-value equivalent.

    The ring runs in the orientation whose row count does not exceed its
    column count: the other one would pin |dim - N'| eigenvalues at zero
    and bury the ring.
    """
    A = W if W.shape[0] <= W.shape[1] else W.T
    Xu = singular_value_equivalent(row_standardize(A), seed)
    try:
        return np.linalg.eigvals(Xu)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ring eigensolver failed: {exc}") from exc


def window_spectra(W: np.ndarray, seed) -> tuple[np.ndarray, np.ndarray]:
    """Covariance eigenvalues and ring eigenvalues of one dim x N' window.

    Ring randomness comes from seed alone.
    """
    W = np.asarray(W, dtype=float)
    return _covariance_spectrum(W), _ring_spectrum(W, seed)


def _concurrent_spectra(W: np.ndarray, seed) -> tuple[np.ndarray, np.ndarray]:
    """window_spectra with the ring in a forked child when a worker is free.

    The covariance is the task run here, so its errors come out before
    the ring's, as in window_spectra.
    """
    ring = _workers.shared_array(min(W.shape), complex)

    def solve_ring():
        ring[:] = _ring_spectrum(W, seed)

    cov_eigs = _workers.run_forked([partial(_covariance_spectrum, W), solve_ring])
    return cov_eigs, ring.copy()


def summarize_window(W: np.ndarray, *, seed) -> SpectralSummary:
    """Full spectral summary of one dim x N' window.

    The MP reference uses c = dim/N' (see module docstring for the
    convention; the summary's c_ratio field is the reciprocal N'/dim).
    The ring reference uses the ratio c of the ring orientation chosen by
    window_spectra, rows over columns.  That ring's rows have variance 1/N',
    so ring_coverage reads its moduli over its outer radius sqrt(c).
    A window with more rows than columns, whose dim x dim covariance
    eigensolve costs about as much as the ring, solves its two halves at
    once (_concurrent_spectra); other windows' covariance takes a few ms.
    """
    W = np.asarray(W, dtype=float)
    dim, n_cols = W.shape
    if dim > n_cols:
        cov_eigs, ring_eigs = _concurrent_spectra(W, seed)
    else:
        cov_eigs, ring_eigs = window_spectra(W, seed)
    law = mp_law(dim / n_cols)  # the one dim/samples conversion site
    ks = esd_ks_distance(cov_eigs, law)
    c_ring = min(dim, n_cols) / max(dim, n_cols)
    inner = ring_reference(c_ring)
    coverage = ring_coverage(ring_eigs / np.sqrt(c_ring), inner)
    return SpectralSummary(
        covariance_eigs=cov_eigs,
        ring_eigs=ring_eigs,
        c_ratio=n_cols / dim,
        mp_support=law.support,
        ring_inner=inner,
        ks_distance_mp=ks,
        ring_coverage=coverage,
    )
