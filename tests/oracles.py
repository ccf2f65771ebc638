"""Plain reference implementations the tests check the library against.

Each one computes, one sample or one point at a time, something the
library computes vectorized: the lift of a single column, the
Marchenko-Pastur density, one sample's reconstruction and its RMSE.
None of them is used by the library itself.
"""

import numpy as np

from kronlift.autoencoder import AutoencoderModel, sigmoid
from kronlift.data_model import LiftConfig
from kronlift.errors import DimensionError, NormalizationError
from kronlift.spectral import MarchenkoPastur


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors: out[(p)*len(b) + q] = a[p] * b[q]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise DimensionError("kronecker factors must be non-empty")
    return (a[:, None] * b[None, :]).ravel()


def normalize_segment(v: np.ndarray) -> np.ndarray:
    """Scale v to unit Euclidean norm."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise NormalizationError("cannot normalize zero segment")
    return v / nrm


def lift_column(d: np.ndarray, cfg: LiftConfig) -> np.ndarray:
    """Lift one column: segment, normalize, Kronecker-multiply.

    Segment l (1-based) is entries (l-1)*n .. l*n-1.  Output has unit norm.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (cfg.channels,):
        raise DimensionError(
            f"column length {d.size} does not match k*n = {cfg.channels}"
        )
    segments = d.reshape(cfg.k, cfg.n)
    out = None
    for l in range(cfg.k):
        nrm = np.linalg.norm(segments[l])
        if nrm == 0.0:
            raise NormalizationError(f"zero segment {l + 1}")
        u = segments[l] / nrm
        out = u if out is None else kronecker(out, u)
    return out


def mp_pdf(law: MarchenkoPastur, x):
    """Density of the law's continuous part; 0 outside its open support."""
    a, b = law.support
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > a) & (x < b) & (x > 0.0)
    xi = x[inside]
    out[inside] = np.sqrt((b - xi) * (xi - a)) / (
        2.0 * np.pi * law.sigma2 * law.c * xi
    )
    return out if out.ndim else float(out)


def forward(model: AutoencoderModel, x: np.ndarray):
    """Reconstruct one sample layer by layer; (reconstruction, activations)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.layer_sizes[0],):
        raise DimensionError(
            f"input length {x.size} != model dimension {model.layer_sizes[0]}"
        )
    acts = [x]
    for W, b in zip(model.weights, model.biases):
        acts.append(sigmoid(acts[-1] @ W + b))
    return acts[-1], acts


def rmse_of_error(e: np.ndarray) -> float:
    e = np.asarray(e, dtype=float)
    return float(np.sqrt(np.sum(e * e) / e.size))


def rmse_indicator(model: AutoencoderModel, x: np.ndarray) -> float:
    """Root mean squared reconstruction error of one (scaled) sample."""
    recon, _ = forward(model, x)
    return rmse_of_error(np.asarray(x, dtype=float) - recon)
