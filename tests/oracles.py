"""Plain reference implementations the tests check the library against.

Each one computes, one sample or one point at a time, something the
library computes vectorized or in closed form: the lift of a single
column, the Marchenko-Pastur density and its cdf by quadrature, the
ring's Haar-mixed PSD square root before its rows are rescaled, one
sample's reconstruction and its RMSE, and the data CSV read and written
one cell at a time.  The autoencoder's training kernel has references
too: the two-sided masked sigmoid and the plain full-batch Adam loop,
written with out-of-place expressions, which the library's in-place
kernel must match bit for bit.  None of them is used by the library
itself.
"""

import csv
from pathlib import Path

import numpy as np

from kronlift.autoencoder import AutoencoderModel, TrainConfig
from kronlift.data_model import LiftConfig, SpatioTemporalMatrix
from kronlift.errors import ConfigError, PreconditionError
from kronlift.spectral import MarchenkoPastur, haar_unitary


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors: out[(p)*len(b) + q] = a[p] * b[q]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise PreconditionError("kronecker factors must be non-empty")
    return (a[:, None] * b[None, :]).ravel()


def normalize_segment(v: np.ndarray) -> np.ndarray:
    """Scale v to unit Euclidean norm."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise PreconditionError("cannot normalize zero segment")
    return v / nrm


def lift_column(d: np.ndarray, cfg: LiftConfig) -> np.ndarray:
    """Lift one column: segment, normalize, Kronecker-multiply.

    Segment l (1-based) is entries (l-1)*n .. l*n-1.  Output has unit norm.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (cfg.channels,):
        raise PreconditionError(
            f"column length {d.size} does not match k*n = {cfg.channels}"
        )
    segments = d.reshape(cfg.k, cfg.n)
    out = None
    for l in range(cfg.k):
        nrm = np.linalg.norm(segments[l])
        if nrm == 0.0:
            raise PreconditionError(f"zero segment {l + 1}")
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
        2.0 * np.pi * law.c * xi
    )
    return out if out.ndim else float(out)


def mp_cdf_reference(law: MarchenkoPastur, x) -> np.ndarray:
    """The law's cdf at points of its support [a, b]: the atom plus mp_pdf
    integrated over the angle phi of x = a + (b - a)*sin(phi/2)**2.

    phi is theta + pi/2 for the library's x = 1 + c + 2*sqrt(c)*sin(theta),
    counted from the lower edge so that x - a keeps every digit there.
    Each integral runs on 64-node Gauss-Legendre pieces split at
    phi = 10**-k, k = 12..1, which resolve the density's 1/sqrt(x) rise at
    c = 1 and its narrow peak near c = 1.
    """
    a, b = law.support
    nodes, wts = np.polynomial.legendre.leggauss(64)
    out = []
    for xi in np.asarray(x, dtype=float).ravel():
        phi = 2.0 * np.arcsin(np.sqrt((xi - a) / (b - a)))
        cuts = [0.0, *(s for s in 10.0 ** np.arange(-12, 0) if s < phi), phi]
        total = law.atom_at_zero
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            half = 0.5 * (hi - lo)
            t = lo + half * (nodes + 1.0)
            x_t = a + (b - a) * np.sin(0.5 * t) ** 2
            dx_dt = 0.5 * (b - a) * np.sin(t)
            total += half * np.sum(wts * mp_pdf(law, x_t) * dx_dt)
        out.append(total)
    return np.array(out)


def ring_product_reference(X: np.ndarray, seed) -> np.ndarray:
    """sqrt(X X^T) times the Haar unitary drawn from seed, rows not rescaled.

    singular_value_equivalent returns these rows scaled to variance 1/N'.
    """
    X = np.asarray(X, dtype=float)
    w, V = np.linalg.eigh(X @ X.T)
    root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    return root @ haar_unitary(X.shape[0], np.random.default_rng(seed))


def sigmoid_reference(z: np.ndarray) -> np.ndarray:
    """Two-sided logistic: 1/(1+exp(-z)) where z >= 0, else exp(z)/(1+exp(z))."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_reference(model: AutoencoderModel, data: np.ndarray, cfg: TrainConfig):
    """Full-batch Adam written out plainly; (weights, biases, losses).

    data is coords x samples.  Every expression allocates its result, in
    the order the library's in-place kernel must reproduce.
    """
    X = np.asarray(data, dtype=float).T
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    n_layers = len(weights)
    params = weights + biases
    m = [np.zeros(p.shape) for p in params]
    v = [np.zeros(p.shape) for p in params]
    losses = np.empty(cfg.max_iterations)
    for it in range(cfg.max_iterations):
        acts = [X]
        for W, b in zip(weights, biases):
            acts.append(sigmoid_reference(acts[-1] @ W + b))
        Y = acts[-1]
        E = Y - X
        rows, d = X.shape
        losses[it] = float(np.sum(E * E) / (rows * d))
        delta = (2.0 / (rows * d)) * E * Y * (1.0 - Y)
        gW = [None] * n_layers
        gb = [None] * n_layers
        for l in range(n_layers - 1, -1, -1):
            gW[l] = acts[l].T @ delta
            gb[l] = delta.sum(axis=0)
            if l > 0:
                delta = (delta @ weights[l].T) * acts[l] * (1.0 - acts[l])
        t = it + 1
        c1 = 1.0 - cfg.beta1**t
        c2 = 1.0 - cfg.beta2**t
        new = []
        for i, (p, g) in enumerate(zip(weights + biases, gW + gb)):
            m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g
            v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * (g * g)
            mhat = m[i] / c1
            vhat = v[i] / c2
            new.append(p - cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.epsilon))
        weights, biases = new[:n_layers], new[n_layers:]
    return weights, biases, losses


def forward(model: AutoencoderModel, x: np.ndarray):
    """Reconstruct one sample layer by layer; (reconstruction, activations)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.layer_sizes[0],):
        raise PreconditionError(
            f"input length {x.size} != model dimension {model.layer_sizes[0]}"
        )
    acts = [x]
    for W, b in zip(model.weights, model.biases):
        acts.append(sigmoid_reference(acts[-1] @ W + b))
    return acts[-1], acts


def rmse_of_error(e: np.ndarray) -> float:
    e = np.asarray(e, dtype=float)
    return float(np.sqrt(np.sum(e * e) / e.size))


def rmse_indicator(model: AutoencoderModel, x: np.ndarray) -> float:
    """Root mean squared reconstruction error of one (scaled) sample."""
    recon, _ = forward(model, x)
    return rmse_of_error(np.asarray(x, dtype=float) - recon)


def load_matrix_reference(path) -> SpatioTemporalMatrix:
    """The data CSV read line by line with csv.reader, float() and int():
    what load_matrix returns or raises, apart from the cells only Python
    parses (1_000, non-ASCII digits, a time beyond int64)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        has_t = bool(header) and header[0] == "t"
        ids = header[1:] if has_t else header
        rows = []
        t_first = t_prev = None
        end = reader.line_num  # a record starts on the line after the last
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}: line {lineno} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            if has_t:
                t_val, row = row[0], row[1:]
                try:
                    t = int(t_val)
                except ValueError:
                    raise ConfigError(
                        f"{path}: line {lineno}: bad time index {t_val!r}"
                    ) from None
                if t_first is None:
                    if t < 0:
                        raise ConfigError(
                            f"{path}: line {lineno}: time index {t} is negative"
                        )
                    t_first = t
                elif t != t_prev + 1:
                    raise ConfigError(
                        f"{path}: line {lineno}: time index {t} does not "
                        f"follow {t_prev}"
                    )
                t_prev = t
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: no samples")
    if len(ids) < 2:
        raise PreconditionError(
            f"{path}: need at least 2 channels, got {len(ids)}"
        )
    values = np.asarray(rows, dtype=float).T  # columns index time
    return SpatioTemporalMatrix(
        values=values, channel_ids=ids, t0=t_first if t_first is not None else 1
    )


def save_matrix_reference(D: SpatioTemporalMatrix, path) -> None:
    """The data CSV written one row at a time with csv.writer."""
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(D.channel_ids))
        for j in range(D.samples):
            writer.writerow(
                [str(D.t0 + j)] + [f"{x:.17g}" for x in D.values[:, j]]
            )
