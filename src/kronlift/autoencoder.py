"""Fully-connected autoencoder anomaly detector, implemented on numpy.

A small symmetric network (d, 48, 24, 48, d by default) with a sigmoid on
every layer is trained by full-batch Adam to reconstruct a normal prefix
of the data; per-sample reconstruction RMSE is the anomaly indicator.

Orientation conventions: public entry points take data as coords x samples
(matching the rest of the library); the internal batch math uses
samples x coords so that a layer is a plain X @ W + b.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .data_model import (
    IndicatorSeries,
    LiftConfig,
    SpatioTemporalMatrix,
    boolean,
    check_seed,
    integer,
    list_of,
    non_negative,
    number,
)
from .errors import ConfigError, NumericalError, PreconditionError
from .lift import lift_matrix

DEFAULT_HIDDEN = (48, 24, 48)
SCORE_BLOCK = 256  # samples score_matrix scores at a time


@dataclass(frozen=True)
class AutoencoderModel:
    layer_sizes: tuple
    weights: list  # per layer, shape (fan_in, fan_out)
    biases: list  # per layer, shape (fan_out,)
    seed: int

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ConfigError("need at least an input and an output layer")
        expected = list(zip(sizes[:-1], sizes[1:]))
        got_w = [w.shape for w in self.weights]
        got_b = [b.shape for b in self.biases]
        if got_w != expected or got_b != [(n,) for _, n in expected]:
            raise ConfigError(
                f"parameter shapes {got_w}/{got_b} do not match layer sizes "
                f"{sizes}"
            )
        object.__setattr__(self, "layer_sizes", sizes)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    max_iterations: int = 1000
    seed: int = 0
    # Adam's constants: class attributes, not fields, so readable but not set
    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class TrainingTrace:
    losses: np.ndarray  # loss before each optimizer step
    iterations_to_tolerance: int | None  # first step count within 110% of final


def _sigmoid(z: np.ndarray, den: np.ndarray) -> np.ndarray:
    """z <- sigmoid(z) in place, with den (z's shape) as scratch.

    Branch-free exp(min(z, 0)) / (1 + exp(-|z|)), with the two-sided
    form's IEEE operations per element: 1/(1+exp(-z)) for z >= 0 and
    exp(z)/(1+exp(z)) below.
    """
    np.abs(z, out=den)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    np.minimum(z, 0.0, out=z)
    np.exp(z, out=z)
    z /= den
    return z


def init_model(d: int, seed: int, layer_sizes=None) -> AutoencoderModel:
    """Xavier-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    if d < 1:
        raise ConfigError("input dimension must be >= 1")
    sizes = tuple(layer_sizes) if layer_sizes else (d, *DEFAULT_HIDDEN, d)
    if sizes[0] != d or sizes[-1] != d:
        raise ConfigError("first and last layer sizes must equal d")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return AutoencoderModel(
        layer_sizes=sizes, weights=weights, biases=biases, seed=seed
    )


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive C-contiguous views of flat, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


class _Workspace:
    """Every buffer one training step writes, for one network and batch.

    theta holds all weights, then all biases, as one flat vector, and grad
    their gradients; params and grads are per-array views of the two.
    acts[l] is layer l's output, deltas[l] its backward delta and dens[l]
    the sigmoid's scratch for it, all in one block.  A step allocates
    nothing: each expression writes into these buffers in the operand
    order of the plain out-of-place one, so the bytes match it.
    """

    def __init__(self, params, rows: int):
        self.shapes = [p.shape for p in params]
        self.layers = len(params) // 2
        self.theta = np.concatenate([p.ravel() for p in params])
        self.grad = np.empty_like(self.theta)
        self.params = _views(self.theta, self.shapes)
        self.grads = _views(self.grad, self.shapes)
        shapes = [(rows, W.shape[1]) for W in params[: self.layers]]
        size = rows * max(n for _, n in shapes)
        block = np.empty(rows * sum(n for _, n in shapes) + 2 * size)
        *self.acts, s, t = _views(block, [*shapes, (size,), (size,)])
        # the output delta sits in t while s holds its squares; each
        # delta is computed from the next layer's, so they alternate
        self.dens = [s[: rows * n].reshape(rows, n) for _, n in shapes]
        self.deltas = [
            (s, t)[(self.layers - j) % 2][: rows * n].reshape(rows, n)
            for j, (_, n) in enumerate(shapes)
        ]

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Run X (samples x coords, at most rows samples) through the layers.

        Returns the output, a view of the first X.shape[0] rows of the last
        layer's buffer.
        """
        L = self.layers
        m = X.shape[0]
        a = X
        for W, b, z, den in zip(
            self.params[:L], self.params[L:], self.acts, self.dens
        ):
            z, den = z[:m], den[:m]
            np.matmul(a, W, out=z)
            z += b
            a = _sigmoid(z, den)
        return a

    def loss_grad(self, X: np.ndarray) -> float:
        """Mean squared reconstruction error of X at theta, gradient to grad.

        The backward pass spends each sigmoid output as scratch once it is
        no longer read, so the deltas come out as the plain expressions
        (2/(m d)) * E * Y * (1 - Y) and (delta @ W.T) * a * (1 - a).
        """
        L = self.layers
        Y = self.forward(X)
        acts = [X, *self.acts]
        m, d = X.shape
        delta = np.subtract(Y, X, out=self.deltas[-1])
        sq = np.multiply(delta, delta, out=self.dens[-1])
        loss = float(np.sum(sq) / (m * d))
        delta *= 2.0 / (m * d)
        for l in range(L - 1, -1, -1):
            a = acts[l + 1]
            delta *= a
            np.subtract(1.0, a, out=a)
            delta *= a
            np.matmul(acts[l].T, delta, out=self.grads[l])
            np.sum(delta, axis=0, out=self.grads[L + l])
            if l > 0:
                delta = np.matmul(delta, self.params[l].T, out=self.deltas[l - 1])
        return loss


def loss_and_gradients(model: AutoencoderModel, X: np.ndarray):
    """Loss and gradients on a samples x coords batch, in new arrays."""
    X = np.asarray(X, dtype=float)
    ws = _Workspace([*model.weights, *model.biases], X.shape[0])
    loss = ws.loss_grad(X)
    return loss, ws.grads[: ws.layers], ws.grads[ws.layers :]


class AdamState:
    """Adam with bias correction over a flat list of parameter arrays.

    The update runs on one flat vector, in place, in the textbook order of
    operations, so its bytes match a per-array update.
    """

    def __init__(self, shapes, learning_rate, beta1=TrainConfig.beta1,
                 beta2=TrainConfig.beta2, epsilon=TrainConfig.epsilon):
        self.lr = learning_rate
        self.b1 = beta1
        self.b2 = beta2
        self.eps = epsilon
        self.t = 0
        self.shapes = [tuple(s) for s in shapes]
        size = sum(map(math.prod, self.shapes))
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = np.empty(size)

    @classmethod
    def for_params(cls, params, learning_rate, **kw):
        return cls([p.shape for p in params], learning_rate, **kw)

    def update(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """One step on flat vectors in place; grad is spent as scratch."""
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        step = self._scratch
        self.m *= self.b1
        self.m += np.multiply(1.0 - self.b1, grad, out=step)
        grad *= grad
        grad *= 1.0 - self.b2
        self.v *= self.b2
        self.v += grad
        np.divide(self.m, c1, out=step)
        step *= self.lr
        den = np.divide(self.v, c2, out=grad)
        np.sqrt(den, out=den)
        den += self.eps
        step /= den
        theta -= step

    def step(self, params, grads):
        """New parameter arrays; params and grads are left unchanged."""
        theta = np.concatenate([p.ravel() for p in params])
        self.update(theta, np.concatenate([g.ravel() for g in grads]))
        return _views(theta, self.shapes)


def train(model: AutoencoderModel, data: np.ndarray, cfg: TrainConfig):
    """Full-batch Adam for cfg.max_iterations steps.

    data is coords x samples, already scaled to [0, 1].  The loss trace
    records the loss evaluated before each step, so losses[i] is the loss
    after i optimizer steps.  One workspace holds every buffer the steps
    write, so a step allocates nothing.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] != model.layer_sizes[0]:
        raise PreconditionError(
            f"training data must be {model.layer_sizes[0]} x m, "
            f"got {data.shape}"
        )
    X = data.T
    ws = _Workspace([*model.weights, *model.biases], X.shape[0])
    adam = AdamState(ws.shapes, cfg.learning_rate)
    losses = np.empty(cfg.max_iterations)
    # a diverging run raises the NumericalError below, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(cfg.max_iterations):
            loss = ws.loss_grad(X)
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite loss at iteration {it}")
            losses[it] = loss
            adam.update(ws.theta, ws.grad)
    if not np.all(np.isfinite(ws.theta)):
        raise NumericalError(
            f"non-finite parameters after iteration {cfg.max_iterations}"
        )
    tol = 1.1 * losses[-1]
    hit = np.flatnonzero(losses <= tol)
    trace = TrainingTrace(
        losses=losses,
        iterations_to_tolerance=int(hit[0]) if hit.size else None,
    )
    trained = AutoencoderModel(
        layer_sizes=model.layer_sizes,
        weights=ws.params[: ws.layers],
        biases=ws.params[ws.layers :],
        seed=model.seed,
    )
    return trained, trace


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-coordinate affine map fitted on the training span only.

    Coordinates with zero training range are flagged and pinned to 0.5.
    """

    lo: np.ndarray
    span: np.ndarray
    flagged: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        safe = np.where(self.flagged, 1.0, self.span)
        out = X - self.lo[:, None]
        out /= safe[:, None]
        out[self.flagged, :] = 0.5
        return out


def fit_scaler(train_columns: np.ndarray) -> MinMaxScaler:
    X = np.asarray(train_columns, dtype=float)
    lo = X.min(axis=1)
    span = X.max(axis=1) - lo
    return MinMaxScaler(lo=lo, span=span, flagged=span == 0.0)


def score_matrix(
    model: AutoencoderModel, scaler: MinMaxScaler, columns: np.ndarray
) -> np.ndarray:
    """Per-column reconstruction RMSE of scaled data columns.

    The columns are scaled, run forward and reduced SCORE_BLOCK at a time
    through one workspace, so scoring holds one block's arrays, not the
    record's, whatever its length.
    """
    columns = np.asarray(columns, dtype=float)
    m = columns.shape[1]
    ws = _Workspace([*model.weights, *model.biases], min(m, SCORE_BLOCK))
    rmse = np.empty(m)
    for lo in range(0, m, SCORE_BLOCK):
        hi = min(lo + SCORE_BLOCK, m)
        scaled = scaler.apply(columns[:, lo:hi]).T  # samples x coords
        E = ws.forward(scaled)
        E -= scaled
        E *= E
        np.mean(E, axis=1, out=rmse[lo:hi])
    return np.sqrt(rmse, out=rmse)


def _span_columns(D: SpatioTemporalMatrix, lift_cfg: LiftConfig | None,
                  train_span: tuple[int, int]):
    """The training columns, the scored columns and the first scored time.

    D is lifted once (unit-norm; raw when lift_cfg is None), and both
    column sets are slices of it: the span, and every sample after it.
    """
    lo_t, hi_t = int(train_span[0]), int(train_span[1])
    t_last = D.t0 + D.samples - 1
    if not D.t0 <= lo_t < hi_t < t_last:
        raise ConfigError(
            f"train span [{lo_t}, {hi_t}] must satisfy t0 <= start < end < "
            f"last t (t0={D.t0}, last t={t_last}), to leave samples to score"
        )
    vals = (D.values if lift_cfg is None
            else lift_matrix(D, lift_cfg, scale_mode="unit-norm").values)
    first = hi_t + 1 - D.t0
    return vals[:, lo_t - D.t0 : first], vals[:, first:], hi_t + 1


def _rmse_series(model, scaler, columns, start: int) -> IndicatorSeries:
    """RMSE curve of columns, the first of which is at time start."""
    if model.layer_sizes[0] != columns.shape[0]:
        raise ConfigError(f"model expects dimension {model.layer_sizes[0]}, "
                          f"lifted data has {columns.shape[0]}")
    return IndicatorSeries(
        start_index=start,
        values=score_matrix(model, scaler, columns),
        kind="RMSE",
    )


def score_sae(
    D: SpatioTemporalMatrix,
    lift_cfg: LiftConfig | None,
    model: AutoencoderModel,
    scaler: MinMaxScaler,
    train_span: tuple[int, int],
) -> IndicatorSeries:
    """RMSE curve of a trained model over every sample after train_span.

    The span rule and the lift are run_sae_detailed's, so a model scores
    the samples its training run scored.
    """
    _, columns, start = _span_columns(D, lift_cfg, train_span)
    return _rmse_series(model, scaler, columns, start)


@dataclass(frozen=True)
class SaeRunResult:
    series: IndicatorSeries
    model: AutoencoderModel
    trace: TrainingTrace
    scaler: MinMaxScaler


def run_sae_detailed(
    D: SpatioTemporalMatrix,
    lift_cfg: LiftConfig | None,
    train_span: tuple[int, int],
    cfg: TrainConfig = TrainConfig(),
) -> SaeRunResult:
    """Train on the normal span, score everything after it.

    With a lift configuration the data is Kronecker-lifted in unit-norm
    mode first.  Min-max scaling statistics come from the training span
    alone; test samples may leave [0, 1], which is exactly what the
    reconstruction error keys on.
    """
    train_cols, scored, start = _span_columns(D, lift_cfg, train_span)
    scaler = fit_scaler(train_cols)
    model0 = init_model(train_cols.shape[0], cfg.seed)
    model, trace = train(model0, scaler.apply(train_cols), cfg)
    series = _rmse_series(model, scaler, scored, start)
    return SaeRunResult(series, model, trace, scaler)


CHECKPOINT_VERSION = 1


def save_checkpoint(model: AutoencoderModel, scaler: MinMaxScaler, path) -> None:
    """JSON checkpoint; float64 values round-trip exactly via repr."""
    doc = {
        "schema_version": CHECKPOINT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "seed": model.seed,
        "activation": "sigmoid",
        "scaler": {
            "lo": scaler.lo.tolist(),
            "span": scaler.span.tolist(),
            "flagged": [bool(f) for f in scaler.flagged],
        },
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (model, scaler).

    A file that is not a readable checkpoint raises ConfigError naming it.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"checkpoint {path} is not a JSON object")
    version = doc.get("schema_version")
    if isinstance(version, bool) or version != CHECKPOINT_VERSION:  # true == 1
        raise ConfigError(
            f"malformed checkpoint {path}: unsupported schema_version {version!r}"
        )
    try:
        model = AutoencoderModel(
            layer_sizes=list_of(integer)(doc["layer_sizes"]),
            weights=_parameters(doc, "weights"),
            biases=_parameters(doc, "biases"),
            seed=non_negative(doc["seed"]),
        )
        activation = doc.get("activation", "sigmoid")
        if activation != "sigmoid":
            raise ConfigError(
                f"activation {activation!r} is not supported; "
                "the network applies the sigmoid"
            )
        sc = doc["scaler"]
        scaler = MinMaxScaler(
            lo=_scaler_numbers(sc, "lo"),
            span=_scaler_numbers(sc, "span"),
            flagged=np.asarray(list_of(boolean)(sc["flagged"]), dtype=bool),
        )
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} has no key {exc}") from exc
    except (ConfigError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed checkpoint {path}: {exc}") from exc
    d = (model.layer_sizes[0],)
    if not scaler.lo.shape == scaler.span.shape == scaler.flagged.shape == d:
        raise ConfigError(
            f"malformed checkpoint {path}: scaler does not have {d[0]} coordinates"
        )
    for name, arrays in [("weights", model.weights), ("biases", model.biases)]:
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ConfigError(f"malformed checkpoint {path}: non-finite {name}")
    # fit_scaler writes spans >= 0 and flags exactly the zero ones
    zero = scaler.span == 0.0
    bad = np.flatnonzero((scaler.span < 0.0) | (scaler.flagged != zero))
    if bad.size:
        i = bad[0]
        raise ConfigError(
            f"malformed checkpoint {path}: scaler coordinate {i} has span "
            f"{float(scaler.span[i])!r} and flagged "
            f"{json.dumps(bool(scaler.flagged[i]))}"
        )
    return model, scaler


def _scaler_numbers(sc: dict, key: str) -> np.ndarray:
    """sc[key] as floats, every entry a JSON number (data_model.number)."""
    values = sc[key]
    # JSON's NaN and Infinity load as floats; name the field they sit in
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise ValueError(f"non-finite scaler {key}")
    return np.array(list_of(number)(values), dtype=float)


def _parameters(doc: dict, key: str) -> list[np.ndarray]:
    """doc[key], per-layer weight matrices or bias vectors, as float arrays;
    every entry must be a JSON number (np.asarray reads true as 1.0 and
    "1.5" as 1.5).  Shapes and non-finite entries are left to the caller."""
    arrays = []
    for a in doc[key]:
        rows = all(isinstance(row, list) for row in a)
        entries = chain.from_iterable(a) if rows else a
        if not set(map(type, entries)) <= {int, float}:  # type(True) is bool
            raise ValueError(f"{key}: expected a number")
        arrays.append(np.array(a, dtype=float))
    return arrays
