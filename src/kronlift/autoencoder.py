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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import IndicatorSeries, LiftConfig, SpatioTemporalMatrix
from .errors import ConfigError, DimensionError, DivergenceError
from .lift import lift_matrix

DEFAULT_HIDDEN = (48, 24, 48)


@dataclass(frozen=True)
class AutoencoderModel:
    layer_sizes: tuple
    weights: list  # per layer, shape (fan_in, fan_out)
    biases: list  # per layer, shape (fan_out,)
    seed: int
    activation: str = "sigmoid"

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
        if self.activation != "sigmoid":
            raise ConfigError(
                f"activation {self.activation!r} is not supported; "
                "the network applies the sigmoid"
            )
        object.__setattr__(self, "layer_sizes", sizes)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    max_iterations: int = 1000
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be positive")


@dataclass(frozen=True)
class TrainingTrace:
    losses: np.ndarray  # loss before each optimizer step
    iterations_to_tolerance: int | None  # first step count within 110% of final


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, exp(min(z, 0)) / (1 + exp(-|z|)).

    Branch-free, with the two-sided form's IEEE operations per element:
    1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below.
    """
    z = np.asarray(z, dtype=float)
    den = np.abs(z)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out = np.minimum(z, 0.0)
    np.exp(out, out=out)
    out /= den
    return out


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


def _forward_batch(weights, biases, X):
    """X is samples x coords; returns all activations, input first."""
    acts = [X]
    a = X
    for W, b in zip(weights, biases):
        z = a @ W
        z += b
        a = sigmoid(z)
        acts.append(a)
    return acts


def _loss_grad(weights, biases, X):
    """Mean squared reconstruction error and its parameter gradients.

    The backward pass works in place on its temporaries, keeping each
    product's left-to-right order, so the bytes match the plain
    expressions (2/(m d)) * E * Y * (1 - Y) and (delta @ W.T) * a * (1 - a).
    """
    acts = _forward_batch(weights, biases, X)
    Y = acts[-1]
    E = Y - X
    m, d = X.shape
    loss = float(np.sum(E * E) / (m * d))
    delta = E  # the loss is taken, so E becomes scratch
    delta *= 2.0 / (m * d)
    delta *= Y
    delta *= 1.0 - Y  # sigmoid output layer
    gW = [None] * len(weights)
    gb = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        gW[l] = acts[l].T @ delta
        gb[l] = delta.sum(axis=0)
        if l > 0:
            a = acts[l]  # not read again after this layer
            delta = delta @ weights[l].T
            delta *= a
            np.subtract(1.0, a, out=a)
            delta *= a
    return loss, gW, gb


def loss_and_gradients(model: AutoencoderModel, X: np.ndarray):
    """Loss and gradients on a samples x coords batch."""
    return _loss_grad(model.weights, model.biases, np.asarray(X, dtype=float))


class AdamState:
    """Adam with bias correction over a flat list of parameter arrays.

    The update runs on one flat vector, in place, in the textbook order of
    operations, so its bytes match a per-array update.
    """

    def __init__(self, shapes, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr = learning_rate
        self.b1 = beta1
        self.b2 = beta2
        self.eps = epsilon
        self.t = 0
        self.shapes = [tuple(s) for s in shapes]
        sizes = [int(np.prod(s)) for s in self.shapes]
        ends = np.cumsum(sizes).tolist()
        self.slices = [slice(e - n, e) for n, e in zip(sizes, ends)]
        self.m = np.zeros(sum(sizes))
        self.v = np.zeros(sum(sizes))

    @classmethod
    def for_params(cls, params, learning_rate, **kw):
        return cls([p.shape for p in params], learning_rate, **kw)

    def step(self, params, grads):
        """New parameter arrays; params and grads are left unchanged."""
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        g = np.concatenate([x.ravel() for x in grads])
        self.m *= self.b1
        self.m += (1.0 - self.b1) * g
        g *= g
        g *= 1.0 - self.b2
        self.v *= self.b2
        self.v += g
        update = self.m / c1
        update *= self.lr
        den = self.v / c2
        np.sqrt(den, out=den)
        den += self.eps
        update /= den
        flat = np.concatenate([x.ravel() for x in params])
        flat -= update
        return [flat[sl].reshape(s) for sl, s in zip(self.slices, self.shapes)]


def train(model: AutoencoderModel, data: np.ndarray, cfg: TrainConfig):
    """Full-batch Adam for cfg.max_iterations steps.

    data is coords x samples, already scaled to [0, 1].  The loss trace
    records the loss evaluated before each step, so losses[i] is the loss
    after i optimizer steps.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] != model.layer_sizes[0]:
        raise DimensionError(
            f"training data must be {model.layer_sizes[0]} x m, "
            f"got {data.shape}"
        )
    X = data.T
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    n_layers = len(weights)
    adam = AdamState.for_params(
        weights + biases,
        cfg.learning_rate,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        epsilon=cfg.epsilon,
    )
    losses = np.empty(cfg.max_iterations)
    for it in range(cfg.max_iterations):
        loss, gW, gb = _loss_grad(weights, biases, X)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at iteration {it}")
        losses[it] = loss
        new = adam.step(weights + biases, gW + gb)
        weights, biases = new[:n_layers], new[n_layers:]
    if not all(np.all(np.isfinite(p)) for p in weights + biases):
        raise DivergenceError(
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
        weights=weights,
        biases=biases,
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
        out = (X - self.lo[:, None]) / safe[:, None]
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
    """Per-column reconstruction RMSE of scaled data columns."""
    scaled = scaler.apply(columns).T  # samples x coords
    acts = _forward_batch(model.weights, model.biases, scaled)
    E = acts[-1] - scaled
    return np.sqrt(np.mean(E * E, axis=1))


@dataclass(frozen=True)
class SaeRunResult:
    series: IndicatorSeries
    model: AutoencoderModel
    trace: TrainingTrace
    scaler: MinMaxScaler
    lift: LiftConfig | None = None


def run_sae_detailed(
    D: SpatioTemporalMatrix,
    lift_cfg: LiftConfig | None,
    train_span: tuple[int, int] = (1, 200),
    cfg: TrainConfig = TrainConfig(),
) -> SaeRunResult:
    """Train on the normal span, score everything after it.

    With a lift configuration the data is Kronecker-lifted in unit-norm
    mode first.  Min-max scaling statistics come from the training span
    alone; test samples may leave [0, 1], which is exactly what the
    reconstruction error keys on.
    """
    lo_t, hi_t = int(train_span[0]), int(train_span[1])
    t_last = D.t0 + D.samples - 1
    if not (D.t0 <= lo_t < hi_t):
        raise ConfigError(
            f"train span [{lo_t}, {hi_t}] must start at or after t0={D.t0}"
        )
    if hi_t >= t_last:
        raise ConfigError(
            f"train span [{lo_t}, {hi_t}] leaves no samples to score "
            f"(last t is {t_last})"
        )
    vals = (
        lift_matrix(D, lift_cfg, scale_mode="unit-norm").values
        if lift_cfg is not None
        else D.values
    )
    t = D.t0 + np.arange(D.samples)
    train_cols = vals[:, (t >= lo_t) & (t <= hi_t)]
    scaler = fit_scaler(train_cols)
    model0 = init_model(vals.shape[0], cfg.seed)
    model, trace = train(model0, scaler.apply(train_cols), cfg)
    scores = score_matrix(model, scaler, vals[:, t > hi_t])
    series = IndicatorSeries(
        start_index=hi_t + 1,
        values=scores,
        kind="RMSE",
        normalization={"flagged_coords": int(np.sum(scaler.flagged))},
    )
    return SaeRunResult(
        series=series, model=model, trace=trace, scaler=scaler, lift=lift_cfg
    )


def run_sae(
    D: SpatioTemporalMatrix,
    lift_cfg: LiftConfig | None,
    train_span: tuple[int, int] = (1, 200),
    cfg: TrainConfig = TrainConfig(),
) -> IndicatorSeries:
    """RMSE indicator curve for the span after train_span."""
    return run_sae_detailed(D, lift_cfg, train_span, cfg).series


CHECKPOINT_VERSION = 1


def save_checkpoint(model: AutoencoderModel, scaler: MinMaxScaler, path) -> None:
    """JSON checkpoint; float64 values round-trip exactly via repr."""
    doc = {
        "schema_version": CHECKPOINT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "seed": model.seed,
        "activation": model.activation,
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
    if doc.get("schema_version") != CHECKPOINT_VERSION:
        raise ConfigError(
            f"checkpoint {path}: unsupported version {doc.get('schema_version')}"
        )
    try:
        model = AutoencoderModel(
            layer_sizes=tuple(doc["layer_sizes"]),
            weights=[np.asarray(w, dtype=float) for w in doc["weights"]],
            biases=[np.asarray(b, dtype=float) for b in doc["biases"]],
            seed=int(doc["seed"]),
            activation=doc.get("activation", "sigmoid"),
        )
        sc = doc["scaler"]
        scaler = MinMaxScaler(
            lo=np.asarray(sc["lo"], dtype=float),
            span=np.asarray(sc["span"], dtype=float),
            flagged=np.asarray(sc["flagged"], dtype=bool),
        )
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} has no key {exc}") from exc
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint {path}: {exc}") from exc
    d = (model.layer_sizes[0],)
    if not scaler.lo.shape == scaler.span.shape == scaler.flagged.shape == d:
        raise ConfigError(
            f"malformed checkpoint {path}: scaler does not have {d[0]} coordinates"
        )
    return model, scaler
