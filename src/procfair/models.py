"""Classifiers under audit: a two-layer ReLU MLP and logistic regression.

Training is full-batch Adam on binary cross-entropy, optionally plus a
differentiable demographic-parity term (probability-mean gap) scaled by
``dp_weight``. Forward, backward, and input-gradient passes are explicit
numpy so that every quantity the toolkit differentiates is exact and
deterministic. The ReLU subgradient at 0 is taken as 0.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__

__all__ = [
    "MlpModel",
    "LogisticModel",
    "TrainConfig",
    "TrainingDivergedError",
    "default_hidden_size",
    "init_mlp",
    "init_logistic",
    "decision_score",
    "predict_proba",
    "predict_labels",
    "bce_loss",
    "soft_dp",
    "train",
    "fit_mlp",
    "fit_logistic",
    "input_gradient",
    "set_sensitive_weight",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
]

PROBA_CLAMP = 1e-7  # BCE numerical floor


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, message: str | None = None):
        super().__init__(message or f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class MlpModel:
    """Two-layer network: sigmoid(w2 . relu(w1 x + b1) + b2)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    feature_indices: tuple[int, ...] | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=float)
        b1 = np.asarray(self.b1, dtype=float)
        w2 = np.asarray(self.w2, dtype=float)
        if w1.ndim != 2 or w1.shape[0] < 1 or w1.shape[1] < 1:
            raise ValueError("w1 must be a (hidden, d) matrix")
        h = w1.shape[0]
        if b1.shape != (h,) or w2.shape != (h,):
            raise ValueError("b1/w2 shapes inconsistent with w1")
        if not (np.isfinite(w1).all() and np.isfinite(b1).all() and np.isfinite(w2).all() and np.isfinite(self.b2)):
            raise ValueError("non-finite parameters")
        object.__setattr__(self, "w1", _readonly(w1))
        object.__setattr__(self, "b1", _readonly(b1))
        object.__setattr__(self, "w2", _readonly(w2))
        object.__setattr__(self, "b2", float(self.b2))
        if self.feature_indices is not None:
            object.__setattr__(self, "feature_indices", tuple(int(i) for i in self.feature_indices))
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names", tuple(str(n) for n in self.feature_names))

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class LogisticModel:
    """Linear model: sigmoid(w . x + b)."""

    w: np.ndarray
    b: float
    feature_indices: tuple[int, ...] | None = None
    feature_names: tuple[str, ...] | None = None
    sensitive_position: int | None = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("w must be a 1-D vector")
        if not (np.isfinite(w).all() and np.isfinite(self.b)):
            raise ValueError("non-finite parameters")
        if self.sensitive_position is not None and not 0 <= self.sensitive_position < w.size:
            raise ValueError("sensitive_position out of range")
        object.__setattr__(self, "w", _readonly(w))
        object.__setattr__(self, "b", float(self.b))
        if self.feature_indices is not None:
            object.__setattr__(self, "feature_indices", tuple(int(i) for i in self.feature_indices))
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names", tuple(str(n) for n in self.feature_names))

    @property
    def d(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    learning_rate: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    dp_weight: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")


def default_hidden_size(d: int) -> int:
    """32 hidden units, widened to 64 for high-dimensional inputs."""
    return 64 if d > 18 else 32


def init_mlp(
    d: int,
    h: int,
    seed: int = 0,
    feature_indices=None,
    feature_names=None,
) -> MlpModel:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if d < 1 or h < 1:
        raise ValueError("d and h must be at least 1")
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / np.sqrt(d)
    bound2 = 1.0 / np.sqrt(h)
    return MlpModel(
        rng.uniform(-bound1, bound1, size=(h, d)),
        np.zeros(h),
        rng.uniform(-bound2, bound2, size=h),
        0.0,
        feature_indices,
        feature_names,
    )


def init_logistic(d: int, feature_indices=None, feature_names=None, sensitive_position=None) -> LogisticModel:
    if d < 1:
        raise ValueError("d must be at least 1")
    return LogisticModel(np.zeros(d), 0.0, feature_indices, feature_names, sensitive_position)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _hidden_layer(X: np.ndarray, w1: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """relu(X w1^T + b1), built in a single (rows x hidden) buffer."""
    hidden = X @ w1.T
    hidden += b1
    return np.maximum(hidden, 0.0, out=hidden)


def _mlp_forward(X, w1, b1, w2, b2):
    """0/1 activation matrix (in the hidden layer's buffer) and probabilities."""
    hidden = _hidden_layer(X, w1, b1)
    p = _sigmoid(hidden @ w2 + b2)
    return np.greater(hidden, 0.0, out=hidden), p


def _mlp_backward(X, act, w1, b1, w2, delta, ev=None):
    """Parameter gradients of sum_i delta_i * s_i + sum_i ev_i . ds_i/dx_i with
    the activation pattern held fixed, where s_i = sum_k act_ik w2_k (w1_k . x_i
    + b1_k). With M = act^T (delta X + ev) and n = act^T delta, unit k's
    gradients are w2_k M_k, w2_k n_k and w1_k . M_k + b1_k n_k: one gemm."""
    d = X.shape[1]
    R = np.empty((X.shape[0], d + 1))
    np.multiply(delta[:, None], X, out=R[:, :d])
    if ev is not None:
        R[:, :d] += ev
    R[:, d] = delta
    G = act.T @ R
    M, n = G[:, :d], G[:, d]
    return [w2[:, None] * M, w2 * n, (w1 * M).sum(axis=1) + b1 * n, np.array([delta.sum()])]


def _scores(model, X: np.ndarray) -> np.ndarray:
    if isinstance(model, MlpModel):
        return _hidden_layer(X, model.w1, model.b1) @ model.w2 + model.b2
    return X @ model.w + model.b


def _check_inputs(model, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.d:
        raise ValueError(f"input has {X.shape[1]} features, model expects {model.d}")
    return X


def decision_score(model, X) -> np.ndarray:
    """Pre-sigmoid score (log-odds). The predicted label is 1 iff the score
    is >= 0; this is the model's additive decision scale and is what the
    audit pipeline explains."""
    return _scores(model, _check_inputs(model, X))


def predict_proba(model, X) -> np.ndarray:
    """Positive-class probabilities, clipped strictly inside (0, 1)."""
    X = _check_inputs(model, X)
    p = _sigmoid(_scores(model, X))
    return np.clip(p, 1e-15, 1.0 - 1e-15)


def predict_labels(model, X) -> np.ndarray:
    return (predict_proba(model, X) >= 0.5).astype(np.int64)


def bce_loss(model, X, y) -> float:
    """Mean binary cross-entropy with probabilities clamped to [1e-7, 1-1e-7]."""
    y = np.asarray(y, dtype=float)
    p = np.clip(predict_proba(model, X), PROBA_CLAMP, 1.0 - PROBA_CLAMP)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def soft_dp(model, X, group_mask) -> float:
    """Differentiable demographic-parity surrogate: absolute gap between the
    mean predicted probabilities of the two groups."""
    group_mask = np.asarray(group_mask, dtype=bool)
    if not group_mask.any() or group_mask.all():
        raise ValueError("both groups must be present")
    p = predict_proba(model, X)
    return float(abs(p[group_mask].mean() - p[~group_mask].mean()))


def input_gradient(model, X, y) -> np.ndarray:
    """Exact gradient of the mean BCE loss with respect to every input
    coordinate; one row per sample."""
    X = _check_inputs(model, X)
    y = np.asarray(y, dtype=float)
    return _per_sample_input_gradient(model, X, y) / X.shape[0]


def _per_sample_input_gradient(model, X, y) -> np.ndarray:
    """Gradient of each row's own BCE term with respect to that row."""
    X = _check_inputs(model, X)
    y = np.asarray(y, dtype=float)
    if isinstance(model, MlpModel):
        act, p = _mlp_forward(X, model.w1, model.b1, model.w2, model.b2)
        return (p - y)[:, None] * (act @ (model.w2[:, None] * model.w1))
    return (_sigmoid(_scores(model, X)) - y)[:, None] * model.w


def set_sensitive_weight(model: LogisticModel, w_s: float) -> LogisticModel:
    """Copy of the model with the sensitive coordinate's weight replaced."""
    if model.sensitive_position is None:
        raise ValueError("model has no recorded sensitive coordinate")
    w = model.w.copy()
    w[model.sensitive_position] = w_s
    return dataclasses.replace(model, w=w)


# ---------------------------------------------------------------------------
# Training


class _Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1**self.t)
            v_hat = self.v[i] / (1.0 - self.beta2**self.t)
            out.append(p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
        return out


def _params_of(model) -> list[np.ndarray]:
    if isinstance(model, MlpModel):
        return [model.w1.copy(), model.b1.copy(), model.w2.copy(), np.array([model.b2])]
    return [model.w.copy(), np.array([model.b])]


def _model_with_params(model, params):
    if isinstance(model, MlpModel):
        return dataclasses.replace(model, w1=params[0], b1=params[1], w2=params[2], b2=float(params[3][0]))
    return dataclasses.replace(model, w=params[0], b=float(params[1][0]))


def _delta_scores(p, y, group_mask, dp_weight, m):
    """dLoss/dscore for BCE/m plus the soft-DP term."""
    delta = (p - y) / m
    loss_extra = 0.0
    if dp_weight != 0.0:
        n1 = int(group_mask.sum())
        n2 = m - n1
        gap = p[group_mask].mean() - p[~group_mask].mean()
        sign = np.sign(gap)
        ddp = np.where(group_mask, sign / n1, -sign / n2)
        delta = delta + dp_weight * ddp * p * (1.0 - p)
        loss_extra = dp_weight * abs(gap)
    return delta, loss_extra


def _clamped_bce(p, y) -> float:
    pc = np.clip(p, PROBA_CLAMP, 1.0 - PROBA_CLAMP)
    return float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))


def _mlp_loss_grads(params, X, y, group_mask, dp_weight):
    w1, b1, w2, b2 = params
    act, p = _mlp_forward(X, w1, b1, w2, b2[0])
    delta, extra = _delta_scores(p, y, group_mask, dp_weight, X.shape[0])
    return _clamped_bce(p, y) + extra, _mlp_backward(X, act, w1, b1, w2, delta)


def _logistic_loss_grads(params, X, y, group_mask, dp_weight):
    w, b = params
    p = _sigmoid(X @ w + b[0])
    m = X.shape[0]
    loss = _clamped_bce(p, y)
    delta, extra = _delta_scores(p, y, group_mask, dp_weight, m)
    return loss + extra, [X.T @ delta, np.array([delta.sum()])]


def train(model, dataset, config: TrainConfig | None = None):
    """Full-batch Adam on BCE + dp_weight * soft_dp for ``config.epochs``
    steps. Returns the trained model and the per-epoch loss trace (the loss
    evaluated before each update).
    """
    config = config or TrainConfig()
    feats = model.feature_indices if model.feature_indices is not None else tuple(range(dataset.d))
    X = dataset.features[:, feats]
    if X.shape[1] != model.d:
        raise ValueError("model dimensionality does not match the selected features")
    y = dataset.labels.astype(float)
    group_mask = dataset.advantaged_mask
    grad_fn = _mlp_loss_grads if isinstance(model, MlpModel) else _logistic_loss_grads

    params = _params_of(model)
    opt = _Adam(params, config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps)
    trace = np.empty(config.epochs)
    for epoch in range(config.epochs):
        loss, grads = grad_fn(params, X, y, group_mask, config.dp_weight)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        trace[epoch] = loss
        params = opt.step(params, grads)
    if config.epochs == 0:
        return model, trace
    return _model_with_params(model, params), trace


def fit_mlp(dataset, config: TrainConfig | None = None, feature_indices=None, hidden_size=None):
    """Initialize and train an MLP on a feature subset of the dataset."""
    config = config or TrainConfig()
    feats = tuple(feature_indices) if feature_indices is not None else tuple(range(dataset.d))
    h = hidden_size or default_hidden_size(len(feats))
    names = tuple(dataset.feature_names[i] for i in feats)
    model = init_mlp(len(feats), h, config.seed, feats, names)
    return train(model, dataset, config)


def fit_logistic(dataset, config: TrainConfig | None = None, feature_indices=None):
    """Initialize (at zero) and train a logistic model on a feature subset.

    If the subset contains the sensitive column its position is recorded on
    the model so the weight can be overridden later.
    """
    config = config or TrainConfig()
    feats = tuple(feature_indices) if feature_indices is not None else tuple(range(dataset.d))
    names = tuple(dataset.feature_names[i] for i in feats)
    sens = feats.index(dataset.sensitive_index) if dataset.sensitive_index in feats else None
    model = init_logistic(len(feats), feats, names, sens)
    return train(model, dataset, config)


# ---------------------------------------------------------------------------
# Serialization (flat JSON; floats keep shortest round-trip precision)

FORMAT_VERSION = 1


def model_to_dict(model, training: dict | None = None, data_split: dict | None = None) -> dict:
    doc: dict = {"format_version": FORMAT_VERSION, "version": __version__}
    if isinstance(model, MlpModel):
        doc["kind"] = "mlp"
        doc["dims"] = {"d": model.d, "hidden": model.hidden_size}
        doc["parameters"] = {
            "w1": model.w1.tolist(),
            "b1": model.b1.tolist(),
            "w2": model.w2.tolist(),
            "b2": model.b2,
        }
    elif isinstance(model, LogisticModel):
        doc["kind"] = "logistic"
        doc["dims"] = {"d": model.d}
        doc["parameters"] = {"w": model.w.tolist(), "b": model.b}
        doc["sensitive_position"] = model.sensitive_position
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")
    doc["feature_indices"] = list(model.feature_indices) if model.feature_indices is not None else None
    doc["feature_names"] = list(model.feature_names) if model.feature_names is not None else None
    doc["training"] = training
    doc["data_split"] = data_split
    return doc


def model_from_dict(doc: dict):
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format {doc.get('format_version')!r}")
    feats = doc.get("feature_indices")
    feats = tuple(feats) if feats is not None else None
    names = doc.get("feature_names")
    names = tuple(names) if names is not None else None
    params = doc["parameters"]
    if doc["kind"] == "mlp":
        return MlpModel(
            np.array(params["w1"]), np.array(params["b1"]), np.array(params["w2"]),
            params["b2"], feats, names,
        )
    if doc["kind"] == "logistic":
        return LogisticModel(
            np.array(params["w"]), params["b"], feats, names, doc.get("sensitive_position")
        )
    raise ValueError(f"unknown model kind {doc['kind']!r}")


def save_model(model, path, training: dict | None = None, data_split: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, training, data_split), fh, indent=2)
        fh.write("\n")


def load_model(path):
    """Returns (model, full document)."""
    with open(Path(path), encoding="utf-8") as fh:
        doc = json.load(fh)
    return model_from_dict(doc), doc
