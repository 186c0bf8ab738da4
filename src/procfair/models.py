"""Classifiers under audit: a two-layer ReLU MLP and logistic regression.

Training is full-batch Adam on binary cross-entropy, optionally plus a
differentiable demographic-parity term (probability-mean gap) scaled by
``dp_weight``. Forward, backward, and input-gradient passes are explicit
numpy so that every quantity the toolkit differentiates is exact and
deterministic. The ReLU subgradient at 0 is taken as 0.

Each model class owns what differs between the families: decision scores,
the parameter list and its rebuild, a forward/backward workspace over a
run's rows, its model document, how to refit on a column subset and how it
is explained (the MLP's Kernel SHAP value function, the logistic model's
closed-form Shapley values). The workspace's ``forward`` gives the
probabilities and, on request, columns of each row's score gradient in x;
its ``backward`` gives the parameter gradients of a weighted sum of the
scores and of those score gradients. Over it the objectives are written
once: the base ``_Family`` builds every model's ``loss_step`` and
``modified_step`` (``_loss_step``, ``_modified_step``) and its
``per_sample_input_gradient``. Training and modification run one Adam loop,
``_adam_descent``, over a step built once per run; the MLP's is two gemms,
the forward [X, 1] [w1, b1]^T, run in the row blocks scoring uses, and the
backward R^T act (``_MlpWorkspace``), with no (rows x hidden) allocation.

The modification step needs d(zeta)/d(theta), a second-order quantity: the
gradient of a function of the input gradients with respect to the parameters.
It is computed in closed form (the ReLU masks and the signs inside the L1
norm are locally constant, so ``_modified_step`` is the exact
forward-over-reverse derivative almost everywhere) and is verified against
finite differences in the test suite.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass

import numpy as np

from ._formats import integer_fields, read_json, readonly, write_json
from ._version import __version__

__all__ = [
    "MlpModel",
    "LogisticModel",
    "MODEL_KINDS",
    "TrainConfig",
    "TrainingDivergedError",
    "default_hidden_size",
    "init_mlp",
    "init_logistic",
    "decision_score",
    "predict_labels",
    "train",
    "fit_mlp",
    "fit_logistic",
    "set_sensitive_weight",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
]

PROBA_CLAMP = 1e-7  # BCE numerical floor
# The MLP's forward passes (scoring, training, modification) evaluate rows,
# and its Kernel SHAP value function coalitions, in blocks of about this many
# hidden cells (2048 rows at 32 hidden units, 512 KB of float64).
_SCORE_CELLS = 65536
# Adam's moment decay rates and denominator floor, for training and modification
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, message: str | None = None):
        super().__init__(message or f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


def _set_features(model) -> None:
    feats = model.feature_indices
    try:
        feats = tuple(range(model.d)) if feats is None else tuple(operator.index(i) for i in feats)
    except TypeError:
        raise ValueError(f"feature indices must be integers, got {feats!r}") from None
    if len(feats) != model.d:
        raise ValueError(f"{len(feats)} feature indices for a model of {model.d} features")
    if min(feats) < 0 or len(set(feats)) != len(feats):
        raise ValueError(f"feature indices must be distinct and non-negative, got {list(feats)}")
    object.__setattr__(model, "feature_indices", feats)
    if model.feature_names is not None:
        names = tuple(str(n) for n in model.feature_names)
        if len(names) != model.d:
            raise ValueError(f"{len(names)} feature names for a model of {model.d} features")
        object.__setattr__(model, "feature_names", names)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _row_blocks(rows: int, h: int):
    """The row slices the MLP's forward passes run over, each of about
    ``_SCORE_CELLS`` hidden cells: blocks hold a multiple of 64 rows, and a
    last block of a single row joins the one before it (numpy multiplies a
    lone row through a vector product). With one BLAS thread each block then
    takes the same kernels as its rows take in one product over all rows, so
    blocked passes are bit-identical to it. (A threaded BLAS splits a large
    product at size-dependent points, so neither form is then thread-count
    invariant at every width.)"""
    block = max(64, _SCORE_CELLS // h // 64 * 64)
    lo = 0
    while lo < rows:
        hi = rows if rows - lo <= block + 1 else lo + block
        yield slice(lo, hi)
        lo = hi


def _relu_scores(Xa, Wa, w2, hidden, scores) -> None:
    """One row block of the first layer and the w2 product: relu(Xa Wa^T)
    into ``hidden`` and its w2 product into ``scores``, with Xa = [X, 1] and
    Wa = [w1, b1], so the last term of the gemm adds the bias and no pass
    over the hidden cells does."""
    np.matmul(Xa, Wa.T, out=hidden)
    np.maximum(hidden, 0.0, out=hidden)
    np.matmul(hidden, w2, out=scores)


class _MlpWorkspace:
    """The buffers an Adam run over the rows X reuses at every step: the
    augmented inputs ``Xa = [X, 1]`` and weights ``Wa = [w1, b1]``, one
    (rows x hidden) buffer, the rows' scores and the rows x (d + 1) backward
    operand ``R``. The hidden-size buffers are sized by the first parameters
    seen."""

    def __init__(self, X: np.ndarray):
        rows, d = X.shape
        self.Xa = np.empty((rows, d + 1))
        self.Xa[:, :d] = X
        self.Xa[:, d] = 1.0
        self.R = np.empty((rows, d + 1))
        self.s = np.empty(rows)
        self.Wa = self.hidden = None

    def forward(self, params, cols=None):
        """Probabilities and, if ``cols`` is given, those columns of each
        row's score gradient aw = act (w2 w1). Row block by row block (see
        ``_row_blocks``), while the block is in cache, the pre-activation
        X w1^T + b1 is the gemm Xa Wa^T, and its ReLU output, the w2 product
        and then the 0/1 activation matrix ``act``, which ``backward`` reads,
        overwrite it in the hidden buffer. ``act`` is one (rows x hidden)
        buffer, and aw one full-width product after the blocks: blocking it
        would change its bits."""
        w1, b1, w2, b2 = self.params = params
        h, d = w1.shape
        if self.hidden is None:
            self.Wa = np.empty((h, d + 1))
            self.hidden = np.empty((self.Xa.shape[0], h))
        self.Wa[:, :d] = w1
        self.Wa[:, d] = b1
        for rows in _row_blocks(len(self.Xa), h):
            hidden = self.hidden[rows]
            _relu_scores(self.Xa[rows], self.Wa, w2, hidden, self.s[rows])
            np.greater(hidden, 0.0, out=hidden)
        self.act = self.hidden
        p = _sigmoid(self.s + b2[0])
        return p, None if cols is None else (self.act @ (w2[:, None] * w1))[:, cols]

    def backward(self, delta, cols=(), ev=None):
        """Parameter gradients of sum_i delta_i * s_i + sum_i ev_i . ds_i/dx_i
        with the last forward's activation pattern held fixed, where s_i =
        sum_k act_ik w2_k (w1_k . x_i + b1_k) and ev is zero outside the input
        columns ``cols`` (its column j weights column cols[j]). With M = act^T
        (delta X + ev) and n = act^T delta, unit k's gradients are w2_k M_k,
        w2_k n_k and w1_k . M_k + b1_k n_k: one gemm, R^T act with R =
        [delta X + ev, delta] = delta Xa + [ev, 0], ev added one column of
        ``cols`` at a time. The transposed operand is the narrow R, so BLAS
        does not repack the (rows x hidden) act. This sums in the order
        ``act.T @ R`` does; the same product over a contiguous copy of R^T
        does not, at some hidden sizes."""
        w1, b1, w2, _ = self.params
        d = w1.shape[1]
        R = np.multiply(delta[:, None], self.Xa, out=self.R)
        for j, col in enumerate(cols):
            R[:, col] += ev[:, j]
        G = np.ascontiguousarray((R.T @ self.act).T)  # a gradient's layout becomes the next parameters'
        M, n = G[:, :d], G[:, d]
        return [w2[:, None] * M, w2 * n, (w1 * M).sum(axis=1) + b1 * n, np.array([delta.sum()])]


class _LogisticWorkspace:
    """The logistic model's passes over the rows X: s_i = w . x_i + b, whose
    gradient in x_i is w on every row."""

    def __init__(self, X: np.ndarray):
        self.X = X

    def forward(self, params, cols=None):
        """Probabilities and, if ``cols`` is given, ``w[cols]``: each row's
        score gradient on those columns, broadcast over the rows."""
        w, b = params
        return _sigmoid(self.X @ w + b[0]), None if cols is None else w[cols]

    def backward(self, delta, cols=(), ev=None):
        """Parameter gradients of sum_i delta_i * s_i + sum_i ev_i . ds_i/dx_i[cols]:
        X^T delta, plus the column sums of ev on ``cols``."""
        gw = self.X.T @ delta
        if ev is not None:
            gw[cols] += ev.sum(axis=0)
        return [gw, np.array([delta.sum()])]


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


def _loss_step(ws, y, group_mask, dp_weight):
    """Loss and gradients as a function of the parameters, over the workspace ``ws``."""
    m = len(y)

    def step(params):
        p, _ = ws.forward(params)
        delta, extra = _delta_scores(p, y, group_mask, dp_weight, m)
        return _clamped_bce(p, y) + extra, ws.backward(delta)

    return step


def _modified_step(ws, y, uf, alpha):
    """BCE, zeta and the gradients of bce + alpha * zeta as a function of the
    parameters, over the workspace ``ws``, for the sorted flagged columns ``uf``."""
    m = len(y)

    def step(params):
        p, awf = ws.forward(params, uf)
        err = p - y

        # Per sample the input gradient is g = err * aw with aw the score's
        # gradient in x; with v = sign(g) on the flagged features (zero
        # elsewhere), zeta = mean(v . g) = mean(err * c) where c = v . aw. Only
        # the flagged columns of aw are read, so v, c and ev are built on them.
        v = np.sign(err[:, None] * awf)
        c = (v * awf).sum(axis=1)
        zeta = float((err * c).sum() / m)

        # alpha * zeta reaches each score through err (d err / d s = p (1 - p))
        # and each input gradient directly, with weight alpha / m * err * v.
        scale = alpha / m
        delta = err / m + scale * (p * (1.0 - p) * c)
        return _clamped_bce(p, y), zeta, ws.backward(delta, uf, scale * err[:, None] * v)

    return step


class _Family:
    """What every model family shares, over its ``_workspace``: the training
    and modification steps and the per-sample input gradient."""

    @classmethod
    def loss_step(cls, X, y, group_mask, dp_weight):
        """The training step over the rows X (see ``_loss_step``)."""
        return _loss_step(cls._workspace(X), y, group_mask, dp_weight)

    @classmethod
    def modified_step(cls, X, y, uf, alpha):
        """The modification step over the rows X (see ``_modified_step``)."""
        uf = sorted(set(np.arange(X.shape[1])[uf].tolist()))  # the flagged columns, each once, in order
        return _modified_step(cls._workspace(X), y, uf, alpha)

    def per_sample_input_gradient(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of each row's own BCE term with respect to that row."""
        p, aw = self._workspace(X).forward(self.params(), slice(None))
        return (p - y)[:, None] * aw


@dataclass(frozen=True)
class MlpModel(_Family):
    """Two-layer network: sigmoid(w2 . relu(w1 x + b1) + b2) over the dataset
    columns ``feature_indices`` (default: the first ``d``)."""

    kind = "mlp"
    _workspace = _MlpWorkspace

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
        object.__setattr__(self, "w1", readonly(w1))
        object.__setattr__(self, "b1", readonly(b1))
        object.__setattr__(self, "w2", readonly(w2))
        object.__setattr__(self, "b2", float(self.b2))
        _set_features(self)

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.w1.shape[0]

    @property
    def dims(self) -> dict:
        return {"d": self.d, "hidden": self.hidden_size}

    def scores(self, X: np.ndarray) -> np.ndarray:
        """relu(X w1^T + b1) w2 + b2, evaluated over ``_row_blocks`` through
        one hidden buffer, so no (rows x hidden) layer is built. Each block is
        the augmented gemm [X_block, 1] [w1, b1]^T that ``_MlpWorkspace`` runs,
        whose last term adds the bias, so no pass over the hidden cells adds
        it; the scores are bit-identical to X w1^T + b1 in one product. A lone
        row or a single hidden unit keeps that product: numpy takes it through
        a vector product, which would sum the bias term in another order."""
        rows, d = X.shape
        h = self.hidden_size
        if rows == 1 or h == 1:
            return np.maximum(X @ self.w1.T + self.b1, 0.0) @ self.w2 + self.b2
        Wa = np.empty((h, d + 1))
        Wa[:, :d] = self.w1
        Wa[:, d] = self.b1
        size = max(r.stop - r.start for r in _row_blocks(rows, h))
        Xa = np.empty((size, d + 1))
        Xa[:, d] = 1.0
        hidden = np.empty((size, h))
        out = np.empty(rows)
        for r in _row_blocks(rows, h):
            n = r.stop - r.start
            Xa[:n, :d] = X[r]
            _relu_scores(Xa[:n], Wa, self.w2, hidden[:n], out[r])
        out += self.b2
        return out

    def masked_values(self, X: np.ndarray, background: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Kernel SHAP's value function: the (n, coalitions) mean score over
        ``background`` of each row of X with the features outside coalition
        z (a row of the boolean Z) taken from the background row, built with
        no masked design. For row x, coalition z and background row g the
        first layer's pre-activation is a + b with a = (z * x) w1^T and
        b = ((1 - z) * g) w1^T + b1, so the present and absent features are
        multiplied once per row and once per background row. The b terms are
        built one coalition block of about ``_SCORE_CELLS`` hidden cells at a
        time, and each row's ReLU, w2 product and background mean run on
        that block."""
        n, d = X.shape
        k, h = background.shape[0], self.hidden_size
        block = max(1, _SCORE_CELLS // (k * h))
        hidden_buf = np.empty((min(block, len(Z)), k, h))
        out = np.empty((n, len(Z)))
        for lo in range(0, len(Z), block):
            z = Z[lo : lo + block]
            b = (~z[:, None, :] * background).reshape(-1, d) @ self.w1.T
            b += self.b1
            b = b.reshape(len(z), k, h)
            hidden = hidden_buf[: len(z)]
            for i in range(n):
                np.add(b, ((z * X[i]) @ self.w1.T)[:, None, :], out=hidden)
                np.maximum(hidden, 0.0, out=hidden)
                out[i, lo : lo + len(z)] = (hidden.reshape(-1, h) @ self.w2).reshape(len(z), k).mean(axis=1)
        out += self.b2
        return out

    def params(self) -> list[np.ndarray]:
        return [self.w1.copy(), self.b1.copy(), self.w2.copy(), np.array([self.b2])]

    def with_params(self, params) -> MlpModel:
        return dataclasses.replace(self, w1=params[0], b1=params[1], w2=params[2], b2=float(params[3][0]))

    def to_document(self) -> dict:
        params = {"w1": self.w1.tolist(), "b1": self.b1.tolist(), "w2": self.w2.tolist(), "b2": self.b2}
        return {"dims": self.dims, "parameters": params}

    @classmethod
    def from_document(cls, doc: dict) -> MlpModel:
        w1, b1, w2, b2 = _fields(doc["parameters"], ("w1", "b1", "w2", "b2"), "parameters")
        return cls(
            np.array(w1), np.array(b1), np.array(w2), b2, doc.get("feature_indices"), doc.get("feature_names")
        )

    @classmethod
    def fit(cls, dataset, config: TrainConfig | None = None, feature_indices=None, hidden_size=None):
        """Initialize and train an MLP on a feature subset of the dataset."""
        config = config or TrainConfig()
        feats, names = dataset.checked_features(feature_indices)
        h = default_hidden_size(len(feats)) if hidden_size is None else hidden_size
        return train(init_mlp(len(feats), h, config.seed, feats, names), dataset, config)

    def refit(self, dataset, config: TrainConfig, feature_indices):
        """A fresh model of the same hidden size, trained on other columns."""
        return self.fit(dataset, config, feature_indices, self.hidden_size)


fit_mlp = MlpModel.fit


@dataclass(frozen=True)
class LogisticModel(_Family):
    """Linear model: sigmoid(w . x + b) over the dataset columns
    ``feature_indices`` (default: the first ``d``)."""

    kind = "logistic"
    _workspace = _LogisticWorkspace

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
        object.__setattr__(self, "w", readonly(w))
        object.__setattr__(self, "b", float(self.b))
        _set_features(self)

    @property
    def d(self) -> int:
        return self.w.size

    @property
    def dims(self) -> dict:
        return {"d": self.d}

    def scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.w + self.b

    def shapley_values(self, X: np.ndarray, background: np.ndarray) -> np.ndarray:
        """Exact Shapley values of the decision score for each row of X, with
        absent features taken from ``background`` (marginal expectation): the
        score is linear, so feature j's value is w_j (x_j - mean(background_j)).
        This is Linear SHAP (Lundberg & Lee 2017), the value Kernel SHAP's
        regression recovers whenever its system is nonsingular."""
        return (X - background.mean(axis=0)) * self.w

    def params(self) -> list[np.ndarray]:
        return [self.w.copy(), np.array([self.b])]

    def with_params(self, params) -> LogisticModel:
        return dataclasses.replace(self, w=params[0], b=float(params[1][0]))

    def to_document(self) -> dict:
        params = {"w": self.w.tolist(), "b": self.b}
        return {"dims": self.dims, "parameters": params, "sensitive_position": self.sensitive_position}

    @classmethod
    def from_document(cls, doc: dict) -> LogisticModel:
        w, b = _fields(doc["parameters"], ("w", "b"), "parameters")
        return cls(
            np.array(w), b, doc.get("feature_indices"), doc.get("feature_names"), doc.get("sensitive_position")
        )

    @classmethod
    def fit(cls, dataset, config: TrainConfig | None = None, feature_indices=None, hidden_size=None):
        """Initialize (at zero) and train a logistic model on a feature subset.

        If the subset contains the sensitive column its position is recorded on
        the model so the weight can be overridden later.
        """
        if hidden_size is not None:
            raise ValueError(f"{cls.kind} models have no hidden layer to size")
        config = config or TrainConfig()
        feats, names = dataset.checked_features(feature_indices)
        sens = feats.index(dataset.sensitive_index) if dataset.sensitive_index in feats else None
        return train(init_logistic(len(feats), feats, names, sens), dataset, config)

    def refit(self, dataset, config: TrainConfig, feature_indices):
        """A fresh model trained on other columns."""
        return self.fit(dataset, config, feature_indices)


fit_logistic = LogisticModel.fit


MODEL_KINDS = {family.kind: family for family in (MlpModel, LogisticModel)}


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch Adam settings. ``dp_weight`` scales the soft demographic
    parity term added to the loss: a positive weight penalises the gap
    between the groups' mean probabilities, and a negative weight rewards it,
    training a model that is deliberately less fair (as a baseline or test
    fixture)."""

    epochs: int = 300
    learning_rate: float = 0.01
    dp_weight: float = 0.0
    seed: int = 0

    def __post_init__(self):
        integer_fields(self, "epochs", "seed")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")

    def snapshot(self) -> dict:
        """The settings as model documents record them, Adam's constants included."""
        return {
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "adam_beta1": ADAM_BETA1,
            "adam_beta2": ADAM_BETA2,
            "adam_eps": ADAM_EPS,
            "dp_weight": self.dp_weight,
            "seed": self.seed,
        }

    @classmethod
    def from_snapshot(cls, training: dict | None, seed: int) -> "TrainConfig":
        """The settings a model document's ``training`` block records; an
        absent entry takes its default, and an absent seed ``seed``."""
        training = training or {}
        return cls(
            epochs=int(training.get("epochs", cls.epochs)),
            learning_rate=float(training.get("learning_rate", cls.learning_rate)),
            dp_weight=float(training.get("dp_weight", cls.dp_weight)),
            seed=int(training.get("seed", seed)),
        )


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


def _check_inputs(model, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.d:
        raise ValueError(f"input has {X.shape[1]} features, model expects {model.d}")
    return X


def decision_score(model, X) -> np.ndarray:
    """Pre-sigmoid score (log-odds). The predicted label is 1 iff the score
    is >= 0; this is the model's additive decision scale and is what the
    audit pipeline explains."""
    return model.scores(_check_inputs(model, X))


def predict_labels(model, X) -> np.ndarray:
    """The boolean mask of the rows predicted positive."""
    return decision_score(model, X) >= 0


def set_sensitive_weight(model: LogisticModel, w_s: float) -> LogisticModel:
    """Copy of the model with the sensitive coordinate's weight replaced."""
    if model.sensitive_position is None:
        raise ValueError("model has no recorded sensitive coordinate")
    w = model.w.copy()
    w[model.sensitive_position] = w_s
    return dataclasses.replace(model, w=w)


# ---------------------------------------------------------------------------
# Training


def _adam_descent(model, grad_fn, traces: np.ndarray, unit: str, learning_rate: float):
    """One full-batch Adam update of ``model.params()`` per column of
    ``traces``. ``grad_fn(params)`` returns the values to trace, evaluated
    before the update, followed by the gradients; a non-finite value stops
    the run. Returns the updated model, or the model itself after no steps."""
    params = model.params()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for step in range(traces.shape[1]):
        *values, grads = grad_fn(params)
        if not np.isfinite(values).all():
            raise TrainingDivergedError(step, f"non-finite loss at {unit} {step}")
        traces[:, step] = values
        t = step + 1
        updated = []
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
            v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g * g
            m_hat = m[i] / (1.0 - ADAM_BETA1**t)
            v_hat = v[i] / (1.0 - ADAM_BETA2**t)
            updated.append(p - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        params = updated
    return model if traces.shape[1] == 0 else model.with_params(params)


def train(model, dataset, config: TrainConfig | None = None):
    """Full-batch Adam on BCE + dp_weight * |gap of the groups' mean
    probabilities| for ``config.epochs`` steps, over the model's columns of
    ``dataset``, which must carry its feature names. Returns the trained
    model and the per-epoch loss trace (the loss evaluated before each
    update).
    """
    config = config or TrainConfig()
    X = dataset.columns(model.feature_indices, model.feature_names)
    y = dataset.labels.astype(float)
    group_mask = dataset.advantaged_mask
    trace = np.empty((1, config.epochs))
    trained = _adam_descent(
        model, model.loss_step(X, y, group_mask, config.dp_weight), trace, "epoch", config.learning_rate
    )
    return trained, trace[0]


# ---------------------------------------------------------------------------
# Serialization (flat JSON; floats keep shortest round-trip precision)

FORMAT_VERSION = 1


def model_to_dict(model, training: dict | None = None, data_split: dict | None = None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "version": __version__,
        "kind": model.kind,
        **model.to_document(),
        "feature_indices": list(model.feature_indices),
        "feature_names": list(model.feature_names) if model.feature_names is not None else None,
        "training": training,
        "data_split": data_split,
    }


def _fields(doc: dict, keys, where: str) -> list:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"missing {', '.join(map(repr, missing))} in the model {where}")
    return [doc[k] for k in keys]


def model_from_dict(doc: dict):
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format {doc.get('format_version')!r}")
    kind, dims, _ = _fields(doc, ("kind", "dims", "parameters"), "document")
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    model = MODEL_KINDS[kind].from_document(doc)
    if dims != model.dims:
        raise ValueError(f"model document dims {dims} do not match its parameters, {model.dims}")
    return model


def save_model(model, path, training: dict | None = None, data_split: dict | None = None) -> None:
    write_json(path, model_to_dict(model, training, data_split))


def load_model(path):
    """Returns (model, full document)."""
    doc = read_json(path)
    return model_from_dict(doc), doc
