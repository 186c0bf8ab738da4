"""Unfair-feature detection and the two procedural-fairness repairs:
retraining without the flagged features, and in-place model modification that
penalizes the explanation loss (the L1 aggregate of absolute input-gradients
over the flagged features).

The modification step needs d(zeta)/d(theta), a second-order quantity: the
gradient of a function of the input gradients with respect to the parameters.
It is computed in closed form for both model families (the ReLU masks and the
signs inside the L1 norm are locally constant, so the expressions below are
the exact forward-over-reverse derivative almost everywhere) and is verified
against finite differences in the test suite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .attribution import ExplanationSet, ShapConfig
from .datasets import SplitDataset
from .fairness import AuditConfig, AuditReport, audit, matched_explanations
from .models import (
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    _Adam,
    _clamped_bce,
    _mlp_backward,
    _mlp_forward,
    _model_with_params,
    _params_of,
    _per_sample_input_gradient,
    _sigmoid,
    fit_logistic,
    fit_mlp,
    predict_labels,
)
from .seeding import derive_seed
from .two_sample import KernelConfig, PermutationConfig, permutation_memberships, permutation_pvalue

__all__ = [
    "UnfairFeatureSet",
    "ModifyConfig",
    "RetrainResult",
    "ModifyResult",
    "detect_unfair_features",
    "unfair_features_from_sets",
    "explanation_loss",
    "retrain_without",
    "modify_model",
    "alpha_sweep",
]

DETECTION_THRESHOLD = 0.05


@dataclass(frozen=True)
class UnfairFeatureSet:
    """Features whose per-feature explanation distributions differ
    significantly between the groups. ``indices`` are positions in the
    audited model's feature space; ``pvalues`` has one entry per model
    feature."""

    indices: tuple[int, ...]
    feature_names: tuple[str, ...]
    pvalues: np.ndarray
    threshold: float = DETECTION_THRESHOLD

    def __post_init__(self):
        pvalues = np.asarray(self.pvalues, dtype=float)
        if ((pvalues < 0) | (pvalues > 1)).any():
            raise ValueError("p-values must lie in [0, 1]")
        expected = tuple(int(i) for i in np.flatnonzero(pvalues <= self.threshold))
        if tuple(self.indices) != expected:
            raise ValueError("indices must be exactly the features at or below the threshold")
        pvalues = np.array(pvalues, copy=True)
        pvalues.setflags(write=False)
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "feature_names", tuple(str(n) for n in self.feature_names))
        object.__setattr__(self, "pvalues", pvalues)

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "feature_names": list(self.feature_names),
            "pvalues": [float(p) for p in self.pvalues],
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class ModifyConfig:
    """Explanation-loss modification settings. Only the L1 norm (p=1) is
    implemented; the field exists so the norm choice stays explicit."""

    alpha: float = 15.0
    tau: int = 200
    norm_p: int = 1
    learning_rate: float = 0.01

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.tau < 0:
            raise ValueError("tau must be non-negative")
        if self.norm_p != 1:
            raise ValueError("only the L1 norm is implemented")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")


def unfair_features_from_sets(
    e1: ExplanationSet,
    e2: ExplanationSet,
    kernel_config: KernelConfig | None = None,
    perm_config: PermutationConfig | None = None,
    threshold: float = DETECTION_THRESHOLD,
) -> UnfairFeatureSet:
    """Per-feature 1-D MMD permutation tests between the two explanation
    sets; features at or below the threshold are flagged.

    The per-feature tests default to the gaussian kernel: on matched
    near-duplicate samples the exponential kernel's cusp at zero distance
    flags second-order attribution structure on features the model treats
    symmetrically, swamping the intended first-order screen.
    """
    if e1.feature_names != e2.feature_names:
        raise ValueError("explanation sets cover different features")
    kernel_config = kernel_config or KernelConfig("gaussian")
    perm_config = perm_config or PermutationConfig()
    # every per-feature test pools the same a + b rows, so one matrix serves all
    memberships = permutation_memberships(e1.n + e2.n, e1.n, perm_config)
    pvalues = np.empty(e1.d)
    for j in range(e1.d):
        pvalues[j] = permutation_pvalue(
            e1.values[:, [j]], e2.values[:, [j]], kernel_config, perm_config, memberships
        )
    flagged = tuple(int(i) for i in np.flatnonzero(pvalues <= threshold))
    names = tuple(e1.feature_names[i] for i in flagged)
    return UnfairFeatureSet(flagged, names, pvalues, threshold)


def detect_unfair_features(
    model,
    pool,
    shap_config: ShapConfig,
    kernel_config: KernelConfig | None = None,
    perm_config: PermutationConfig | None = None,
    n: int = 100,
    pair_seed: int = 0,
    threshold: float = DETECTION_THRESHOLD,
) -> UnfairFeatureSet:
    """Select matched pairs, explain both sides, and flag the features whose
    explanation distributions differ between the groups."""
    _, e1, e2 = matched_explanations(model, pool, shap_config, n, pair_seed)
    return unfair_features_from_sets(e1, e2, kernel_config, perm_config, threshold)


def explanation_loss(model, X, y, uf_indices) -> float:
    """For each flagged feature, the L1 norm of the per-row absolute input
    gradients of the BCE loss, divided by the row count; summed over the
    flagged features."""
    uf = list(uf_indices)
    if not uf:
        return 0.0
    grads = _per_sample_input_gradient(model, np.atleast_2d(np.asarray(X, float)), np.asarray(y, float))
    return float(np.abs(grads[:, uf]).sum() / grads.shape[0])


# ---------------------------------------------------------------------------
# Gradients of bce + alpha * zeta with respect to the parameters


def _mlp_modified_grads(params, X, y, uf, alpha):
    w1, b1, w2, b2 = params
    m = X.shape[0]
    act, p = _mlp_forward(X, w1, b1, w2, b2[0])
    err = p - y

    # Per sample the input gradient is g = err * aw with aw = act @ (w2 * w1);
    # with v = sign(g) restricted to the flagged features,
    # zeta = mean(v . g) = mean(err * c) where c = v . aw.
    aw = act @ (w2[:, None] * w1)
    v = np.zeros_like(aw)
    v[:, uf] = np.sign(err[:, None] * aw[:, uf])
    c = (v * aw).sum(axis=1)
    zeta = float((err * c).sum() / m)

    # alpha * zeta reaches each score through err (d err / d s = p (1 - p))
    # and each input gradient directly, with weight alpha / m * err * v.
    scale = alpha / m
    delta = err / m + scale * (p * (1.0 - p) * c)
    return _clamped_bce(p, y), zeta, _mlp_backward(X, act, w1, b1, w2, delta, scale * err[:, None] * v)


def _logistic_modified_grads(params, X, y, uf, alpha):
    w, b = params
    m = X.shape[0]
    p = _sigmoid(X @ w + b[0])
    err = p - y
    curv = p * (1.0 - p)

    bce = _clamped_bce(p, y)
    gw = X.T @ (err / m)
    gb = np.array([err.sum() / m])

    # g = err * w; zeta = mean(err * s) with s = v . w.
    v = np.zeros((m, w.size))
    v[:, uf] = np.sign(np.outer(err, w[uf]))
    s = v @ w
    zeta = float((err * s).sum() / m)

    if alpha == 0.0:
        return bce, zeta, [gw, gb]

    qs = curv * s
    zw = ((qs[:, None] * X) + err[:, None] * v).sum(axis=0) / m
    zb = np.array([qs.sum() / m])
    return bce, zeta, [gw + alpha * zw, gb + alpha * zb]


def _modified_grads_fn(model):
    return _mlp_modified_grads if isinstance(model, MlpModel) else _logistic_modified_grads


def _run_modification(model, X, y, uf, config: ModifyConfig):
    grad_fn = _modified_grads_fn(model)
    params = _params_of(model)
    opt = _Adam(params, config.learning_rate)
    loss_trace = np.empty(config.tau)
    zeta_trace = np.empty(config.tau)
    for step in range(config.tau):
        bce, zeta, grads = grad_fn(params, X, y, uf, config.alpha)
        if not (np.isfinite(bce) and np.isfinite(zeta)):
            raise TrainingDivergedError(step, f"non-finite loss at modification step {step}")
        loss_trace[step] = bce
        zeta_trace[step] = zeta
        params = opt.step(params, grads)
    new_model = model if config.tau == 0 else _model_with_params(model, params)
    return new_model, loss_trace, zeta_trace


@dataclass(frozen=True)
class ModifyResult:
    model: object
    loss_trace: np.ndarray
    zeta_trace: np.ndarray
    zeta_initial: float
    zeta_final: float
    report_before: AuditReport
    report_after: AuditReport
    accuracy_drop: float
    config: ModifyConfig

    def to_dict(self) -> dict:
        return {
            "method": "modify",
            "config": dataclasses.asdict(self.config),
            "zeta_initial": self.zeta_initial,
            "zeta_final": self.zeta_final,
            "accuracy_drop": self.accuracy_drop,
            "loss_trace": [float(v) for v in self.loss_trace],
            "zeta_trace": [float(v) for v in self.zeta_trace],
            "report_before": self.report_before.to_dict(),
            "report_after": self.report_after.to_dict(),
        }


def _audit_config_of(before: AuditReport) -> AuditConfig:
    if before.audit_config is None:
        raise ValueError("the 'before' report has no audit run attached; pass the one audit() returned")
    return before.audit_config


def modify_model(
    model,
    split: SplitDataset,
    ufs: UnfairFeatureSet,
    before: AuditReport,
    config: ModifyConfig | None = None,
) -> ModifyResult:
    """Run ``tau`` Adam steps on grad(bce + alpha * zeta) starting from the
    trained parameters, on the training split. ``before`` is the model's own
    audit; the modified model is audited with the same settings."""
    config = config or ModifyConfig()
    audit_config = _audit_config_of(before)
    X = split.train.features[:, model.feature_indices]
    y = split.train.labels.astype(float)
    uf = list(ufs.indices)

    new_model, loss_trace, zeta_trace = _run_modification(model, X, y, uf, config)
    after = audit(new_model, split, audit_config)
    return ModifyResult(
        model=new_model,
        loss_trace=loss_trace,
        zeta_trace=zeta_trace,
        zeta_initial=explanation_loss(model, X, y, uf),
        zeta_final=explanation_loss(new_model, X, y, uf),
        report_before=before,
        report_after=after,
        accuracy_drop=before.accuracy - after.accuracy,
        config=config,
    )


@dataclass(frozen=True)
class RetrainResult:
    model: object
    removed_features: tuple[str, ...]
    train_trace: np.ndarray
    report_before: AuditReport
    report_after: AuditReport
    accuracy_drop: float

    def to_dict(self) -> dict:
        return {
            "method": "retrain",
            "removed_features": list(self.removed_features),
            "accuracy_drop": self.accuracy_drop,
            "report_before": self.report_before.to_dict(),
            "report_after": self.report_after.to_dict(),
        }


def retrain_without(
    model,
    split: SplitDataset,
    ufs: UnfairFeatureSet,
    before: AuditReport,
    train_config: TrainConfig | None = None,
) -> RetrainResult:
    """Drop the flagged columns and retrain from scratch with the same
    hyperparameters and a fresh (derived) seed. ``before`` is the model's own
    audit; the retrained model is audited with the same settings."""
    train_config = train_config or TrainConfig()
    audit_config = _audit_config_of(before)
    feats = model.feature_indices
    keep = [i for i in range(model.d) if i not in ufs.indices]
    if not keep:
        raise ValueError("every feature was flagged; nothing left to train on")
    kept_columns = tuple(feats[i] for i in keep)
    names = model.feature_names or tuple(str(c) for c in feats)
    removed = tuple(names[i] for i in range(model.d) if i not in keep)

    fresh = dataclasses.replace(train_config, seed=derive_seed(train_config.seed, "retrain"))
    if isinstance(model, MlpModel):
        new_model, trace = fit_mlp(split.train, fresh, kept_columns, model.hidden_size)
    else:
        new_model, trace = fit_logistic(split.train, fresh, kept_columns)

    after = audit(new_model, split, audit_config)
    return RetrainResult(
        model=new_model,
        removed_features=removed,
        train_trace=trace,
        report_before=before,
        report_after=after,
        accuracy_drop=before.accuracy - after.accuracy,
    )


def alpha_sweep(
    model,
    split: SplitDataset,
    ufs: UnfairFeatureSet,
    alphas,
    config: ModifyConfig | None = None,
) -> list[dict]:
    """Modify the model once per penalty weight (common seed and step count)
    and report the final explanation loss and the test-accuracy drop."""
    config = config or ModifyConfig()
    X = split.train.features[:, model.feature_indices]
    y = split.train.labels.astype(float)
    X_test = split.test.features[:, model.feature_indices]
    base_accuracy = float((predict_labels(model, X_test) == split.test.labels).mean())
    uf = list(ufs.indices)

    rows = []
    for alpha in alphas:
        cfg = dataclasses.replace(config, alpha=float(alpha))
        modified, _, zeta_trace = _run_modification(model, X, y, uf, cfg)
        accuracy = float((predict_labels(modified, X_test) == split.test.labels).mean())
        rows.append(
            {
                "alpha": float(alpha),
                "final_zeta": explanation_loss(modified, X, y, uf),
                "accuracy_drop": base_accuracy - accuracy,
            }
        )
    return rows
