"""Unfair-feature detection and the two procedural-fairness repairs:
retraining without the flagged features, and in-place model modification that
penalizes the explanation loss (the L1 aggregate of absolute input-gradients
over the flagged features).

Nothing here depends on the model family: the models supply their own input
and modified gradients and their refit on a column subset.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .attribution import ExplanationSet, ShapConfig
from .datasets import SplitDataset
from .fairness import AuditReport, audit, matched_explanations
from .models import TrainConfig, _adam_descent, _check_inputs
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
]

DETECTION_THRESHOLD = 0.05
# The explanation loss aggregates absolute input gradients with the L1 norm,
# the only norm implemented; mitigation.json records it as ``norm_p``.
NORM_P = 1


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
    """Explanation-loss modification settings; the norm is ``NORM_P``."""

    alpha: float = 15.0
    tau: int = 200
    learning_rate: float = 0.01

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.tau < 0:
            raise ValueError("tau must be non-negative")
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
    grads = model.per_sample_input_gradient(_check_inputs(model, X), np.asarray(y, float))
    return float(np.abs(grads[:, uf]).sum() / grads.shape[0])


def _run_modification(model, X, y, uf, config: ModifyConfig):
    traces = np.empty((2, config.tau))
    new_model = _adam_descent(
        model, lambda params: model.modified_grads(params, X, y, uf, config.alpha), traces,
        "modification step", config.learning_rate,
    )
    return new_model, traces[0], traces[1]


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
        c = self.config
        return {
            "method": "modify",
            "config": {"alpha": c.alpha, "tau": c.tau, "norm_p": NORM_P, "learning_rate": c.learning_rate},
            "zeta_initial": self.zeta_initial,
            "zeta_final": self.zeta_final,
            "accuracy_drop": self.accuracy_drop,
            "loss_trace": [float(v) for v in self.loss_trace],
            "zeta_trace": [float(v) for v in self.zeta_trace],
            "report_before": self.report_before.to_dict(),
            "report_after": self.report_after.to_dict(),
        }


def modify_model(
    model,
    split: SplitDataset,
    ufs: UnfairFeatureSet,
    before: AuditReport,
    config: ModifyConfig | None = None,
) -> ModifyResult:
    """Run ``tau`` Adam steps on grad(bce + alpha * zeta) starting from the
    trained parameters, on the training split. ``before`` is the model's own
    audit; the modified model is audited over its plan."""
    config = config or ModifyConfig()
    X = split.train.features[:, model.feature_indices]
    y = split.train.labels.astype(float)
    uf = list(ufs.indices)

    new_model, loss_trace, zeta_trace = _run_modification(model, X, y, uf, config)
    after = audit(new_model, split, plan=before.gpf.plan)
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
    feats = model.feature_indices
    keep = [i for i in range(model.d) if i not in ufs.indices]
    if not keep:
        raise ValueError("every feature was flagged; nothing left to train on")
    kept_columns = tuple(feats[i] for i in keep)
    names = model.feature_names or tuple(str(c) for c in feats)
    removed = tuple(names[i] for i in range(model.d) if i not in keep)

    fresh = dataclasses.replace(train_config, seed=derive_seed(train_config.seed, "retrain"))
    new_model, trace = model.refit(split.train, fresh, kept_columns)
    after = audit(new_model, split, before.config)
    return RetrainResult(
        model=new_model,
        removed_features=removed,
        train_trace=trace,
        report_before=before,
        report_after=after,
        accuracy_drop=before.accuracy - after.accuracy,
    )
