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

from ._formats import integer_fields, readonly
from .attribution import ExplanationSet
from .fairness import AuditReport, audit
from .models import TrainConfig, _adam_descent, _check_inputs
from .seeding import derive_seed
from .two_sample import KernelConfig, PermutationConfig, permutation_pvalue

# Unused here; perfbench/tracing.py rebinds this name in this module.
from .fairness import matched_explanations  # noqa: F401

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
# The per-feature tests' kernel; see unfair_features_from_sets.
DETECTION_KERNEL = "gaussian"
# The explanation loss aggregates absolute input gradients with the L1 norm,
# the only norm implemented; mitigation.json records it as ``norm_p``.
NORM_P = 1


@dataclass(frozen=True)
class UnfairFeatureSet:
    """Per-feature detection p-values of the audited model's features
    ``names``, one per feature; the features at or below the threshold are
    the unfair ones, at positions ``indices`` in the model's feature space."""

    names: tuple[str, ...]
    pvalues: np.ndarray
    threshold: float = DETECTION_THRESHOLD

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        pvalues = np.asarray(self.pvalues, dtype=float)
        if pvalues.shape != (len(names),):
            raise ValueError(f"{len(names)} feature names for p-values of shape {pvalues.shape}")
        if not ((pvalues >= 0) & (pvalues <= 1)).all():
            raise ValueError("p-values must lie in [0, 1]")
        if not 0 <= self.threshold <= 1:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "pvalues", readonly(pvalues))

    @property
    def indices(self) -> tuple[int, ...]:
        """The detection rule: the features whose p-value is at or below the threshold."""
        return tuple(int(i) for i in np.flatnonzero(self.pvalues <= self.threshold))

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.names[i] for i in self.indices)

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
        integer_fields(self, "tau")
        if not self.alpha >= 0:
            raise ValueError("alpha must be non-negative")
        if self.tau < 0:
            raise ValueError("tau must be non-negative")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")


def unfair_features_from_sets(
    e1: ExplanationSet,
    e2: ExplanationSet,
    perm_config: PermutationConfig,
    kernel_config: KernelConfig | None = None,
    threshold: float = DETECTION_THRESHOLD,
) -> UnfairFeatureSet:
    """Per-feature 1-D MMD permutation tests between the two explanation
    sets, with the permutations of ``perm_config``; features at or below the
    threshold are flagged. Every test pools the same e1.n + e2.n rows, so
    ``permutation_memberships`` draws their matrix once for all features.

    The per-feature tests default to the gaussian kernel: on matched
    near-duplicate samples the exponential kernel's cusp at zero distance
    flags second-order attribution structure on features the model treats
    symmetrically, swamping the intended first-order screen.
    """
    if e1.feature_names != e2.feature_names:
        raise ValueError("explanation sets cover different features")
    kernel_config = kernel_config or KernelConfig(DETECTION_KERNEL)
    pvalues = np.empty(e1.d)
    for j in range(e1.d):
        pvalues[j] = permutation_pvalue(e1.values[:, [j]], e2.values[:, [j]], kernel_config, perm_config)
    return UnfairFeatureSet(e1.feature_names, pvalues, threshold)


def detect_unfair_features(
    report: AuditReport, kernel_config: KernelConfig | None = None, threshold: float = DETECTION_THRESHOLD
) -> UnfairFeatureSet:
    """Flag the features whose explanation distributions differ between the
    groups, testing the audit's own two matched explanation sets with its
    permutations."""
    gpf = report.gpf
    return unfair_features_from_sets(
        gpf.explanations_1, gpf.explanations_2, gpf.plan.perm_config, kernel_config, threshold
    )


def explanation_loss(model, X, y, uf_indices) -> float:
    """For each flagged feature, the L1 norm of the per-row absolute input
    gradients of the BCE loss, divided by the row count; summed over the
    flagged features."""
    uf = list(uf_indices)
    if not uf:
        return 0.0
    grads = model.per_sample_input_gradient(_check_inputs(model, X), np.asarray(y, float))
    return float(np.abs(grads[:, uf]).sum() / grads.shape[0])


def _audited(before: AuditReport, ufs: UnfairFeatureSet):
    """The model and split ``before`` audited, once ``ufs`` is checked to
    cover that model's features."""
    model, names = before.model, before.gpf.plan.feature_names
    if ufs.names != names:
        raise ValueError(
            f"unfair features {ufs.feature_names} of {ufs.names} are not the audited model's features {names}"
        )
    return model, before.gpf.plan.split


def _run_modification(model, X, y, uf, config: ModifyConfig):
    traces = np.empty((2, config.tau))
    new_model = _adam_descent(
        model, model.modified_step(X, y, uf, config.alpha), traces, "modification step", config.learning_rate
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


def modify_model(before: AuditReport, ufs: UnfairFeatureSet, config: ModifyConfig | None = None) -> ModifyResult:
    """Run ``tau`` Adam steps on grad(bce + alpha * zeta) starting from the
    audited model's trained parameters, on its training split. ``before`` is
    that model's audit and ``ufs`` the features it flagged; the modified
    model is audited over the same plan."""
    config = config or ModifyConfig()
    model, split = _audited(before, ufs)
    X = split.train.columns(model.feature_indices, model.feature_names)
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
    before: AuditReport, ufs: UnfairFeatureSet, train_config: TrainConfig | None = None
) -> RetrainResult:
    """Drop the flagged columns from the audited model and retrain from
    scratch on its training split, with the same hyperparameters and a fresh
    (derived) seed. ``before`` is that model's audit and ``ufs`` the features
    it flagged; the retrained model is audited with the same settings."""
    train_config = train_config or TrainConfig()
    model, split = _audited(before, ufs)
    keep = [i for i in range(model.d) if i not in ufs.indices]
    if not keep:
        raise ValueError("every feature was flagged; nothing left to train on")
    kept_columns = tuple(model.feature_indices[i] for i in keep)

    fresh = dataclasses.replace(train_config, seed=derive_seed(train_config.seed, "retrain"))
    new_model, _ = model.refit(split.train, fresh, kept_columns)
    after = audit(new_model, split, before.config)
    return RetrainResult(
        model=new_model,
        removed_features=ufs.feature_names,
        report_before=before,
        report_after=after,
        accuracy_drop=before.accuracy - after.accuracy,
    )
