"""Shapley-value feature attribution.

``explain_set`` solves the Shapley-kernel-weighted least squares over feature
coalitions, with absent features replaced by background rows (marginal
expectation) and the efficiency constraint sum(values) = f(x) - base enforced
exactly through a KKT system. When the coalition budget covers all 2^d - 2
proper coalitions the result equals the exact Shapley values; the test suite
checks it against an independent enumeration oracle.

The audit pipeline sends only models without a closed form here: a logistic
model's Shapley values are exact in closed form (``LogisticModel.shapley_values``),
and ``explanation_inputs`` holds the checks both routes apply.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExplanationSet",
    "ShapConfig",
    "explain_set",
    "explanation_inputs",
    "sample_background",
    "write_explanations_csv",
]

DEFAULT_COALITION_CAP = 2048
# Regularization of the attribution regression, applied only when the
# unregularized system is singular.
RIDGE = 1e-6


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ExplanationSet:
    """Attribution matrix for a batch of explained instances."""

    values: np.ndarray
    base_values: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("values must be a non-empty (n, d) matrix")
        base = np.asarray(self.base_values, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if base.shape != (values.shape[0],) or targets.shape != (values.shape[0],):
            raise ValueError("base_values/targets must have one entry per row")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != values.shape[1]:
            raise ValueError("feature_names length does not match d")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "base_values", _readonly(base))
        object.__setattr__(self, "targets", _readonly(targets))
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ShapConfig:
    """Kernel SHAP settings.

    ``n_coalitions=None`` resolves to min(2^d - 2, 2048) at explanation time.
    The empty and full coalitions are handled by the base value and the
    efficiency constraint rather than as regression rows.
    """

    background: np.ndarray
    n_coalitions: int | None = None
    seed: int = 0

    def __post_init__(self):
        background = np.atleast_2d(np.asarray(self.background, dtype=float))
        if background.shape[0] < 1:
            raise ValueError("background needs at least one row")
        if not np.isfinite(background).all():
            raise ValueError("background contains non-finite values")
        object.__setattr__(self, "background", _readonly(background))

    def resolved_budget(self, d: int) -> int:
        budget = self.n_coalitions if self.n_coalitions is not None else min(2**d - 2, DEFAULT_COALITION_CAP)
        if budget < d:
            raise ValueError(f"n_coalitions={budget} is below the feature count {d}")
        return budget


def sample_background(X, size: int = 100, seed: int = 0) -> np.ndarray:
    """Seeded sample of rows (without replacement) to serve as background."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    k = min(size, X.shape[0])
    rng = np.random.default_rng(seed)
    return X[rng.choice(X.shape[0], size=k, replace=False)]


def _shapley_kernel_weight(d: int, s: int) -> float:
    return (d - 1) / (math.comb(d, s) * s * (d - s))


def _all_proper_coalitions(d: int) -> tuple[np.ndarray, np.ndarray]:
    codes = np.arange(1, 2**d - 1, dtype=np.int64)
    Z = ((codes[:, None] >> np.arange(d)) & 1).astype(bool)
    sizes = Z.sum(axis=1)
    weights = np.array([_shapley_kernel_weight(d, int(s)) for s in sizes])
    return Z, weights


def _sampled_coalitions(d: int, budget: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # Sizes drawn from the Shapley-kernel distribution; each draw is paired
    # with its complement (same kernel weight), so rows get uniform weights.
    sizes = np.arange(1, d)
    probs = (d - 1) / (sizes * (d - sizes))
    probs = probs / probs.sum()
    n_pairs = (budget + 1) // 2  # an odd budget rounds up, never down to too few rows
    Z = np.zeros((2 * n_pairs, d), dtype=bool)
    drawn = rng.choice(sizes, size=n_pairs, p=probs)
    for i, s in enumerate(drawn):
        members = rng.choice(d, size=int(s), replace=False)
        Z[2 * i, members] = True
        Z[2 * i + 1] = ~Z[2 * i]
    return Z, np.ones(len(Z))


def _coalitions(d: int, budget: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if 2**d - 2 <= budget:
        return _all_proper_coalitions(d)
    return _sampled_coalitions(d, budget, rng)


def _masked_values(predict_fns, X: np.ndarray, background: np.ndarray, Z: np.ndarray) -> list[np.ndarray]:
    """Mean output of each function per (row, coalition): present features
    come from the row, absent ones from each background row, averaged.

    Each chunk of masked rows is built once, read-only, and evaluated by
    every function in turn; each function's predictions are reduced to its
    block before the next function runs."""
    n, d = X.shape
    n_c = Z.shape[0]
    k = background.shape[0]
    outs = [np.empty((n, n_c)) for _ in predict_fns]
    rows_per_chunk = max(1, 500_000 // (n_c * k))
    for start in range(0, n, rows_per_chunk):
        chunk = X[start : start + rows_per_chunk]
        masked = np.where(Z[None, :, None, :], chunk[:, None, None, :], background[None, None, :, :])
        masked = masked.reshape(-1, d)
        masked.setflags(write=False)
        for predict_fn, out in zip(predict_fns, outs):
            preds = np.asarray(predict_fn(masked), dtype=float).reshape(len(chunk), n_c, k)
            out[start : start + len(chunk)] = preds.mean(axis=2)
            del preds  # one function's predictions at a time
    return outs


def _constrained_wls(Z, weights):
    """Solver of the weighted least squares per row of V_centered with the
    per-row equality constraint sum(phi) = constraints[row]; the KKT
    matrices depend on the coalitions alone and are built once for every
    ``solve(V_centered, constraints)``, which returns an (n, d) matrix."""
    Zf = Z.astype(float)
    d = Zf.shape[1]
    A = Zf.T @ (weights[:, None] * Zf)
    weighted_T = (Zf * weights[:, None]).T
    kkts = []
    for reg in (0.0, RIDGE):
        kkt = np.zeros((d + 1, d + 1))
        kkt[:d, :d] = A + reg * np.eye(d) if reg else A
        kkt[:d, d] = 1.0
        kkt[d, :d] = 1.0
        kkts.append(kkt)

    def solve(V_centered, constraints) -> np.ndarray:
        B = weighted_T @ V_centered.T  # (d, n)
        rhs = np.vstack([B, np.asarray(constraints, dtype=float)[None, :]])
        # the ridge system is tried only when the unregularized one is singular
        for kkt in kkts:
            try:
                phi = np.linalg.solve(kkt, rhs)[:d].T
            except np.linalg.LinAlgError:
                continue
            if np.isfinite(phi).all():
                return phi
        raise np.linalg.LinAlgError("singular attribution regression system (even with ridge)")

    return solve


def explanation_inputs(X, config: ShapConfig, feature_names=None) -> tuple[np.ndarray, tuple[str, ...]]:
    """X as an (n, d) float matrix and its feature names (default f0, f1, ...),
    checked as every explanation of X under ``config`` needs them: the
    background's width and the names' count must be d and, when d > 1, the
    coalition budget must cover d."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    if config.background.shape[1] != d:
        raise ValueError("background dimensionality does not match the data")
    names = tuple(feature_names) if feature_names is not None else tuple(f"f{j}" for j in range(d))
    if len(names) != d:
        raise ValueError("feature_names length does not match d")
    if d > 1:
        config.resolved_budget(d)
    return X, names


def explain_set(predict_fns, X, config: ShapConfig, feature_names=None) -> list[ExplanationSet]:
    """Kernel SHAP for every row of X under each of ``predict_fns``, with a
    shared background and a shared coalition sample, so equal rows receive
    equal explanations; returns one ExplanationSet per function, in order.

    The coalitions, the KKT matrices and each chunk of masked rows are built
    once per call and shared by all functions; each function's result is the
    one a call with that function alone returns."""
    predict_fns = list(predict_fns)
    if not predict_fns:
        raise ValueError("explain_set needs at least one function")
    X, names = explanation_inputs(X, config, feature_names)
    n, d = X.shape
    background = config.background

    targets = [np.asarray(fn(X), dtype=float).ravel() for fn in predict_fns]
    bases = [float(np.mean(fn(background))) for fn in predict_fns]
    if d == 1:
        return [ExplanationSet((t - b)[:, None], np.full(n, b), t, names) for t, b in zip(targets, bases)]

    rng = np.random.default_rng(config.seed)
    Z, weights = _coalitions(d, config.resolved_budget(d), rng)
    solve = _constrained_wls(Z, weights)
    masked_values = _masked_values(predict_fns, X, background, Z)
    return [
        ExplanationSet(solve(V - b, t - b), np.full(n, b), t, names)
        for V, t, b in zip(masked_values, targets, bases)
    ]


# ---------------------------------------------------------------------------
# CSV interchange


def write_explanations_csv(explanations: ExplanationSet, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(explanations.feature_names) + ["base", "target"])
        for i in range(explanations.n):
            row = [repr(float(v)) for v in explanations.values[i]]
            row.append(repr(float(explanations.base_values[i])))
            row.append(repr(float(explanations.targets[i])))
            writer.writerow(row)
