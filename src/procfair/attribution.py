"""Shapley-value feature attribution.

``explain_set`` explains every model family, one model at a time, through
the most specific form the model offers (Lundberg & Lee 2017 recommend
model-specific forms over generic masking). A model whose Shapley values have
a closed form gives them itself: a logistic model's score is linear, so
Linear SHAP (``LogisticModel.shapley_values``) is exact. Any other model
gives its value function (``MlpModel.masked_values``, which builds no masked
rows), and Kernel SHAP solves the Shapley-kernel-weighted least squares over
feature coalitions, with absent features replaced by background rows
(marginal expectation) and the efficiency constraint sum(values) = f(x) - base
enforced exactly through a KKT system. When the coalition budget covers all
2^d - 2 proper coalitions the result equals the exact Shapley values; the
test suite checks it against an independent enumeration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._formats import readonly, write_table

__all__ = [
    "ExplanationSet",
    "ShapConfig",
    "explain_set",
    "sample_background",
    "write_explanations_csv",
]

DEFAULT_COALITION_CAP = 2048


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
        object.__setattr__(self, "values", readonly(values))
        object.__setattr__(self, "base_values", readonly(base))
        object.__setattr__(self, "targets", readonly(targets))
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
        object.__setattr__(self, "background", readonly(background))

    def resolved_budget(self, d: int) -> int:
        budget = self.n_coalitions if self.n_coalitions is not None else min(2**d - 2, DEFAULT_COALITION_CAP)
        if budget < d:
            raise ValueError(f"n_coalitions={budget} is below the feature count {d}")
        return budget


def sample_background(X, size: int = 100, seed: int = 0) -> np.ndarray:
    """Seeded sample of rows (without replacement) to serve as background."""
    if size < 1:
        raise ValueError(f"background size must be at least 1, got {size}")
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


def _constrained_wls(Z, weights, budget: int):
    """Solver of the weighted least squares per row of V_centered with the
    per-row equality constraint sum(phi) = constraints[row]; the KKT
    matrix depends on the coalitions alone and is built, and checked for
    full rank, once for every ``solve(V_centered, constraints)``, which
    returns an (n, d) matrix. A sample whose coalitions leave the system
    singular does not determine the attributions, so it raises instead of
    returning a regularized guess."""
    Zf = Z.astype(float)
    d = Zf.shape[1]
    weighted_T = (Zf * weights[:, None]).T
    kkt = np.zeros((d + 1, d + 1))
    kkt[:d, :d] = Zf.T @ (weights[:, None] * Zf)
    kkt[:d, d] = 1.0
    kkt[d, :d] = 1.0
    if np.linalg.matrix_rank(kkt) <= d:
        raise ValueError(
            f"the attribution regression is singular for n_coalitions={budget} sampled coalitions "
            f"at d={d}; raise the coalition budget"
        )

    def solve(V_centered, constraints) -> np.ndarray:
        rhs = np.vstack([weighted_T @ V_centered.T, np.asarray(constraints, dtype=float)[None, :]])
        return np.linalg.solve(kkt, rhs)[:d].T

    return solve


def explain_set(model, X, config: ShapConfig, feature_names=None) -> ExplanationSet:
    """Shapley values of ``model``'s scores for every row of X, named
    ``feature_names`` (default f0, f1, ...); equal rows receive equal
    explanations.

    ``model`` gives its scores, ``scores(X)``, and either their exact
    Shapley values, ``shapley_values(X, background)``, taken first, or its
    value function, ``masked_values(X, background, Z)``: the (n, coalitions)
    mean score of each row with the features outside each coalition taken
    from every background row in turn, for Kernel SHAP over one coalition
    sample for all rows (at d = 1 the one feature gets f(x) - base). The
    coalition budget must cover d > 1 for every model; a sampled coalition
    set that leaves the regression singular raises a ValueError.

    Matched pairs reuse partners, so rows repeat. The value function is
    evaluated once per distinct row (bit for bit) and gathered back to every
    row: a row's values do not depend on the rows evaluated beside it. The
    targets ``scores(X)`` and the solve stay over all n rows, because a
    score's bits can depend on how many rows share its product.

    The audit explains the decision score (log-odds), the additive scale the
    thresholded prediction lives on; probability-space attributions would
    fold the sigmoid's saturation into every feature."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    background = config.background
    if background.shape[1] != d:
        raise ValueError("background dimensionality does not match the data")
    names = tuple(feature_names) if feature_names is not None else tuple(f"f{j}" for j in range(d))
    if len(names) != d:
        raise ValueError("feature_names length does not match d")
    budget = config.resolved_budget(d) if d > 1 else None

    target = np.asarray(model.scores(X), dtype=float).ravel()
    base = float(np.mean(model.scores(background)))
    if hasattr(model, "shapley_values"):
        values = model.shapley_values(X, background)
    elif d == 1:
        values = (target - base)[:, None]
    else:
        Z, weights = _coalitions(d, budget, np.random.default_rng(config.seed))
        solve = _constrained_wls(Z, weights, budget)
        rows = np.ascontiguousarray(X).view(np.dtype((np.void, X.itemsize * d))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        values = solve(model.masked_values(X[first], background, Z)[inverse] - base, target - base)
    return ExplanationSet(values, np.full(n, base), target, names)


# ---------------------------------------------------------------------------
# CSV interchange


def write_explanations_csv(explanations: ExplanationSet, path) -> None:
    columns = [*explanations.values.T, explanations.base_values, explanations.targets]
    write_table(path, list(explanations.feature_names) + ["base", "target"], columns)
