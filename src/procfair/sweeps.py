"""Parameter sweeps over the procedural-fairness score: sensitive-weight
grids for logistic models, pair-count grids, and pool-size grids. Each sweep
returns the raw per-seed score matrix so callers can aggregate as they need.
"""

from __future__ import annotations

import numpy as np

from .datasets import SplitDataset, concat_datasets, select_fair_features
from .fairness import gpf_plan, gpf_run
from .models import TrainConfig, fit_logistic, set_sensitive_weight
from .seeding import derive_seed
from .two_sample import KernelConfig

__all__ = ["sweep_sensitive_weight", "sweep_pair_count", "sweep_pool_size"]


def _nonempty(name: str, values) -> list:
    values = list(values)
    if not values:
        raise ValueError(f"{name} is empty; a sweep needs at least one")
    return values


def sweep_sensitive_weight(
    split: SplitDataset,
    grid,
    seeds,
    train_config: TrainConfig | None = None,
    fair_threshold: float = 0.10,
    n: int = 100,
    background_size: int = 100,
    n_coalitions: int | None = None,
    kernel: KernelConfig | None = None,
    n_permutations: int = 1000,
):
    """Train a logistic model on the fair features plus the sensitive column,
    then override the sensitive weight along ``grid`` and score each model.

    Every weight of one seed is scored over the same plan: the same pairs,
    background, coalitions and permutations.

    Returns (feature_indices, matrix) where matrix[i, j] is the GPF score for
    seeds[i] and grid[j].
    """
    grid = np.asarray(_nonempty("grid", grid), dtype=float)
    seeds = _nonempty("seeds", seeds)
    fair = select_fair_features(split.train, fair_threshold)
    feats = tuple(sorted(set(fair) | {split.train.sensitive_index}))
    base_model, _ = fit_logistic(split.train, train_config, feats)
    background_source = split.train.features[:, feats]

    matrix = np.empty((len(seeds), grid.size))
    for i, seed in enumerate(seeds):
        plan = gpf_plan(
            split.test, background_source, feats, seed, n, background_size, n_coalitions, n_permutations
        )
        for j, w_s in enumerate(grid):
            model = set_sensitive_weight(base_model, float(w_s))
            matrix[i, j] = gpf_run(model, plan, kernel).p_value
    return feats, matrix


def sweep_pair_count(
    model,
    split: SplitDataset,
    n_values,
    seeds,
    background_size: int = 100,
    n_coalitions: int | None = None,
    kernel: KernelConfig | None = None,
    n_permutations: int = 1000,
) -> np.ndarray:
    """GPF score of one model for several pair counts; matrix[i, j] is the
    score for seeds[i] and n_values[j]."""
    feats = model.feature_indices
    background_source = split.train.features[:, feats]
    seeds, n_values = _nonempty("seeds", seeds), _nonempty("n_values", n_values)
    matrix = np.empty((len(seeds), len(n_values)))
    for i, seed in enumerate(seeds):
        for j, n in enumerate(n_values):
            plan = gpf_plan(
                split.test, background_source, feats, seed, int(n), background_size, n_coalitions,
                n_permutations,
            )
            matrix[i, j] = gpf_run(model, plan, kernel).p_value
    return matrix


def sweep_pool_size(
    model,
    split: SplitDataset,
    pool_sizes,
    seeds,
    n: int = 100,
    background_size: int = 100,
    n_coalitions: int | None = None,
    kernel: KernelConfig | None = None,
    n_permutations: int = 1000,
):
    """GPF score and mean pair distance over nested, group-balanced pools
    subsampled from the whole dataset.

    Per seed, each group's rows are permuted once and every pool takes the
    first N/2 rows of each permutation, so pools are nested across sizes.
    Returns (distance_matrix, gpf_matrix), both (len(seeds), len(pool_sizes)).
    """
    full = concat_datasets(split.train, split.test)
    g1 = np.flatnonzero(full.advantaged_mask)
    g2 = np.flatnonzero(full.disadvantaged_mask)
    feats = model.feature_indices
    background_source = split.train.features[:, feats]

    sizes = [int(s) for s in _nonempty("pool_sizes", pool_sizes)]
    for size in sizes:
        if size < 2 * n:
            raise ValueError(f"pool size {size} is below 2n = {2 * n}")
        if size // 2 > g1.size or size - size // 2 > g2.size:
            raise ValueError(
                f"pool size {size} needs {size // 2}/{size - size // 2} rows from groups "
                f"of sizes {g1.size}/{g2.size}"
            )

    seeds = _nonempty("seeds", seeds)
    distances = np.empty((len(seeds), len(sizes)))
    scores = np.empty((len(seeds), len(sizes)))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(derive_seed(seed, "pool"))
        order1 = rng.permutation(g1)
        order2 = rng.permutation(g2)
        for j, size in enumerate(sizes):
            half = size // 2
            rows = np.sort(np.concatenate([order1[:half], order2[: size - half]]))
            pool = full.take(rows)
            plan = gpf_plan(
                pool, background_source, feats, seed, n, background_size, n_coalitions, n_permutations
            )
            result = gpf_run(model, plan, kernel)
            distances[i, j] = result.pairs.mean_distance
            scores[i, j] = result.p_value
    return distances, scores
