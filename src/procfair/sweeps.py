"""Parameter sweeps over the procedural-fairness score: sensitive-weight
grids for logistic models, pair-count grids, and pool-size grids. Each sweep
returns the raw per-seed score matrix so callers can aggregate as they need.

Every sweep takes its GPF settings from one ``AuditConfig`` and varies only
the seed (and, in ``sweep_pair_count``, the pair count) across its points.
Sweeps draw pairs from the test split (the pool sweep from its own
subsampled pools), so each rejects ``config.pool='full'``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .datasets import SplitDataset, concat_datasets, select_fair_features
from .fairness import AuditConfig, gpf_plan, gpf_run
from .models import TrainConfig, fit_logistic, set_sensitive_weight
from .seeding import derive_seed

__all__ = ["sweep_sensitive_weight", "sweep_pair_count", "sweep_pool_size"]


def _nonempty(name: str, values) -> list:
    values = list(values)
    if not values:
        raise ValueError(f"{name} is empty; a sweep needs at least one")
    return values


def _sweep_config(config: AuditConfig | None) -> AuditConfig:
    config = config or AuditConfig()
    if config.pool != "test":
        raise ValueError(f"sweeps draw their own pairs; config.pool is {config.pool!r}, not 'test'")
    return config


def sweep_sensitive_weight(
    split: SplitDataset,
    grid,
    seeds,
    train_config: TrainConfig | None = None,
    fair_threshold: float = 0.10,
    config: AuditConfig | None = None,
):
    """Train a logistic model on the fair features plus the sensitive column,
    then override the sensitive weight along ``grid`` and score each model.

    Every weight of one seed is scored over the same plan, in one
    ``gpf_run`` call: the same pairs (from the test split), background,
    coalitions, masked rows and permutations.

    Returns (feature_indices, matrix) where matrix[i, j] is the GPF score for
    seeds[i] and grid[j].
    """
    config = _sweep_config(config)
    grid = np.asarray(_nonempty("grid", grid), dtype=float)
    seeds = _nonempty("seeds", seeds)
    fair = select_fair_features(split.train, fair_threshold)
    feats = tuple(sorted(set(fair) | {split.train.sensitive_index}))
    base_model, _ = fit_logistic(split.train, train_config, feats)
    models = [set_sensitive_weight(base_model, float(w_s)) for w_s in grid]

    matrix = np.empty((len(seeds), grid.size))
    for i, seed in enumerate(seeds):
        plan = gpf_plan(split, feats, replace(config, seed=seed))
        matrix[i] = [result.p_value for result in gpf_run(models, plan)]
    return feats, matrix


def sweep_pair_count(
    model,
    split: SplitDataset,
    n_values,
    seeds,
    config: AuditConfig | None = None,
) -> np.ndarray:
    """GPF score of one model for several pair counts, drawn from the test
    split; matrix[i, j] is the score for seeds[i] and n_values[j]."""
    config = _sweep_config(config)
    feats = model.feature_indices
    seeds, n_values = _nonempty("seeds", seeds), _nonempty("n_values", n_values)
    matrix = np.empty((len(seeds), len(n_values)))
    for i, seed in enumerate(seeds):
        for j, n in enumerate(n_values):
            plan = gpf_plan(split, feats, replace(config, n_pairs=int(n), seed=seed))
            matrix[i, j] = gpf_run([model], plan)[0].p_value
    return matrix


def sweep_pool_size(
    model,
    split: SplitDataset,
    pool_sizes,
    seeds,
    config: AuditConfig | None = None,
):
    """GPF score and mean pair distance over nested, group-balanced pools
    subsampled from the whole dataset.

    Per seed, each group's rows are permuted once and every pool takes the
    first N/2 rows of each permutation, so pools are nested across sizes.
    A pool is scored as ``replace(split, test=pool)``, a "split" that is not
    disjoint: the pool shares rows with the training split (the background's).
    Returns (distance_matrix, gpf_matrix), both (len(seeds), len(pool_sizes)).
    """
    config = _sweep_config(config)
    full = concat_datasets(split.train, split.test)
    g1 = np.flatnonzero(full.advantaged_mask)
    g2 = np.flatnonzero(full.disadvantaged_mask)

    sizes = [int(s) for s in _nonempty("pool_sizes", pool_sizes)]
    for size in sizes:
        if size < 2 * config.n_pairs:
            raise ValueError(f"pool size {size} is below 2n = {2 * config.n_pairs}")
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
            plan = gpf_plan(replace(split, test=full.take(rows)), model.feature_indices, replace(config, seed=seed))
            (result,) = gpf_run([model], plan)
            distances[i, j] = plan.pairs.mean_distance
            scores[i, j] = result.p_value
    return distances, scores
