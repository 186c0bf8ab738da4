import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from procfair import sweeps
from procfair.datasets import SyntheticConfig, concat_datasets, generate_synthetic, standardized_split
from procfair.fairness import AuditConfig, gpf_plan, gpf_run
from procfair.models import TrainConfig, fit_logistic, set_sensitive_weight
from procfair.seeding import derive_seed
from procfair.sweeps import sweep_pair_count, sweep_pool_size, sweep_sensitive_weight

FAST = AuditConfig(n_pairs=20, background_size=20, n_permutations=100)
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def split():
    dataset = generate_synthetic(SyntheticConfig(m=800, n_advantaged=480, seed=0))
    return standardized_split(dataset, 0.8, 0)[0]


@pytest.fixture(scope="module")
def model(split):
    return fit_logistic(split.train, TrainConfig(epochs=30, seed=0))[0]


def test_sensitive_weight_sweep_accepts_generators(split):
    config = TrainConfig(epochs=30, seed=0)
    _, listed = sweep_sensitive_weight(split, [0.0, 3.0], [1, 2], config, config=FAST)
    _, generated = sweep_sensitive_weight(split, [0.0, 3.0], (s for s in [1, 2]), config, config=FAST)
    np.testing.assert_array_equal(generated, listed)


def test_pair_count_sweep_accepts_generators(split, model):
    listed = sweep_pair_count(model, split, [10, 20], [1, 2], FAST)
    generated = sweep_pair_count(model, split, (n for n in [10, 20]), (s for s in [1, 2]), FAST)
    np.testing.assert_array_equal(generated, listed)


def test_sensitive_weight_sweep_equals_a_fresh_plan_per_point(split):
    # at w_s = 0.05 the p-values lie between the 1 and 1/101 ends and differ between the seeds
    config, grid, seeds = TrainConfig(epochs=30, seed=0), [0.0, 0.05, 3.0], [1, 2]
    feats, matrix = sweep_sensitive_weight(split, grid, seeds, config, config=FAST)
    base, _ = fit_logistic(split.train, config, feats)
    plans = [gpf_plan(split, feats, replace(FAST, seed=seed)) for seed in seeds]
    expected = [[gpf_run([set_sensitive_weight(base, w)], plan)[0].p_value for w in grid] for plan in plans]
    np.testing.assert_array_equal(matrix, expected)


def test_pool_size_sweep_equals_a_plan_per_pool(split):
    # at w_s = 0.05 every pool's p-value lies between the 1 and 1/101 ends
    base, _ = fit_logistic(split.train, TrainConfig(epochs=30, seed=0), (0, 1, 2))
    model, sizes, seeds = set_sensitive_weight(base, 0.05), [200, 500], [1, 2]
    distances, scores = sweep_pool_size(model, split, sizes, seeds, FAST)
    full = concat_datasets(split.train, split.test)
    g1, g2 = np.flatnonzero(full.advantaged_mask), np.flatnonzero(full.disadvantaged_mask)
    for i, seed in enumerate(seeds):
        # nested group-balanced pools: the first size/2 rows of one permutation per group
        rng = np.random.default_rng(derive_seed(seed, "pool"))
        order1, order2 = rng.permutation(g1), rng.permutation(g2)
        for j, size in enumerate(sizes):
            rows = np.sort(np.concatenate([order1[: size // 2], order2[: size - size // 2]]))
            plan = gpf_plan(replace(split, test=full.take(rows)), model.feature_indices, replace(FAST, seed=seed))
            assert distances[i, j] == plan.pairs.mean_distance
            assert scores[i, j] == gpf_run([model], plan)[0].p_value
            assert plan.pairs.pool_size == size


def test_sweeps_reject_a_full_pool(split, model):
    # every sweep draws its pairs from the test split or its own pools
    full_pool, train_config = replace(FAST, pool="full"), TrainConfig(epochs=30, seed=0)
    calls = [
        lambda: sweep_sensitive_weight(split, [3.0], [1], train_config, config=full_pool),
        lambda: sweep_pair_count(model, split, [10], [1], full_pool),
        lambda: sweep_pool_size(model, split, [400], [1], full_pool),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="config.pool is 'full'"):
            call()


def test_empty_sweeps_raise(split, model):
    config = TrainConfig(epochs=30, seed=0)
    cases = [
        ("seeds", lambda: sweep_sensitive_weight(split, [0.0], [], config)),
        ("grid", lambda: sweep_sensitive_weight(split, np.linspace(0.0, 5.0, 0), [1], config)),
        ("seeds", lambda: sweep_pair_count(model, split, [10], [])),
        ("n_values", lambda: sweep_pair_count(model, split, [], [1])),
        ("seeds", lambda: sweep_pool_size(model, split, [400], [], FAST)),
        ("pool_sizes", lambda: sweep_pool_size(model, split, [], [1], FAST)),
    ]
    for name, call in cases:
        with pytest.raises(ValueError, match=f"{name} is empty"):
            call()


def test_pool_size_beyond_a_groups_share_fails(split, model):
    # the whole dataset has 480/320 rows; a 641-row pool needs 320/321
    with pytest.raises(ValueError, match="pool size 641 needs 320/321 rows"):
        sweep_pool_size(model, split, [641], [1], FAST)
    distances, scores = sweep_pool_size(model, split, [640], [1], FAST)
    assert distances.shape == scores.shape == (1, 1)


def _perfbench_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_sweep_matches_pairs_once_per_seed(split):
    tracing = _perfbench_tracing()
    for module_name, attr, *_ in tracing.PATCHES:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op("sweep"):
        sweeps.sweep_sensitive_weight(split, [0.0, 1.5, 3.0], [1, 2], TrainConfig(epochs=30, seed=0), config=FAST)
    metrics, _ = tracing.op_metrics(tracer, "sweep")
    # one gpf_run (two explain_set calls) per seed scores the whole grid
    assert metrics["sweeps.gpf_runs"] == 2
    assert metrics["two_sample.perm_tests"] == 6
    assert metrics["attribution.explain_calls"] == 4
    assert sum(s.name == "fairness.select_pairs" for s in tracer.op_spans("sweep")) == 2
