import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procfair.attribution import ShapConfig, sample_background
from procfair.datasets import (
    SplitDataset,
    SyntheticConfig,
    TabularDataset,
    generate_synthetic,
    standardized_split,
)
from procfair.fairness import (
    _MATCH_CELLS,
    AuditConfig,
    audit,
    dp,
    eo,
    eod,
    gpf_plan,
    gpf_run,
    matched_explanations,
    select_pairs,
)
from procfair.models import LogisticModel, TrainConfig, fit_logistic, fit_mlp, init_mlp
from procfair.seeding import derive_seed
from procfair.two_sample import PermutationConfig, permutation_pvalue


@pytest.fixture(scope="module")
def small_split():
    dataset = generate_synthetic(SyntheticConfig(m=2000, n_advantaged=1200, seed=0))
    split, _ = standardized_split(dataset, 0.8, 0)
    return split


def pool_dataset(m=40, seed=0, d=3):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(m, d))
    features[:, d - 1] = (np.arange(m) % 2).astype(float)
    labels = rng.integers(0, 2, size=m)
    labels[:2] = [0, 1]
    return TabularDataset(features, tuple(f"f{i}" for i in range(d - 1)) + ("s",), labels, d - 1, (1.0, 0.0))


# ---------------------------------------------------------------------------
# pair selection


def test_select_pairs_counts_and_groups():
    pool = pool_dataset(m=60)
    pairs = select_pairs(pool, n=10, seed=0)
    assert pairs.n == 10
    s = pool.features[:, pool.sensitive_index]
    assert (s[pairs.group1_rows] == 1.0).all()
    assert (s[pairs.group2_rows] == 0.0).all()
    assert pairs.pool_size == 60


def test_select_pairs_nearest_neighbor_brute_force():
    pool = pool_dataset(m=80, seed=3)
    pairs = select_pairs(pool, n=20, seed=5)
    F = pool.features
    g1 = np.flatnonzero(pool.advantaged_mask)
    g2 = np.flatnonzero(pool.disadvantaged_mask)
    half = 10
    for k in range(pairs.n):
        a, b = pairs.group1_rows[k], pairs.group2_rows[k]
        dist = np.linalg.norm(F[a] - F[b])
        assert dist == pytest.approx(pairs.distances[k])
        # the partner side attains the minimum over all candidates
        if k < half:  # anchor in group 1, partner searched in group 2
            best = min(np.linalg.norm(F[a] - F[c]) for c in g2)
        else:
            best = min(np.linalg.norm(F[b] - F[c]) for c in g1)
        assert dist == pytest.approx(best)


def test_select_pairs_hand_checkable():
    features = np.array(
        [
            [0.0, 1.0],
            [10.0, 1.0],
            [0.1, 0.0],
            [9.0, 0.0],
        ]
    )
    ds = TabularDataset(features, ("x", "s"), [0, 1, 0, 1], 1, (1.0, 0.0))
    pairs = select_pairs(ds, n=2, seed=0)
    # each anchor's nearest cross-group row is forced by the geometry
    for a, b in zip(pairs.group1_rows, pairs.group2_rows):
        assert (a, b) in {(0, 2), (1, 3)}


def test_select_pairs_sensitive_gap_only():
    # both groups identical except the sensitive column
    base = np.random.default_rng(1).normal(size=(10, 2))
    features = np.vstack([np.column_stack([base, np.ones(10)]), np.column_stack([base, np.zeros(10)])])
    labels = np.array([0, 1] * 10)
    ds = TabularDataset(features, ("a", "b", "s"), labels, 2, (1.0, 0.0))
    pairs = select_pairs(ds, n=8, seed=2)
    np.testing.assert_allclose(pairs.distances, 1.0)


def test_select_pairs_partner_reuse_allowed():
    # one group-2 row sits in the group-1 cluster, the other far away
    features = np.array(
        [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [1.5, 0.0], [100.0, 0.0]]
    )
    ds = TabularDataset(features, ("x", "s"), [0, 1, 0, 1, 1, 0], 1, (1.0, 0.0))
    pairs = select_pairs(ds, n=4, seed=0)
    partners = pairs.group2_rows[:2]  # first phase: anchors from group 1
    assert set(partners) == {4}


def test_select_pairs_feature_subset_changes_distances():
    pool = pool_dataset(m=40, seed=7)
    full = select_pairs(pool, n=10, seed=1)
    subset = select_pairs(pool, n=10, seed=1, feature_indices=(0, 1))
    assert not np.allclose(full.distances, subset.distances)


def test_select_pairs_deterministic():
    pool = pool_dataset(m=50, seed=9)
    a = select_pairs(pool, n=12, seed=4)
    b = select_pairs(pool, n=12, seed=4)
    assert np.array_equal(a.group1_rows, b.group1_rows)
    assert np.array_equal(a.group2_rows, b.group2_rows)


def test_select_pairs_insufficient_group():
    pool = pool_dataset(m=10)
    with pytest.raises(ValueError, match="anchors"):
        select_pairs(pool, n=40, seed=0)
    with pytest.raises(ValueError, match="pairs"):
        select_pairs(pool, n=1, seed=0)
    with pytest.raises(ValueError, match="feature"):
        select_pairs(pool, n=4, seed=0, feature_indices=())


@pytest.mark.parametrize(
    "feats, error",
    [((-1,), ValueError), ((0, -3), ValueError), ((3,), ValueError), ((0, 5), ValueError),
     ((0.9,), TypeError), ((1.0,), TypeError)],
)
def test_feature_indices_outside_the_pool_fail(feats, error):
    # numpy would wrap -1 to the last column and fail on 3 with an IndexError;
    # a float index is refused rather than truncated to a column
    pool = pool_dataset(m=40)
    config = AuditConfig(n_pairs=10, background_size=10, n_permutations=100)
    with pytest.raises(error):
        select_pairs(pool, n=10, seed=0, feature_indices=feats)
    with pytest.raises(error):
        gpf_plan(SplitDataset(pool, pool), feats, config)


def one_shot_pairs(pool, n, seed, feature_indices=None):
    """The oracle: score every anchor x candidate cell of one difference
    tensor at once, as select_pairs did before it matched in blocks."""
    feats = tuple(feature_indices) if feature_indices is not None else tuple(range(pool.d))
    F = pool.features[:, feats]
    g1_rows = np.flatnonzero(pool.advantaged_mask)
    g2_rows = np.flatnonzero(pool.disadvantaged_mask)
    rng = np.random.default_rng(seed)

    def match(anchor_rows, candidate_rows):
        diffs = F[anchor_rows][:, None, :] - F[candidate_rows][None, :, :]
        dmat = np.sqrt(np.sum(diffs * diffs, axis=2))
        best = dmat.argmin(axis=1)
        return candidate_rows[best], dmat[np.arange(len(anchor_rows)), best]

    anchors1 = rng.choice(g1_rows, size=n // 2, replace=False)
    partners2, dist1 = match(anchors1, g2_rows)
    anchors2 = rng.choice(g2_rows, size=n - n // 2, replace=False)
    partners1, dist2 = match(anchors2, g1_rows)
    return (
        np.concatenate([anchors1, partners1]),
        np.concatenate([partners2, anchors2]),
        np.concatenate([dist1, dist2]),
    )


def assert_matches_one_shot(pool, n, seed, feature_indices=None):
    pairs = select_pairs(pool, n, seed, feature_indices)
    g1, g2, dist = one_shot_pairs(pool, n, seed, feature_indices)
    np.testing.assert_array_equal(pairs.group1_rows, g1)
    np.testing.assert_array_equal(pairs.group2_rows, g2)
    assert pairs.distances.tobytes() == dist.tobytes()
    return pairs


@pytest.mark.parametrize("d", [2, 4, 8, 20])
def test_select_pairs_bit_identical_to_one_shot(d):
    for seed in range(3):
        pool = pool_dataset(m=1500, seed=seed, d=d)
        # mixed column scales make the rounding of each sum differ more
        scales = np.random.default_rng(seed).choice([1e-3, 1.0, 1e3], size=d)
        pool = TabularDataset(pool.features * scales, pool.feature_names, pool.labels,
                              pool.sensitive_index, (scales[-1], 0.0))
        assert_matches_one_shot(pool, n=60, seed=seed)


@pytest.mark.parametrize("d", [2, 4, 8, 20])
def test_select_pairs_integer_grid_ties(d):
    # few distinct values: many duplicate rows and exactly tied distances
    rng = np.random.default_rng(d)
    features = rng.integers(0, 3, size=(2000, d)).astype(float)
    features[:, d - 1] = np.arange(2000) % 2
    ds = TabularDataset(features, tuple(f"f{i}" for i in range(d)), np.arange(2000) % 2, d - 1, (1.0, 0.0))
    for seed in range(3):
        assert_matches_one_shot(ds, n=80, seed=seed)


@pytest.mark.parametrize("d", [8, 20])
def test_select_pairs_rounding_near_ties(d):
    # every candidate's squared differences are a permutation of the same d
    # values, so the true distances tie and only rounding separates them
    rng = np.random.default_rng(d)
    v = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3, size=d)
    m = 1000
    candidates = np.stack([rng.permutation(v) for _ in range(m)])
    features = np.column_stack([np.vstack([np.zeros((m, d)), candidates]), np.r_[np.ones(m), np.zeros(m)]])
    ds = TabularDataset(features, tuple(f"f{i}" for i in range(d + 1)), np.arange(2 * m) % 2, d, (1.0, 0.0))
    assert_matches_one_shot(ds, n=100, seed=0, feature_indices=range(d))


def test_select_pairs_blocks_keep_lowest_index_tie():
    n = 100
    d = 3
    block = _MATCH_CELLS // ((n // 2) * d)
    m = 3 * block
    rng = np.random.default_rng(0)
    group1 = np.column_stack([rng.normal(scale=0.01, size=(m, 2)), np.ones(m)])
    group2 = np.column_stack([rng.uniform(5.0, 10.0, size=(m, 2)), np.zeros(m)])
    first, later = block // 2, 2 * block + 7  # the winner and its duplicate, two blocks apart
    group2[first, :2] = group2[later, :2] = 0.0
    ds = TabularDataset(np.vstack([group1, group2]), ("a", "b", "s"), np.arange(2 * m) % 2, 2, (1.0, 0.0))
    pairs = assert_matches_one_shot(ds, n=n, seed=0)
    assert (pairs.group2_rows[: n // 2] == m + first).all()


def test_select_pairs_memory_bounded():
    # the one-shot tensor needs about 480 MB here (50 anchors x 150k x 4, twice)
    rng = np.random.default_rng(0)
    m = 300_000
    features = np.column_stack([rng.normal(size=(m, 3)), np.arange(m) % 2])
    ds = TabularDataset(features, ("a", "b", "c", "s"), np.arange(m) % 2, 3, (1.0, 0.0))
    tracemalloc.start()
    try:
        select_pairs(ds, n=100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# distributive metrics


def test_metrics_hand_case():
    # group A: preds 1,1,0,0 truths 1,0,1,0; group B: preds 1,0,0,0 truths 1,0,1,0
    preds = np.array([1, 1, 0, 0, 1, 0, 0, 0])
    truths = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    mask = np.array([True] * 4 + [False] * 4)
    assert dp(preds, mask) == pytest.approx(0.25)
    assert eo(preds, truths, mask) == pytest.approx(0.0)
    assert eod(preds, truths, mask) == pytest.approx(0.25)


def test_metrics_zero_for_identical_groups():
    preds = np.array([1, 0, 1, 0])
    truths = np.array([1, 0, 1, 0])
    mask = np.array([True, True, False, False])
    assert dp(preds, mask) == 0.0
    assert eo(preds, truths, mask) == 0.0
    assert eod(preds, truths, mask) == 0.0


def test_metrics_group_swap_invariant():
    rng = np.random.default_rng(3)
    preds = rng.integers(0, 2, 40)
    truths = rng.integers(0, 2, 40)
    mask = rng.random(40) < 0.5
    if not (0 < mask.sum() < 40):
        mask[:2] = [True, False]
    for metric in (lambda p, t, m: dp(p, m), eo, eod):
        assert metric(preds, truths, mask) == pytest.approx(metric(preds, truths, ~mask))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_dp_row_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, 2, 30)
    mask = np.zeros(30, dtype=bool)
    mask[: rng.integers(1, 29)] = True
    perm = rng.permutation(30)
    assert dp(preds, mask) == pytest.approx(dp(preds[perm], mask[perm]))


def test_eo_empty_cell_named():
    preds = np.array([1, 0, 1, 0])
    truths = np.array([0, 0, 1, 1])  # group 1 has no positives
    mask = np.array([True, True, False, False])
    with pytest.raises(ValueError, match="group 1, y=1"):
        eo(preds, truths, mask)


def test_eod_empty_cell_named():
    preds = np.array([1, 0, 1, 0])
    truths = np.array([1, 1, 0, 1])
    mask = np.array([True, True, False, False])
    with pytest.raises(ValueError, match="y=0"):
        eod(preds, truths, mask)


# ---------------------------------------------------------------------------
# gpf + audit integration (reduced scale)


def test_gpf_fair_model_high_pvalue(small_split):
    model, _ = fit_mlp(small_split.train, TrainConfig(epochs=150, seed=0), feature_indices=(0, 1))
    config = AuditConfig(n_pairs=40, background_size=50, n_permutations=300, seed=0)
    (result,) = gpf_run([model], gpf_plan(small_split, (0, 1), config))
    assert result.p_value >= 0.9
    assert result.explanations_1.n == 40
    assert result.explanations_2.d == 2
    assert result.plan.pairs.mean_distance > 0


def test_gpf_unfair_model_low_pvalue(small_split):
    model, _ = fit_mlp(small_split.train, TrainConfig(epochs=150, seed=0))
    config = AuditConfig(n_pairs=40, background_size=50, n_permutations=300, seed=0)
    plan = gpf_plan(small_split, model.feature_indices, config)
    assert gpf_run([model], plan)[0].p_value <= 0.05


@pytest.fixture(scope="module")
def four_feature_models(small_split):
    mlp, _ = fit_mlp(small_split.train, TrainConfig(epochs=60, seed=0))
    other_mlp, _ = fit_mlp(small_split.train, TrainConfig(epochs=60, seed=1))
    logistic, _ = fit_logistic(small_split.train, TrainConfig(epochs=60, seed=0))
    return mlp, other_mlp, logistic


def test_one_plan_scores_every_model_as_a_fresh_plan_would(small_split, four_feature_models):
    source, feats, seed = small_split.train.features, (0, 1, 2, 3), 9
    config = AuditConfig(n_pairs=30, background_size=30, n_permutations=200, seed=seed)
    shared = gpf_plan(small_split, feats, config)
    # without a plan: the documented sub-seed tags, every step rebuilt per model
    shap_config = ShapConfig(sample_background(source, 30, derive_seed(seed, "background")),
                             seed=derive_seed(seed, "shap"))
    perm_config = PermutationConfig(200, derive_seed(seed, "permutation"))

    def outputs(p_value, pairs, e1, e2, perm_config):
        return p_value, pairs.group2_rows.tobytes(), e1.values.tobytes(), e2.values.tobytes(), perm_config

    for model in four_feature_models:
        pairs, e1, e2 = matched_explanations(
            model, small_split.test, shap_config, 30, derive_seed(seed, "pairs")
        )
        direct = outputs(permutation_pvalue(e1.values, e2.values, None, perm_config), pairs, e1, e2, perm_config)
        (reused,) = gpf_run([model], shared)
        (fresh,) = gpf_run([model], gpf_plan(small_split, feats, config))
        for result in (reused, fresh):
            got = outputs(result.p_value, result.plan.pairs, result.explanations_1, result.explanations_2,
                          result.plan.perm_config)
            assert got == direct
    assert not (shared.rows_1.flags.writeable or shared.memberships.flags.writeable)


def test_gpf_run_rejects_a_model_on_other_columns(small_split, four_feature_models):
    config = AuditConfig(n_pairs=10, background_size=10, n_permutations=100)
    plan = gpf_plan(small_split, (0, 1), config)
    swapped = LogisticModel(np.array([1.0, -1.0]), 0.0, feature_indices=(1, 0))
    fitting = LogisticModel(np.array([1.0, -1.0]), 0.0, feature_indices=(0, 1))
    # on the plan's columns, but named after other ones
    renamed = LogisticModel(np.array([1.0, -1.0]), 0.0, feature_indices=(0, 1), feature_names=["m0", "m1"])
    both_names = r"\('m0', 'm1'\).*\('x1', 'x2'\)"
    cases = [(four_feature_models[0], "feature indices"), (swapped, "feature indices"), (renamed, both_names)]
    for model, message in cases:
        for models in ([model], [fitting, model]):
            with pytest.raises(ValueError, match=message):
                gpf_run(models, plan)
    with pytest.raises(ValueError, match=both_names):
        matched_explanations(renamed, small_split.test, plan.shap_config, 10)
    with pytest.raises(ValueError, match="at least one model"):
        gpf_run([], plan)


def _random_pool(d: int, m: int = 400) -> TabularDataset:
    """d standard-normal columns plus a 0/1 sensitive column at index d."""
    rng = np.random.default_rng(d)
    features = np.column_stack([rng.normal(size=(m, d)), np.arange(m) % 2])
    names = tuple(f"x{j}" for j in range(d)) + ("s",)
    return TabularDataset(features, names, np.arange(m) % 2, d, (1.0, 0.0))


@pytest.mark.parametrize(
    "d, n_pairs, background_size",
    [
        (4, 30, 30),
        (8, 40, 100),  # 40 rows x 254 coalitions x 100 background rows: each side masked in 3 chunks
        (1, 20, 20),  # the d=1 shortcut, no coalitions
    ],
)
def test_models_scored_together_equal_each_scored_alone(d, n_pairs, background_size):
    pool, feats = _random_pool(d), tuple(range(d))
    config = AuditConfig(n_pairs=n_pairs, background_size=background_size, n_permutations=100, seed=3)
    plan = gpf_plan(SplitDataset(pool, pool), feats, config)
    rng = np.random.default_rng(5)
    models = [
        LogisticModel(rng.normal(size=d), 0.3, feature_indices=feats),
        init_mlp(d, 8, seed=1, feature_indices=feats),
        init_mlp(d, 6, seed=2, feature_indices=feats),
    ]
    together = gpf_run(models, plan)
    assert len(together) == len(models)
    for model, batched in zip(models, together):
        (alone,) = gpf_run([model], plan)
        assert batched.p_value == alone.p_value
        for side in ("explanations_1", "explanations_2"):
            got, want = getattr(batched, side), getattr(alone, side)
            assert got.feature_names == want.feature_names == plan.feature_names
            for attr in ("values", "base_values", "targets"):
                np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))


def test_gpf_run_memory_does_not_grow_with_the_model_count():
    # one masked chunk (50 x 14 x 100 rows, 2.2 MB) and one model's 0.56 MB of
    # predictions at a time; each further model adds only its small results
    pool, feats = _random_pool(4), (0, 1, 2, 3)
    config = AuditConfig(n_pairs=50, background_size=100, n_permutations=100, seed=1)
    plan = gpf_plan(SplitDataset(pool, pool), feats, config)
    rng = np.random.default_rng(0)
    models = [LogisticModel(rng.normal(size=4), 0.0, feature_indices=feats) for _ in range(20)]

    def peak(ms) -> int:
        tracemalloc.start()
        try:
            gpf_run(ms, plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(models) <= peak(models[:1]) + 2**20


def test_audit_report_contents(small_split):
    model, _ = fit_mlp(small_split.train, TrainConfig(epochs=150, seed=0))
    config = AuditConfig(n_pairs=30, background_size=40, n_permutations=200, seed=5)
    report = audit(model, small_split, config)
    assert 0 < report.gpf_fae <= 1
    assert report.procedural_verdict == ("unfair" if report.gpf_fae <= 0.05 else "fair")
    for name in ("dp", "eo", "eod"):
        value = getattr(report, name)
        assert 0 <= value <= 1
        assert report.distributive_verdicts[name] == ("fair" if value < 0.10 else "unfair")
    assert report.n_pairs == 30
    assert report.pool_size == small_split.test.m
    assert report.config is config


def test_audit_report_round_trip(small_split):
    model, _ = fit_mlp(small_split.train, TrainConfig(epochs=100, seed=1), feature_indices=(0, 1))
    config = AuditConfig(n_pairs=20, background_size=30, n_permutations=150, seed=6)
    doc = audit(model, small_split, config).to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["config"] == config.snapshot()


def test_audit_full_pool(small_split):
    model, _ = fit_mlp(small_split.train, TrainConfig(epochs=100, seed=0), feature_indices=(0, 1))
    report = audit(model, small_split, AuditConfig(n_pairs=20, background_size=30,
                                                   n_permutations=150, pool="full", seed=7))
    assert report.pool_size == small_split.train.m + small_split.test.m


def test_audit_over_a_given_plan(small_split):
    model, _ = fit_mlp(small_split.train, TrainConfig(epochs=100, seed=1), feature_indices=(0, 1))
    config = AuditConfig(n_pairs=20, background_size=30, n_permutations=150, seed=6)
    plan = gpf_plan(small_split, (0, 1), config)
    report = audit(model, small_split, plan=plan)
    assert report.gpf.plan is plan and report.config is plan.config
    assert audit(model, small_split, config, plan).to_dict() == audit(model, small_split, config).to_dict()
    with pytest.raises(ValueError, match="differs from the plan's"):
        audit(model, small_split, replace(config, seed=7), plan)
    with pytest.raises(ValueError, match="feature indices"):
        audit(model, small_split, config, gpf_plan(small_split, (0, 2), config))


def test_mean_pair_distance_shrinks_with_pool_size():
    # averaged over seeds, nearest neighbors get closer as the pool grows
    dataset = generate_synthetic(SyntheticConfig(m=3000, n_advantaged=1800, seed=1))
    split, _ = standardized_split(dataset, 0.8, 1)
    sizes = (300, 900, 2400)
    means = []
    for size in sizes:
        per_seed = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            rows = np.sort(rng.permutation(split.train.m)[:size])
            pool = split.train.take(rows)
            pairs = select_pairs(pool, n=30, seed=seed)
            per_seed.append(pairs.mean_distance)
        means.append(np.mean(per_seed))
    assert means[0] > means[1] > means[2]
