import json
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ScoreFunction, exact_shapley, mean_accuracy, mean_dp, mean_eo, mean_eod

from procfair import attribution, fairness
from procfair.attribution import ShapConfig, explain_set, sample_background
from procfair.datasets import (
    SplitDataset,
    SyntheticConfig,
    TabularDataset,
    generate_synthetic,
    load_csv,
    standardized_split,
    write_csv,
    write_schema,
)
from procfair.fairness import (
    _MATCH_CELLS,
    AuditConfig,
    audit,
    dp,
    gpf_plan,
    gpf_run,
    matched_explanations,
    prediction_metrics,
    select_pairs,
)
from procfair.models import (
    LogisticModel,
    TrainConfig,
    decision_score,
    fit_logistic,
    fit_mlp,
    init_mlp,
    predict_labels,
)
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


def stress_pool(values):
    """Features ``values`` (m x d) split into two alternating groups by an
    extra sensitive column, which the stress tests leave out of matching."""
    m, d = values.shape
    features = np.column_stack([values, np.arange(m) % 2])
    return TabularDataset(features, tuple(f"f{i}" for i in range(d + 1)), np.arange(m) % 2, d, (1.0, 0.0))


@pytest.mark.parametrize("d", [1, 4, 20])
def test_select_pairs_common_offset_cancellation(d):
    # |a|^2 + |c|^2 - 2 a.c cancels almost every digit: norms near d * 1e12,
    # squared distances near d
    rng = np.random.default_rng(d)
    ds = stress_pool(1e6 + rng.normal(size=(1500, d)))
    for seed in range(3):
        assert_matches_one_shot(ds, n=60, seed=seed, feature_indices=range(d))


@pytest.mark.parametrize("d", [1, 4, 20])
def test_select_pairs_subnormal_squares(d):
    # squares of 1e-160 fall among the subnormals, where products lose
    # relative precision
    rng = np.random.default_rng(d)
    ds = stress_pool(1e-160 * rng.normal(size=(1500, d)))
    for seed in range(3):
        assert_matches_one_shot(ds, n=60, seed=seed, feature_indices=range(d))


def test_select_pairs_underflow_ties_every_distance_at_zero():
    # every square underflows to 0, so every distance ties at 0 and each
    # anchor's partner is the lowest row of the other group
    ds = stress_pool(1e-170 * np.random.default_rng(0).normal(size=(1500, 4)))
    pairs = assert_matches_one_shot(ds, n=60, seed=0, feature_indices=range(4))
    assert (pairs.distances == 0.0).all()
    assert (pairs.group2_rows[:30] == 0).all()  # group 2 holds the even rows
    assert (pairs.group1_rows[30:] == 1).all()


def test_select_pairs_norms_that_overflow():
    # |a|^2 overflows while the differences stay finite: the matrix product
    # cannot be trusted, and the exact pass scores every candidate
    rng = np.random.default_rng(0)
    ds = stress_pool(1e154 + 1e150 * rng.normal(size=(600, 4)))
    assert_matches_one_shot(ds, n=40, seed=0, feature_indices=range(4))


def test_select_pairs_refuses_distances_that_overflow():
    # rows about 1e160 apart: every squared difference overflows, so every
    # candidate would tie at inf and the lowest row would be each partner
    ds = stress_pool(1e160 * np.random.default_rng(0).normal(size=(600, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an error, not a RuntimeWarning and inf distances
        with pytest.raises(ValueError, match="pair distance overflows"):
            select_pairs(ds, n=40, seed=0, feature_indices=range(4))


def test_select_pairs_guards_overflow_block_by_block(monkeypatch):
    # blocks of 40 candidates: the blocks holding a candidate whose |c|^2 is
    # near the largest float go to the exact pass whole, every other block is
    # screened, and the pairs are still the one-shot ones
    screened = []

    def counting_screen(D2, *args):
        screened.append(D2.shape[1])
        return screen(D2, *args)

    screen = fairness._screen
    monkeypatch.setattr(fairness, "_screen", counting_screen)
    monkeypatch.setattr(fairness, "_MATCH_CELLS", 20 * 40 * 4)
    values = np.random.default_rng(0).normal(size=(1200, 4))
    values[[100, 101, 802, 803], 0] = 1e154  # two blocks of each group
    ds = stress_pool(values)
    assert_matches_one_shot(ds, n=40, seed=0, feature_indices=range(4))
    assert len(screened) == 2 * (15 - 2)  # 600 candidates per side in blocks of 40


def test_select_pairs_exact_pass_rescores_a_few_candidates(monkeypatch):
    # a bound loose enough to send O(pool) candidates to the exact pass would
    # show here as many shortlisted cells per anchor and block
    counts = []

    def counting_screen(D2, *args):
        ai, cj = screen(D2, *args)
        counts.append(np.bincount(ai, minlength=D2.shape[0]))
        return ai, cj

    screen = fairness._screen
    monkeypatch.setattr(fairness, "_screen", counting_screen)
    ds = stress_pool(np.random.default_rng(0).normal(size=(100_000, 4)))
    assert_matches_one_shot(ds, n=100, seed=0, feature_indices=range(4))
    counts = np.stack(counts)
    assert len(counts) >= 2 * 20  # 50k candidates per side in blocks of 2500
    assert counts.max() <= 3
    assert counts.sum() <= counts.size  # at most one per anchor and block on average


class _CountedCells(np.ndarray):
    """A view that counts the cells its comparisons produce."""

    compared = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        result = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        if method == "__call__" and ufunc in (np.less, np.less_equal, np.greater, np.greater_equal):
            _CountedCells.compared += np.size(result)
        return result


def test_select_pairs_screen_compares_only_the_anchors_a_block_can_improve(monkeypatch):
    # each block's first anchor-wide pass takes the row minima; only the rows
    # whose minimum is at or below their threshold are compared cell by cell,
    # and after a side's first block that is a few rows per block
    cells = []

    def counting_screen(D2, *args):
        cells.append(D2.size)
        return screen(D2.view(_CountedCells), *args)

    screen = fairness._screen
    monkeypatch.setattr(fairness, "_screen", counting_screen)
    monkeypatch.setattr(_CountedCells, "compared", 0)
    ds = stress_pool(np.random.default_rng(0).normal(size=(100_000, 4)))
    assert_matches_one_shot(ds, n=100, seed=0, feature_indices=range(4))
    assert len(cells) == 2 * 20  # 50k candidates per side in blocks of 2500
    # comparing every row of every block again reads sum(cells)
    assert _CountedCells.compared < 0.25 * sum(cells)


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


@pytest.fixture(scope="module")
def split_200k():
    # the pool_200k benchmark's shape: a 200k-row pool, 8000 training rows
    dataset = generate_synthetic(SyntheticConfig(m=200_000, n_advantaged=120_000, seed=0))
    return standardized_split(dataset, 0.04)[0]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_pool_audit_copies_the_pool_once(split_200k):
    # the pool is the split's one buffer, and matching's block operands, the
    # groups' row indices and the metrics' temporaries read 0.55 times its
    # 6.1 MB of features; copying the pooled rows, or the model's columns of
    # them, adds at least 1.0 more
    model = init_mlp(4, 32, seed=0)
    config = AuditConfig(n_pairs=100, pool="full")
    audit(model, split_200k, config)
    pool_bytes = (split_200k.train.m + split_200k.test.m) * split_200k.test.d * 8
    assert _traced_peak(lambda: audit(model, split_200k, config)) < 3.5 * pool_bytes


def test_repeated_full_pool_audit_copies_no_row(split_200k):
    # the pool is the split's one buffer, so an audit adds only matching's
    # block operands and the checks' temporaries (0.55 times the pool's
    # features); a pooled copy of the rows adds at least 1.0 more
    model = init_mlp(4, 32, seed=0)
    config = AuditConfig(n_pairs=100, pool="full")
    audit(model, split_200k, config)
    pool_bytes = (split_200k.train.m + split_200k.test.m) * split_200k.test.d * 8
    for _ in range(2):
        assert _traced_peak(lambda: audit(model, split_200k, config)) < 2.25 * pool_bytes


def test_prediction_metrics_count_the_label_mask_without_a_copy(split_200k):
    # scoring's blocks and the boolean masks of the count table read 1.40
    # times the float64 scores (8 bytes a row); an int64 copy of the
    # predictions read 1.88
    model = init_mlp(4, 32, seed=0)
    test = split_200k.test
    expected = _mean_metrics(predict_labels(model, test.features), test.labels, test.advantaged_mask)
    assert prediction_metrics(model, test) == expected
    assert _traced_peak(lambda: prediction_metrics(model, test)) < 1.5 * 8 * test.m


def test_repeated_full_pool_audit_holds_no_pool_length_operand(split_200k):
    # matching gathers each block's candidates into one reused operand, and
    # the count table is read from boolean masks: 0.55 times the pool's
    # features. Each side's whole V^T, its gathered candidates and the int64
    # codes of the count table read 1.75
    model = init_mlp(4, 32, seed=0)
    config = AuditConfig(n_pairs=100, pool="full")
    audit(model, split_200k, config)
    pool_bytes = (split_200k.train.m + split_200k.test.m) * split_200k.test.d * 8
    for _ in range(2):
        assert _traced_peak(lambda: audit(model, split_200k, config)) < 0.75 * pool_bytes


def test_load_split_and_full_pool_audit_stay_within_a_multiple_of_the_parsed_features(tmp_path):
    # one trace over a 200k-row CSV's load, split and full-pool audit: the
    # loaded dataset, the split's buffer and the audit's temporaries read 3.05
    # times the 6.1 MB of parsed features, the loader's own peak 2.5. With
    # pool-length copies in generation, split and matching it read 4.25
    dataset = generate_synthetic(SyntheticConfig(m=200_000, n_advantaged=120_000, seed=0))
    write_csv(dataset, tmp_path / "d.csv")
    write_schema(dataset, tmp_path / "d.schema.json")
    model = init_mlp(4, 32, seed=0)
    config = AuditConfig(n_pairs=100, pool="full")

    def load_split_audit():
        loaded = load_csv(tmp_path / "d.csv", tmp_path / "d.schema.json")
        split, _ = standardized_split(loaded, 0.04)
        return audit(model, split, config)

    load_split_audit()
    assert _traced_peak(load_split_audit) < 3.5 * dataset.features.nbytes


def test_prediction_metrics_read_the_features_in_place(split_200k):
    # the model reads all columns in order, so its scores take the feature
    # matrix itself: the predictions and one count table stay below its size
    model = init_mlp(4, 32, seed=0)
    test = split_200k.test
    assert _traced_peak(lambda: prediction_metrics(model, test)) < test.features.nbytes


def test_prediction_metrics_refuse_a_model_on_renamed_columns(small_split, four_feature_models):
    # the same matrix with x1 and x2 named the other way round: the model
    # would read x2's values as x1
    test = small_split.test
    renamed = TabularDataset(test.features, ("x2", "x1", "xs", "xp"), test.labels, 2, test.group_values)
    with pytest.raises(ValueError, match=r"\('x1', 'x2', 'xs', 'xp'\) differ from the dataset's columns \('x2', 'x1'"):
        prediction_metrics(four_feature_models[0], renamed)


# ---------------------------------------------------------------------------
# distributive metrics


def eo(predictions, truths, group_mask) -> float:
    """Equal opportunity as ``prediction_metrics`` reads it from its table."""
    return fairness._eo(fairness._counts(predictions, truths, group_mask))


def eod(predictions, truths, group_mask) -> float:
    """Equalized odds as ``prediction_metrics`` reads it from its table."""
    return fairness._eod(fairness._counts(predictions, truths, group_mask))


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


def _outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _mean_metrics(predictions, truths, group_mask) -> dict:
    return {
        "accuracy": mean_accuracy(predictions, truths),
        "dp": mean_dp(predictions, group_mask),
        "eo": mean_eo(predictions, truths, group_mask),
        "eod": mean_eod(predictions, truths, group_mask),
    }


SHARES = st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0])


@given(
    st.integers(1, 60), SHARES, SHARES, SHARES, st.sampled_from([np.int64, np.float64, bool]), st.integers(0, 2**32 - 1)
)
@settings(max_examples=300, deadline=None)
def test_count_table_metrics_equal_the_mean_oracles(n, p_pred, p_true, p_group, dtype, seed):
    # shares of 0 and 1 empty whole cells, so every "empty conditioning
    # cell" message is reached; each metric must name the same first one
    rng = np.random.default_rng(seed)
    preds = (rng.random(n) < p_pred).astype(dtype)
    truths = (rng.random(n) < p_true).astype(dtype)
    mask = rng.random(n) < p_group
    assert _outcome(dp, preds, mask) == _outcome(mean_dp, preds, mask)
    assert _outcome(eo, preds, truths, mask) == _outcome(mean_eo, preds, truths, mask)
    assert _outcome(eod, preds, truths, mask) == _outcome(mean_eod, preds, truths, mask)


@given(
    st.integers(2, 80),
    SHARES,
    st.sampled_from([(0, 1, 2), (0, 2), (2, 0, 1), (1,)]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_prediction_metrics_equal_the_mean_oracles(m, p_true, feats, seed):
    # all columns in order are read in place, any other choice is copied
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(m, 3))
    features[:, 2] = np.arange(m) % 2
    labels = (rng.random(m) < p_true).astype(np.int64)
    pool = TabularDataset(features, ("a", "b", "s"), labels, 2, (1.0, 0.0))
    model = LogisticModel(rng.normal(size=len(feats)), rng.normal(), feats)
    predictions = predict_labels(model, features[:, feats])
    expected = _outcome(_mean_metrics, predictions, labels, pool.advantaged_mask)
    assert _outcome(prediction_metrics, model, pool) == expected


@pytest.mark.parametrize("dtype", [np.int64, np.float64, bool])
@pytest.mark.parametrize("seed", range(4))
def test_count_table_equals_the_bincount_of_row_codes(seed, dtype):
    # the table as it was counted before: one bincount of 4 g + 2 y + p
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5000))
    preds, truths = rng.integers(0, 2, n), rng.integers(0, 2, n)
    mask = rng.random(n) < rng.random()
    want = np.bincount(4 * mask + 2 * truths + preds, minlength=8).reshape(2, 2, 2)
    np.testing.assert_array_equal(fairness._counts(preds.astype(dtype), truths.astype(dtype), mask), want)


def test_rate_of_an_empty_cell_is_an_error_that_names_it():
    with pytest.raises(ValueError, match="empty conditioning cell: group 2, y=1"):
        fairness._rate(np.zeros(2, dtype=np.int64), "group 2, y=1")
    assert fairness._rate(np.array([3, 1]), "group 1") == 0.25


def test_metrics_reject_non_binary_values():
    mask = np.array([True, False])
    with pytest.raises(ValueError, match="predictions must all be 0 or 1"):
        dp([0.5, 1.0], mask)
    with pytest.raises(ValueError, match="truths must all be 0 or 1"):
        eo([0, 1], [2, 1], mask)
    with pytest.raises(ValueError, match="1-D and of equal length"):
        eod([0, 1, 1], [0, 1, 1], mask)


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
    assert not shared.rows_1.flags.writeable


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
        (8, 40, 100),  # 254 coalitions x 100 background rows: each MLP's value function runs 3-4 coalition blocks
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


@pytest.mark.parametrize("family", ["logistic", "mlp"])
def test_gpf_run_memory_does_not_grow_with_the_model_count(family):
    # MLPs: one model's value function at a time, whose coalition block (14
    # coalitions x 100 background rows x 8 hidden units, 90 KB) is freed before
    # the next model's; logistic models have a closed form. Either way each
    # further model adds only its small results
    pool, feats = _random_pool(4), (0, 1, 2, 3)
    config = AuditConfig(n_pairs=50, background_size=100, n_permutations=100, seed=1)
    plan = gpf_plan(SplitDataset(pool, pool), feats, config)
    rng = np.random.default_rng(0)
    if family == "logistic":
        models = [LogisticModel(rng.normal(size=4), 0.0, feature_indices=feats) for _ in range(20)]
    else:
        models = [init_mlp(4, 8, seed=i, feature_indices=feats) for i in range(20)]

    def peak(ms) -> int:
        tracemalloc.start()
        try:
            gpf_run(ms, plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(models) <= peak(models[:1]) + 2**20


@pytest.mark.parametrize("d", [4, 13])  # all 14 proper coalitions; 2048 sampled ones
def test_logistic_explanations_are_kernel_shap_in_closed_form(d):
    pool, feats = _random_pool(d), tuple(range(d))
    model = LogisticModel(np.random.default_rng(d).normal(size=d), -0.4, feature_indices=feats)
    config = AuditConfig(n_pairs=20, background_size=30, n_permutations=100, seed=4)
    plan = gpf_plan(SplitDataset(pool, pool), feats, config)
    (result,) = gpf_run([model], plan)
    score = partial(decision_score, model)
    for rows, got in ((plan.rows_1, result.explanations_1), (plan.rows_2, result.explanations_2)):
        want = explain_set(ScoreFunction(score), rows, plan.shap_config, plan.feature_names)
        scale = np.abs(want.values).max()
        assert np.abs(got.values - want.values).max() <= 1e-12 * scale
        assert got.base_values.tobytes() == want.base_values.tobytes()
        assert got.targets.tobytes() == want.targets.tobytes()
        local = got.values.sum(axis=1) - (got.targets - got.base_values)
        assert np.abs(local).max() <= 1e-12 * scale


def test_logistic_explanations_keep_the_coalition_budget_check():
    pool = _random_pool(4)
    feats = (0, 1, 2, 3)
    model = LogisticModel(np.ones(4), 0.0, feature_indices=feats)
    config = AuditConfig(n_pairs=10, background_size=10, n_coalitions=3, n_permutations=100)
    with pytest.raises(ValueError, match="n_coalitions=3 is below the feature count 4"):
        gpf_run([model], gpf_plan(SplitDataset(pool, pool), feats, config))
    # a single feature needs no coalitions, so no budget is checked
    pool = _random_pool(1)
    model = LogisticModel(np.array([2.0]), 0.5, feature_indices=(0,))
    (result,) = gpf_run([model], gpf_plan(SplitDataset(pool, pool), (0,), replace(config, n_coalitions=0)))
    for e in (result.explanations_1, result.explanations_2):
        np.testing.assert_allclose(e.values[:, 0], e.targets - e.base_values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [4, 13])  # all 14 proper coalitions; 2048 sampled ones
def test_logistic_models_run_no_kernel_shap(monkeypatch, d):
    def kernel_shap(*args):
        raise AssertionError("Kernel SHAP ran for a model with a closed form")

    monkeypatch.setattr(attribution, "_coalitions", kernel_shap)
    monkeypatch.setattr(attribution, "_constrained_wls", kernel_shap)
    pool, feats = _random_pool(d), tuple(range(d))
    rng = np.random.default_rng(d)
    models = [LogisticModel(rng.normal(size=d), 0.2 * i, feature_indices=feats) for i in range(3)]
    config = AuditConfig(n_pairs=20, background_size=30, n_permutations=100, seed=2)
    results = gpf_run(models, gpf_plan(SplitDataset(pool, pool), feats, config))
    assert len(results) == len(models)


@pytest.mark.parametrize("d", [1, 4, 13])  # at d = 1 the closed form still comes first
def test_explain_set_explains_a_logistic_model_as_gpf_run_does(d):
    pool, feats = _random_pool(d), tuple(range(d))
    model = LogisticModel(np.random.default_rng(d).normal(size=d), 0.7, feature_indices=feats)
    config = AuditConfig(n_pairs=20, background_size=30, n_permutations=100, seed=6)
    plan = gpf_plan(SplitDataset(pool, pool), feats, config)
    (result,) = gpf_run([model], plan)
    background = plan.shap_config.background
    for rows, want in ((plan.rows_1, result.explanations_1), (plan.rows_2, result.explanations_2)):
        got = explain_set(model, rows, plan.shap_config, plan.feature_names)
        assert got.feature_names == want.feature_names
        for attr in ("values", "base_values", "targets"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
        assert got.values.tobytes() == model.shapley_values(rows, background).tobytes()
        if d == 4:
            for x, phi in zip(rows, got.values):
                exact = exact_shapley(partial(decision_score, model), x, background)
                np.testing.assert_allclose(phi, exact.values[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("seed", -1), ("n_pairs", 100.0), ("background_size", "100"), ("n_coalitions", 14.0)],
)
def test_audit_config_refuses_a_malformed_field_by_name(field, value):
    # unchecked, a fractional or negative seed was accepted, and a float
    # pair count failed in rng.choice
    with pytest.raises(ValueError, match=f"AuditConfig.{field} must be"):
        AuditConfig(**{field: value})


def test_audit_config_keeps_numpy_ints_as_python_ints():
    config = AuditConfig(
        n_pairs=np.int64(40), n_coalitions=np.int32(14), n_permutations=np.int16(300), seed=np.uint8(5)
    )
    want = AuditConfig(n_pairs=40, n_coalitions=14, n_permutations=300, seed=5)
    assert config == want
    assert json.dumps(config.snapshot()) == json.dumps(want.snapshot())


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


def test_audit_rejects_a_plan_of_another_split(small_split):
    model, _ = fit_mlp(small_split.train, TrainConfig(epochs=50, seed=1), feature_indices=(0, 1))
    config = AuditConfig(n_pairs=20, background_size=30, n_permutations=150, seed=6)
    report = audit(model, small_split, plan=gpf_plan(small_split, (0, 1), config))
    assert report.model is model and report.gpf.plan.split is small_split
    other, _ = standardized_split(generate_synthetic(SyntheticConfig(m=4000, n_advantaged=2400, seed=1)), 0.8, 1)
    with pytest.raises(ValueError, match="another split"):
        audit(model, small_split, plan=gpf_plan(other, (0, 1), config))
    # the same rows split again are still another split object
    with pytest.raises(ValueError, match="another split"):
        audit(model, small_split, plan=gpf_plan(replace(small_split), (0, 1), config))


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
