import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import isotonic_decreasing, mmd2

from procfair import fairness, two_sample
from procfair.datasets import SyntheticConfig, generate_synthetic, standardized_split
from procfair.models import TrainConfig
from procfair.sweeps import sweep_sensitive_weight
from procfair.two_sample import (
    KernelConfig,
    PermutationConfig,
    _as_matrix,
    _gamma,
    _pooled_kernel,
    _resolve_bandwidth,
    _screen,
    _self_distances,
    _stats_for_memberships,
    _tie_margin,
    pca_project,
    permutation_memberships,
    permutation_pvalue,
)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_self_similarity_is_one():
    A = np.array([[1.0, 2.0], [3.0, -1.0]])
    K, _ = _pooled_kernel(A, A, KernelConfig())
    np.testing.assert_allclose(np.diag(K[:2, 2:]), 1.0)


def test_exponential_kernel_analytic():
    A = np.array([[0.0]])
    B = np.array([[1.0]])
    K, _ = _pooled_kernel(A, B, KernelConfig(bandwidth=1.0))
    assert K[0, 1] == pytest.approx(math.exp(-1.0))


def test_gaussian_kernel_analytic():
    A = np.array([[0.0]])
    B = np.array([[2.0]])
    K, _ = _pooled_kernel(A, B, KernelConfig("gaussian", bandwidth=1.0))
    assert K[0, 1] == pytest.approx(math.exp(-2.0))


def test_kernel_symmetry():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 3))
    K, _ = _pooled_kernel(A, A, KernelConfig())
    K1 = K[:6, 6:]
    np.testing.assert_allclose(K1, K1.T, atol=1e-12)


def test_kernel_median_heuristic_fallback():
    A = np.ones((3, 2))
    with pytest.warns(UserWarning, match="bandwidth"):
        K, _ = _pooled_kernel(A, A, KernelConfig())
    np.testing.assert_allclose(K[:3, 3:], 1.0)


def _resampled(n_rows):
    # rows drawn with replacement from 40: duplicates, some at distance 0
    return np.random.default_rng(3).normal(size=(40, 2))[np.random.default_rng(4).integers(0, 40, n_rows)]


@pytest.mark.parametrize(
    "rows, nonzero",
    [
        (np.arange(3.0)[:, None], 3),
        (np.arange(4.0)[:, None], 6),
        (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0], [3.0, 1.0]]), 5),
        (np.array([[0.0], [0.0], [1.0], [1.0], [5.0], [5.0]]), 12),
        (np.random.default_rng(0).normal(size=(50, 3)), 1225),
        (_resampled(61), 1788),
        (_resampled(60), 1729),
    ],
)
def test_median_bandwidth_by_selection_equals_np_median(rows, nonzero):
    # odd and even counts of nonzero distances, with and without duplicate rows
    D = _self_distances(rows)
    offdiag = D[np.triu_indices(D.shape[0], 1)]
    assert int(np.sum(offdiag > 0)) == nonzero
    assert _resolve_bandwidth(D, KernelConfig()) == float(np.median(offdiag[offdiag > 0]))


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig("triangular")
    with pytest.raises(ValueError):
        KernelConfig(bandwidth=0.0)
    # an infinite bandwidth makes every kernel entry 1 and every sample "fair"
    with pytest.raises(ValueError, match="finite"):
        KernelConfig("exponential", math.inf)
    # 2 sigma^2 underflowing to 0 puts 0/0 on the gaussian kernel's diagonal
    with pytest.raises(ValueError, match="underflows"):
        KernelConfig("gaussian", 1e-300)
    assert KernelConfig("exponential", 1e-300).bandwidth == 1e-300
    # 2 sigma^2 overflowing to inf makes every gaussian entry 1
    for bandwidth in (1e200, 1e154):
        message = f"gaussian bandwidth {bandwidth} is too large: 2 sigma^2 overflows"
        with pytest.raises(ValueError, match=re.escape(message)):
            KernelConfig("gaussian", bandwidth)
    assert KernelConfig("gaussian", 1e150).bandwidth == 1e150
    assert KernelConfig("exponential", 1e300).bandwidth == 1e300
    with pytest.raises(ValueError):
        PermutationConfig(n_permutations=50)
    # the permutation count and seed are integers, the seed non-negative;
    # both are kept as Python ints, so equal configs hash alike
    for fields in ((200.0, 0), (200, 0.0), (200, 1.5), ("200", 0), (None, 0), (200, -1)):
        with pytest.raises(ValueError):
            PermutationConfig(*fields)
    config = PermutationConfig(np.int64(200), np.uint64(2**63 + 5))
    assert type(config.n_permutations) is int and type(config.seed) is int
    assert config == PermutationConfig(200, 2**63 + 5) and hash(config) == hash(PermutationConfig(200, 2**63 + 5))


@pytest.mark.parametrize("kind, bandwidth", [("exponential", 1e300), ("gaussian", 1e150)])
def test_a_bandwidth_that_rounds_every_kernel_entry_to_one_is_refused(kind, bandwidth):
    # two samples 3 sigma apart would read p = 1.0 ("fair"): every statistic is 0
    rng = np.random.default_rng(0)
    E1, E2 = rng.normal(size=(20, 2)), rng.normal(3.0, 1.0, size=(20, 2))
    message = f"{kind} kernel bandwidth {bandwidth} rounds every kernel entry"
    with pytest.raises(ValueError, match=re.escape(message)):
        permutation_pvalue(E1, E2, KernelConfig(kind, bandwidth), PermutationConfig(100))
    assert permutation_pvalue(E1, E2, KernelConfig(kind), PermutationConfig(100)) == 1 / 101


@pytest.mark.parametrize(
    "config",
    [KernelConfig(), KernelConfig("gaussian"), KernelConfig("exponential", 1e300), KernelConfig("gaussian", 1e150)],
)
def test_identical_samples_still_read_p_one(config):
    # every distance is 0, so a kernel of ones is the right kernel; the median
    # heuristic falls back to bandwidth 1.0 with a warning. Random rows too:
    # the Gram-matrix distances of equal rows can read about 1e-7, not 0
    rows = [np.array([[0.5, -2.0, 0.0]])] + [np.random.default_rng(seed).normal(size=(1, 3)) for seed in range(50)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for row in rows:
            E = np.tile(row, (20, 1))
            assert permutation_pvalue(E, E, config, PermutationConfig(100)) == 1.0


# ---------------------------------------------------------------------------
# mmd2


@pytest.mark.parametrize("kind", ["exponential", "gaussian"])
def test_membership_statistics_match_the_textbook_estimator(kind):
    # a = 7, b = 12 rows: the quadratic forms against mmd2 on the rows each
    # membership column assigns to either sample, for the observed split too
    rng = np.random.default_rng(3)
    E1, E2 = rng.normal(size=(7, 3)), rng.normal(0.5, 1.5, size=(12, 3))
    config = KernelConfig(kind)
    pooled = np.vstack([E1, E2])
    K, _ = _pooled_kernel(E1, E2, config)
    observed = np.zeros((19, 1))
    observed[:7, 0] = 1.0
    Z = np.hstack([observed, permutation_memberships(19, 7, PermutationConfig(100, seed=5))[:, :4]])
    stats = _stats_for_memberships(K, K.sum(axis=1), Z, 7, 12)
    for p in range(Z.shape[1]):
        first = Z[:, p] == 1.0
        assert stats[p] == pytest.approx(mmd2(pooled[first], pooled[~first], config), abs=1e-12)
    assert stats[0] == pytest.approx(mmd2(E1, E2, config), abs=1e-12)


def test_mmd2_identical_sets_is_zero():
    rng = np.random.default_rng(1)
    E = rng.normal(size=(20, 3))
    assert mmd2(E, E) == pytest.approx(0.0, abs=1e-12)


def test_mmd2_separated_point_masses():
    E1 = np.zeros((10, 2))
    E2 = np.full((10, 2), 100.0)
    value = mmd2(E1, E2, KernelConfig(bandwidth=0.1))
    assert value == pytest.approx(2.0, abs=1e-6)


def test_mmd2_symmetric_in_arguments():
    rng = np.random.default_rng(2)
    A, B = rng.normal(size=(12, 2)), rng.normal(size=(15, 2))
    assert mmd2(A, B) == pytest.approx(mmd2(B, A), abs=1e-12)


def test_mmd2_invariant_to_row_order():
    rng = np.random.default_rng(3)
    A, B = rng.normal(size=(10, 2)), rng.normal(size=(10, 2))
    pa, pb = rng.permutation(10), rng.permutation(10)
    assert mmd2(A[pa], B[pb]) == pytest.approx(mmd2(A, B), abs=1e-12)


def test_mmd2_detects_mean_shift():
    # sampling oracle: N(0,1) vs N(3,1) must exceed the permutation null
    rng = np.random.default_rng(4)
    E1 = rng.normal(0.0, 1.0, size=(100, 1))
    E2 = rng.normal(3.0, 1.0, size=(100, 1))
    assert permutation_pvalue(E1, E2) <= 0.05


def test_mmd2_needs_two_rows():
    with pytest.raises(ValueError):
        mmd2(np.ones((1, 2)), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# permutation test


def test_pvalue_minimum_for_separated_sets():
    E1 = np.zeros((15, 1))
    E2 = np.full((15, 1), 50.0)
    config = PermutationConfig(n_permutations=500, seed=0)
    assert permutation_pvalue(E1, E2, perm_config=config) == pytest.approx(1 / 501)


def test_pvalue_near_one_for_identical_sets():
    rng = np.random.default_rng(5)
    E = rng.normal(size=(30, 2))
    assert permutation_pvalue(E, E) >= 0.95


def test_pvalue_high_for_row_permutation():
    rng = np.random.default_rng(6)
    E = rng.normal(size=(40, 3))
    p = permutation_pvalue(E, E[rng.permutation(40)])
    assert p >= 0.5


def test_pvalue_deterministic():
    rng = np.random.default_rng(7)
    E1, E2 = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
    config = PermutationConfig(seed=42)
    assert permutation_pvalue(E1, E2, perm_config=config) == permutation_pvalue(
        E1, E2, perm_config=config
    )


def test_pvalue_bounds():
    rng = np.random.default_rng(8)
    for trial in range(5):
        E1 = rng.normal(size=(12, 2))
        E2 = rng.normal(trial * 0.5, 1.0, size=(12, 2))
        p = permutation_pvalue(E1, E2, perm_config=PermutationConfig(200, seed=trial))
        assert 1 / 201 <= p <= 1.0


def test_pvalue_stable_under_common_reordering_decisive_cases():
    # exact p-invariance under pool reordering is impossible with a finite
    # permutation sample; on decisive inputs the verdict side is pinned
    rng = np.random.default_rng(9)
    E1 = rng.normal(size=(25, 2))
    far = E1 + 100.0
    assert permutation_pvalue(E1, far) == permutation_pvalue(E1[::-1], far[::-1])
    near = E1.copy()
    assert permutation_pvalue(E1, near) >= 0.95
    assert permutation_pvalue(E1[::-1], near[::-1]) >= 0.95


def test_null_calibration_smoke():
    # same-distribution trials: rejection fraction near the nominal level
    rng = np.random.default_rng(10)
    hits = 0
    trials = 60
    for t in range(trials):
        E1 = rng.normal(size=(40, 2))
        E2 = rng.normal(size=(40, 2))
        p = permutation_pvalue(E1, E2, perm_config=PermutationConfig(200, seed=t))
        hits += p <= 0.05
    assert hits / trials <= 0.15


def _reference_memberships(n, a, perm_config):
    # the per-column loop permutation_pvalue ran before the matrix had a function of its own
    rng = np.random.default_rng(perm_config.seed)
    Z = np.zeros((n, perm_config.n_permutations))
    for p in range(perm_config.n_permutations):
        Z[rng.permutation(n)[:a], p] = 1.0
    return Z


@pytest.mark.parametrize(
    "n, a, seed", [(200, 100, 0), (61, 20, 7), (3, 1, 2**63 + 5), (40, 1, 1), (40, 39, 2), (2, 1, 3)]
)
def test_memberships_equal_the_per_column_loop(n, a, seed):
    for P in (100, 300, 1000):
        config = PermutationConfig(P, seed)
        Z = permutation_memberships(n, a, config)
        assert Z.dtype == np.float64 and Z.flags.c_contiguous and not Z.flags.writeable
        assert Z.tobytes() == _reference_memberships(n, a, config).tobytes()


def test_the_memo_entry_holds_the_matrix_in_float32_beside_float64(monkeypatch):
    # the test's screen reads the float32 matrix from the memo instead of
    # casting the float64 one at every test
    two_sample._draw_memberships.cache_clear()
    config = PermutationConfig(300, 4)
    Z, Z32 = (permutation_memberships(30, 12, config, dtype) for dtype in (np.float64, np.float32))
    assert Z32.dtype == np.float32 and Z32.flags.c_contiguous and not Z32.flags.writeable
    assert np.array_equal(Z32, Z)
    with pytest.raises(ValueError, match="float64 or float32"):
        permutation_memberships(30, 12, config, np.float16)
    screened = []
    screen = two_sample._screen

    def recorded(K, row_sums, Z, Z32, a, b):
        screened.append(Z32)
        return screen(K, row_sums, Z, Z32, a, b)

    monkeypatch.setattr(two_sample, "_screen", recorded)
    rng = np.random.default_rng(4)
    for _ in range(2):
        permutation_pvalue(rng.normal(size=(12, 3)), rng.normal(size=(18, 3)), None, config)
    assert screened[0] is screened[1] is Z32
    assert two_sample._draw_memberships.cache_info().misses == 1


def _observed_column(a, b):
    z = np.zeros((a + b, 1))
    z[:a, 0] = 1.0
    return z


def _exact_with_ties(E1, E2, kernel_config, Z):
    # the p-value rule scored wholly in float64: a column counts when its
    # statistic is at least the observed one less the tie margin
    E1, E2 = _as_matrix(E1), _as_matrix(E2)
    a, b = E1.shape[0], E2.shape[0]
    K, _ = _pooled_kernel(E1, E2, kernel_config or KernelConfig())
    observed = _stats_for_memberships(K, K.sum(axis=1), _observed_column(a, b), a, b)[0]
    exact = _stats_for_memberships(K, K.sum(axis=1), Z, a, b)
    return (1 + int(np.sum(exact >= observed - _tie_margin(a, b)))) / (1 + Z.shape[1])


def test_pvalue_counts_the_splits_that_tie_with_the_observed_one(monkeypatch):
    # 6 vs 6: the observed split, its mirror (the same MMD in exact arithmetic)
    # and a permutation listing the observed rows in another order (the same
    # column) all count, wherever rounding puts them
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        E1, E2 = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
        K, _ = _pooled_kernel(E1, E2, KernelConfig())
        observed_split = _observed_column(6, 6)[:, 0]
        reordered = np.zeros(12)
        reordered[np.r_[rng.permutation(6), 6 + rng.permutation(6)][:6]] = 1.0
        others = permutation_memberships(12, 6, PermutationConfig(100, seed))[:, :97]
        ties = np.column_stack([observed_split, 1.0 - observed_split, reordered])
        Z = np.insert(others, np.sort(rng.integers(0, 98, 3)), ties, axis=1)
        assert Z.shape == (12, 100)
        observed = _stats_for_memberships(K, K.sum(axis=1), observed_split[:, None], 6, 6)[0]
        other_stats = _stats_for_memberships(K, K.sum(axis=1), others, 6, 6)
        if np.any(np.abs(other_stats - observed) < 1e-9):
            continue
        checked += 1
        expected = (1 + 3 + int(np.sum(other_stats >= observed))) / 101
        monkeypatch.setattr(two_sample, "permutation_memberships", lambda *_, Z=Z: Z)
        assert permutation_pvalue(E1, E2, None, PermutationConfig(100, seed)) == expected
    assert checked >= 15


def _screen_cases():
    rng = np.random.default_rng(21)
    base = rng.normal(size=(30, 3))
    return [
        ("exponential", None, rng.normal(size=(30, 3)), rng.normal(0.3, 1.0, size=(40, 3))),
        ("gaussian", None, rng.normal(size=(35, 2)), rng.normal(size=(25, 2))),
        ("exponential", 0.5, rng.normal(size=(20, 4)), rng.normal(0.2, 1.0, size=(20, 4))),
        ("gaussian", 2.0, rng.normal(size=(20, 4)), rng.normal(size=(30, 4))),
        ("exponential", None, rng.normal(size=50), rng.normal(0.1, 1.0, size=60)),
        ("gaussian", None, rng.normal(size=17), rng.normal(size=17)),
        ("exponential", None, base, base[rng.integers(0, 30, 30)]),
        ("gaussian", None, base[rng.integers(0, 30, 25)], base[rng.integers(0, 30, 35)]),
        ("exponential", None, np.full((10, 3), 0.7), np.full((12, 3), 0.7)),
        ("gaussian", 1.0, np.full((15, 2), -2.0), np.full((15, 2), -2.0)),
        ("exponential", None, np.zeros((8, 2)), np.zeros((9, 2))),
    ]


@pytest.mark.parametrize("kind, bandwidth, E1, E2", _screen_cases())
def test_screened_statistics_lie_within_the_bound_and_the_pvalue_follows_the_rule(kind, bandwidth, E1, E2):
    kernel = KernelConfig(kind, bandwidth)
    a, b = _as_matrix(E1).shape[0], _as_matrix(E2).shape[0]
    n = a + b
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the all-zero sets fall back to bandwidth 1.0
        K, _ = _pooled_kernel(_as_matrix(E1), _as_matrix(E2), kernel)
        for seed in range(3):
            config = PermutationConfig(300, seed)
            Z = permutation_memberships(n, a, config)
            fast, bound = _screen(K, K.sum(axis=1), Z, permutation_memberships(n, a, config, np.float32), a, b)
            exact = _stats_for_memberships(K, K.sum(axis=1), Z, a, b)
            assert np.all(np.abs(fast - exact) <= bound + _tie_margin(a, b))
            # at least the proven worst-case float32 error, c = (1+u)(1+gamma_n)^2 - 1
            c = (1 + 2.0**-24) * (1 + _gamma(n, 2.0**-24)) ** 2 - 1
            s11 = np.einsum("ip,ip->p", Z, K @ Z)
            assert np.all(bound >= c * s11 * (1 / a + 1 / b) ** 2 * (1 - 1e-12))
            assert permutation_pvalue(E1, E2, kernel, config) == _exact_with_ties(E1, E2, kernel, Z)


def test_sweep_pvalues_follow_the_rule(monkeypatch):
    # every test of a 2-seed x 50-weight sweep at the default GPF settings;
    # weights up to 0.3 take the p-values from 1 down to the 1/1001 floor
    split = standardized_split(generate_synthetic(SyntheticConfig(seed=0)), 0.8, 0)[0]
    original = fairness.permutation_pvalue
    matches = []

    def checked(E1, E2, kernel_config, perm_config):
        p = original(E1, E2, kernel_config, perm_config)
        Z = permutation_memberships(len(E1) + len(E2), len(E1), perm_config)
        matches.append(p == _exact_with_ties(E1, E2, kernel_config, Z))
        return p

    monkeypatch.setattr(fairness, "permutation_pvalue", checked)
    _, matrix = sweep_sensitive_weight(split, np.linspace(0.0, 0.3, 50), [1, 2], TrainConfig())
    assert len(matches) == 100 and all(matches)
    assert matrix.max() == 1.0 and matrix.min() == 1 / 1001 and len(np.unique(matrix)) > 40


def test_memberships_need_two_nonempty_samples():
    for a in (0, 10):
        with pytest.raises(ValueError):
            permutation_memberships(10, a, PermutationConfig())


# ---------------------------------------------------------------------------
# PCA


def test_pca_line_captures_all_variance():
    t = np.linspace(-2, 2, 30)
    X = np.column_stack([t, 2 * t])
    result = pca_project(X, k=1)
    assert result.explained_variance_ratio[0] == pytest.approx(1.0)


def test_pca_isometry_on_planar_data():
    rng = np.random.default_rng(11)
    plane = rng.normal(size=(40, 2))
    basis, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    X = plane @ basis.T  # 2-D data embedded in 5-D
    result = pca_project(X, k=2)
    d_high = np.linalg.norm(X[:, None] - X[None, :], axis=2)
    d_low = np.linalg.norm(result.projected[:, None] - result.projected[None, :], axis=2)
    np.testing.assert_allclose(d_low, d_high, atol=1e-9)


def test_pca_variance_ratios_sum_below_one():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(50, 5))
    result = pca_project(X, k=2)
    assert 0.0 < result.explained_variance_ratio.sum() <= 1.0


def test_pca_components_orthonormal():
    rng = np.random.default_rng(13)
    result = pca_project(rng.normal(size=(30, 4)), k=3)
    np.testing.assert_allclose(result.components @ result.components.T, np.eye(3), atol=1e-9)


def test_pca_sign_convention():
    rng = np.random.default_rng(14)
    result = pca_project(rng.normal(size=(25, 3)), k=2)
    for row in result.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_inverse_round_trip():
    rng = np.random.default_rng(15)
    plane = rng.normal(size=(20, 2))
    basis, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    X = plane @ basis.T + 3.0
    result = pca_project(X, k=2)
    np.testing.assert_allclose(result.inverse(result.projected), X, atol=1e-9)


def test_pca_k_too_large():
    with pytest.raises(ValueError):
        pca_project(np.ones((5, 2)), k=3)


# ---------------------------------------------------------------------------
# isotonic projection


def test_isotonic_hand_case():
    np.testing.assert_allclose(isotonic_decreasing([1.0, 3.0, 2.0]), [2.0, 2.0, 2.0])


def test_isotonic_identity_on_decreasing():
    y = [5.0, 4.0, 2.5, 1.0]
    np.testing.assert_allclose(isotonic_decreasing(y), y)


@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_isotonic_output_non_increasing(values):
    out = isotonic_decreasing(values)
    assert len(out) == len(values)
    assert (np.diff(out) <= 1e-12).all()


@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=10))
@settings(max_examples=50, deadline=None)
def test_isotonic_is_least_squares_projection(values):
    out = isotonic_decreasing(values)
    # nudging any adjacent pooled block must not reduce the squared error
    base = float(np.sum((out - np.asarray(values)) ** 2))
    for eps in (1e-3, -1e-3):
        for i in range(len(out)):
            candidate = out.copy()
            candidate[: i + 1] += eps
            if (np.diff(candidate) <= 1e-12).all():
                assert np.sum((candidate - np.asarray(values)) ** 2) >= base - 1e-9
