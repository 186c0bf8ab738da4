import tracemalloc
from functools import partial

import numpy as np
import pytest
from oracles import ScoreFunction, exact_shapley, predict_proba, read_explanations_csv

from procfair.attribution import (
    ExplanationSet,
    ShapConfig,
    _coalitions,
    _constrained_wls,
    explain_set,
    sample_background,
    write_explanations_csv,
)
from procfair.datasets import SyntheticConfig, generate_synthetic, standardized_split
from procfair.fairness import AuditConfig, gpf_plan
from procfair.models import MlpModel, TrainConfig, decision_score, fit_mlp, init_mlp


def linear_fn(w, b=0.0):
    w = np.asarray(w, dtype=float)
    return lambda X: np.atleast_2d(X) @ w + b


def mlp_fn(model):
    return lambda X: predict_proba(model, X)


# ---------------------------------------------------------------------------
# kernel SHAP


def test_linear_model_exact_attribution():
    rng = np.random.default_rng(0)
    w = np.array([1.5, -2.0, 0.3, 0.7])
    bg = rng.normal(size=(50, 4))
    x = rng.normal(size=4)
    result = explain_set(ScoreFunction(linear_fn(w, b=0.4)), x[None, :], ShapConfig(bg, seed=1))
    np.testing.assert_allclose(result.values[0], w * (x - bg.mean(axis=0)), atol=1e-10)


def test_linear_model_exact_with_sampled_coalitions():
    rng = np.random.default_rng(1)
    d = 12  # 2^d - 2 exceeds the budget, forcing coalition sampling
    w = rng.normal(size=d)
    bg = rng.normal(size=(20, d))
    x = rng.normal(size=d)
    result = explain_set(ScoreFunction(linear_fn(w)), x[None, :], ShapConfig(bg, n_coalitions=600, seed=2))
    np.testing.assert_allclose(result.values[0], w * (x - bg.mean(axis=0)), atol=1e-8)


def test_constant_model_all_zero():
    bg = np.random.default_rng(2).normal(size=(10, 3))
    result = explain_set(ScoreFunction(lambda X: np.full(len(np.atleast_2d(X)), 0.7)), np.ones((1, 3)), ShapConfig(bg))
    np.testing.assert_allclose(result.values, 0.0, atol=1e-12)
    assert result.base_values[0] == pytest.approx(0.7)


def test_kernel_shap_matches_exact_oracle_on_mlps():
    rng = np.random.default_rng(3)
    for trial, d in ((0, 4), (1, 4), (2, 6)):  # full enumeration in both cases
        model = init_mlp(d, 8, seed=trial)
        bg = rng.normal(size=(25, d))
        x = rng.normal(size=d)
        approx = explain_set(ScoreFunction(mlp_fn(model)), x[None, :], ShapConfig(bg, seed=trial))
        exact = exact_shapley(mlp_fn(model), x, bg)
        np.testing.assert_allclose(approx.values, exact.values, atol=1e-6)
        assert approx.base_values[0] == pytest.approx(exact.base_values[0], abs=1e-12)


def test_local_accuracy_enforced():
    rng = np.random.default_rng(4)
    model = init_mlp(5, 6, seed=9)
    bg = rng.normal(size=(15, 5))
    for _ in range(5):
        x = rng.normal(size=5)
        result = explain_set(ScoreFunction(mlp_fn(model)), x[None, :], ShapConfig(bg, seed=0))
        assert abs(result.base_values[0] + result.values.sum() - result.targets[0]) <= 1e-6


def test_null_feature_gets_no_credit():
    rng = np.random.default_rng(5)
    w = np.array([2.0, 0.0, -1.0])  # second feature ignored
    bg = rng.normal(size=(30, 3))
    x = rng.normal(size=3)
    exact = exact_shapley(linear_fn(w), x, bg)
    assert abs(exact.values[0, 1]) <= 1e-8

    w_wide = np.zeros(10)
    w_wide[0], w_wide[9] = 2.0, -1.0  # middle features ignored
    bg_wide = rng.normal(size=(20, 10))
    x_wide = rng.normal(size=10)
    config = ShapConfig(bg_wide, n_coalitions=500, seed=6)
    sampled = explain_set(ScoreFunction(linear_fn(w_wide)), x_wide[None, :], config)
    assert np.abs(sampled.values[0, 1:9]).max() <= 0.01 * np.abs(sampled.values).max()


def test_single_feature_edge_case():
    bg = np.array([[0.0], [2.0]])
    result = explain_set(ScoreFunction(linear_fn([3.0])), np.array([[1.0]]), ShapConfig(bg))
    assert result.values[0, 0] == pytest.approx(3.0 * (1.0 - 1.0))
    result2 = explain_set(ScoreFunction(linear_fn([3.0])), np.array([[2.0]]), ShapConfig(bg))
    assert result2.values[0, 0] == pytest.approx(3.0)


def test_coalition_budget_below_d_rejected():
    bg = np.zeros((3, 5))
    with pytest.raises(ValueError, match="n_coalitions"):
        explain_set(ScoreFunction(linear_fn(np.ones(5))), np.ones((1, 5)), ShapConfig(bg, n_coalitions=4))


def test_underdetermined_coalition_sample_raises():
    # four sampled coalitions at d=4 are two complement pairs, too few to
    # determine four attributions: the regression system is singular
    bg = np.zeros((3, 4))
    with pytest.raises(ValueError, match="singular for n_coalitions=4 sampled coalitions at d=4"):
        explain_set(ScoreFunction(linear_fn([1.0, 2.0, 3.0, 4.0])), np.ones((1, 4)), ShapConfig(bg, n_coalitions=4))


def test_singular_sample_of_enough_coalitions_raises():
    # d=6 with 10 coalitions: in each of the five complement pairs seed 1
    # draws, features 0 and 5 are present or absent together, so nothing
    # splits their credit and the regression is singular though 10 > d
    rng = np.random.default_rng(13)
    bg = rng.normal(size=(10, 6))
    config = ShapConfig(bg, n_coalitions=10, seed=1)
    with pytest.raises(ValueError, match="singular for n_coalitions=10 sampled coalitions at d=6"):
        explain_set(ScoreFunction(linear_fn(np.arange(1.0, 7.0))), rng.normal(size=(2, 6)), config)


def test_odd_coalition_budget_rounds_the_pairs_up():
    # 3 of d=3's 6 proper coalitions are sampled as complement pairs: one pair
    # (2 rows) leaves the 3 attributions underdetermined, two pairs fix them
    rng = np.random.default_rng(12)
    w = np.array([1.0, 2.0, 3.0])
    bg = rng.normal(size=(10, 3))
    x = rng.normal(size=3)
    for seed in range(6):
        result = explain_set(ScoreFunction(linear_fn(w)), x[None, :], ShapConfig(bg, n_coalitions=3, seed=seed))
        np.testing.assert_allclose(result.values[0], w * (x - bg.mean(axis=0)), atol=1e-10)


@pytest.mark.parametrize("d, h", [(3, 1), (5, 8), (7, 32)])
def test_mlp_decision_scores_through_the_value_function_match_the_exact_oracle(d, h):
    rng = np.random.default_rng(d)
    model = init_mlp(d, h, seed=d)
    bg = rng.normal(size=(20, d))
    X = rng.normal(size=(4, d))
    result = explain_set(model, X, ShapConfig(bg, seed=d))  # every proper coalition
    for row, x in enumerate(X):
        exact = exact_shapley(partial(decision_score, model), x, bg)
        np.testing.assert_allclose(result.values[row], exact.values[0], rtol=0, atol=1e-6)
        assert result.base_values[row] == pytest.approx(exact.base_values[0], abs=1e-12)
        assert result.targets[row] == pytest.approx(exact.targets[0], abs=1e-12)


@pytest.mark.parametrize(
    "n, d, h, bound_mb",
    [
        (100, 4, 32, 2),  # one pipeline audit side: all 14 coalitions (5.9 MB as a masked design)
        (20, 20, 64, 4),  # a d=20 side: 2048 sampled coalitions (126 MB as a masked design)
    ],
)
def test_explain_set_memory_builds_no_masked_design(n, d, h, bound_mb):
    rng = np.random.default_rng(d)
    model = init_mlp(d, h, seed=0)
    X = rng.normal(size=(n, d))
    config = ShapConfig(rng.normal(size=(100, d)), seed=1)
    tracemalloc.start()
    try:
        explain_set(model, X, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


# ---------------------------------------------------------------------------
# exact Shapley oracle


def test_exact_shapley_hand_case():
    # f(x) = x1 * x2 at x = (1, 1) against background {(0, 0)}:
    # v(empty)=0, v({1})=0, v({2})=0, v(full)=1 -> phi = (1/2, 1/2)
    def product(X):
        X = np.atleast_2d(X)
        return X[:, 0] * X[:, 1]

    result = exact_shapley(product, np.array([1.0, 1.0]), np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(result.values[0], [0.5, 0.5], atol=1e-12)
    assert result.base_values[0] == pytest.approx(0.0)
    assert result.targets[0] == pytest.approx(1.0)


def test_exact_shapley_symmetry_axiom():
    def symmetric(X):
        X = np.atleast_2d(X)
        return X[:, 0] + X[:, 1]

    bg = np.array([[0.3, 0.3], [-0.3, -0.3]])
    result = exact_shapley(symmetric, np.array([1.2, 1.2]), bg)
    assert result.values[0, 0] == pytest.approx(result.values[0, 1], abs=1e-12)


def test_exact_shapley_efficiency_axiom():
    rng = np.random.default_rng(6)
    model = init_mlp(3, 4, seed=2)
    bg = rng.normal(size=(12, 3))
    x = rng.normal(size=3)
    result = exact_shapley(mlp_fn(model), x, bg)
    assert result.base_values[0] + result.values.sum() == pytest.approx(result.targets[0], abs=1e-12)


def test_exact_shapley_dimension_guard():
    with pytest.raises(ValueError, match="d <= 15"):
        exact_shapley(lambda X: np.zeros(len(np.atleast_2d(X))), np.zeros(16), np.zeros((1, 16)))


# ---------------------------------------------------------------------------
# explain_set


def test_duplicate_rows_identical_explanations():
    rng = np.random.default_rng(7)
    model = init_mlp(4, 6, seed=3)
    bg = rng.normal(size=(20, 4))
    row = rng.normal(size=4)
    X = np.vstack([row, rng.normal(size=4), row])
    result = explain_set(ScoreFunction(mlp_fn(model)), X, ShapConfig(bg, seed=4))
    np.testing.assert_array_equal(result.values[0], result.values[2])


def test_plan_side_with_repeated_rows_equals_the_solve_over_every_row(monkeypatch):
    # matched partners repeat; each distinct row goes through the value
    # function once, and the explanations are the KKT solve over every row
    split = standardized_split(generate_synthetic(SyntheticConfig(seed=0)), 0.8, 0)[0]
    plan = gpf_plan(split, range(4), AuditConfig())
    model, _ = fit_mlp(split.train, TrainConfig(epochs=30))
    config, background = plan.shap_config, plan.shap_config.background
    budget = config.resolved_budget(4)
    Z, weights = _coalitions(4, budget, np.random.default_rng(config.seed))
    solve = _constrained_wls(Z, weights, budget)
    base = float(np.mean(model.scores(background)))
    evaluated = []
    original = MlpModel.masked_values

    def counted(self, X, *rest):
        evaluated.append(len(X))
        return original(self, X, *rest)

    for X in (plan.rows_1, plan.rows_2):
        distinct = len(np.unique(X, axis=0))
        assert distinct < len(X)
        target = model.scores(X)
        want = solve(original(model, X, background, Z) - base, target - base)
        with monkeypatch.context() as patch:
            patch.setattr(MlpModel, "masked_values", counted)
            got = explain_set(model, X, config)
        assert evaluated.pop() == distinct
        assert got.values.tobytes() == want.tobytes() and got.targets.tobytes() == target.tobytes()


def test_explain_set_single_row():
    bg = np.random.default_rng(8).normal(size=(10, 2))
    result = explain_set(ScoreFunction(linear_fn([1.0, -1.0])), np.array([[0.5, 0.5]]), ShapConfig(bg))
    assert result.n == 1 and result.d == 2


def test_explain_set_deterministic():
    rng = np.random.default_rng(9)
    model = init_mlp(4, 5, seed=5)
    bg = rng.normal(size=(15, 4))
    X = rng.normal(size=(6, 4))
    a = explain_set(ScoreFunction(mlp_fn(model)), X, ShapConfig(bg, seed=11))
    b = explain_set(ScoreFunction(mlp_fn(model)), X, ShapConfig(bg, seed=11))
    np.testing.assert_array_equal(a.values, b.values)


def test_explain_set_row_and_names():
    bg = np.zeros((4, 2))
    result = explain_set(ScoreFunction(linear_fn([1.0, 2.0])), np.ones((3, 2)), ShapConfig(bg), ("u", "v"))
    assert result.feature_names == ("u", "v")
    assert result.base_values[1] + result.values[1].sum() == pytest.approx(result.targets[1], abs=1e-9)


def test_explain_set_local_accuracy_all_rows():
    rng = np.random.default_rng(10)
    model = init_mlp(4, 8, seed=6)
    bg = rng.normal(size=(30, 4))
    X = rng.normal(size=(25, 4))
    result = explain_set(ScoreFunction(mlp_fn(model)), X, ShapConfig(bg, seed=1))
    reconstructed = result.base_values + result.values.sum(axis=1)
    np.testing.assert_allclose(reconstructed, result.targets, atol=1e-6)


def test_background_dimension_mismatch():
    bg = np.zeros((5, 3))
    with pytest.raises(ValueError, match="dimensionality"):
        explain_set(ScoreFunction(linear_fn([1.0, 1.0])), np.ones((2, 2)), ShapConfig(bg))


# ---------------------------------------------------------------------------
# background sampling and CSV interchange


def test_sample_background_deterministic_and_capped():
    X = np.arange(40.0).reshape(20, 2)
    a = sample_background(X, size=8, seed=3)
    b = sample_background(X, size=8, seed=3)
    np.testing.assert_array_equal(a, b)
    assert sample_background(X, size=100, seed=0).shape == (20, 2)


def test_explanations_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    model = init_mlp(3, 4, seed=8)
    bg = rng.normal(size=(10, 3))
    X = rng.normal(size=(7, 3))
    original = explain_set(ScoreFunction(mlp_fn(model)), X, ShapConfig(bg, seed=2), ("a", "b", "c"))
    path = tmp_path / "explanations.csv"
    write_explanations_csv(original, path)
    loaded = read_explanations_csv(path)
    assert loaded.feature_names == original.feature_names
    np.testing.assert_array_equal(loaded.values, original.values)
    np.testing.assert_array_equal(loaded.targets, original.targets)


def test_explanation_set_validation():
    with pytest.raises(ValueError):
        ExplanationSet(np.ones((2, 2)), np.ones(3), np.ones(2), ("a", "b"))
    with pytest.raises(ValueError):
        ExplanationSet(np.ones((2, 2)), np.ones(2), np.ones(2), ("a",))
