import math

import numpy as np
import pytest
from mlp_reference import (
    random_mlp_params,
    reference_mlp_input_gradient,
    reference_mlp_loss_grads,
    reference_sigmoid,
)

from procfair.datasets import SyntheticConfig, generate_synthetic, standardized_split
from procfair.models import (
    LogisticModel,
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    _logistic_loss_grads,
    _mlp_loss_grads,
    _params_of,
    _per_sample_input_gradient,
    _sigmoid,
    bce_loss,
    decision_score,
    default_hidden_size,
    fit_logistic,
    fit_mlp,
    init_logistic,
    init_mlp,
    input_gradient,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_labels,
    predict_proba,
    save_model,
    set_sensitive_weight,
    soft_dp,
    train,
)


@pytest.fixture(scope="module")
def small_split():
    dataset = generate_synthetic(SyntheticConfig(m=3000, n_advantaged=1800, seed=0))
    split, _ = standardized_split(dataset, 0.8, 0)
    return split


def random_mlp(d=3, h=5, seed=0):
    return init_mlp(d, h, seed)


# ---------------------------------------------------------------------------
# initialization


def test_init_mlp_shapes():
    model = init_mlp(4, 32, seed=0)
    assert model.w1.shape == (32, 4)
    assert model.b1.shape == (32,)
    assert model.w2.shape == (32,)
    assert model.b2 == 0.0
    assert model.d == 4 and model.hidden_size == 32


def test_init_mlp_deterministic():
    a, b = init_mlp(4, 8, seed=5), init_mlp(4, 8, seed=5)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)


def test_init_mlp_bounds():
    model = init_mlp(16, 64, seed=1)
    assert np.abs(model.w1).max() <= 1 / 4
    assert np.abs(model.w2).max() <= 1 / 8


def test_init_invalid_sizes():
    with pytest.raises(ValueError):
        init_mlp(4, 0)
    with pytest.raises(ValueError):
        init_mlp(0, 4)


def test_default_hidden_size_rule():
    assert default_hidden_size(4) == 32
    assert default_hidden_size(18) == 32
    assert default_hidden_size(19) == 64


# ---------------------------------------------------------------------------
# prediction


def test_zero_model_predicts_half():
    model = MlpModel(np.zeros((3, 2)), np.zeros(3), np.zeros(3), 0.0)
    p = predict_proba(model, np.array([[5.0, -2.0], [0.0, 0.0]]))
    np.testing.assert_allclose(p, 0.5)


def test_logistic_analytic_point():
    model = LogisticModel(np.array([1.0, 0.0]), 0.0)
    assert predict_proba(model, [[0.0, 3.0]])[0] == pytest.approx(0.5)
    assert predict_proba(model, [[1.0, 0.0]])[0] == pytest.approx(1 / (1 + math.exp(-1)))


def test_logistic_monotone_in_positive_weight():
    model = LogisticModel(np.array([2.0, -1.0]), 0.3)
    grid = np.linspace(-3, 3, 21)
    X = np.column_stack([grid, np.zeros_like(grid)])
    p = predict_proba(model, X)
    assert (np.diff(p) > 0).all()


def test_proba_strictly_inside_unit_interval():
    model = LogisticModel(np.array([1000.0]), 0.0)
    p = predict_proba(model, [[100.0], [-100.0]])
    assert 0.0 < p.min() and p.max() < 1.0


def test_labels_threshold():
    model = LogisticModel(np.array([1.0]), 0.0)
    labels = predict_labels(model, [[-0.1], [0.0], [0.1]])
    assert list(labels) == [0, 1, 1]


def test_decision_score_matches_logit():
    model = random_mlp(seed=3)
    X = np.random.default_rng(0).normal(size=(10, 3))
    p = predict_proba(model, X)
    np.testing.assert_allclose(decision_score(model, X), np.log(p / (1 - p)), atol=1e-9)


def test_shape_mismatch_errors():
    model = random_mlp(d=3)
    with pytest.raises(ValueError, match="features"):
        predict_proba(model, np.ones((2, 4)))


# ---------------------------------------------------------------------------
# losses


def test_bce_at_half_is_ln2():
    model = MlpModel(np.zeros((2, 2)), np.zeros(2), np.zeros(2), 0.0)
    X = np.zeros((4, 2))
    assert bce_loss(model, X, [0, 1, 0, 1]) == pytest.approx(math.log(2.0))


def test_bce_perfect_predictions_clamped():
    model = LogisticModel(np.array([1000.0]), 0.0)
    loss = bce_loss(model, [[1.0], [-1.0]], [1, 0])
    assert loss <= 2e-6


def test_bce_hand_case():
    # p = (0.8, 0.3), y = (1, 0) -> -(ln 0.8 + ln 0.7)/2
    z = np.log(np.array([0.8, 0.3]) / (1 - np.array([0.8, 0.3])))
    model = LogisticModel(np.array([1.0]), 0.0)
    loss = bce_loss(model, z[:, None], [1, 0])
    assert loss == pytest.approx(0.2899, abs=1e-4)


def test_soft_dp_identical_groups():
    model = LogisticModel(np.array([0.5]), 0.0)
    X = np.array([[1.0], [2.0], [1.0], [2.0]])
    assert soft_dp(model, X, [True, True, False, False]) == pytest.approx(0.0)


def test_soft_dp_group_means():
    # choose inputs whose sigmoid outputs are exactly 0.9 and 0.4
    z = np.log(np.array([0.9, 0.9, 0.4, 0.4]) / (1 - np.array([0.9, 0.9, 0.4, 0.4])))
    model = LogisticModel(np.array([1.0]), 0.0)
    assert soft_dp(model, z[:, None], [True, True, False, False]) == pytest.approx(0.5)


def test_soft_dp_matches_hard_dp_for_saturated_model():
    from procfair.fairness import dp

    model = LogisticModel(np.array([500.0]), 0.0)
    X = np.array([[1.0], [-1.0], [1.0], [1.0], [-1.0], [-1.0]])
    mask = np.array([True, True, True, False, False, False])
    hard = dp(predict_labels(model, X), mask)
    assert soft_dp(model, X, mask) == pytest.approx(hard, abs=1e-9)


def test_soft_dp_group_swap_invariant():
    model = random_mlp(d=2, seed=9)
    X = np.random.default_rng(1).normal(size=(12, 2))
    mask = np.arange(12) % 3 == 0
    assert soft_dp(model, X, mask) == pytest.approx(soft_dp(model, X, ~mask))


def test_soft_dp_requires_both_groups():
    model = LogisticModel(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        soft_dp(model, np.ones((3, 1)), [True, True, True])


# ---------------------------------------------------------------------------
# input gradients


def test_input_gradient_zero_model():
    model = MlpModel(np.zeros((3, 2)), np.zeros(3), np.zeros(3), 0.0)
    grads = input_gradient(model, np.ones((5, 2)), np.ones(5))
    np.testing.assert_array_equal(grads, 0.0)


def test_input_gradient_logistic_closed_form():
    model = LogisticModel(np.array([0.7, -1.2, 0.1]), 0.4)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    p = predict_proba(model, X)
    expected = (p - y)[:, None] * model.w / 6
    np.testing.assert_allclose(input_gradient(model, X, y), expected, atol=1e-12)


def central_difference_input(model, X, y, i, j, h=1e-6):
    up, down = X.copy(), X.copy()
    up[i, j] += h
    down[i, j] -= h
    return (bce_loss(model, up, y) - bce_loss(model, down, y)) / (2 * h)


def sample_away_from_kinks(model, rows, seed, margin=1e-3):
    """Draw inputs whose pre-activations all sit clear of the ReLU kink."""
    for attempt in range(1000):
        rng = np.random.default_rng(seed + attempt)
        X = rng.normal(size=(rows, model.d))
        if np.abs(X @ model.w1.T + model.b1).min() > margin:
            return X, rng
    raise AssertionError("could not find kink-free inputs")


def test_input_gradient_mlp_finite_differences():
    model = random_mlp(d=3, h=6, seed=7)
    X, rng = sample_away_from_kinks(model, 8, seed=7)
    y = rng.integers(0, 2, size=8)
    analytic = input_gradient(model, X, y)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            fd = central_difference_input(model, X, y, i, j)
            assert analytic[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-9)


def test_parameter_gradients_finite_differences():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(10, 3))
    y = rng.integers(0, 2, size=10).astype(float)
    mask = np.arange(10) % 2 == 0

    for dp_weight in (0.0, -0.1):
        model = random_mlp(d=3, h=4, seed=4)
        params = _params_of(model)
        loss, grads = _mlp_loss_grads(params, X, y, mask, dp_weight)

        def loss_at(flat_params):
            _, g = None, None
            value, _ = _mlp_loss_grads(flat_params, X, y, mask, dp_weight)
            return value

        h = 1e-6
        for pi, p in enumerate(params):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                up = [q.copy() for q in params]
                down = [q.copy() for q in params]
                up[pi][idx] += h
                down[pi][idx] -= h
                fd = (loss_at(up) - loss_at(down)) / (2 * h)
                assert grads[pi][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_logistic_parameter_gradients_finite_differences():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(9, 2))
    y = rng.integers(0, 2, size=9).astype(float)
    mask = np.arange(9) % 2 == 0
    params = [np.array([0.3, -0.8]), np.array([0.1])]
    _, grads = _logistic_loss_grads(params, X, y, mask, -0.05)
    h = 1e-6
    for pi, p in enumerate(params):
        for idx in np.ndindex(p.shape):
            up = [q.copy() for q in params]
            down = [q.copy() for q in params]
            up[pi][idx] += h
            down[pi][idx] -= h
            fd = (_logistic_loss_grads(up, X, y, mask, -0.05)[0]
                  - _logistic_loss_grads(down, X, y, mask, -0.05)[0]) / (2 * h)
            assert grads[pi][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# factored gradients vs the elementwise reference formulas


def test_sigmoid_bit_identical_to_masked_scatter():
    rng = np.random.default_rng(0)
    z = np.concatenate([
        rng.normal(scale=20.0, size=1000),
        [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 700.0, -700.0, 800.0, -800.0, np.inf, -np.inf],
    ])
    assert _sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dp_weight", [0.0, 0.5])
def test_mlp_loss_grads_match_elementwise_reference(dp_weight, seed):
    params = random_mlp_params(4, 16, seed)
    rng = np.random.default_rng(100 + seed)
    X = rng.normal(size=(300, 4))
    y = rng.integers(0, 2, size=300).astype(float)
    mask = rng.random(300) < 0.6
    loss, grads = _mlp_loss_grads(params, X, y, mask, dp_weight)
    ref_loss, ref_grads = reference_mlp_loss_grads(params, X, y, mask, dp_weight)
    assert loss == ref_loss
    for g, r in zip(grads, ref_grads):
        assert g.shape == r.shape
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=0)
    # the dead unit receives exactly zero first-layer gradient
    assert not grads[0][0].any() and grads[1][0] == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_mlp_input_gradient_matches_elementwise_reference(seed):
    w1, b1, w2, b2 = random_mlp_params(4, 16, seed)
    model = MlpModel(w1, b1, w2, b2[0])
    rng = np.random.default_rng(200 + seed)
    X = rng.normal(size=(300, 4))
    y = rng.integers(0, 2, size=300).astype(float)
    np.testing.assert_allclose(
        _per_sample_input_gradient(model, X, y), reference_mlp_input_gradient(model, X, y),
        rtol=1e-12, atol=0,
    )


def test_scores_in_place_hidden_layer_bit_identical():
    w1, b1, w2, b2 = random_mlp_params(4, 16, 9)
    model = MlpModel(w1, b1, w2, b2[0])
    X = np.random.default_rng(9).normal(size=(500, 4))
    expected = np.maximum(X @ w1.T + b1, 0.0) @ w2 + b2[0]
    assert decision_score(model, X).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# training


def test_train_zero_epochs_identity(small_split):
    model = init_mlp(4, 8, seed=0)
    trained, trace = train(model, small_split.train, TrainConfig(epochs=0))
    assert trained is model
    assert trace.size == 0


def test_train_deterministic(small_split):
    config = TrainConfig(epochs=40, seed=3)
    a, ta = fit_mlp(small_split.train, config)
    b, tb = fit_mlp(small_split.train, config)
    assert np.array_equal(a.w1, b.w1)
    assert np.array_equal(a.w2, b.w2)
    assert a.b2 == b.b2
    assert np.array_equal(ta, tb)


def test_train_smoothed_loss_monotone(small_split):
    _, trace = fit_mlp(small_split.train, TrainConfig(epochs=300, seed=0))
    window = 5
    smoothed = np.convolve(trace, np.ones(window) / window, mode="valid")
    # Adam oscillates slightly mid-run; monotone up to a sliver of the loss scale
    assert (np.diff(smoothed) <= 1e-3).all()


def test_train_reaches_useful_accuracy(small_split):
    model, _ = fit_mlp(small_split.train, TrainConfig(seed=0))
    accuracy = (predict_labels(model, small_split.test.features) == small_split.test.labels).mean()
    assert accuracy > 0.75


def test_negative_dp_weight_amplifies_unfairness(small_split):
    plain, _ = fit_mlp(small_split.train, TrainConfig(seed=0, epochs=200))
    biased, _ = fit_mlp(small_split.train, TrainConfig(seed=0, epochs=200, dp_weight=-0.1))
    X = small_split.test.features
    mask = small_split.test.advantaged_mask
    assert soft_dp(biased, X, mask) >= soft_dp(plain, X, mask)


def test_train_divergence_raises(small_split):
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
        fit_mlp(small_split.train, TrainConfig(epochs=50, learning_rate=1e200, seed=0))
    assert err.value.epoch >= 0


def test_fit_on_feature_subset(small_split):
    model, _ = fit_mlp(small_split.train, TrainConfig(epochs=20, seed=0), feature_indices=(0, 1))
    assert model.d == 2
    assert model.feature_indices == (0, 1)
    assert model.feature_names == ("x1", "x2")


def test_fit_logistic_records_sensitive_position(small_split):
    model, _ = fit_logistic(small_split.train, TrainConfig(epochs=20), feature_indices=(0, 1, 2))
    assert model.sensitive_position == 2
    model2, _ = fit_logistic(small_split.train, TrainConfig(epochs=20), feature_indices=(0, 1))
    assert model2.sensitive_position is None


# ---------------------------------------------------------------------------
# sensitive-weight override


def test_set_sensitive_weight():
    model = LogisticModel(np.array([0.5, -0.3, 0.8]), 0.1, sensitive_position=1)
    out = set_sensitive_weight(model, 0.0)
    assert out.w[1] == 0.0
    assert out.w[0] == 0.5 and out.w[2] == 0.8 and out.b == 0.1
    repeat = set_sensitive_weight(model, 0.0)
    assert np.array_equal(out.w, repeat.w)


def test_set_sensitive_weight_requires_position():
    model = LogisticModel(np.array([0.5]), 0.0)
    with pytest.raises(ValueError):
        set_sensitive_weight(model, 1.0)


# ---------------------------------------------------------------------------
# serialization


def test_mlp_round_trip_bit_exact(tmp_path, small_split):
    model, _ = fit_mlp(small_split.train, TrainConfig(epochs=30, seed=2))
    path = tmp_path / "model.json"
    save_model(model, path, training={"epochs": 30, "seed": 2}, data_split={"ratio": 0.8, "seed": 0})
    loaded, doc = load_model(path)
    assert np.array_equal(loaded.w1, model.w1)
    assert np.array_equal(loaded.b1, model.b1)
    assert np.array_equal(loaded.w2, model.w2)
    assert loaded.b2 == model.b2
    assert loaded.feature_indices == model.feature_indices
    assert doc["kind"] == "mlp"
    assert doc["data_split"] == {"ratio": 0.8, "seed": 0}


def test_logistic_round_trip_bit_exact(tmp_path):
    model = LogisticModel(np.array([0.1, -1 / 3]), math.pi, (0, 2), ("a", "c"), 1)
    save_model(model, tmp_path / "lr.json")
    loaded, doc = load_model(tmp_path / "lr.json")
    assert np.array_equal(loaded.w, model.w)
    assert loaded.b == model.b
    assert loaded.sensitive_position == 1
    assert doc["dims"] == {"d": 2}


def test_model_dict_rejects_unknown_kind():
    doc = model_to_dict(LogisticModel(np.array([1.0]), 0.0))
    doc["kind"] = "forest"
    with pytest.raises(ValueError, match="kind"):
        model_from_dict(doc)


def test_rejects_nonfinite_parameters():
    with pytest.raises(ValueError):
        LogisticModel(np.array([np.inf]), 0.0)
    with pytest.raises(ValueError):
        MlpModel(np.ones((2, 2)), np.array([np.nan, 0.0]), np.ones(2), 0.0)


def test_models_default_to_the_first_d_columns():
    for model in (init_mlp(3, 4, seed=0), init_logistic(2)):
        assert model.feature_indices == tuple(range(model.d))
        loaded = model_from_dict(model_to_dict(model))
        assert loaded.feature_indices == model.feature_indices
        assert model_to_dict(loaded)["feature_indices"] == list(range(model.d))


def test_feature_indices_length_checked():
    with pytest.raises(ValueError, match="feature indices"):
        init_mlp(3, 4, seed=0, feature_indices=(0, 1))
    with pytest.raises(ValueError, match="feature indices"):
        LogisticModel(np.array([1.0, 2.0]), 0.0, (0, 1, 2))
