import numpy as np
import pytest
from mlp_reference import (
    random_mlp_params,
    reference_mlp_loss_grads,
    reference_mlp_modified_grads,
)

from procfair import mitigation, two_sample
from procfair.attribution import ExplanationSet, ShapConfig, sample_background
from procfair.datasets import SyntheticConfig, generate_synthetic, standardized_split
from procfair.fairness import AuditConfig, audit
from procfair.mitigation import (
    ModifyConfig,
    UnfairFeatureSet,
    _run_modification,
    detect_unfair_features,
    explanation_loss,
    modify_model,
    retrain_without,
    unfair_features_from_sets,
)
from procfair.models import (
    LogisticModel,
    MlpModel,
    TrainConfig,
    _sigmoid,
    fit_mlp,
    init_mlp,
    predict_labels,
    predict_proba,
    train,
)
from procfair.seeding import derive_seed
from procfair.two_sample import KernelConfig, PermutationConfig, permutation_pvalue
from test_sweeps import _perfbench_tracing


@pytest.fixture(scope="module")
def small_split():
    dataset = generate_synthetic(SyntheticConfig(m=2400, n_advantaged=1440, seed=0))
    split, _ = standardized_split(dataset, 0.8, 0)
    return split


@pytest.fixture(scope="module")
def unfair_model(small_split):
    model, _ = fit_mlp(small_split.train, TrainConfig(epochs=200, seed=0))
    return model


@pytest.fixture(scope="module")
def unfair_report(unfair_model, small_split):
    return audit(unfair_model, small_split, AuditConfig(n_pairs=30, background_size=40, n_permutations=200, seed=0))


def make_ufs(indices, d, names=("x1", "x2", "xs", "xp")):
    pvalues = np.ones(d)
    for i in indices:
        pvalues[i] = 0.01
    return UnfairFeatureSet(tuple(indices), tuple(names[i] for i in indices), pvalues)


# ---------------------------------------------------------------------------
# UnfairFeatureSet


def test_ufs_invariant_checked():
    with pytest.raises(ValueError, match="threshold"):
        UnfairFeatureSet((0,), ("a",), np.array([0.5, 0.01]))


def test_ufs_pvalue_range_checked():
    with pytest.raises(ValueError, match="p-values"):
        UnfairFeatureSet((0,), ("a",), np.array([-0.1, 0.5]))


def test_detection_identical_sets_empty():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(30, 3))
    e = ExplanationSet(values, np.zeros(30), values.sum(axis=1), ("a", "b", "c"))
    ufs = unfair_features_from_sets(e, e, perm_config=PermutationConfig(200, seed=1))
    assert ufs.indices == ()
    assert (ufs.pvalues > 0.9).all()


def test_detection_threshold_zero_always_empty():
    rng = np.random.default_rng(1)
    e1 = ExplanationSet(rng.normal(size=(20, 2)), np.zeros(20), np.zeros(20), ("a", "b"))
    e2 = ExplanationSet(rng.normal(3.0, 1.0, size=(20, 2)), np.zeros(20), np.zeros(20), ("a", "b"))
    ufs = unfair_features_from_sets(e1, e2, perm_config=PermutationConfig(200, seed=2), threshold=0.0)
    assert ufs.indices == ()  # +1 smoothing keeps every p-value positive


def test_detection_separated_column_flagged():
    rng = np.random.default_rng(2)
    shared = rng.normal(size=(40, 1))
    e1 = ExplanationSet(np.column_stack([shared, rng.normal(size=40)]), np.zeros(40), np.zeros(40), ("a", "b"))
    e2 = ExplanationSet(
        np.column_stack([shared + 50.0, rng.normal(size=40)]), np.zeros(40), np.zeros(40), ("a", "b")
    )
    ufs = unfair_features_from_sets(e1, e2, perm_config=PermutationConfig(300, seed=3))
    assert ufs.indices == (0,)
    assert ufs.feature_names == ("a",)


def test_detect_on_synthetic_unfair_model(small_split, unfair_model):
    background = sample_background(small_split.train.features, 60, derive_seed(0, "background"))
    ufs = detect_unfair_features(
        unfair_model,
        small_split.test,
        ShapConfig(background, seed=derive_seed(0, "shap")),
        None,
        PermutationConfig(400, seed=derive_seed(0, "permutation")),
        n=60,
        pair_seed=derive_seed(0, "pairs"),
    )
    assert ufs.feature_names == ("xs", "xp")
    # the audit's own sets and permutation settings give the same p-values
    gpf = audit(unfair_model, small_split, AuditConfig(n_pairs=60, background_size=60, n_permutations=400)).gpf
    reused = unfair_features_from_sets(gpf.explanations_1, gpf.explanations_2, perm_config=gpf.plan.perm_config)
    assert reused.pvalues.tobytes() == ufs.pvalues.tobytes()


def test_detection_shares_one_membership_matrix_across_features(unfair_report, monkeypatch):
    gpf = unfair_report.gpf
    e1, e2, kernel = gpf.explanations_1, gpf.explanations_2, KernelConfig("gaussian")
    independent = [
        permutation_pvalue(e1.values[:, [j]], e2.values[:, [j]], kernel, gpf.plan.perm_config) for j in range(e1.d)
    ]
    built = []
    original = mitigation.permutation_memberships

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(mitigation, "permutation_memberships", counted)
    monkeypatch.setattr(two_sample, "permutation_memberships", counted)
    ufs = unfair_features_from_sets(e1, e2, kernel, gpf.plan.perm_config)
    assert ufs.pvalues.tolist() == independent
    assert len(built) == 1


def test_detect_on_fair_model_empty(small_split):
    fair_model, _ = fit_mlp(small_split.train, TrainConfig(epochs=200, seed=0), feature_indices=(0, 1))
    background = sample_background(small_split.train.features[:, :2], 60, derive_seed(0, "background"))
    ufs = detect_unfair_features(
        fair_model,
        small_split.test,
        ShapConfig(background, seed=derive_seed(0, "shap")),
        None,
        PermutationConfig(400, seed=derive_seed(0, "permutation")),
        n=60,
        pair_seed=derive_seed(0, "pairs"),
    )
    assert ufs.indices == ()


# ---------------------------------------------------------------------------
# explanation loss


def test_explanation_loss_empty_set(unfair_model, small_split):
    X = small_split.train.features
    y = small_split.train.labels
    assert explanation_loss(unfair_model, X, y, ()) == 0.0


def test_explanation_loss_zero_model():
    model = LogisticModel(np.zeros(3), 0.0)
    X = np.random.default_rng(3).normal(size=(10, 3))
    assert explanation_loss(model, X, np.ones(10), (0, 1)) == 0.0


def test_explanation_loss_logistic_closed_form():
    model = LogisticModel(np.array([0.8, -0.5]), 0.2)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 2))
    y = rng.integers(0, 2, size=12)
    p = predict_proba(model, X)
    expected = np.mean(np.abs((p - y) * model.w[1]))
    assert explanation_loss(model, X, y, (1,)) == pytest.approx(expected, abs=1e-12)


def test_explanation_loss_additive_over_features():
    model = LogisticModel(np.array([0.8, -0.5, 0.3]), 0.0)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(15, 3))
    y = rng.integers(0, 2, size=15)
    total = explanation_loss(model, X, y, (0, 2))
    parts = explanation_loss(model, X, y, (0,)) + explanation_loss(model, X, y, (2,))
    assert total == pytest.approx(parts, abs=1e-12)


# ---------------------------------------------------------------------------
# second-order gradients: d(bce + alpha*zeta)/d(theta) vs finite differences


def zeta_objective_mlp(params, X, y, uf, alpha):
    bce, zeta, _ = MlpModel.modified_grads(params, X, y, uf, alpha)
    return bce + alpha * zeta


def test_mlp_modified_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    alpha, uf = 2.0, [0, 2]
    for attempt in range(100):
        model = init_mlp(3, 4, seed=100 + attempt)
        X = rng.normal(size=(12, 3))
        y = rng.integers(0, 2, size=12).astype(float)
        pre = X @ model.w1.T + model.b1
        g = model.per_sample_input_gradient(X, y)
        # stay away from ReLU kinks and sign flips of the penalized gradients
        if np.abs(pre).min() > 1e-2 and np.abs(g[:, uf]).min() > 1e-4:
            break
    else:
        raise AssertionError("no kink-free configuration found")

    params = model.params()
    _, _, grads = MlpModel.modified_grads(params, X, y, uf, alpha)
    h = 1e-6
    for pi, p in enumerate(params):
        for idx in np.ndindex(p.shape):
            up = [q.copy() for q in params]
            down = [q.copy() for q in params]
            up[pi][idx] += h
            down[pi][idx] -= h
            fd = (zeta_objective_mlp(up, X, y, uf, alpha) - zeta_objective_mlp(down, X, y, uf, alpha)) / (2 * h)
            assert grads[pi][idx] == pytest.approx(fd, rel=1e-3, abs=1e-7)


def test_logistic_modified_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(10, 3)) + 0.5
    y = rng.integers(0, 2, size=10).astype(float)
    params = [np.array([0.6, -0.9, 0.4]), np.array([0.2])]
    alpha, uf = 3.0, [1, 2]
    _, _, grads = LogisticModel.modified_grads(params, X, y, uf, alpha)

    def objective(ps):
        bce, zeta, _ = LogisticModel.modified_grads(ps, X, y, uf, alpha)
        return bce + alpha * zeta

    h = 1e-6
    for pi, p in enumerate(params):
        for idx in np.ndindex(p.shape):
            up = [q.copy() for q in params]
            down = [q.copy() for q in params]
            up[pi][idx] += h
            down[pi][idx] -= h
            fd = (objective(up) - objective(down)) / (2 * h)
            assert grads[pi][idx] == pytest.approx(fd, rel=1e-3, abs=1e-8)


@pytest.mark.parametrize("uf", [[], [1], [0, 2]])
def test_logistic_modified_grads_at_alpha_zero_are_the_bce_gradients(uf):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(25, 3))
    y = rng.integers(0, 2, size=25).astype(float)
    w, b = np.array([0.6, -0.9, 0.4]), np.array([0.2])
    _, _, grads = LogisticModel.modified_grads([w, b], X, y, uf, 0.0)
    # the BCE gradients alone: zeta's terms enter with weight 0
    m = X.shape[0]
    err = _sigmoid(X @ w + b[0]) - y
    reference = [X.T @ (err / m), np.array([err.sum() / m])]
    for g, r in zip(grads, reference):
        assert np.array_equal(g, r)


@pytest.mark.parametrize("alpha", [0.0, 15.0])
@pytest.mark.parametrize("uf", [[], [0], [2, 3], [0, 1, 2, 3]])
def test_mlp_modified_grads_match_elementwise_reference(uf, alpha):
    for seed in range(3):
        params = random_mlp_params(4, 16, seed)
        rng = np.random.default_rng(300 + seed)
        X = rng.normal(size=(300, 4))
        y = rng.integers(0, 2, size=300).astype(float)
        bce, zeta, grads = MlpModel.modified_grads(params, X, y, uf, alpha)
        ref_bce, ref_zeta, ref_grads = reference_mlp_modified_grads(params, X, y, uf, alpha)
        assert bce == ref_bce
        assert zeta == pytest.approx(ref_zeta, rel=1e-12, abs=0)
        for g, r in zip(grads, ref_grads):
            assert g.shape == r.shape
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=0)
        assert not grads[0][0].any() and grads[1][0] == 0.0


def test_training_and_modification_trajectory_matches_reference(monkeypatch):
    dataset = generate_synthetic(SyntheticConfig(seed=0))
    split, _ = standardized_split(dataset, 0.8, 0)
    X = split.train.features
    y = split.train.labels.astype(float)

    def trained_and_modified():
        model, _ = fit_mlp(split.train, TrainConfig(epochs=300, seed=0))
        modified, _, _ = _run_modification(model, X, y, [2, 3], ModifyConfig(tau=200))
        return model, modified

    calls = {"train": 0, "modify": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    new = trained_and_modified()
    monkeypatch.setattr(MlpModel, "loss_grads", staticmethod(counted("train", reference_mlp_loss_grads)))
    monkeypatch.setattr(MlpModel, "modified_grads", staticmethod(counted("modify", reference_mlp_modified_grads)))
    ref = trained_and_modified()
    assert calls == {"train": 300, "modify": 200}

    for a, b in zip(new, ref):
        for name in ("w1", "b1", "w2"):
            pa, pb = getattr(a, name), getattr(b, name)
            assert np.abs(pa - pb).max() <= 1e-9 * np.abs(pb).max()
        assert abs(a.b2 - b.b2) <= 1e-9 * abs(b.b2)
        assert np.array_equal(predict_labels(a, split.test.features), predict_labels(b, split.test.features))


def test_reported_zeta_matches_explanation_loss(unfair_model, small_split):
    X = small_split.train.features
    y = small_split.train.labels.astype(float)
    uf = [2, 3]
    _, zeta, _ = MlpModel.modified_grads(unfair_model.params(), X, y, uf, 1.0)
    assert zeta == pytest.approx(explanation_loss(unfair_model, X, y, uf), abs=1e-12)


# ---------------------------------------------------------------------------
# modification


def test_modify_tau_zero_identity(unfair_model, small_split):
    result = _run_modification(
        unfair_model, small_split.train.features, small_split.train.labels.astype(float),
        [2, 3], ModifyConfig(tau=0),
    )
    model, loss_trace, zeta_trace = result
    assert model is unfair_model
    assert loss_trace.size == 0 and zeta_trace.size == 0


def test_modify_alpha_zero_equals_continued_training(unfair_model, small_split):
    config = ModifyConfig(alpha=0.0, tau=25)
    modified, _, _ = _run_modification(
        unfair_model, small_split.train.features, small_split.train.labels.astype(float),
        [2, 3], config,
    )
    resumed, _ = train(unfair_model, small_split.train, TrainConfig(epochs=25))
    assert np.array_equal(modified.w1, resumed.w1)
    assert np.array_equal(modified.b1, resumed.b1)
    assert np.array_equal(modified.w2, resumed.w2)
    assert modified.b2 == resumed.b2


def test_modify_reduces_zeta(unfair_model, small_split, unfair_report):
    ufs = make_ufs((2, 3), 4)
    result = modify_model(unfair_model, small_split, ufs, unfair_report, ModifyConfig(tau=60))
    assert result.zeta_final < result.zeta_initial
    assert result.zeta_trace[0] == pytest.approx(result.zeta_initial)
    assert result.report_before is unfair_report
    assert result.report_after.config == unfair_report.config
    assert result.report_after.gpf_fae > result.report_before.gpf_fae


def test_modify_audits_the_modified_model_over_the_before_plan(unfair_model, small_split, unfair_report):
    ufs, config = make_ufs((2, 3), 4), ModifyConfig(tau=20)
    result = modify_model(unfair_model, small_split, ufs, unfair_report, config)
    after = result.report_after
    assert after.gpf.plan is unfair_report.gpf.plan
    # the same report as a fresh audit with the before-audit's settings
    fresh = audit(result.model, small_split, unfair_report.config)
    assert after.to_dict() == fresh.to_dict()
    for side in ("explanations_1", "explanations_2"):
        assert getattr(after.gpf, side).values.tobytes() == getattr(fresh.gpf, side).values.tobytes()

    tracing = _perfbench_tracing()
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op("modify"):
        modify_model(unfair_model, small_split, ufs, unfair_report, config)
    assert sum(s.name == "fairness.select_pairs" for s in tracer.op_spans("modify")) == 0
    assert sum(s.name == "fairness.audit" for s in tracer.op_spans("modify")) == 1


def test_modify_config_validation():
    with pytest.raises(ValueError):
        ModifyConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        ModifyConfig(tau=-1)


# ---------------------------------------------------------------------------
# retraining


def test_retrain_drops_columns(unfair_model, small_split, unfair_report):
    ufs = make_ufs((2, 3), 4)
    result = retrain_without(unfair_model, small_split, ufs, unfair_report, TrainConfig(epochs=100, seed=0))
    assert result.model.d == 2
    assert result.model.feature_indices == (0, 1)
    assert result.removed_features == ("xs", "xp")
    assert result.report_after.gpf_fae > result.report_before.gpf_fae
    assert abs(result.accuracy_drop) < 0.2


def test_retrain_empty_ufs_keeps_all_features(unfair_model, small_split):
    ufs = UnfairFeatureSet((), (), np.ones(4))
    before = audit(unfair_model, small_split, AuditConfig(n_pairs=20, background_size=30, n_permutations=150, seed=0))
    result = retrain_without(unfair_model, small_split, ufs, before, TrainConfig(epochs=50, seed=0))
    assert result.model.d == 4
    assert result.removed_features == ()


def test_retrain_all_features_flagged_errors(unfair_model, small_split, unfair_report):
    ufs = make_ufs((0, 1, 2, 3), 4)
    with pytest.raises(ValueError, match="flagged"):
        retrain_without(unfair_model, small_split, ufs, unfair_report)
