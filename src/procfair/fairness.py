"""Group procedural fairness: similar-pair selection across sensitive groups,
the GPF score (permutation p-value of the MMD between the two matched
explanation sets), the distributive metrics DP/EO/EOD, and the audit pipeline
that composes them into a report.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields

import numpy as np

from ._formats import integer_fields, readonly
from .attribution import ExplanationSet, ShapConfig, explain_set, sample_background
from .datasets import SplitDataset, TabularDataset, concat_datasets
from .models import predict_labels
from .seeding import derive_seed
from .two_sample import KernelConfig, PermutationConfig, permutation_pvalue

# Unused here; perfbench/tracing.py rebinds this name in this module.
from .models import decision_score  # noqa: F401

__all__ = [
    "PairSelection",
    "GpfResult",
    "GpfPlan",
    "AuditConfig",
    "AuditReport",
    "select_pairs",
    "matched_explanations",
    "gpf_plan",
    "gpf_run",
    "dp",
    "eo",
    "eod",
    "prediction_metrics",
    "audit",
]

PROCEDURAL_THRESHOLD = 0.05
DISTRIBUTIVE_THRESHOLD = 0.10
# Pair matching scans candidate blocks of this many anchor x candidate x
# feature cells: the exact pass's difference cells when a whole block ties,
# about 4 MB of float64 (the fast pass's block of distances is 1/d of it).
_MATCH_CELLS = 500_000


@dataclass(frozen=True)
class PairSelection:
    """Matched cross-group samples: row i of ``group1_rows`` is paired with
    row i of ``group2_rows`` and ``distances[i]`` is their separation in the
    audited model's input space."""

    group1_rows: np.ndarray
    group2_rows: np.ndarray
    distances: np.ndarray
    pool_size: int

    def __post_init__(self):
        g1 = np.asarray(self.group1_rows, dtype=np.int64)
        g2 = np.asarray(self.group2_rows, dtype=np.int64)
        dist = np.asarray(self.distances, dtype=float)
        if not (g1.shape == g2.shape == dist.shape) or g1.ndim != 1:
            raise ValueError("pair arrays must be 1-D and of equal length")
        if (dist < 0).any():
            raise ValueError("negative pair distance")
        object.__setattr__(self, "group1_rows", readonly(g1, np.int64))
        object.__setattr__(self, "group2_rows", readonly(g2, np.int64))
        object.__setattr__(self, "distances", readonly(dist))

    @property
    def n(self) -> int:
        return self.group1_rows.size

    @property
    def mean_distance(self) -> float:
        return float(self.distances.mean())


def _checked_feature_indices(feature_indices, pool: TabularDataset) -> tuple[int, ...]:
    """The indices as ints, each a column of ``pool`` (numpy would wrap a negative one).
    ``operator.index`` refuses a non-integer index such as 0.9 with a TypeError."""
    feats = tuple(operator.index(i) for i in feature_indices)
    if not feats:
        raise ValueError("need at least one feature to match on")
    if min(feats) < 0 or max(feats) >= pool.d:
        raise ValueError(f"feature indices {feats} are not all columns 0..{pool.d - 1} of the pool")
    return feats


def _columns(pool: TabularDataset, feature_indices) -> np.ndarray:
    """The pool's features on the checked ``feature_indices``: the feature
    matrix itself when they are all of its columns in order, else a copy of
    those columns."""
    feats = _checked_feature_indices(feature_indices, pool)
    return pool.features if feats == tuple(range(pool.d)) else pool.features[:, feats]


def _screen(D2: np.ndarray, upper: np.ndarray, norms: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Shortlist the (anchor, column) cells of one block of fast squared
    distances ``D2`` over ``d`` features that the exact pass must re-score.
    ``norms`` is |a|^2 + max |c|^2 per anchor over the block; ``upper``, the
    running minimum of D2 + e over the blocks so far, is updated in place.
    A cell is kept when D2 <= upper (1 + delta) + e.

    With u the unit roundoff and gamma_n = n u / (1 - n u) (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 3.1): the norms
    carry a relative error of at most gamma_d, and the GEMM's depth-(d+2)
    dot product of [a, |a|^2, 1] and [-2c, 1, |c|^2] errs by at most
    gamma_{d+2} (2|a||c| + |a|^2 + |c|^2), where 2|a||c| <= |a|^2 + |c|^2.
    So |D2 - D^2| <= 3.01 gamma_{d+2} (|a|^2 + |c|^2) <= 4(d+3)u norms = e,
    and ``upper`` bounds the exact D^2 of a candidate already seen. The
    exact pass's squared sum is D^2 (1 + theta) with |theta| <= gamma_{d+2}
    (a subtraction, a product and d - 1 additions per term), and two sums
    whose square roots round to the same distance differ by a factor of at
    most ((1 + u) / (1 - u))^2. So a candidate the exact pass ranks at or
    below that one has D2 <= upper (1 + 2 gamma_{d+2} + 5u) + e; delta =
    4(d+5)u also covers the roundings of this threshold. Products that
    underflow add at most half the smallest subnormal each, so e adds
    8(d+2) subnormals. Every constant is rounded up: widening the bound
    costs time, never a pair."""
    u = np.finfo(float).eps / 2
    e = 4.0 * (d + 3) * u * norms + 8.0 * (d + 2) * np.finfo(float).smallest_subnormal
    lowest = D2.min(axis=1)
    np.minimum(upper, lowest + e, out=upper)
    threshold = upper * (1.0 + 4.0 * (d + 5) * u) + e
    # a row whose minimum is above its threshold has no cell to keep, so only
    # the others are compared cell by cell (copied out only when some row is
    # dropped, as in every block but a side's first); cells stay in row order
    rows = np.flatnonzero(lowest <= threshold)
    if rows.size < len(D2):
        D2, threshold = D2[rows], threshold[rows]
    ai, cj = np.divmod(np.flatnonzero(D2 <= threshold[:, None]), D2.shape[1])
    return rows[ai], cj


def select_pairs(
    pool: TabularDataset,
    n: int = 100,
    seed: int = 0,
    feature_indices=None,
) -> PairSelection:
    """Two-phase matched sampling: floor(n/2) anchors drawn uniformly without
    replacement from group 1 with nearest neighbors from group 2, then the
    roles reversed for the remaining pairs. Partners may repeat; distance ties
    break toward the lowest row index.

    Distances are Euclidean over ``feature_indices`` (default: all columns),
    i.e. the audited model's input space.

    Matching scans the candidates in blocks of ``_MATCH_CELLS // (anchors x d)``
    columns. Besides the pool's columns (read in place when they are all of
    its columns in order, else copied) it holds the two groups' row indices
    and about ``_MATCH_CELLS`` anchor x candidate x feature cells at a time,
    whatever the pool size. A fast pass gives each block's squared distances
    in one GEMM: with U = [A, |a|^2, 1], built once per side, and the block's
    operand V^T = [-2 C^T; 1; |c|^2], built in one reused (d+2) x block
    buffer from the block's candidates C (gathered by ``np.take``),
    D~^2 = U @ V^T, about anchors x block x (d+2) flops in BLAS. It keeps
    each anchor's candidates with D~^2 <= upper (1 + delta) + e, where e
    bounds the GEMM's rounding error (about 3 gamma_{d+2} (|a|^2 + max |c|^2),
    the max over the block) plus a term for subnormal products, delta covers
    the rounding of the exact distances, and upper is the running minimum of
    D~^2 + e (derived at ``_screen``). Only the anchors whose block minimum
    passes that test can have a cell to keep, so only their rows are
    compared cell by cell. An exact pass re-scores the shortlist with
    ``sqrt(sum(diff * diff))``, and a block that shortlists nothing skips it. Rows and distances are therefore
    bit-identical to scoring every candidate with that formula, ties
    included. Norms so large that the GEMM could overflow (coordinates
    beyond about 1e153) send every candidate of their block to the exact
    pass.
    """
    if n < 2:
        raise ValueError("need at least two pairs")
    F = _columns(pool, range(pool.d) if feature_indices is None else feature_indices)
    advantaged = pool.advantaged_mask  # every row of a dataset is in one of the two groups
    g1_rows, g2_rows = np.flatnonzero(advantaged), np.flatnonzero(~advantaged)
    del advantaged
    n_first = n // 2
    n_second = n - n_first
    if g1_rows.size < max(n_first, 1) or g2_rows.size < max(n_second, 1):
        raise ValueError(
            f"groups of sizes {g1_rows.size}/{g2_rows.size} cannot supply "
            f"{n_first}/{n_second} anchors"
        )

    rng = np.random.default_rng(seed)
    d = F.shape[1]

    def match(anchor_rows: np.ndarray, candidate_rows: np.ndarray):
        A = F[anchor_rows]
        n_a, n_c = len(anchor_rows), candidate_rows.size
        U = np.empty((n_a, d + 2))
        U[:, :d] = A
        U[:, d] = a_sq = np.einsum("ij,ij->i", A, A)
        U[:, d + 1] = 1.0
        block = min(n_c, max(1, _MATCH_CELLS // (n_a * d)))
        upper = np.full(n_a, np.inf)
        best_pos = np.zeros(n_a, dtype=np.int64)
        best_dist = np.full(n_a, np.inf)
        D_buf = np.empty(n_a * block)
        V_buf = np.empty((d + 2) * block)
        for lo in range(0, n_c, block):
            hi = min(lo + block, n_c)
            C = np.take(F, candidate_rows[lo:hi], axis=0)
            Vt = V_buf[: (d + 2) * (hi - lo)].reshape(d + 2, hi - lo)
            Vt[:d] = C.T
            c_sq = np.einsum("ij,ij->j", Vt[:d], Vt[:d], out=Vt[d + 1])
            Vt[:d] *= -2.0
            Vt[d] = 1.0
            norms = a_sq + c_sq.max()
            # beyond this the GEMM's partial sums may overflow to inf or nan
            if norms.max() <= np.finfo(float).max / 4:
                D2 = np.matmul(U, Vt, out=D_buf[: n_a * (hi - lo)].reshape(n_a, hi - lo))
                ai, cj = _screen(D2, upper, norms, d)
                if not ai.size:
                    continue
            else:
                ai, cj = np.divmod(np.arange(n_a * (hi - lo)), hi - lo)
            # exact pass: the one-shot formula, over the shortlist only
            diff = A[ai] - C[cj]
            dist = np.sqrt(np.sum(diff * diff, axis=1))
            cj += lo
            order = np.lexsort((dist, ai))  # stable: equal distances keep cj order
            ai, cj, dist = ai[order], cj[order], dist[order]
            first = np.ones(ai.size, dtype=bool)
            first[1:] = ai[1:] != ai[:-1]
            ai, cj, dist = ai[first], cj[first], dist[first]
            better = dist < best_dist[ai]  # strict: an earlier block keeps ties
            best_pos[ai[better]] = cj[better]
            best_dist[ai[better]] = dist[better]
        return candidate_rows[best_pos], best_dist

    anchors1 = rng.choice(g1_rows, size=n_first, replace=False)
    partners2, dist1 = match(anchors1, g2_rows)
    anchors2 = rng.choice(g2_rows, size=n_second, replace=False)
    partners1, dist2 = match(anchors2, g1_rows)

    return PairSelection(
        np.concatenate([anchors1, partners1]),
        np.concatenate([partners2, anchors2]),
        np.concatenate([dist1, dist2]),
        pool.m,
    )


@dataclass(frozen=True)
class GpfResult:
    """The p-value and explanation sets of one model, and the plan they came
    from, which holds the pairs and the permutation settings."""

    p_value: float
    plan: GpfPlan
    explanations_1: ExplanationSet
    explanations_2: ExplanationSet


def _pair_features(pool: TabularDataset, pairs: PairSelection, feats) -> tuple[np.ndarray, np.ndarray]:
    return pool.features[pairs.group1_rows][:, feats], pool.features[pairs.group2_rows][:, feats]


def _check_feature_names(models, names: tuple[str, ...]) -> None:
    """Every explanation set names the features ``names``, the pool's
    columns, so a model that names its features must name them so."""
    for model in models:
        if model.feature_names is not None and model.feature_names != names:
            raise ValueError(f"model feature names {model.feature_names} differ from the pool's columns {names}")


def matched_explanations(
    model,
    pool: TabularDataset,
    shap_config: ShapConfig,
    n: int = 100,
    pair_seed: int = 0,
) -> tuple[PairSelection, ExplanationSet, ExplanationSet]:
    """Select matched pairs and explain both sides with a shared background
    and coalition sample."""
    feats = _checked_feature_indices(model.feature_indices, pool)
    pairs = select_pairs(pool, n, pair_seed, feats)
    X1, X2 = _pair_features(pool, pairs, feats)
    names = tuple(pool.feature_names[i] for i in feats)
    _check_feature_names([model], names)
    return pairs, explain_set(model, X1, shap_config, names), explain_set(model, X2, shap_config, names)


# ---------------------------------------------------------------------------
# Distributive metrics


def _binary(values, what: str) -> np.ndarray:
    """The mask of ``values`` equal to 1; every value must be 0 or 1."""
    values = np.asarray(values)
    ones = values == 1
    if np.count_nonzero(values == 0) + np.count_nonzero(ones) != values.size:
        raise ValueError(f"{what} must all be 0 or 1")
    return ones


def _counts(predictions, truths, group_mask) -> np.ndarray:
    """The (group x label x prediction) count table of 0/1 predictions and
    truths: ``table[g, y, p]`` counts the rows of group ``g`` (1 for the rows
    of ``group_mask``, group 1; 0 for the rest, group 2) with truth ``y`` and
    prediction ``p``. Every metric below is read from it: a mean of 0/1
    values is exactly count / n.

    Each cell is counted with ``count_nonzero`` over boolean masks, so the
    table needs only row-length booleans (1 byte a row), never an integer
    code per row."""
    predictions = _binary(predictions, "predictions")
    truths = _binary(truths, "truths")
    group_mask = np.asarray(group_mask, dtype=bool)
    if not (predictions.shape == truths.shape == group_mask.shape) or group_mask.ndim != 1:
        raise ValueError("predictions, truths and the group mask must be 1-D and of equal length")
    table = np.empty((2, 2, 2), dtype=np.int64)
    for g, in_group in enumerate((~group_mask, group_mask)):
        for y, cell in enumerate((in_group & ~truths, in_group & truths)):
            positives = np.count_nonzero(cell & predictions)
            table[g, y] = np.count_nonzero(cell) - positives, positives
    return table


def _rate(cell: np.ndarray, name: str) -> float:
    """The positive share of one conditioning cell's (negative, positive)
    prediction counts."""
    n = int(cell.sum())
    if n == 0:
        raise ValueError(f"empty conditioning cell: {name}")
    return int(cell[1]) / n


def _dp(table: np.ndarray) -> float:
    return abs(_rate(table[1].sum(axis=0), "group 1") - _rate(table[0].sum(axis=0), "group 2"))


def _eo(table: np.ndarray) -> float:
    return abs(_rate(table[1, 1], "group 1, y=1") - _rate(table[0, 1], "group 2, y=1"))


def _eod(table: np.ndarray) -> float:
    fpr1 = _rate(table[1, 0], "group 1, y=0")
    fpr2 = _rate(table[0, 0], "group 2, y=0")
    tpr1 = _rate(table[1, 1], "group 1, y=1")
    tpr2 = _rate(table[0, 1], "group 2, y=1")
    return (abs(fpr1 - fpr2) + abs(tpr1 - tpr2)) / 2.0


def dp(predictions, group_mask) -> float:
    """Demographic parity: gap between the groups' positive prediction rates."""
    # DP reads only the group x prediction margin, so every truth may be 0
    predictions = np.asarray(predictions)
    return _dp(_counts(predictions, np.zeros(predictions.shape, dtype=bool), group_mask))


def eo(predictions, truths, group_mask) -> float:
    """Equal opportunity: gap between the groups' true-positive rates."""
    return _eo(_counts(predictions, truths, group_mask))


def eod(predictions, truths, group_mask) -> float:
    """Equalized odds: mean of the FPR gap and the TPR gap."""
    return _eod(_counts(predictions, truths, group_mask))


def prediction_metrics(model, dataset: TabularDataset) -> dict:
    """Accuracy and the DP/EO/EOD gaps of the model's predictions on
    ``dataset``, all four read from one count table of its rows. The model
    reads the dataset's feature matrix in place when it takes all of its
    columns in order."""
    predictions = predict_labels(model, _columns(dataset, model.feature_indices))
    table = _counts(predictions, dataset.labels, dataset.advantaged_mask)
    return {
        "accuracy": int(table[:, 0, 0].sum() + table[:, 1, 1].sum()) / dataset.m,
        "dp": _dp(table),
        "eo": _eo(table),
        "eod": _eod(table),
    }


@dataclass(frozen=True)
class GpfPlan:
    """Everything one GPF evaluation needs except the model: the split it
    was drawn from, the matched pairs and their rows in the model's feature
    space, the Kernel SHAP settings (background and coalition seed), the
    permutation settings (their membership matrix is drawn where the test
    runs), and the ``AuditConfig`` it was built from. Any model on the plan's
    columns can be scored over it with ``gpf_run``."""

    split: SplitDataset = field(compare=False, repr=False)
    pairs: PairSelection
    rows_1: np.ndarray
    rows_2: np.ndarray
    feature_indices: tuple[int, ...]
    feature_names: tuple[str, ...]
    shap_config: ShapConfig
    perm_config: PermutationConfig
    config: AuditConfig

    def __post_init__(self):
        object.__setattr__(self, "rows_1", readonly(self.rows_1))
        object.__setattr__(self, "rows_2", readonly(self.rows_2))


def gpf_plan(split: SplitDataset, feature_indices, config: AuditConfig) -> GpfPlan:
    """The model-independent part of a GPF evaluation over the columns
    ``feature_indices``: pairs drawn from ``config.pool`` (the test split, or
    train and test together for ``"full"``) and a background sampled from
    the training split, sized by ``config``, with all sub-seeds (background,
    coalitions, pairs, permutations) derived from ``config.seed``; the only
    place they are derived."""
    feats = _checked_feature_indices(feature_indices, split.test)
    pool = split.test if config.pool == "test" else concat_datasets(split.train, split.test)
    seed = config.seed
    background = sample_background(
        split.train.features[:, feats], config.background_size, derive_seed(seed, "background")
    )
    shap_config = ShapConfig(background, config.n_coalitions, seed=derive_seed(seed, "shap"))
    perm_config = PermutationConfig(config.n_permutations, derive_seed(seed, "permutation"))
    pairs = select_pairs(pool, config.n_pairs, derive_seed(seed, "pairs"), feats)
    return GpfPlan(
        split,
        pairs,
        *_pair_features(pool, pairs, feats),
        feats,
        tuple(pool.feature_names[i] for i in feats),
        shap_config,
        perm_config,
        config,
    )


def gpf_run(models, plan: GpfPlan) -> list[GpfResult]:
    """Score models over one plan, returning one result per model, in order:
    explain both sides of the plan's pairs for every model with
    ``explain_set`` (in closed form for a model that has one, else by Kernel
    SHAP through its value function), then test each model's two
    explanation sets with the plan's permutations and kernel. The models
    share the plan's pairs, background, coalition seed and permutations, and
    each result equals the one a call with that model alone returns."""
    models = list(models)
    if not models:
        raise ValueError("gpf_run needs at least one model")
    for model in models:
        if model.feature_indices != plan.feature_indices:
            raise ValueError(
                f"model feature indices {model.feature_indices} differ from the plan's {plan.feature_indices}"
            )
    _check_feature_names(models, plan.feature_names)
    sides = [
        [explain_set(model, X, plan.shap_config, plan.feature_names) for model in models]
        for X in (plan.rows_1, plan.rows_2)
    ]
    results = []
    for e1, e2 in zip(*sides):
        p = permutation_pvalue(e1.values, e2.values, plan.config.kernel, plan.perm_config)
        results.append(GpfResult(p, plan, e1, e2))
    return results


# ---------------------------------------------------------------------------
# Audit pipeline


@dataclass(frozen=True)
class AuditConfig:
    """Every GPF setting: the sizes, seed and pool ``gpf_plan`` reads, and
    the kernel ``gpf_run`` reads from the plan."""

    n_pairs: int = 100
    background_size: int = 100
    n_coalitions: int | None = None
    kernel: KernelConfig = field(default_factory=KernelConfig)
    n_permutations: int = 1000
    pool: str = "test"  # "test" or "full"
    seed: int = 0

    def __post_init__(self):
        integer_fields(self, "n_pairs", "background_size", "n_permutations", "seed")
        if self.n_coalitions is not None:
            integer_fields(self, "n_coalitions")
        if self.seed < 0:
            raise ValueError(f"AuditConfig.seed must be non-negative, got {self.seed}")
        if self.pool not in ("test", "full"):
            raise ValueError("pool must be 'test' or 'full'")

    def snapshot(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "background_size": self.background_size,
            "n_coalitions": self.n_coalitions,
            "kernel_kind": self.kernel.kind,
            "kernel_bandwidth": self.kernel.bandwidth,
            "n_permutations": self.n_permutations,
            "procedural_threshold": PROCEDURAL_THRESHOLD,
            "distributive_threshold": DISTRIBUTIVE_THRESHOLD,
            "pool": self.pool,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class AuditReport:
    """``config``, ``gpf`` and ``model`` are the settings, the run and the
    model the report came from (the run's plan holds the split); ``to_dict``
    writes the config's snapshot and leaves the run and the model out."""

    gpf_fae: float
    dp: float
    eo: float
    eod: float
    accuracy: float
    mean_pair_distance: float
    procedural_verdict: str
    distributive_verdicts: dict
    n_pairs: int
    pool_size: int
    config: AuditConfig
    gpf: GpfResult = field(compare=False, repr=False)
    model: object = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        doc["distributive_verdicts"] = dict(self.distributive_verdicts)
        doc["config"] = self.config.snapshot()
        return doc


def audit(model, split: SplitDataset, config: AuditConfig | None = None, plan: GpfPlan | None = None) -> AuditReport:
    """Full audit: accuracy and DP/EO/EOD on the test split, plus the group
    procedural fairness score over matched pairs drawn from the configured
    pool (test split by default, the whole dataset with ``pool='full'``).

    Given ``plan`` (a ``gpf_plan`` of this very split, say another audit's
    ``gpf.plan``), the score is computed over it and the report's config is
    the plan's; a plan of another split, or a ``config`` other than the
    plan's, is an error."""
    if plan is not None and plan.split is not split:
        raise ValueError("the plan was built from another split")
    if plan is not None and config not in (None, plan.config):
        raise ValueError(f"config {config} differs from the plan's {plan.config}")
    config = (config or AuditConfig()) if plan is None else plan.config
    metrics = prediction_metrics(model, split.test)
    plan = plan or gpf_plan(split, model.feature_indices, config)
    (result,) = gpf_run([model], plan)

    return AuditReport(
        gpf_fae=result.p_value,
        **metrics,
        mean_pair_distance=plan.pairs.mean_distance,
        procedural_verdict="unfair" if result.p_value <= PROCEDURAL_THRESHOLD else "fair",
        distributive_verdicts={
            name: "fair" if metrics[name] < DISTRIBUTIVE_THRESHOLD else "unfair" for name in ("dp", "eo", "eod")
        },
        n_pairs=plan.pairs.n,
        pool_size=plan.pairs.pool_size,
        config=config,
        gpf=result,
        model=model,
    )
