"""Group procedural fairness: similar-pair selection across sensitive groups,
the GPF score (permutation p-value of the MMD between the two matched
explanation sets), the distributive metrics DP/EO/EOD, and the audit pipeline
that composes them into a report.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .attribution import ExplanationSet, ShapConfig, explain_set, sample_background
from .datasets import SplitDataset, TabularDataset, concat_datasets
from .models import decision_score, predict_labels
from .seeding import derive_seed
from .two_sample import KernelConfig, PermutationConfig, permutation_memberships, permutation_pvalue

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
    "audit",
]

PROCEDURAL_THRESHOLD = 0.05
DISTRIBUTIVE_THRESHOLD = 0.10
# Pair matching holds at most this many anchor x candidate x feature
# difference cells at a time (about 4 MB of float64).
_MATCH_CELLS = 500_000


def _readonly(arr: np.ndarray, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


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
        object.__setattr__(self, "group1_rows", _readonly(g1, np.int64))
        object.__setattr__(self, "group2_rows", _readonly(g2, np.int64))
        object.__setattr__(self, "distances", _readonly(dist))

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

    Matching scans the candidates in blocks, so besides copies of the pool's
    columns it holds at most ``_MATCH_CELLS`` anchor x candidate x feature
    cells at a time, whatever the pool size. A fast pass accumulates squared
    differences feature by feature and shortlists each anchor's candidates
    within a rounding bound of its running minimum; an exact pass re-scores
    the shortlist with ``sqrt(sum(diff * diff))``. Rows and distances are
    therefore bit-identical to scoring every candidate with that formula,
    ties included. The cost is about anchors x candidates x d flops.
    """
    if n < 2:
        raise ValueError("need at least two pairs")
    feats = _checked_feature_indices(range(pool.d) if feature_indices is None else feature_indices, pool)
    F = pool.features[:, feats]
    g1_rows = np.flatnonzero(pool.advantaged_mask)
    g2_rows = np.flatnonzero(pool.disadvantaged_mask)
    n_first = n // 2
    n_second = n - n_first
    if g1_rows.size < max(n_first, 1) or g2_rows.size < max(n_second, 1):
        raise ValueError(
            f"groups of sizes {g1_rows.size}/{g2_rows.size} cannot supply "
            f"{n_first}/{n_second} anchors"
        )

    rng = np.random.default_rng(seed)
    d = F.shape[1]
    # Both passes add the same d non-negative squares, in different orders;
    # a candidate the exact pass can pick lies within this factor of the
    # fast pass's running minimum.
    slack = 1.0 + 4.0 * (d + 2) * np.finfo(float).eps

    def match(anchor_rows: np.ndarray, candidate_rows: np.ndarray):
        A = F[anchor_rows]
        Ct = np.ascontiguousarray(F[candidate_rows].T)
        n_a = len(anchor_rows)
        block = min(candidate_rows.size, max(1, _MATCH_CELLS // (n_a * d)))
        fast_min = np.full(n_a, np.inf)
        best_pos = np.zeros(n_a, dtype=np.int64)
        best_dist = np.full(n_a, np.inf)
        D_buf = np.empty(n_a * block)
        tmp_buf = np.empty(n_a * block)
        for lo in range(0, candidate_rows.size, block):
            hi = min(lo + block, candidate_rows.size)
            # contiguous anchors x (hi - lo) views, also for the last block
            Db = D_buf[: n_a * (hi - lo)].reshape(n_a, hi - lo)
            tb = tmp_buf[: n_a * (hi - lo)].reshape(n_a, hi - lo)
            for j in range(d):
                out = Db if j == 0 else tb
                np.subtract(Ct[j, lo:hi], A[:, j : j + 1], out=out)
                np.multiply(out, out, out=out)
                if j:
                    Db += tb
            np.minimum(fast_min, Db.min(axis=1), out=fast_min)
            ai, cj = np.nonzero(Db <= (fast_min * slack)[:, None])
            cj += lo
            # exact pass: the one-shot formula, over the shortlist only
            diff = A[ai] - F[candidate_rows[cj]]
            dist = np.sqrt(np.sum(diff * diff, axis=1))
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


def _explain_both_sides(
    models, X1, X2, shap_config: ShapConfig, names: tuple[str, ...]
) -> tuple[list[ExplanationSet], list[ExplanationSet]]:
    """Explain the two sides' rows for every model, one ``explain_set`` call
    per side, with a shared background and coalition sample. Every set names
    the features ``names``, the pool's columns, so a model that names its
    features must name them so.

    Attributions explain the model's decision score (log-odds), the additive
    scale the thresholded prediction lives on; probability-space attributions
    would fold the sigmoid's saturation into every feature.
    """
    for model in models:
        if model.feature_names is not None and model.feature_names != names:
            raise ValueError(f"model feature names {model.feature_names} differ from the pool's columns {names}")
    scores = [partial(decision_score, model) for model in models]
    return explain_set(scores, X1, shap_config, names), explain_set(scores, X2, shap_config, names)


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
    (e1,), (e2,) = _explain_both_sides([model], X1, X2, shap_config, names)
    return pairs, e1, e2


# ---------------------------------------------------------------------------
# Distributive metrics


def _rate(values: np.ndarray, mask: np.ndarray, cell: str) -> float:
    if not mask.any():
        raise ValueError(f"empty conditioning cell: {cell}")
    return float(values[mask].mean())


def dp(predictions, group_mask) -> float:
    """Demographic parity: gap between the groups' positive prediction rates."""
    predictions = np.asarray(predictions)
    group_mask = np.asarray(group_mask, dtype=bool)
    r1 = _rate(predictions, group_mask, "group 1")
    r2 = _rate(predictions, ~group_mask, "group 2")
    return float(abs(r1 - r2))


def eo(predictions, truths, group_mask) -> float:
    """Equal opportunity: gap between the groups' true-positive rates."""
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    group_mask = np.asarray(group_mask, dtype=bool)
    tpr1 = _rate(predictions, group_mask & (truths == 1), "group 1, y=1")
    tpr2 = _rate(predictions, ~group_mask & (truths == 1), "group 2, y=1")
    return float(abs(tpr1 - tpr2))


def eod(predictions, truths, group_mask) -> float:
    """Equalized odds: mean of the FPR gap and the TPR gap."""
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    group_mask = np.asarray(group_mask, dtype=bool)
    fpr1 = _rate(predictions, group_mask & (truths == 0), "group 1, y=0")
    fpr2 = _rate(predictions, ~group_mask & (truths == 0), "group 2, y=0")
    tpr1 = _rate(predictions, group_mask & (truths == 1), "group 1, y=1")
    tpr2 = _rate(predictions, ~group_mask & (truths == 1), "group 2, y=1")
    return float((abs(fpr1 - fpr2) + abs(tpr1 - tpr2)) / 2.0)


@dataclass(frozen=True)
class GpfPlan:
    """Everything one GPF evaluation needs except the model: the matched
    pairs and their rows in the model's feature space, the Kernel SHAP
    settings (background and coalition seed), the permutation settings with
    their membership matrix, and the ``AuditConfig`` it was built from. Any
    model on the plan's columns can be scored over it with ``gpf_run``."""

    pairs: PairSelection
    rows_1: np.ndarray
    rows_2: np.ndarray
    feature_indices: tuple[int, ...]
    feature_names: tuple[str, ...]
    shap_config: ShapConfig
    perm_config: PermutationConfig
    memberships: np.ndarray
    config: AuditConfig

    def __post_init__(self):
        object.__setattr__(self, "rows_1", _readonly(self.rows_1))
        object.__setattr__(self, "rows_2", _readonly(self.rows_2))


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
        pairs,
        *_pair_features(pool, pairs, feats),
        feats,
        tuple(pool.feature_names[i] for i in feats),
        shap_config,
        perm_config,
        permutation_memberships(2 * pairs.n, pairs.n, perm_config),
        config,
    )


def gpf_run(models, plan: GpfPlan) -> list[GpfResult]:
    """Score models over one plan, returning one result per model, in order:
    explain both sides of the plan's pairs for all models (each side in one
    pass that builds the masked rows once), then test each model's two
    explanation sets with the plan's permutations and kernel. Each result
    equals the one a call with that model alone returns."""
    models = list(models)
    if not models:
        raise ValueError("gpf_run needs at least one model")
    for model in models:
        if model.feature_indices != plan.feature_indices:
            raise ValueError(
                f"model feature indices {model.feature_indices} differ from the plan's {plan.feature_indices}"
            )
    sides_1, sides_2 = _explain_both_sides(models, plan.rows_1, plan.rows_2, plan.shap_config, plan.feature_names)
    results = []
    for e1, e2 in zip(sides_1, sides_2):
        p = permutation_pvalue(e1.values, e2.values, plan.config.kernel, plan.perm_config, plan.memberships)
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
    """``config`` and ``gpf`` are the settings and the run the report came
    from; ``to_dict`` writes the config's snapshot and leaves the run out."""

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

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        doc["distributive_verdicts"] = dict(self.distributive_verdicts)
        doc["config"] = self.config.snapshot()
        return doc


def audit(model, split: SplitDataset, config: AuditConfig | None = None, plan: GpfPlan | None = None) -> AuditReport:
    """Full audit: accuracy and DP/EO/EOD on the test split, plus the group
    procedural fairness score over matched pairs drawn from the configured
    pool (test split by default, the whole dataset with ``pool='full'``).

    Given ``plan`` (a ``gpf_plan`` of this split, say another audit's
    ``gpf.plan``), the score is computed over it and the report's config is
    the plan's; a ``config`` other than that is an error."""
    if plan is not None and config not in (None, plan.config):
        raise ValueError(f"config {config} differs from the plan's {plan.config}")
    config = (config or AuditConfig()) if plan is None else plan.config
    test = split.test
    feats = _checked_feature_indices(model.feature_indices, test)
    predictions = predict_labels(model, test.features[:, feats])
    accuracy = float((predictions == test.labels).mean())
    gmask = test.advantaged_mask
    dp_value = dp(predictions, gmask)
    eo_value = eo(predictions, test.labels, gmask)
    eod_value = eod(predictions, test.labels, gmask)

    plan = plan or gpf_plan(split, feats, config)
    (result,) = gpf_run([model], plan)

    return AuditReport(
        gpf_fae=result.p_value,
        dp=dp_value,
        eo=eo_value,
        eod=eod_value,
        accuracy=accuracy,
        mean_pair_distance=plan.pairs.mean_distance,
        procedural_verdict="unfair" if result.p_value <= PROCEDURAL_THRESHOLD else "fair",
        distributive_verdicts={
            name: "fair" if value < DISTRIBUTIVE_THRESHOLD else "unfair"
            for name, value in (("dp", dp_value), ("eo", eo_value), ("eod", eod_value))
        },
        n_pairs=plan.pairs.n,
        pool_size=plan.pairs.pool_size,
        config=config,
        gpf=result,
    )
