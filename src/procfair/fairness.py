"""Group procedural fairness: similar-pair selection across sensitive groups,
the GPF score (permutation p-value of the MMD between the two matched
explanation sets), the distributive metrics DP/EO/EOD, and the audit pipeline
that composes them into a report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .attribution import ExplanationSet, ShapConfig, explain_set, sample_background
from .datasets import SplitDataset, TabularDataset, concat_datasets
from .models import decision_score, predict_labels
from .seeding import derive_seed
from .two_sample import KernelConfig, PermutationConfig, euclidean, permutation_pvalue

__all__ = [
    "PairSelection",
    "GpfResult",
    "AuditConfig",
    "AuditReport",
    "select_pairs",
    "matched_explanations",
    "gpf_fae",
    "gpf_run",
    "dp",
    "eo",
    "eod",
    "individual_fairness",
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
    seed: int

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


def _model_feature_indices(model, pool: TabularDataset) -> tuple[int, ...]:
    if max(model.feature_indices) >= pool.d:
        raise ValueError("model feature indices exceed the pool's columns")
    return model.feature_indices


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
    feats = tuple(range(pool.d) if feature_indices is None else feature_indices)
    if not feats:
        raise ValueError("need at least one feature to match on")
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
        seed,
    )


@dataclass(frozen=True)
class GpfResult:
    """The p-value, the matched pairs and their explanation sets, and the
    permutation settings the p-value used."""

    p_value: float
    pairs: PairSelection
    explanations_1: ExplanationSet
    explanations_2: ExplanationSet
    perm_config: PermutationConfig


def matched_explanations(
    model,
    pool: TabularDataset,
    shap_config: ShapConfig,
    n: int = 100,
    pair_seed: int = 0,
) -> tuple[PairSelection, ExplanationSet, ExplanationSet]:
    """Select matched pairs and explain both sides with a shared background
    and coalition sample.

    Attributions explain the model's decision score (log-odds), the additive
    scale the thresholded prediction lives on; probability-space attributions
    would fold the sigmoid's saturation into every feature.
    """
    feats = _model_feature_indices(model, pool)
    pairs = select_pairs(pool, n, pair_seed, feats)
    names = model.feature_names or tuple(pool.feature_names[i] for i in feats)

    def score(M):
        return decision_score(model, M)

    X1 = pool.features[pairs.group1_rows][:, feats]
    X2 = pool.features[pairs.group2_rows][:, feats]
    e1 = explain_set(score, X1, shap_config, names)
    e2 = explain_set(score, X2, shap_config, names)
    return pairs, e1, e2


def gpf_fae(
    model,
    pool: TabularDataset,
    shap_config: ShapConfig,
    kernel_config: KernelConfig | None = None,
    perm_config: PermutationConfig | None = None,
    n: int = 100,
    pair_seed: int = 0,
) -> GpfResult:
    """Group procedural fairness score: the permutation p-value of the MMD
    between the explanation sets of the matched cross-group samples. Larger
    means fairer."""
    perm_config = perm_config or PermutationConfig()
    pairs, e1, e2 = matched_explanations(model, pool, shap_config, n, pair_seed)
    p = permutation_pvalue(e1.values, e2.values, kernel_config, perm_config)
    return GpfResult(p, pairs, e1, e2, perm_config)


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


def individual_fairness(model, x_i, x_j, epsilon: float) -> tuple[float, bool]:
    """Absolute difference of the two thresholded predictions, plus a flag
    marking whether the pair is close enough (distance <= epsilon) for the
    comparison to apply. The value is reported either way."""
    labels = predict_labels(model, np.vstack([np.ravel(x_i), np.ravel(x_j)]))
    value = float(abs(int(labels[0]) - int(labels[1])))
    applicable = euclidean(x_i, x_j) <= epsilon
    return value, applicable


def gpf_run(
    model,
    pool: TabularDataset,
    background_source: np.ndarray,
    seed: int = 0,
    n: int = 100,
    background_size: int = 100,
    n_coalitions: int | None = None,
    kernel: KernelConfig | None = None,
    n_permutations: int = 1000,
) -> GpfResult:
    """One GPF evaluation with all sub-seeds (background sampling, coalition
    sampling, pair selection, permutations) derived from a single seed; the
    only place they are derived.

    ``background_source`` is the matrix backgrounds are sampled from, already
    restricted to the model's feature space (normally the training split).
    """
    background = sample_background(background_source, background_size, derive_seed(seed, "background"))
    shap_config = ShapConfig(background, n_coalitions, seed=derive_seed(seed, "shap"))
    perm_config = PermutationConfig(n_permutations, derive_seed(seed, "permutation"))
    return gpf_fae(model, pool, shap_config, kernel, perm_config, n, derive_seed(seed, "pairs"))


# ---------------------------------------------------------------------------
# Audit pipeline


@dataclass(frozen=True)
class AuditConfig:
    n_pairs: int = 100
    background_size: int = 100
    n_coalitions: int | None = None
    kernel: KernelConfig = field(default_factory=KernelConfig)
    n_permutations: int = 1000
    procedural_threshold: float = PROCEDURAL_THRESHOLD
    distributive_threshold: float = DISTRIBUTIVE_THRESHOLD
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
            "procedural_threshold": self.procedural_threshold,
            "distributive_threshold": self.distributive_threshold,
            "pool": self.pool,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class AuditReport:
    """``gpf`` and ``audit_config`` are the run and settings the report came
    from; ``to_dict`` leaves them out, so ``from_dict`` restores neither."""

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
    config: dict
    gpf: GpfResult | None = field(default=None, compare=False, repr=False)
    audit_config: AuditConfig | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        doc["distributive_verdicts"] = dict(self.distributive_verdicts)
        doc["config"] = dict(self.config)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "AuditReport":
        return cls(**doc)

    @staticmethod
    def csv_header() -> list[str]:
        return ["gpf_fae", "dp", "eo", "eod", "accuracy", "mean_pair_distance", "procedural_verdict"]

    def csv_row(self) -> list[str]:
        return [
            repr(self.gpf_fae),
            repr(self.dp),
            repr(self.eo),
            repr(self.eod),
            repr(self.accuracy),
            repr(self.mean_pair_distance),
            self.procedural_verdict,
        ]


def _distributive_verdict(value: float, threshold: float) -> str:
    return "fair" if value < threshold else "unfair"


def audit(model, split: SplitDataset, config: AuditConfig | None = None) -> AuditReport:
    """Full audit: accuracy and DP/EO/EOD on the test split, plus the group
    procedural fairness score over matched pairs drawn from the configured
    pool (test split by default, the whole dataset with ``pool='full'``)."""
    config = config or AuditConfig()
    test = split.test
    feats = _model_feature_indices(model, test)
    predictions = predict_labels(model, test.features[:, feats])
    accuracy = float((predictions == test.labels).mean())
    gmask = test.advantaged_mask
    dp_value = dp(predictions, gmask)
    eo_value = eo(predictions, test.labels, gmask)
    eod_value = eod(predictions, test.labels, gmask)

    pool = test if config.pool == "test" else concat_datasets(split.train, split.test)
    result = gpf_run(
        model, pool, split.train.features[:, feats], config.seed, config.n_pairs,
        config.background_size, config.n_coalitions, config.kernel, config.n_permutations,
    )

    return AuditReport(
        gpf_fae=result.p_value,
        dp=dp_value,
        eo=eo_value,
        eod=eod_value,
        accuracy=accuracy,
        mean_pair_distance=result.pairs.mean_distance,
        procedural_verdict="unfair" if result.p_value <= config.procedural_threshold else "fair",
        distributive_verdicts={
            "dp": _distributive_verdict(dp_value, config.distributive_threshold),
            "eo": _distributive_verdict(eo_value, config.distributive_threshold),
            "eod": _distributive_verdict(eod_value, config.distributive_threshold),
        },
        n_pairs=result.pairs.n,
        pool_size=result.pairs.pool_size,
        config=config.snapshot(),
        gpf=result,
        audit_config=config,
    )
