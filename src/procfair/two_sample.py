"""Kernel two-sample machinery: pairwise distances, exponential/gaussian
kernels, the (biased) MMD statistic, and its permutation test, plus the small
linear-algebra helpers the experiments need (PCA projection, isotonic fit).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelConfig",
    "PermutationConfig",
    "PcaResult",
    "kernel_matrix",
    "mmd2",
    "permutation_memberships",
    "permutation_pvalue",
    "pca_project",
    "isotonic_decreasing",
]

KERNEL_KINDS = ("exponential", "gaussian")


@dataclass(frozen=True)
class KernelConfig:
    """Kernel for comparing explanation sets.

    ``bandwidth=None`` selects the median heuristic: the median of the
    nonzero pairwise distances of the pooled sample.
    """

    kind: str = "exponential"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("fixed bandwidth must be positive")


@dataclass(frozen=True)
class PermutationConfig:
    n_permutations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n_permutations < 100:
            raise ValueError("need at least 100 permutations")


def _pairwise_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    sq = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.sqrt(sq)


def _resolve_bandwidth(pooled_distances: np.ndarray, config: KernelConfig) -> float:
    if config.bandwidth is not None:
        return config.bandwidth
    iu = np.triu_indices(pooled_distances.shape[0], k=1)
    offdiag = pooled_distances[iu]
    nonzero = offdiag[offdiag > 0]
    if nonzero.size == 0:
        warnings.warn("all pairwise distances are zero; falling back to bandwidth 1.0", stacklevel=3)
        return 1.0
    return float(np.median(nonzero))


def _apply_kernel(distances: np.ndarray, kind: str, sigma: float) -> np.ndarray:
    if kind == "exponential":
        return np.exp(-distances / sigma)
    return np.exp(-(distances**2) / (2.0 * sigma**2))


def _as_matrix(E) -> np.ndarray:
    E = np.asarray(E, dtype=float)
    if E.ndim == 1:
        E = E[:, None]
    return E


def _pooled_kernel(E1: np.ndarray, E2: np.ndarray, config: KernelConfig):
    pooled = np.vstack([E1, E2])
    distances = _pairwise_distances(pooled, pooled)
    sigma = _resolve_bandwidth(distances, config)
    return _apply_kernel(distances, config.kind, sigma), sigma


def kernel_matrix(A, B, config: KernelConfig | None = None) -> np.ndarray:
    """Cross kernel matrix; the median-heuristic bandwidth is computed on the
    pooled sample A ++ B."""
    config = config or KernelConfig()
    A, B = _as_matrix(A), _as_matrix(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch")
    K, _ = _pooled_kernel(A, B, config)
    return K[: A.shape[0], A.shape[0]:]


def mmd2(E1, E2, config: KernelConfig | None = None) -> float:
    """Biased squared-MMD estimator mean(K11) + mean(K22) - 2 mean(K12)."""
    config = config or KernelConfig()
    E1, E2 = _as_matrix(E1), _as_matrix(E2)
    if E1.shape[0] < 2 or E2.shape[0] < 2:
        raise ValueError("need at least two rows per sample")
    if E1.shape[1] != E2.shape[1]:
        raise ValueError("dimension mismatch")
    K, _ = _pooled_kernel(E1, E2, config)
    a = E1.shape[0]
    k11 = K[:a, :a].mean()
    k22 = K[a:, a:].mean()
    k12 = K[:a, a:].mean()
    return float(k11 + k22 - 2.0 * k12)


def _stats_for_memberships(K: np.ndarray, Z: np.ndarray, a: int, b: int) -> np.ndarray:
    """Biased MMD^2 for each membership column z of Z via quadratic forms."""
    row_sums = K.sum(axis=1)
    total = row_sums.sum()
    KZ = K @ Z
    s11 = np.einsum("ip,ip->p", Z, KZ)
    zK1 = row_sums @ Z
    s22 = total - 2.0 * zK1 + s11
    s12 = zK1 - s11
    return s11 / (a * a) + s22 / (b * b) - 2.0 * s12 / (a * b)


def permutation_memberships(n: int, a: int, perm_config: PermutationConfig) -> np.ndarray:
    """Read-only (n, P) 0/1 matrix whose column p marks the rows that the
    p-th random permutation of the pooled sample assigns to the first sample
    of size ``a``; the only place the permutation stream is drawn.

    It depends on the sample sizes and ``perm_config`` alone, so every test
    over samples of the same sizes can share one matrix.
    """
    if not 0 < a < n:
        raise ValueError(f"first sample size {a} must lie strictly between 0 and {n}")
    rng = np.random.default_rng(perm_config.seed)
    P = perm_config.n_permutations
    # row p is the p-th permutation of 0..n-1, drawn as rng.permutation(n) would draw it
    perms = rng.permuted(np.tile(np.arange(n), (P, 1)), axis=1)
    Z = np.zeros((n, P))
    Z[perms[:, :a].T, np.arange(P)] = 1.0
    Z.setflags(write=False)
    return Z


def permutation_pvalue(
    E1,
    E2,
    kernel_config: KernelConfig | None = None,
    perm_config: PermutationConfig | None = None,
    memberships: np.ndarray | None = None,
) -> float:
    """Permutation p-value of the MMD two-sample test.

    The kernel bandwidth is fixed once on the pooled sample and reused for
    every permutation; p = (1 + #{permuted >= observed}) / (1 + P).
    ``memberships`` is ``permutation_memberships(a + b, a, perm_config)``,
    built here when not given.
    """
    kernel_config = kernel_config or KernelConfig()
    perm_config = perm_config or PermutationConfig()
    E1, E2 = _as_matrix(E1), _as_matrix(E2)
    if E1.shape[0] < 2 or E2.shape[0] < 2:
        raise ValueError("need at least two rows per sample")
    if E1.shape[1] != E2.shape[1]:
        raise ValueError("dimension mismatch")
    a, b = E1.shape[0], E2.shape[0]
    n = a + b
    P = perm_config.n_permutations
    if memberships is None:
        memberships = permutation_memberships(n, a, perm_config)
    elif memberships.shape != (n, P):
        raise ValueError(f"membership matrix of shape {memberships.shape}, expected {(n, P)}")
    K, _ = _pooled_kernel(E1, E2, kernel_config)

    observed_membership = np.zeros((n, 1))
    observed_membership[:a, 0] = 1.0
    observed = _stats_for_memberships(K, observed_membership, a, b)[0]
    permuted = _stats_for_memberships(K, memberships, a, b)
    return float((1 + int(np.sum(permuted >= observed))) / (1 + P))


# ---------------------------------------------------------------------------
# Small linear-algebra utilities


@dataclass(frozen=True)
class PcaResult:
    projected: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray
    mean: np.ndarray

    def project(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) @ self.components.T

    def inverse(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.components + self.mean


def pca_project(X, k: int = 2) -> PcaResult:
    """Project centered data onto the top-k right singular directions.

    Components are orthonormal; each is sign-fixed so its largest-magnitude
    loading is positive.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    if k > X.shape[1]:
        raise ValueError("k exceeds the input dimension")
    mean = X.mean(axis=0)
    centered = X - mean
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    total = float(np.sum(singular**2))
    ratios = (singular[:k] ** 2) / total if total > 0 else np.zeros(k)
    return PcaResult(centered @ components.T, components, ratios, mean)


def isotonic_decreasing(values) -> np.ndarray:
    """Least-squares projection onto non-increasing sequences
    (pool-adjacent-violators)."""
    y = -np.asarray(values, dtype=float)
    level = list(y)
    weight = [1.0] * len(level)
    i = 0
    while i < len(level) - 1:
        if level[i] > level[i + 1]:
            merged = (level[i] * weight[i] + level[i + 1] * weight[i + 1]) / (weight[i] + weight[i + 1])
            weight[i] += weight[i + 1]
            level[i] = merged
            del level[i + 1], weight[i + 1]
            while i > 0 and level[i - 1] > level[i]:
                merged = (level[i - 1] * weight[i - 1] + level[i] * weight[i]) / (weight[i - 1] + weight[i])
                weight[i - 1] += weight[i]
                level[i - 1] = merged
                del level[i], weight[i]
                i -= 1
        else:
            i += 1
    out = np.concatenate([np.full(int(w), v) for v, w in zip(level, weight)])
    return -out
