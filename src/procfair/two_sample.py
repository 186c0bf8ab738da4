"""Kernel two-sample machinery: pairwise distances, exponential/gaussian
kernels, and the permutation test of the (biased) MMD statistic, plus the PCA
projection of the decision-boundary experiment. The test suite holds the
statistic to the textbook estimator.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from ._formats import integer_fields

__all__ = [
    "KernelConfig",
    "PermutationConfig",
    "PcaResult",
    "permutation_memberships",
    "permutation_pvalue",
    "pca_project",
]

KERNEL_KINDS = ("exponential", "gaussian")


@dataclass(frozen=True)
class KernelConfig:
    """Kernel for comparing explanation sets.

    ``bandwidth=None`` selects the median heuristic: the median of the
    nonzero pairwise distances of the pooled sample, picked by selection and
    fixed once per test. A fixed bandwidth must be finite, and a gaussian
    one must leave its kernel's 2 sigma^2 above 0 and finite.
    """

    kind: str = "exponential"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}")
        if self.bandwidth is None:
            return
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"fixed bandwidth must be positive and finite, got {self.bandwidth}")
        if self.kind == "gaussian" and not 0 < _two_sigma_sq(self.bandwidth) < math.inf:
            why = "small: 2 sigma^2 underflows to 0" if self.bandwidth < 1 else "large: 2 sigma^2 overflows"
            raise ValueError(f"gaussian bandwidth {self.bandwidth} is too {why}")


@dataclass(frozen=True)
class PermutationConfig:
    n_permutations: int = 1000
    seed: int = 0

    def __post_init__(self):
        integer_fields(self, "n_permutations", "seed")  # so equal configs share a cached matrix
        if self.n_permutations < 100 or self.seed < 0:
            raise ValueError(f"need at least 100 permutations and a non-negative seed: {self}")


def _self_distances(X: np.ndarray) -> np.ndarray:
    """Euclidean distances between X's rows, sqrt(max(|a|^2 + |b|^2 - 2 a.b, 0)),
    from one vector of squared norms and, beside the Gram matrix, one (n, n)
    buffer that every later step overwrites."""
    norms = np.sum(X * X, axis=1)
    gram = X @ X.T
    gram *= -2.0  # exact, and adding -2 a.b rounds as subtracting 2 a.b does
    D = np.add(norms[:, None], norms[None, :])
    D += gram
    del gram
    np.maximum(D, 0.0, out=D)
    return np.sqrt(D, out=D)


def _resolve_bandwidth(pooled_distances: np.ndarray, config: KernelConfig) -> float:
    if config.bandwidth is not None:
        return config.bandwidth
    r = np.arange(pooled_distances.shape[0])
    nonzero = pooled_distances[(r[:, None] < r) & (pooled_distances > 0)]
    if nonzero.size == 0:
        warnings.warn("all pairwise distances are zero; falling back to bandwidth 1.0", stacklevel=3)
        return 1.0
    # np.median by selection: after partitioning at m the m smallest come
    # first, so an even count averages their maximum with the m-th. np.median
    # gives the same bits but partitions at three ranks for its NaN check (6x
    # the time on 200 pooled rows) and imports numpy.ma (1.5 MB) on first call.
    m = nonzero.size // 2
    nonzero.partition(m)
    if nonzero.size % 2:
        return float(nonzero[m])
    return float((nonzero[:m].max() + nonzero[m]) / 2)


def _two_sigma_sq(sigma: float) -> float:
    """The gaussian kernel's 2 sigma^2, inf where it overflows."""
    try:
        return 2.0 * float(sigma) ** 2
    except OverflowError:
        return math.inf


def _apply_kernel(distances: np.ndarray, kind: str, sigma: float) -> np.ndarray:
    """exp(-D / sigma) or exp(-D^2 / (2 sigma^2)), computed in ``distances``."""
    K = distances
    if kind == "exponential":
        np.negative(K, out=K)
        K /= sigma
    else:
        np.square(K, out=K)
        np.negative(K, out=K)
        K /= _two_sigma_sq(sigma)
    return np.exp(K, out=K)


def _as_matrix(E) -> np.ndarray:
    E = np.asarray(E, dtype=float)
    if E.ndim == 1:
        E = E[:, None]
    return E


def _pooled_kernel(E1: np.ndarray, E2: np.ndarray, config: KernelConfig):
    distances = _self_distances(np.vstack([E1, E2]))
    sigma = _resolve_bandwidth(distances, config)
    return _apply_kernel(distances, config.kind, sigma), sigma


def _mmd_from_sums(s11, zK1, total, a: int, b: int):
    """Biased MMD^2 from s11 = z'Kz, zK1 = z'K1 and total = 1'K1, where the
    membership z marks the a rows of the first sample."""
    s22 = total - 2.0 * zK1 + s11
    s12 = zK1 - s11
    return s11 / (a * a) + s22 / (b * b) - 2.0 * s12 / (a * b)


def _stats_for_memberships(K: np.ndarray, row_sums: np.ndarray, Z: np.ndarray, a: int, b: int) -> np.ndarray:
    """Biased MMD^2 for each membership column z of Z via quadratic forms;
    ``row_sums`` is ``K.sum(axis=1)``."""
    s11 = np.einsum("ip,ip->p", Z, K @ Z)
    return _mmd_from_sums(s11, row_sums @ Z, row_sums.sum(), a, b)


def _gamma(k: int, u: float) -> float:
    """Higham's gamma_k = ku / (1 - ku): the relative error bound of k
    roundings with unit roundoff u."""
    return k * u / (1.0 - k * u)


def _tie_margin(a: int, b: int) -> float:
    """Float64 tie margin tau of the statistic of an a-vs-b split.

    K's entries lie in [0, 1] and the membership products are exact, so each
    K_ij in s11, zK1 and the total goes through at most 2n - 2 roundings,
    then at most 5 more in ``_mmd_from_sums``. A float64 statistic is thus
    within gamma_{2n+5} times its sum of absolute terms, at most 4 (n/b)^2,
    of its exact value. Two splits that tie in exact arithmetic, such as the
    observed split and its mirror, land within twice that of each other.
    """
    n = a + b
    return 8.0 * _gamma(2 * n + 5, 2.0**-53) * (n / b) ** 2


def _screen(K: np.ndarray, row_sums: np.ndarray, Z32: np.ndarray, a: int, b: int):
    """Statistics of the float32 membership columns Z32 with s11 = z'Kz and
    zK1 = z'K1 summed in float32, and per column a bound on their distance
    from the float64 ones, tau aside; ``row_sums`` is ``K.sum(axis=1)``.

    Rounding K to float32 and the two float32 sums of non-negative terms keep
    s11 within c = (1 + u)(1 + gamma_n)^2 - 1 of the exact s11 (u = 2^-24),
    so within c / (1 - c) of the float32 one; entries and partial sums below
    float32's normal range add at most n^2 2^-125. zK1, from the row sums
    rounded to float32 and one float32 sum, is within c of the exact zK1 with
    a gamma_n to spare for the row sums' float64 rounding; they are at least
    K's diagonal 1, so nothing underflows. A unit of s11 moves the statistic
    by (n / ab)^2, one of zK1 by 2n / (a b^2). The float64 rest adds at most
    tau / 2, and gamma_n for n - 1 additions leaves a slack of u, which covers
    the float64 rounding of the bound and of the comparisons with it. So
    |screened - _stats_for_memberships| <= bound + tau.
    """
    n = a + b
    s11 = np.einsum("ip,ip->p", Z32, K.astype(np.float32) @ Z32).astype(np.float64)
    zK1 = (row_sums.astype(np.float32) @ Z32).astype(np.float64)
    c = (1.0 + 2.0**-24) * (1.0 + _gamma(n, 2.0**-24)) ** 2 - 1.0
    r = (1.0 + c / (1.0 - c)) * (1.0 + _gamma(5, 2.0**-53)) - 1.0
    bound = (r * s11 + n * n * 2.0**-124) * (n / (a * b)) ** 2 + r * zK1 * 2.0 * n / (a * b * b)
    return _mmd_from_sums(s11, zK1, row_sums.sum(), a, b), bound


_MEMBERSHIP_MEMO: dict[tuple, np.ndarray] = {}


def permutation_memberships(n: int, a: int, perm_config: PermutationConfig) -> np.ndarray:
    """Read-only (n, P) float32 0/1 matrix whose column p marks the rows that
    the p-th random permutation of the pooled sample assigns to the first
    sample of size ``a``; the only place the permutation stream is drawn.

    It depends on the sample sizes and ``perm_config`` alone, so it is
    memoized with one entry: consecutive tests over one key (a GPF test and
    its detection tests, repeated audits) share it, and it is dropped before
    another key's matrix is drawn, so one matrix at most is ever held.
    """
    n, a = operator.index(n), operator.index(a)
    if not 0 < a < n:
        raise ValueError(f"first sample size {a} must lie strictly between 0 and {n}")
    key = (n, a, perm_config)
    if key not in _MEMBERSHIP_MEMO:
        _MEMBERSHIP_MEMO.clear()
        _MEMBERSHIP_MEMO[key] = _draw_memberships(n, a, perm_config)
    return _MEMBERSHIP_MEMO[key]


def _draw_memberships(n: int, a: int, perm_config: PermutationConfig) -> np.ndarray:
    rng = np.random.default_rng(perm_config.seed)
    P = perm_config.n_permutations
    # row p is the p-th permutation of 0..n-1 as rng.permutation(n) would draw it:
    # the shuffle's draws depend on n alone, so int32 indices shuffled in place agree
    perms = np.tile(np.arange(n, dtype=np.int32), (P, 1))
    rng.permuted(perms, axis=1, out=perms)
    Z = np.zeros((n, P), dtype=np.float32)
    Z[perms[:, :a].T, np.arange(P)] = 1.0
    Z.setflags(write=False)
    return Z


def permutation_pvalue(
    E1,
    E2,
    kernel_config: KernelConfig | None = None,
    perm_config: PermutationConfig | None = None,
) -> float:
    """Permutation p-value of the MMD two-sample test.

    The kernel bandwidth is fixed once on the pooled sample and reused for
    every permutation; p = (1 + #{permuted >= observed}) / (1 + P), where
    ties count: a permuted split counts when its float64 statistic is at
    least the observed one less a float64 rounding bound, so a split with
    the observed statistic in exact arithmetic (its mirror, say) counts.
    The permuted splits are the columns of the float32 matrix
    ``permutation_memberships(a + b, a, perm_config)``; their statistics are
    screened in float32, and those the screen's error bound cannot place are
    settled in float64 on their columns cast to float64 (0/1 is exact in
    both). A bandwidth so large that every kernel entry rounds to 1 while
    some pooled row differs from another is a ValueError: every
    statistic would be 0 and p = 1 whatever the samples. (Identical samples,
    whose rows are all equal, still give p = 1.)
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
    memberships = permutation_memberships(n, a, perm_config)
    K, sigma = _pooled_kernel(E1, E2, kernel_config)
    row_sums = K.sum(axis=1)
    # every entry 1 makes every row sum exactly n, so K is scanned only then
    if row_sums.min() == n and K.min() == 1.0 and ((E1 != E1[0]).any() or (E2 != E1[0]).any()):
        raise ValueError(
            f"{kernel_config.kind} kernel bandwidth {sigma} rounds every kernel entry of the pooled sample"
            " to 1, so every statistic is 0; choose a smaller bandwidth"
        )

    observed_membership = np.repeat([[1.0], [0.0]], [a, b], axis=0)
    observed = _stats_for_memberships(K, row_sums, observed_membership, a, b)[0]
    # a screened column above observed + bound counts and one below
    # observed - bound - 2 tau does not; the rest are scored again in float64
    fast, bound = _screen(K, row_sums, memberships, a, b)
    tau = _tie_margin(a, b)
    near = np.abs(fast - observed) <= bound + 2.0 * tau
    exact = _stats_for_memberships(K, row_sums, memberships[:, near].astype(np.float64), a, b)
    count = int(np.sum(fast[~near] > observed)) + int(np.sum(exact >= observed - tau))
    return float((1 + count) / (1 + perm_config.n_permutations))


# ---------------------------------------------------------------------------
# PCA projection


@dataclass(frozen=True)
class PcaResult:
    projected: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray
    mean: np.ndarray

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
