"""Elementwise MLP gradient formulas, kept as the reference for the factored
gemm versions in ``procfair.models`` and ``procfair.mitigation``.

Every (rows x hidden) product here is an explicit temporary: the ReLU mask
``active``, the masked output weights ``active * w2`` and the backpropagated
hidden error ``d1``. The library computes the same quantities as gemms
against the 0/1 activation matrix, so the two agree to rounding.
"""

import numpy as np

from procfair.models import _clamped_bce, _delta_scores, decision_score


def reference_sigmoid(z):
    """Logistic function with a boolean-mask scatter over the sign of z."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_mlp_loss_grads(params, X, y, group_mask, dp_weight):
    w1, b1, w2, b2 = params
    z1 = X @ w1.T + b1
    active = z1 > 0
    a1 = np.where(active, z1, 0.0)
    p = reference_sigmoid(a1 @ w2 + b2[0])
    m = X.shape[0]
    loss = _clamped_bce(p, y)
    delta, extra = _delta_scores(p, y, group_mask, dp_weight, m)
    gw2 = a1.T @ delta
    gb2 = np.array([delta.sum()])
    d1 = (delta[:, None] * w2) * active
    gw1 = d1.T @ X
    gb1 = d1.sum(axis=0)
    return loss + extra, [gw1, gb1, gw2, gb2]


def reference_mlp_input_gradient(model, X, y):
    """Gradient of each row's own BCE term with respect to that row."""
    err = reference_sigmoid(decision_score(model, X)) - y
    active = (X @ model.w1.T + model.b1) > 0
    return (err[:, None] * (active * model.w2)) @ model.w1


def reference_mlp_modified_grads(params, X, y, uf, alpha):
    w1, b1, w2, b2 = params
    m = X.shape[0]
    z1 = X @ w1.T + b1
    active = (z1 > 0).astype(float)
    a1 = np.where(z1 > 0, z1, 0.0)
    p = reference_sigmoid(a1 @ w2 + b2[0])
    err = p - y
    curv = p * (1.0 - p)

    bce = _clamped_bce(p, y)
    delta = err / m
    gw2 = a1.T @ delta
    gb2 = np.array([delta.sum()])
    d1 = (delta[:, None] * w2) * active
    gw1 = d1.T @ X
    gb1 = d1.sum(axis=0)

    masked_w2 = active * w2
    g = (err[:, None] * masked_w2) @ w1
    v = np.zeros_like(g)
    v[:, uf] = np.sign(g[:, uf])
    u = v @ w1.T
    c = (u * masked_w2).sum(axis=1)
    zeta = float((err * c).sum() / m)

    if alpha == 0.0:
        return bce, zeta, [gw1, gb1, gw2, gb2]

    qc = curv * c
    zb2 = np.array([qc.sum() / m])
    zw2 = (qc[:, None] * a1 + err[:, None] * (u * active)).sum(axis=0) / m
    zb1 = w2 * (qc[:, None] * active).sum(axis=0) / m
    zw1 = ((qc[:, None] * masked_w2).T @ X + (err[:, None] * masked_w2).T @ v) / m
    return bce, zeta, [
        gw1 + alpha * zw1,
        gb1 + alpha * zb1,
        gw2 + alpha * zw2,
        gb2 + alpha * zb2,
    ]


def random_mlp_params(d, h, seed):
    """Random parameters whose hidden unit 0 never fires on O(1) inputs."""
    rng = np.random.default_rng(seed)
    b1 = rng.normal(size=h)
    b1[0] = -1e3
    return [rng.normal(size=(h, d)), b1, rng.normal(size=h), rng.normal(size=1)]
