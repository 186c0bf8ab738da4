"""Independent references the library is checked against, kept out of the
package because no program path calls them.

- ``exact_shapley`` enumerates all 2^d coalitions; Kernel SHAP must match it
  whenever its budget covers every proper coalition (Lundberg & Lee 2017).
  It shares no solver code with ``procfair.attribution.explain_set``.
- ``_masked_values`` is Kernel SHAP's generic value function: it builds the
  masked rows and scores them. ``MlpModel.masked_values`` must match it, and
  ``ScoreFunction`` lends it to any function of rows, so ``explain_set`` can
  explain linear functions, constants and probabilities.
- ``mmd2`` is the textbook biased MMD^2 estimator (Gretton et al. 2012) that
  the permutation test's quadratic forms are held to.
- ``isotonic_decreasing`` smooths criterion 07's sweep medians.
- ``read_explanations_csv`` reads what ``audit --export-explanations`` writes.
- ``soft_dp`` and ``input_gradient`` state the training penalty and the
  input gradients in their plain form.
- ``gemm_mlp_loss_grads`` and ``gemm_mlp_modified_grads`` are the MLP's
  gradient steps as one-shot gemm calls: ``_mlp_forward`` builds a fresh
  (rows x hidden) layer with ``b1`` added in its own pass, and the backward
  gemm is ``act.T @ R``. The workspace steps of
  ``MlpModel.loss_step``/``modified_step`` must reproduce them bit for bit.
- ``closed_form_logistic_modified_grads`` is the logistic modification step
  written out for that family alone, with a dense (rows x d) sign matrix.
  The shared step ``LogisticModel.modified_step`` must match it to rounding.
- ``mean_accuracy``, ``mean_dp``, ``mean_eo`` and ``mean_eod`` are the
  distributive metrics as means of boolean-masked predictions, one mask per
  conditioning cell. ``procfair.fairness`` reads them from one count table;
  on 0/1 predictions and truths it must give the same floats and name the
  same first empty cell.
- ``reference_split`` is the raw seeded split, checked on its row indices
  and built as two datasets of un-standardized rows. ``standardized_split``
  must return its z-score, with the same sizes, provenance and errors.
- ``reference_load_csv`` is the earlier row-list CSV loader with its own
  label and group-value rules; on files without padded categorical cells
  ``procfair.datasets.load_csv`` must return the same dataset, or fail with
  the same message.
- ``reference_write_table`` is the earlier row-by-row CSV writer, which
  formats each cell on its own; ``procfair._formats.write_table`` must write
  the same bytes.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from procfair.attribution import ExplanationSet
from procfair.datasets import SplitDataset, TabularDataset, load_schema
from procfair.models import _check_inputs, _clamped_bce, _delta_scores, _sigmoid, predict_proba
from procfair.two_sample import KernelConfig, _as_matrix, _pooled_kernel

EXACT_SHAPLEY_MAX_D = 15


def exact_shapley(predict_fn, x, background) -> ExplanationSet:
    """Exact Shapley values by full coalition enumeration with the
    marginal-expectation value function, as a one-row ExplanationSet. Cost
    2^d; refuses d > 15.
    """
    x = np.asarray(x, dtype=float).ravel()
    d = x.size
    if d > EXACT_SHAPLEY_MAX_D:
        raise ValueError(f"exact enumeration limited to d <= {EXACT_SHAPLEY_MAX_D}")
    background = np.atleast_2d(np.asarray(background, dtype=float))
    if background.shape[1] != d:
        raise ValueError("background dimensionality does not match x")

    values = np.empty(2**d)
    for code in range(2**d):
        present = np.array([(code >> j) & 1 for j in range(d)], dtype=bool)
        masked = np.where(present, x, background)
        values[code] = float(np.mean(predict_fn(masked)))

    factorial = [math.factorial(i) for i in range(d + 1)]
    phi = np.zeros(d)
    for j in range(d):
        bit = 1 << j
        for code in range(2**d):
            if code & bit:
                continue
            s = bin(code).count("1")
            weight = factorial[s] * factorial[d - 1 - s] / factorial[d]
            phi[j] += weight * (values[code | bit] - values[code])
    names = tuple(f"f{j}" for j in range(d))
    return ExplanationSet(phi[None, :], [values[0]], [values[2**d - 1]], names)


def _masked_values(predict_fns, X: np.ndarray, background: np.ndarray, Z: np.ndarray) -> list[np.ndarray]:
    """Mean output of each function per (row, coalition): present features
    come from the row, absent ones from each background row, averaged.

    Each chunk of masked rows is built once, read-only, and evaluated by
    every function in turn; each function's predictions are reduced to its
    block before the next function runs."""
    n, d = X.shape
    n_c = Z.shape[0]
    k = background.shape[0]
    outs = [np.empty((n, n_c)) for _ in predict_fns]
    rows_per_chunk = max(1, 500_000 // (n_c * k))
    for start in range(0, n, rows_per_chunk):
        chunk = X[start : start + rows_per_chunk]
        masked = np.where(Z[None, :, None, :], chunk[:, None, None, :], background[None, None, :, :])
        masked = masked.reshape(-1, d)
        masked.setflags(write=False)
        for predict_fn, out in zip(predict_fns, outs):
            preds = np.asarray(predict_fn(masked), dtype=float).reshape(len(chunk), n_c, k)
            out[start : start + len(chunk)] = preds.mean(axis=2)
            del preds  # one function's predictions at a time
    return outs


@dataclass(frozen=True)
class ScoreFunction:
    """Any function of rows as ``explain_set`` takes a model: its outputs
    are the explained scores, and its value function is the generic one."""

    fn: Callable[[np.ndarray], np.ndarray]

    def scores(self, X: np.ndarray) -> np.ndarray:
        return self.fn(X)

    def masked_values(self, X: np.ndarray, background: np.ndarray, Z: np.ndarray) -> np.ndarray:
        return _masked_values([self.fn], X, background, Z)[0]


def _mlp_forward(X, w1, b1, w2, b2):
    """0/1 activation matrix (in the hidden layer's buffer) and probabilities."""
    hidden = X @ w1.T
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    p = _sigmoid(hidden @ w2 + b2)
    return np.greater(hidden, 0.0, out=hidden), p


def _mlp_backward(X, act, w1, b1, w2, delta, ev=None):
    """Parameter gradients of sum_i delta_i * s_i + sum_i ev_i . ds_i/dx_i with
    the activation pattern held fixed, where s_i = sum_k act_ik w2_k (w1_k . x_i
    + b1_k). With M = act^T (delta X + ev) and n = act^T delta, unit k's
    gradients are w2_k M_k, w2_k n_k and w1_k . M_k + b1_k n_k: one gemm."""
    d = X.shape[1]
    R = np.empty((X.shape[0], d + 1))
    np.multiply(delta[:, None], X, out=R[:, :d])
    if ev is not None:
        R[:, :d] += ev
    R[:, d] = delta
    G = act.T @ R
    M, n = G[:, :d], G[:, d]
    return [w2[:, None] * M, w2 * n, (w1 * M).sum(axis=1) + b1 * n, np.array([delta.sum()])]


def gemm_mlp_loss_grads(params, X, y, group_mask, dp_weight):
    w1, b1, w2, b2 = params
    act, p = _mlp_forward(X, w1, b1, w2, b2[0])
    delta, extra = _delta_scores(p, y, group_mask, dp_weight, X.shape[0])
    return _clamped_bce(p, y) + extra, _mlp_backward(X, act, w1, b1, w2, delta)


def gemm_mlp_modified_grads(params, X, y, uf, alpha):
    """BCE, zeta and the gradients of bce + alpha * zeta."""
    w1, b1, w2, b2 = params
    m = X.shape[0]
    act, p = _mlp_forward(X, w1, b1, w2, b2[0])
    err = p - y

    # Per sample the input gradient is g = err * aw with aw = act @ (w2 * w1);
    # with v = sign(g) restricted to the flagged features,
    # zeta = mean(v . g) = mean(err * c) where c = v . aw.
    aw = act @ (w2[:, None] * w1)
    v = np.zeros_like(aw)
    v[:, uf] = np.sign(err[:, None] * aw[:, uf])
    c = (v * aw).sum(axis=1)
    zeta = float((err * c).sum() / m)

    # alpha * zeta reaches each score through err (d err / d s = p (1 - p))
    # and each input gradient directly, with weight alpha / m * err * v.
    scale = alpha / m
    delta = err / m + scale * (p * (1.0 - p) * c)
    return _clamped_bce(p, y), zeta, _mlp_backward(X, act, w1, b1, w2, delta, scale * err[:, None] * v)


def closed_form_logistic_modified_grads(params, X, y, uf, alpha):
    """BCE, zeta and the gradients of bce + alpha * zeta for sigmoid(w . x + b)."""
    w, b = params
    m = X.shape[0]
    p = _sigmoid(X @ w + b[0])
    err = p - y
    curv = p * (1.0 - p)

    bce = _clamped_bce(p, y)
    gw = X.T @ (err / m)
    gb = np.array([err.sum() / m])

    # g = err * w; zeta = mean(err * s) with s = v . w.
    v = np.zeros((m, w.size))
    v[:, uf] = np.sign(np.outer(err, w[uf]))
    s = v @ w
    zeta = float((err * s).sum() / m)

    qs = curv * s
    zw = ((qs[:, None] * X) + err[:, None] * v).sum(axis=0) / m
    zb = np.array([qs.sum() / m])
    return bce, zeta, [gw + alpha * zw, gb + alpha * zb]


def _mean_rate(values: np.ndarray, mask: np.ndarray, cell: str) -> float:
    if not mask.any():
        raise ValueError(f"empty conditioning cell: {cell}")
    return float(values[mask].mean())


def mean_accuracy(predictions, truths) -> float:
    return float((np.asarray(predictions) == np.asarray(truths)).mean())


def mean_dp(predictions, group_mask) -> float:
    predictions = np.asarray(predictions)
    group_mask = np.asarray(group_mask, dtype=bool)
    r1 = _mean_rate(predictions, group_mask, "group 1")
    r2 = _mean_rate(predictions, ~group_mask, "group 2")
    return float(abs(r1 - r2))


def mean_eo(predictions, truths, group_mask) -> float:
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    group_mask = np.asarray(group_mask, dtype=bool)
    tpr1 = _mean_rate(predictions, group_mask & (truths == 1), "group 1, y=1")
    tpr2 = _mean_rate(predictions, ~group_mask & (truths == 1), "group 2, y=1")
    return float(abs(tpr1 - tpr2))


def mean_eod(predictions, truths, group_mask) -> float:
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    group_mask = np.asarray(group_mask, dtype=bool)
    fpr1 = _mean_rate(predictions, group_mask & (truths == 0), "group 1, y=0")
    fpr2 = _mean_rate(predictions, ~group_mask & (truths == 0), "group 2, y=0")
    tpr1 = _mean_rate(predictions, group_mask & (truths == 1), "group 1, y=1")
    tpr2 = _mean_rate(predictions, ~group_mask & (truths == 1), "group 2, y=1")
    return float((abs(fpr1 - fpr2) + abs(tpr1 - tpr2)) / 2.0)


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


def read_explanations_csv(path) -> ExplanationSet:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    if header[-2:] != ["base", "target"]:
        raise ValueError("not an explanation CSV (missing base/target columns)")
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    return ExplanationSet(data[:, :-2], data[:, -2], data[:, -1], tuple(header[:-2]))


def soft_dp(model, X, group_mask) -> float:
    """Differentiable demographic-parity surrogate: absolute gap between the
    mean predicted probabilities of the two groups."""
    group_mask = np.asarray(group_mask, dtype=bool)
    if not group_mask.any() or group_mask.all():
        raise ValueError("both groups must be present")
    p = predict_proba(model, X)
    return float(abs(p[group_mask].mean() - p[~group_mask].mean()))


def input_gradient(model, X, y) -> np.ndarray:
    """Exact gradient of the mean BCE loss with respect to every input
    coordinate; one row per sample."""
    X = _check_inputs(model, X)
    y = np.asarray(y, dtype=float)
    return model.per_sample_input_gradient(X, y) / X.shape[0]


def reference_label_encode(values) -> tuple[np.ndarray, dict[str, int] | None]:
    """The earlier ``label_encode``: categorical cells are keyed unstripped."""
    raw = list(values)
    if not raw:
        raise ValueError("empty column")
    try:
        return np.array([float(v) for v in raw]), None
    except (TypeError, ValueError):
        pass
    mapping: dict[str, int] = {}
    codes = np.empty(len(raw))
    for i, v in enumerate(raw):
        key = str(v)
        if key not in mapping:
            mapping[key] = len(mapping)
        codes[i] = mapping[key]
    return codes, mapping


def _coerce(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value).strip()


def _encode_label_column(column: list[str], positive) -> np.ndarray:
    parsed = [_coerce(c) for c in column]
    distinct: list = []
    for v in parsed:
        if v not in distinct:
            distinct.append(v)
    if positive is not None:
        pos = _coerce(positive)
        if len(distinct) > 2:
            raise ValueError(f"non-binary label column: values {distinct}")
        if pos not in distinct:
            raise ValueError(f"positive label {positive!r} absent from the label column")
        return np.array([1 if v == pos else 0 for v in parsed], dtype=np.int64)
    if not set(distinct) <= {0.0, 1.0}:
        raise ValueError(f"non-binary label column: values {distinct}")
    return np.array([int(v) for v in parsed], dtype=np.int64)


def _resolve_group_value(value, mapping: dict[str, int] | None) -> float:
    if mapping is not None:
        key = str(value)
        if key not in mapping:
            raise ValueError(f"group value {value!r} absent from the sensitive column")
        return float(mapping[key])
    return float(value)


def reference_load_csv(path, schema) -> TabularDataset:
    schema = load_schema(schema)
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if len(rows) < 2:
        raise ValueError("CSV needs a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise ValueError("duplicate header names")
    data = rows[1:]
    for i, row in enumerate(data):
        if len(row) != len(header):
            raise ValueError(f"ragged row {i + 2}: expected {len(header)} cells, got {len(row)}")

    label_name = str(schema["label"])
    sensitive_name = str(schema["sensitive"])
    if label_name not in header:
        raise ValueError(f"unknown label column {label_name!r}")
    if sensitive_name not in header:
        raise ValueError(f"unknown sensitive column {sensitive_name!r}")

    columns = list(zip(*data))
    # the toolkit has no missing-value handling, and a blank would be encoded
    # as a category; a numeric column must hold finite numbers
    for name, column in zip(header, columns):
        if not all(map(str.strip, column)):
            i = next(i for i, cell in enumerate(column) if not cell.strip())
            raise ValueError(f"blank cell in column {name!r}, row {i + 2}")
        try:
            values = [float(cell) for cell in column]
        except ValueError:
            continue
        if not all(map(math.isfinite, values)):
            i = next(i for i, value in enumerate(values) if not math.isfinite(value))
            raise ValueError(f"non-finite cell in column {name!r}, row {i + 2}")
    labels = _encode_label_column(list(columns[header.index(label_name)]), schema.get("positive_label"))

    feature_positions = [i for i, name in enumerate(header) if name != label_name]
    names = tuple(header[i] for i in feature_positions)
    encoded = []
    mappings: dict[str, dict[str, int]] = {}
    for i in feature_positions:
        codes, mapping = reference_label_encode(list(columns[i]))
        encoded.append(codes)
        if mapping is not None:
            mappings[header[i]] = mapping
    features = np.column_stack(encoded)
    sensitive_index = names.index(sensitive_name)
    group_values = (
        _resolve_group_value(schema["advantaged_value"], mappings.get(sensitive_name)),
        _resolve_group_value(schema["disadvantaged_value"], mappings.get(sensitive_name)),
    )
    provenance = f"csv:{path.name}"
    if mappings:
        provenance += "|encoded=" + json.dumps(mappings, sort_keys=True)
    return TabularDataset(features, names, labels, sensitive_index, group_values, provenance)


def reference_write_table(path, header, rows, footer: str = "") -> None:
    """UTF-8 CSV, one ``writerow`` per row: each float cell (a ``float``
    subclass included) by ``repr``, anything else by ``str``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
        fh.write(footer)


def reference_split(dataset: TabularDataset, ratio: float, seed: int) -> SplitDataset:
    """Seeded uniform split; train receives ceil(ratio * m) rows."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    if dataset.m < 2:
        raise ValueError("need at least two rows to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.m)
    n_train = math.ceil(ratio * dataset.m)
    if n_train >= dataset.m:
        raise ValueError("ratio leaves an empty test split")
    train_idx, test_idx = perm[:n_train], perm[n_train:]

    adv, dis = dataset.group_values
    for name, idx in (("train", train_idx), ("test", test_idx)):
        col = dataset.features[idx, dataset.sensitive_index]
        if not ((col == adv).any() and (col == dis).any()):
            raise ValueError(f"{name} split lost a sensitive group; use a different seed")
    y_train = dataset.labels[train_idx]
    if y_train.min() == y_train.max():
        raise ValueError("train split lost a label class; use a different seed")

    tag = f"|split({ratio}, seed={seed})"
    return SplitDataset(
        *(
            TabularDataset(
                dataset.features[idx],
                dataset.feature_names,
                dataset.labels[idx],
                dataset.sensitive_index,
                dataset.group_values,
                dataset.provenance + tag + f"[{name}]",
            )
            for name, idx in (("train", train_idx), ("test", test_idx))
        )
    )
