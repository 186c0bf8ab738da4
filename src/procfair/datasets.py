"""Tabular datasets: CSV ingestion, preprocessing, splitting, and synthetic
data generation.

All operations are pure functions of their inputs plus an explicit seed;
datasets are immutable after construction.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import math
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._formats import integer_fields, read_json, readonly, write_json, write_table

__all__ = [
    "TabularDataset",
    "SyntheticConfig",
    "SplitDataset",
    "ZScoreStats",
    "SYNTHETIC_FEATURE_NAMES",
    "load_csv",
    "write_csv",
    "write_schema",
    "load_schema",
    "label_encode",
    "standardized_split",
    "generate_synthetic",
    "pearson_correlation",
    "select_fair_features",
    "concat_datasets",
]

SYNTHETIC_FEATURE_NAMES = ("x1", "x2", "xs", "xp")
# The training share of a split, and the |correlation| with the sensitive
# column below which a feature counts as fair.
SPLIT_RATIO = 0.8
FAIR_CORRELATION_THRESHOLD = 0.10


@dataclass(frozen=True)
class TabularDataset:
    """Feature matrix with binary labels and a designated sensitive column.

    ``group_values`` holds the raw values of the sensitive column that mark
    the (advantaged, disadvantaged) groups, and every row holds one of them:
    a row in neither group would be counted by some stages and skipped by
    others, so such a column is refused. The sensitive column stays inside
    the feature matrix so that models can be trained with or without it by
    plain column subsetting.
    """

    features: np.ndarray
    feature_names: tuple[str, ...]
    labels: np.ndarray
    sensitive_index: int
    group_values: tuple[float, float]
    provenance: str = ""

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-D matrix")
        if not np.isfinite(feats).all():
            raise ValueError("features contain non-finite values")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != feats.shape[1]:
            raise ValueError("feature_names length does not match feature count")
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names")
        labels = np.asarray(self.labels)
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must be one value per row")
        if np.count_nonzero(labels == 0) + np.count_nonzero(labels == 1) != labels.size:
            raise ValueError("labels must all be 0 or 1")
        if not 0 <= int(self.sensitive_index) < feats.shape[1]:
            raise ValueError("sensitive_index out of range")
        gv = (float(self.group_values[0]), float(self.group_values[1]))
        if gv[0] == gv[1]:
            raise ValueError("group values must be distinct")
        col = feats[:, int(self.sensitive_index)]
        in_groups = 0
        for value in gv:
            rows = np.count_nonzero(col == value)
            if not rows:
                raise ValueError(f"group value {value} absent from the sensitive column")
            in_groups += rows
        if in_groups < len(col):
            stray = np.unique(col[(col != gv[0]) & (col != gv[1])])
            shown = ", ".join(map(repr, stray[:5].tolist())) + (", ..." if stray.size > 5 else "")
            raise ValueError(
                f"sensitive column holds {stray.size} value(s) in neither group: {shown}; "
                "keep only the two groups' rows"
            )
        object.__setattr__(self, "features", readonly(feats))
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "labels", readonly(labels, np.int64))
        object.__setattr__(self, "sensitive_index", int(self.sensitive_index))
        object.__setattr__(self, "group_values", gv)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def sensitive_column(self) -> np.ndarray:
        return self.features[:, self.sensitive_index]

    @property
    def advantaged_mask(self) -> np.ndarray:
        return self.sensitive_column == self.group_values[0]

    @property
    def disadvantaged_mask(self) -> np.ndarray:
        return self.sensitive_column == self.group_values[1]

    def checked_features(self, feature_indices=None) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """The column numbers ``feature_indices`` (default: all), each checked
        to be a column, and their names. ``operator.index`` refuses a float
        such as 1.0 with a TypeError; numpy would wrap a negative index."""
        feats = tuple(range(self.d) if feature_indices is None else map(operator.index, feature_indices))
        if not feats:
            raise ValueError("need at least one feature column")
        if min(feats) < 0 or max(feats) >= self.d:
            raise ValueError(f"feature indices {feats} are not all columns 0..{self.d - 1} of the dataset")
        return feats, tuple(self.feature_names[i] for i in feats)

    def columns(self, feature_indices, names=None) -> np.ndarray:
        """The feature matrix on the columns ``feature_indices`` (checked by
        ``checked_features``), the only way the toolkit reads a model's inputs
        off a dataset: itself when they are all its columns in order, else a
        copy of those columns, which must carry ``names``, a model's, if given."""
        feats, own = self.checked_features(feature_indices)
        if names is not None and tuple(names) != own:
            raise ValueError(f"model feature names {tuple(names)} differ from the dataset's columns {own}")
        return self.features if feats == tuple(range(self.d)) else self.features[:, feats]

    @classmethod
    def _of_checked_rows(cls, *fields) -> "TabularDataset":
        """The dataset over ``fields``, in field order, set as given with no
        check and no copy: for arrays that hold only rows of datasets of this
        schema, which their own construction checked, as read-only float64
        features and int64 labels."""
        dataset = object.__new__(cls)
        for field, value in zip(dataclasses.fields(cls), fields, strict=True):
            object.__setattr__(dataset, field.name, value)
        return dataset

    def take(self, rows: np.ndarray) -> "TabularDataset":
        """The rows ``rows`` with the same metadata and provenance. The
        gathered rows are copied once: their fresh arrays are handed to the
        dataset read-only, which keeps them (see ``readonly``) and still
        checks every row."""
        features, labels = self.features[rows], self.labels[rows]
        features.setflags(write=False)
        labels.setflags(write=False)
        return TabularDataset(
            features, self.feature_names, labels, self.sensitive_index, self.group_values, self.provenance
        )


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings for the four-feature synthetic benchmark dataset."""

    m: int = 10000
    n_advantaged: int = 6000
    weights: tuple[float, float, float, float, float] = (-0.2, 1.5, 0.5, 0.5, 0.5)
    proxy_std: float = 0.1
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        integer_fields(self, "m", "n_advantaged", "seed")
        if not 0 < self.n_advantaged < self.m:
            raise ValueError("need 0 < n_advantaged < m")
        if self.seed < 0:
            raise ValueError(f"SyntheticConfig.seed must be non-negative, got {self.seed}")
        for name, shape, what in (
            ("weights", (5,), "five finite numbers"),
            ("proxy_std", (), "a finite number"),
            ("noise_std", (), "a finite number"),
        ):
            values = np.asarray(getattr(self, name))
            if values.shape != shape or values.dtype.kind not in "iuf" or not np.isfinite(values).all():
                raise ValueError(f"SyntheticConfig.{name} must be {what}, got {getattr(self, name)!r}")
        if not self.proxy_std > 0:
            raise ValueError("proxy_std must be positive")
        if not self.noise_std >= 0:
            raise ValueError("noise_std must be non-negative")

    def config_hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SplitDataset:
    """Disjoint train/test partition of one source dataset."""

    train: TabularDataset
    test: TabularDataset


def generate_synthetic(config: SyntheticConfig | None = None) -> TabularDataset:
    """Generate the synthetic benchmark: two independent standard-normal
    features, a binary sensitive feature, and a proxy tracking it.

    The label is 1 exactly when the noisy linear score
    ``w0 + w1*x1 + w2*x2 + w3*xs + w4*xp + N(0, noise_std)`` is >= 0
    (rounding the sigmoid of the score to the nearest integer).

    The columns are drawn, in the order x1, x2, xp, noise, into one (m, 4)
    feature matrix, the standard normals through one reused column buffer.
    The score is summed in place in that buffer, term by term in the order
    above, so besides the features and labels the generator holds three
    columns. Both arrays are handed to the dataset read-only, which keeps
    them (see ``readonly``).
    """
    config = config or SyntheticConfig()
    rng = np.random.default_rng(config.seed)
    features = np.empty((config.m, 4))
    column = np.empty(config.m)
    for j in (0, 1):
        features[:, j] = rng.standard_normal(out=column)
    features[:, 2] = 0.0
    features[: config.n_advantaged, 2] = 1.0
    term = rng.normal(features[:, 2], config.proxy_std)
    features[:, 3] = term
    noise = rng.normal(0.0, config.noise_std, size=config.m)
    w0, *slopes = config.weights
    score = np.multiply(features[:, 0], slopes[0], out=column)
    score += w0
    for j in (1, 2, 3):
        score += np.multiply(features[:, j], slopes[j], out=term)
    score += noise
    del term, noise
    labels = (score >= 0.0).astype(np.int64)
    features.setflags(write=False)
    labels.setflags(write=False)
    provenance = f"synthetic seed={config.seed} config={config.config_hash()}"
    return TabularDataset(features, SYNTHETIC_FEATURE_NAMES, labels, 2, (1.0, 0.0), provenance)


def label_encode(values) -> tuple[np.ndarray, dict[str, int] | None]:
    """Encode one column: numeric columns (every value parses with Python
    ``float``) pass through, anything else gets integer codes in
    first-appearance order, keyed by the value with surrounding whitespace
    stripped.

    Returns the encoded column and the code mapping (None for numeric input).
    """
    raw = list(values)
    if not raw:
        raise ValueError("empty column")
    try:
        return np.fromiter(map(float, raw), float, len(raw)), None
    except (TypeError, ValueError):
        pass
    mapping: dict[str, int] = {}
    return _category_codes(list(map(str, raw)), mapping), mapping


def _category_codes(cells, mapping: dict[str, int]) -> np.ndarray:
    """The codes of the string ``cells``, keyed with surrounding whitespace
    stripped; a key not yet in ``mapping`` is added with the next code, so
    successive slices of a column are coded in first-appearance order."""
    lookup = {cell: mapping.setdefault(cell.strip(), len(mapping)) for cell in dict.fromkeys(cells)}
    return np.fromiter(map(lookup.__getitem__, cells), float, len(cells))


@dataclass(frozen=True)
class ZScoreStats:
    """Per-column standardization statistics (population mean/std) of a
    training part; ``constant_columns`` are its zero-variance columns."""

    mean: np.ndarray
    std: np.ndarray
    constant_columns: tuple[int, ...]


def standardized_split(
    dataset: TabularDataset, ratio: float = SPLIT_RATIO, seed: int = 0
) -> tuple[SplitDataset, ZScoreStats]:
    """Seeded uniform split (train receives ceil(ratio * m) rows), z-scored
    with the training part's population mean and std.

    Both parts are gathered in one pass into one buffer, ``features[perm]``
    and ``labels[perm]``, with the training rows first, and checked on it.
    ``perm`` is ``default_rng(seed).permutation(m)``, drawn as a shuffle of
    an int32 ``arange`` (the shuffle's draws depend only on m), so besides
    the buffer the split holds only the 4-byte permutation and the checks'
    boolean temporaries.
    The stats come from its first ``n_train`` rows, and the whole buffer is
    z-scored in place as ``(features - shift) / scale``, with ``shift =
    where(std > 0, mean, 0)`` and ``scale = where(std > 0, std, 1)``, so a
    column constant on the training part passes through unscaled (with a
    warning). The group values go through the same arithmetic. The buffer is
    then made read-only, and ``train`` and ``test`` are row views of it, which
    their datasets keep (see ``readonly``) and still check row by row; so
    ``concat_datasets(split.train, split.test)`` is the buffer itself, with
    no copy. Each part's provenance gains
    ``|split(ratio, seed=seed)[train|test]|zscore``.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    # fancy indexing gathers with int32 indices directly (np.take would copy them to intp)
    perm = np.arange(dataset.m, dtype=np.int32 if dataset.m <= np.iinfo(np.int32).max else np.intp)
    np.random.default_rng(seed).shuffle(perm)
    n_train = math.ceil(ratio * dataset.m)
    if n_train >= dataset.m:
        raise ValueError("ratio leaves an empty test split")
    features, labels = dataset.features[perm], dataset.labels[perm]

    s = dataset.sensitive_index
    adv, dis = dataset.group_values
    for name, col in (("train", features[:n_train, s]), ("test", features[n_train:, s])):
        if not ((col == adv).any() and (col == dis).any()):
            raise ValueError(f"{name} split lost a sensitive group; use a different seed")
    y_train = labels[:n_train]
    if y_train.min() == y_train.max():
        raise ValueError("train split lost a label class; use a different seed")

    x_train = features[:n_train]
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    constant = tuple(int(i) for i in np.flatnonzero(std == 0.0))
    if constant:
        names = ", ".join(dataset.feature_names[i] for i in constant)
        warnings.warn(f"constant column(s) passed through unscaled: {names}", stacklevel=2)
    shift = np.where(std > 0, mean, 0.0)
    scale = np.where(std > 0, std, 1.0)
    features -= shift
    features /= scale
    features.setflags(write=False)
    labels.setflags(write=False)
    group_values = tuple((v - shift[s]) / scale[s] for v in dataset.group_values)
    tag = f"{dataset.provenance}|split({ratio}, seed={seed})"
    parts = (
        TabularDataset(features[rows], dataset.feature_names, labels[rows], s, group_values, f"{tag}[{name}]|zscore")
        for name, rows in (("train", slice(None, n_train)), ("test", slice(n_train, None)))
    )
    return SplitDataset(*parts), ZScoreStats(readonly(mean), readonly(std), constant)


def pearson_correlation(dataset: TabularDataset, feature: int) -> float:
    """Pearson correlation between one feature column and the sensitive column."""
    x = dataset.features[:, feature]
    s = dataset.sensitive_column
    if x.std() == 0.0 or s.std() == 0.0:
        raise ValueError("zero-variance column in correlation")
    return float(np.corrcoef(x, s)[0, 1])


def select_fair_features(dataset: TabularDataset, threshold: float = FAIR_CORRELATION_THRESHOLD) -> tuple[int, ...]:
    """Indices of non-sensitive features whose |correlation| with the
    sensitive column is below the threshold. Constant columns carry no group
    signal and count as fair.
    """
    fair = []
    for j in range(dataset.d):
        if j == dataset.sensitive_index:
            continue
        try:
            r = pearson_correlation(dataset, j)
        except ValueError:
            r = 0.0
        if abs(r) < threshold:
            fair.append(j)
    if not fair:
        raise ValueError(
            f"no feature correlates below {threshold}; retry with a higher threshold"
        )
    return tuple(fair)


def _joined(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """The rows of two datasets' arrays ``x`` then ``y`` as one view, without
    a copy, when ``y``'s rows directly follow ``x``'s in one C-contiguous
    buffer (a split's parts do); else None. A dataset's arrays are read-only
    views of a read-only owner (see ``readonly``), so the view is too."""
    base = x.base
    if (
        base is None
        or y.base is not base
        or not (base.flags.c_contiguous and x.flags.c_contiguous and y.flags.c_contiguous)
        or not x.dtype == y.dtype == base.dtype
        or not x.shape[1:] == y.shape[1:] == base.shape[1:]
    ):
        return None
    row = base.itemsize * math.prod(base.shape[1:])
    start, rest = divmod(x.ctypes.data - base.ctypes.data, row)
    if rest or y.ctypes.data != x.ctypes.data + len(x) * row:
        return None
    return base[start : start + len(x) + len(y)]


def concat_datasets(a: TabularDataset, b: TabularDataset) -> TabularDataset:
    """Row-concatenate two datasets with identical schema. When ``b``'s rows
    directly follow ``a``'s in one read-only buffer, as a standardized
    split's test part follows its training part, the dataset is built over
    that buffer and copies no row. Otherwise the stacked rows are copied
    once, read-only. Either way every row passed ``TabularDataset``'s checks
    when its part was built, and the schema and group values are the parts',
    so the rows are not scanned again."""
    if a.feature_names != b.feature_names or a.sensitive_index != b.sensitive_index:
        raise ValueError("datasets have different schemas")
    if a.group_values != b.group_values:
        raise ValueError("datasets have different group encodings")
    features = _joined(a.features, b.features)
    labels = _joined(a.labels, b.labels)
    if features is None or labels is None:
        features = np.vstack([a.features, b.features])
        labels = np.concatenate([a.labels, b.labels])
        features.setflags(write=False)
        labels.setflags(write=False)
    return TabularDataset._of_checked_rows(
        features, a.feature_names, labels, a.sensitive_index, a.group_values, a.provenance + "+" + b.provenance
    )


# ---------------------------------------------------------------------------
# CSV + schema sidecar I/O


def load_schema(schema) -> dict:
    doc = dict(schema) if isinstance(schema, dict) else read_json(schema)
    for key in ("label", "sensitive", "advantaged_value", "disadvantaged_value"):
        if key not in doc:
            raise ValueError(f"schema is missing the {key!r} entry")
    return doc


def _schema_code(value, mapping: dict[str, int] | None, absent: str) -> float:
    """A schema value's code: its entry in the column's ``label_encode``
    mapping, or the value parsed with float when the column is numeric."""
    try:
        return float(value) if mapping is None else float(mapping[str(value).strip()])
    except (KeyError, TypeError, ValueError):
        raise ValueError(absent.format(value)) from None


# Data rows that ``load_csv`` holds as strings at a time.
_CHUNK_ROWS = 4096


def _column_chunks(lines, width: int):
    """The data rows left in ``lines`` (the file's non-empty CSV rows) in
    chunks of up to ``_CHUNK_ROWS``, each as the number of its first row and
    its columns; lines starting with '#' are dropped and not
    numbered. A ragged row fails when its chunk is read, and so before an
    undecodable byte that follows it."""
    first = 2
    while True:
        raw: list = []
        try:
            raw.extend(itertools.islice(lines, _CHUNK_ROWS))
        finally:
            rows = [row for row in raw if not row[0].lstrip().startswith("#")]
            if set(map(len, rows)) - {width}:
                i = next(i for i, row in enumerate(rows) if len(row) != width)
                raise ValueError(f"ragged row {first + i}: expected {width} cells, got {len(rows[i])}")
        if not raw:
            return
        if rows:
            columns = list(zip(*rows))
            del raw, rows
            yield first, columns
            first += len(columns[0])


def _coded_table(path: Path, label_name: str, categorical: frozenset[int]):
    """One chunked pass over the CSV at ``path``: the header, the coded cells
    as float64 chunks whose columns run in header order with the label's
    moved last, the code map of each categorical column, the first blank or
    non-finite cell of each column that has one, and the numeric columns that
    met a non-numeric cell after a chunk had parsed them as numbers.

    The columns in ``categorical`` are coded as categories; every other
    column is coded by ``label_encode`` chunk by chunk, and the first chunk
    in which it is not numeric makes it categorical for the rest of the
    pass. A column that turns categorical in its first chunk is coded as a
    whole; one that turns later is returned in the last set, and its earlier
    codes are void. Its blank cells are still found: a blank cell never
    parses, so its first one lies in the chunk that turned it."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = filter(None, csv.reader(fh))
        header = [h.strip() for h in next((r for r in lines if not r[0].lstrip().startswith("#")), ())]
        if len(set(header)) != len(header):
            raise ValueError("duplicate header names")
        width = len(header)
        order = [j for j, name in enumerate(header) if name != label_name]
        order += [j for j, name in enumerate(header) if name == label_name]
        mappings: dict[int, dict[str, int]] = {j: {} for j in categorical}
        problems: dict[int, str] = {}
        demoted: set[int] = set()
        chunks = []
        for first, columns in _column_chunks(lines, width):
            block = np.empty((len(columns[0]), width))
            for k, j in enumerate(order):
                mapping = mappings.get(j)
                if mapping is not None:
                    codes = _category_codes(columns[j], mapping)
                else:
                    codes, mapping = label_encode(columns[j])
                    if mapping is not None:
                        mappings[j] = mapping
                        if first > 2:
                            demoted.add(j)
                            problems.pop(j, None)  # a non-finite number is a category now
                block[:, k] = codes
                if j in problems:
                    continue
                if mapping is None and not (finite := np.isfinite(codes)).all():
                    problems[j] = f"non-finite cell in column {header[j]!r}, row {first + int(np.argmin(finite))}"
                # the toolkit has no missing-value handling, and a blank is coded as the category ""
                elif mapping is not None and "" in mapping:
                    row = first + int(np.argmax(codes == mapping[""]))
                    problems[j] = f"blank cell in column {header[j]!r}, row {row}"
            chunks.append(block)
    return header, order, chunks, mappings, problems, demoted


def load_csv(path, schema) -> TabularDataset:
    """Read a UTF-8 comma-separated file with one header row.

    ``schema`` designates the label and sensitive columns and the raw values
    marking the groups and the positive label. Every column, the label's
    included, is coded by ``label_encode``'s rule, and the schema values are
    looked up in its codes; the features' code maps are recorded in the
    dataset provenance. Lines starting with '#' (the provenance footer) are
    skipped.

    The file is read in chunks of ``_CHUNK_ROWS`` rows, each coded into a
    float64 block before the next is read, so no column is held as strings.
    A column is numeric or categorical as a whole: when one that parsed as
    numbers in an earlier chunk meets a cell that does not parse, the file is
    read again with that column coded as categories from its first row.
    """
    schema = load_schema(schema)
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    label_name = str(schema["label"])
    sensitive_name = str(schema["sensitive"])
    categorical: frozenset[int] = frozenset()
    while True:
        try:
            header, order, chunks, mappings, problems, demoted = _coded_table(path, label_name, categorical)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text: {exc}") from exc
        if not chunks:
            raise ValueError("CSV needs a header row and at least one data row")
        if label_name not in header:
            raise ValueError(f"unknown label column {label_name!r}")
        if sensitive_name not in header:
            raise ValueError(f"unknown sensitive column {sensitive_name!r}")
        if label_name == sensitive_name:
            raise ValueError(f"column {label_name!r} cannot be both the label and the sensitive column")
        if problems:
            raise ValueError(problems[min(problems)])
        if not demoted:
            break
        categorical |= demoted
        del chunks

    d = len(header) - 1
    labels = np.concatenate([block[:, d] for block in chunks])
    features = np.concatenate([block[:, :d] for block in chunks])
    del chunks
    features.setflags(write=False)
    names = tuple(header[j] for j in order[:d])
    label_mapping = mappings.get(header.index(label_name))
    feature_mappings = {header[j]: mappings[j] for j in order[:d] if j in mappings}

    positive = schema.get("positive_label")
    if label_mapping is None:
        values, firsts = np.unique(labels, return_index=True)
        distinct = values[np.argsort(firsts)].tolist()
    else:
        distinct = list(label_mapping)
    if len(distinct) > 2 or positive is None and not set(distinct) <= {0.0, 1.0}:
        raise ValueError(f"non-binary label column: values {distinct}")
    if positive is not None:
        absent = "positive label {!r} absent from the label column"
        labels = labels == _schema_code(positive, label_mapping, absent)
        if not labels.any():
            raise ValueError(absent.format(positive))
    absent = "group value {!r} absent from the sensitive column"
    group_values = tuple(
        _schema_code(schema[key], feature_mappings.get(sensitive_name), absent)
        for key in ("advantaged_value", "disadvantaged_value")
    )
    provenance = f"csv:{path.name}"
    if feature_mappings:
        provenance += "|encoded=" + json.dumps(feature_mappings, sort_keys=True)
    return TabularDataset(features, names, labels, names.index(sensitive_name), group_values, provenance)


def write_csv(dataset: TabularDataset, path) -> None:
    """Write the dataset with a provenance footer comment line."""
    write_table(
        path,
        list(dataset.feature_names) + ["label"],
        [*dataset.features.T, dataset.labels],
        f"# provenance: {dataset.provenance}\n",
    )


def write_schema(dataset: TabularDataset, path) -> None:
    write_json(
        path,
        {
            "label": "label",
            "sensitive": dataset.feature_names[dataset.sensitive_index],
            "advantaged_value": dataset.group_values[0],
            "disadvantaged_value": dataset.group_values[1],
            "positive_label": 1,
        },
    )
