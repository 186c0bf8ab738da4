import csv
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_load_csv, reference_split

from procfair import datasets
from procfair.datasets import (
    SyntheticConfig,
    TabularDataset,
    concat_datasets,
    generate_synthetic,
    label_encode,
    load_csv,
    pearson_correlation,
    select_fair_features,
    standardized_split,
    write_csv,
    write_schema,
)
from procfair.fairness import dp

SCHEMA = {
    "label": "label",
    "sensitive": "sex",
    "advantaged_value": 1,
    "disadvantaged_value": 0,
    "positive_label": 1,
}


def toy_dataset(m=8, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(m, 3))
    features[:, 2] = (np.arange(m) % 2).astype(float)
    labels = (rng.random(m) < 0.5).astype(int)
    labels[0], labels[1] = 0, 1  # both classes present
    return TabularDataset(features, ("a", "b", "sex"), labels, 2, (1.0, 0.0))


# ---------------------------------------------------------------------------
# Dataset invariants


def test_rejects_bad_labels():
    with pytest.raises(ValueError, match="0 or 1"):
        TabularDataset(np.ones((2, 2)), ("a", "s"), [0, 2], 1, (1.0, 0.0))


def test_labels_are_checked_before_the_cast():
    features = np.column_stack([np.arange(4.0), [1.0, 0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="0 or 1"):
        TabularDataset(features, ("a", "s"), [0.7, 1.9, 0.2, 1.0], 1, (1.0, 0.0))
    for labels in ([True, False, False, True], np.array([1.0, 0.0, 0.0, 1.0])):
        ds = TabularDataset(features, ("a", "s"), labels, 1, (1.0, 0.0))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0, 0, 1]


def test_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        TabularDataset(np.eye(2), ("a", "a"), [0, 1], 0, (1.0, 0.0))


def test_rejects_missing_group():
    with pytest.raises(ValueError, match="absent"):
        TabularDataset(np.ones((3, 2)), ("a", "s"), [0, 1, 1], 1, (1.0, 0.0))


def test_rejects_sensitive_values_in_neither_group():
    # rows in neither group would count as the second group in the count
    # table and training's DP term, and be skipped by pair matching
    features = np.column_stack([np.arange(6.0), [1.0, 0.0, 2.0, 1.0, 0.0, 2.0]])
    with pytest.raises(ValueError, match=r"holds 1 value\(s\) in neither group: 2\.0; keep only"):
        TabularDataset(features, ("a", "s"), [0, 1, 0, 1, 0, 1], 1, (1.0, 0.0))
    features[:, 1] = [1.0, 0.0, 2.0, 3.0, 4.0, 5.0]
    features = np.vstack([features, [[0.0, 6.0], [0.0, 7.0]]])
    with pytest.raises(ValueError, match=r"holds 6 value\(s\) in neither group: 2\.0, 3\.0, 4\.0, 5\.0, 6\.0, \.\.\."):
        TabularDataset(features, ("a", "s"), [0, 1, 0, 1, 0, 1, 0, 1], 1, (1.0, 0.0))


def test_rejects_nonfinite_features():
    features = np.ones((2, 2))
    features[0, 0] = np.nan
    features[:, 1] = [0.0, 1.0]
    with pytest.raises(ValueError, match="finite"):
        TabularDataset(features, ("a", "s"), [0, 1], 1, (1.0, 0.0))


def test_features_are_immutable():
    ds = toy_dataset()
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0


# ---------------------------------------------------------------------------
# CSV round trip


def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,sex,label\n1,2,1,0\n3,4,0,1\n5,6,1,1\n7,8,0,0\n")
    ds = load_csv(path, SCHEMA)
    assert ds.m == 4 and ds.d == 3
    assert ds.sensitive_index == 2
    assert ds.feature_names == ("a", "b", "sex")
    assert list(ds.labels) == [0, 1, 1, 0]


def test_load_csv_nonbinary_label(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,sex,label\n1,1,0\n2,0,1\n3,1,2\n")
    with pytest.raises(ValueError, match="non-binary"):
        load_csv(path, SCHEMA)


def test_load_csv_duplicate_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,a,label\n1,2,0\n3,4,1\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_csv(path, {**SCHEMA, "sensitive": "a"})


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,sex,label\n1,1,0\n2,0\n")
    with pytest.raises(ValueError, match="ragged"):
        load_csv(path, SCHEMA)


@pytest.mark.parametrize(
    "text, column, row",
    [
        ("x1,sex,label\n1.5,1,0\n,0,1\n2.5,1,1\n3.5,0,0\n0.5,1,1\n4.5,0,0\n", "x1", 3),
        ("color,sex,label\nred,1,0\nblue,0,1\n  ,1,1\n", "color", 4),
        ("a,sex,label\n1,1,1\n2,0,\n3,1,1\n", "label", 3),
    ],
    ids=["numeric", "categorical", "label"],
)
def test_load_csv_blank_cell(tmp_path, text, column, row):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"blank cell in column '{column}', row {row}$"):
        load_csv(path, SCHEMA)


@pytest.mark.parametrize(
    "text, column, row",
    [
        ("a,sex,label\nnan,1,1\n2,0,0\n", "a", 2),
        ("a,sex,label\n1,1,1\n2,0,0\n inf ,1,0\n", "a", 4),
        ("a,sex,label\n1,1,1\n2,-Infinity,0\n", "sex", 3),
        ("a,sex,label\n1,1,1\n2,0,NaN\n", "label", 3),
    ],
    ids=["nan", "inf", "-Infinity", "label"],
)
def test_load_csv_non_finite_cell(tmp_path, text, column, row):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"non-finite cell in column '{column}', row {row}$"):
        load_csv(path, SCHEMA)


def test_load_csv_label_and_sensitive_on_one_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,sex\n1,1\n2,0\n")
    with pytest.raises(ValueError, match="'sex' cannot be both the label and the sensitive column"):
        load_csv(path, {**SCHEMA, "label": "sex"})


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv", SCHEMA)


def test_load_csv_unknown_sensitive(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,label\n1,2,0\n3,4,1\n")
    with pytest.raises(ValueError, match="sensitive"):
        load_csv(path, SCHEMA)


def test_load_csv_categorical_sensitive(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("color,sex,label\nred,male,yes\nblue,female,no\nred,male,yes\n")
    schema = {
        "label": "label",
        "sensitive": "sex",
        "advantaged_value": "male",
        "disadvantaged_value": "female",
        "positive_label": "yes",
    }
    ds = load_csv(path, schema)
    assert list(ds.features[:, 0]) == [0.0, 1.0, 0.0]
    assert ds.group_values == (0.0, 1.0)  # first-appearance codes
    assert list(ds.labels) == [1, 0, 1]


ADULT_ROWS = [
    ("39", "State-gov", "Male", "<=50K"),
    ("50", "Self-emp", "Female", ">50K"),
    ("38", "Private", "Male", ">50K"),
    ("53", "Private", "Female", "<=50K"),
    ("28", "Private", "Female", "<=50K"),
]
ADULT_SCHEMA = {
    "label": "income",
    "sensitive": "sex",
    "advantaged_value": "Male",
    "disadvantaged_value": "Female",
    "positive_label": ">50K",
}


def test_load_csv_adult_style_padding(tmp_path):
    # UCI Adult separates cells with ", ": padded cells load as their unpadded twins
    (tmp_path / "padded").mkdir()
    (tmp_path / "plain").mkdir()
    lines = [("age", "workclass", "sex", "income")] + ADULT_ROWS
    (tmp_path / "padded" / "adult.csv").write_text("".join(", ".join(r) + "\n" for r in lines))
    (tmp_path / "plain" / "adult.csv").write_text("".join(",".join(r) + "\n" for r in lines))
    padded = load_csv(tmp_path / "padded" / "adult.csv", ADULT_SCHEMA)
    plain = load_csv(tmp_path / "plain" / "adult.csv", ADULT_SCHEMA)
    assert padded.features.tobytes() == plain.features.tobytes()
    assert list(padded.labels) == list(plain.labels) == [0, 1, 1, 0, 0]
    assert padded.feature_names == plain.feature_names == ("age", "workclass", "sex")
    assert padded.sensitive_index == plain.sensitive_index == 2
    assert padded.group_values == plain.group_values == (0.0, 1.0)
    assert padded.provenance == plain.provenance
    codes = json.loads(padded.provenance.split("|encoded=")[1])
    assert codes == {"sex": {"Male": 0, "Female": 1}, "workclass": {"State-gov": 0, "Self-emp": 1, "Private": 2}}


NUMBERS = st.one_of(
    st.integers(-50, 50).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
)
# spellings at the edge of Python float's rule: padded, with an underscore,
# signed with a capital exponent, in Arabic-Indic digits
EDGE_NUMBERS = st.sampled_from([" 1.5 ", "1_0", "+1E-3", "\u0661\u0662", "-0.0", "5e-324"])
# cells that parse but are not finite (an error in a numeric column, a
# category in any other), and one that does not parse
NUMBER_LIKE = st.sampled_from(["nan", "inf", "0x10"])
WORDS = st.sampled_from(["red", "blue", "green", "a b", "x,y", "1a", "-", "c#d"])


@st.composite
def well_formed_csv(draw):
    """A CSV without padded categorical cells plus its schema: numeric and
    categorical features, a numeric or categorical sensitive column, 0/1 or
    text labels, and whether to add a provenance footer and to quote every
    cell (numbers included)."""
    m = draw(st.integers(2, 12))
    columns = {}
    for j in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            cells = st.one_of(NUMBERS, EDGE_NUMBERS.map(str.strip), NUMBER_LIKE, WORDS)
        else:
            cells = st.one_of(NUMBERS, EDGE_NUMBERS)
        columns[f"f{j}"] = draw(st.lists(cells, min_size=m, max_size=m))
    groups = draw(st.sampled_from([("1", "0"), ("2.5", "-1"), ("male", "female"), ("b", "a")]))
    sex = list(groups) + draw(st.lists(st.sampled_from(groups), min_size=m - 2, max_size=m - 2))
    columns["sex"] = draw(st.permutations(sex))
    classes = draw(st.sampled_from([("1", "0"), ("yes", "no"), ("1", "yes")]))
    labels = draw(st.lists(st.sampled_from(classes), min_size=m, max_size=m))
    positive = draw(st.sampled_from(labels))
    numeric_labels = set(labels) <= {"0", "1"}
    if numeric_labels and draw(st.booleans()):
        positive = None
    elif numeric_labels and draw(st.booleans()):
        positive = int(positive)
    columns["label"] = labels
    order = draw(st.permutations(list(columns)))
    schema = {"label": "label", "sensitive": "sex"}
    schema["advantaged_value"], schema["disadvantaged_value"] = (
        (float(g) for g in groups) if groups[0][0].isdigit() and draw(st.booleans()) else groups
    )
    if positive is not None:
        schema["positive_label"] = positive
    rows = [order] + [[columns[name][i] for name in order] for i in range(m)]
    return rows, schema, draw(st.booleans()), draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))


def assert_loads_as_reference(path, schema):
    """``load_csv`` returns the dataset ``reference_load_csv`` returns, or
    fails with its message."""
    try:
        ref = reference_load_csv(path, schema)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            load_csv(path, schema)
        return
    ds = load_csv(path, schema)
    assert ds.features.tobytes() == ref.features.tobytes()
    assert ds.labels.tobytes() == ref.labels.tobytes()
    assert ds.feature_names == ref.feature_names
    assert ds.sensitive_index == ref.sensitive_index
    assert ds.group_values == ref.group_values
    assert ds.provenance == ref.provenance


@given(well_formed_csv(), st.sampled_from([2, 3, 4096]))
@settings(max_examples=200, deadline=None)
def test_load_csv_matches_reference_loader(tmp_path_factory, case, chunk_rows):
    rows, schema, footer, quoting = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=quoting).writerows(rows)
        if footer:
            fh.write("# provenance: generated\n")
    with mock.patch.object(datasets, "_CHUNK_ROWS", chunk_rows):
        assert_loads_as_reference(path, schema)


@pytest.mark.parametrize(
    "text, schema",
    [
        ("a,sex,label\n", SCHEMA),
        ("a,sex,y\n1,1,0\n2,0,1\n", SCHEMA),
        ("a,sex,label\n1,1,0\n2,0,0\n", SCHEMA),
        ("a,sex,label\n1,1,0\n2,0,0\n", {**SCHEMA, "positive_label": "yes"}),
        ("a,sex,label\n1,1,no\n2,0,no\n", {**SCHEMA, "positive_label": "yes"}),
        ("a,sex,label\n1,1,1\n2,0,0\n3,1,2\n", SCHEMA),
        ("a,sex,label\n1,1,yes\n2,0,no\n", {**SCHEMA, "positive_label": None}),
        ("a,sex,label\n1,male,0\n2,female,1\n", {**SCHEMA, "advantaged_value": "Male"}),
    ],
    ids=[
        "no-rows", "unknown-label", "positive-absent", "positive-unparsed", "positive-text",
        "non-binary", "text-labels", "group-absent",
    ],
)
def test_load_csv_errors_match_reference_loader(tmp_path, text, schema):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as expected:
        reference_load_csv(path, schema)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        load_csv(path, schema)


def _chunked_csv(tmp_path, late_rows: dict[int, str], m: int = 14) -> Path:
    """A numeric CSV of ``m`` data rows (columns ``a``, ``color``, ``sex``,
    ``label``; ``color`` holds words) in which the data rows numbered in
    ``late_rows`` (first data row = 2) are replaced by the given lines."""
    lines = ["a,color,sex,label"]
    for row in range(2, m + 2):
        lines.append(late_rows.get(row, f"{row * 0.5},{'red' if row % 2 else 'blue'},{row % 2},{row // 3 % 2}"))
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n# provenance: x\n")
    return path


@pytest.mark.parametrize(
    "late_rows, error",
    [
        ({12: "word,red,1,0"}, None),  # a column that looked numeric turns categorical
        ({4: "nan,red,1,0", 12: "word,red,1,0"}, None),  # and its nan is a category
        ({12: "1.5,green,1,0", 13: " 2.5 ,red,0,1"}, None),  # a new category; a padded number
        ({12: "1.5,red,2,0"}, "in neither group"),  # a third sensitive value
        ({9: "1.5,red,1,", 12: " ,red,1,0"}, "blank cell in column 'a', row 12"),
        ({12: "1.5,  ,1,0"}, "blank cell in column 'color', row 12"),
        ({12: "1.5,red,1"}, "ragged row 12: expected 4 cells, got 3"),
        ({12: "1.5,red,1,0,0", 13: "1.5,red"}, "ragged row 12: expected 4 cells, got 5"),
        ({12: "inf,red,1,0"}, "non-finite cell in column 'a', row 12"),
        ({9: "1.5,red,1,nan", 12: "-inf,red,1,0"}, "non-finite cell in column 'a', row 12"),
        ({9: "1.5,red,1,1e400"}, "non-finite cell in column 'label', row 9"),
        ({5: "1.5,,1,0", 12: "nan,red,1,0"}, "non-finite cell in column 'a', row 12"),
    ],
    ids=[
        "turns-categorical", "nan-turns-category", "new-category", "stray-group", "blank-numeric",
        "blank-categorical", "ragged-short", "ragged-long", "non-finite", "first-column-first",
        "non-finite-label", "column-order",
    ],
)
@pytest.mark.parametrize("chunk_rows", [3, 4])
def test_load_csv_chunks_meet_late_cells_as_the_reference_loader(tmp_path, monkeypatch, late_rows, error, chunk_rows):
    # each case's first odd cell lies beyond the first chunk
    monkeypatch.setattr(datasets, "_CHUNK_ROWS", chunk_rows)
    path = _chunked_csv(tmp_path, late_rows)
    if error is None:
        assert_loads_as_reference(path, SCHEMA)
    else:
        with pytest.raises(ValueError, match=re.escape(error)):
            load_csv(path, SCHEMA)
        if "neither group" not in error:
            assert_loads_as_reference(path, SCHEMA)


def test_load_csv_reports_a_ragged_row_before_a_later_undecodable_byte(tmp_path):
    # the bad byte lies in the ragged row's chunk but in a later decoded block
    path = tmp_path / "d.csv"
    path.write_bytes(b"a,sex,label\n1,1,0\n2,0\n" + b"3,1,1\n" * 2000 + b"\xff,1,0\n")
    with pytest.raises(ValueError, match="^ragged row 3: expected 3 cells, got 2$"):
        load_csv(path, SCHEMA)
    path.write_bytes(b"a,sex,label\n1,1,0\n" + b"3,1,1\n" * 2000 + b"\xff,1,0\n2,0\n")
    with pytest.raises(ValueError, match="is not UTF-8 text"):
        load_csv(path, SCHEMA)


def test_csv_round_trip_exact(tmp_path):
    ds = generate_synthetic(SyntheticConfig(m=200, n_advantaged=120, seed=7))
    normalized = standardized_split(ds, 0.8, 7)[0].train
    write_csv(normalized, tmp_path / "d.csv")
    write_schema(normalized, tmp_path / "d.schema.json")
    loaded = load_csv(tmp_path / "d.csv", tmp_path / "d.schema.json")
    assert loaded.feature_names == normalized.feature_names
    assert loaded.sensitive_index == normalized.sensitive_index
    np.testing.assert_array_equal(loaded.labels, normalized.labels)
    np.testing.assert_allclose(loaded.features, normalized.features, rtol=0, atol=1e-12)
    # repr-formatted floats round-trip bit exactly
    assert np.array_equal(loaded.features, normalized.features)


def test_written_csv_has_provenance_footer(tmp_path):
    ds = toy_dataset()
    write_csv(ds, tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_text().strip().splitlines()[-1].startswith("# provenance:")


# ---------------------------------------------------------------------------
# label_encode


def test_label_encode_first_appearance():
    codes, mapping = label_encode(["red", "blue", "red"])
    assert list(codes) == [0.0, 1.0, 0.0]
    assert mapping == {"red": 0, "blue": 1}


def test_label_encode_numeric_passthrough():
    codes, mapping = label_encode([1.5, 2.0, -3.0])
    assert mapping is None
    assert list(codes) == [1.5, 2.0, -3.0]


def test_label_encode_order():
    codes, _ = label_encode(["b", "a", "b", "a"])
    assert list(codes) == [0.0, 1.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# z-score


def test_zscore_hand_computed():
    # population std of [1,2,3] is sqrt(2/3); z = (x-2)/0.81649658...
    features = np.array([[1.0, 0.0], [1.0, 1.0], [2.0, 0.0], [2.0, 1.0], [3.0, 0.0], [3.0, 1.0]])
    ds = TabularDataset(features, ("x", "s"), [0, 1, 1, 0, 0, 1], 1, (1.0, 0.0))
    split, stats = standardized_split(ds, 0.5, 5)  # seed 5 puts x = 1, 2, 3 in each part
    z = [-1.224744871391589, 0.0, 1.224744871391589]
    np.testing.assert_allclose(np.sort(split.train.features[:, 0]), z, atol=1e-9)
    np.testing.assert_allclose(np.sort(split.test.features[:, 0]), z, atol=1e-9)
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.std[0] == pytest.approx(math.sqrt(2.0 / 3.0))


def test_zscore_columns_standardized():
    ds = generate_synthetic(SyntheticConfig(m=500, n_advantaged=300, seed=3))
    train = standardized_split(ds, 0.8, 3)[0].train
    np.testing.assert_allclose(train.features.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(train.features.std(axis=0), 1.0, atol=1e-9)


def test_zscore_constant_column_passthrough():
    features = np.column_stack([np.full(6, 5.0), [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]])
    ds = TabularDataset(features, ("const", "s"), [0, 1, 1, 0, 1, 0], 1, (1.0, 0.0))
    with pytest.warns(UserWarning, match="constant column.*: const$") as record:
        split, stats = standardized_split(ds, 0.5, 0)
    assert record[0].filename == __file__  # the warning points at the caller
    np.testing.assert_array_equal(split.train.features[:, 0], 5.0)
    np.testing.assert_array_equal(split.test.features[:, 0], 5.0)
    assert stats.constant_columns == (0,)


def test_zscore_test_split_uses_train_stats():
    ds = generate_synthetic(SyntheticConfig(m=1000, n_advantaged=600, seed=5))
    split, stats = standardized_split(ds, 0.8, 0)
    np.testing.assert_allclose(split.train.features.mean(axis=0), 0.0, atol=1e-9)
    # the test split is transformed with the train statistics, so its mean is
    # close to but not exactly zero
    assert 1e-9 < np.abs(split.test.features.mean(axis=0)).max() < 0.2
    raw_split = reference_split(ds, 0.8, 0)
    assert np.array_equal(split.test.features, (raw_split.test.features - stats.mean) / stats.std)


@st.composite
def datasets_with_constant_columns(draw):
    m = draw(st.integers(min_value=4, max_value=30))
    d = draw(st.integers(min_value=2, max_value=5))
    s = draw(st.integers(min_value=0, max_value=d - 1))
    finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
    columns = []
    for j in range(d):
        if j == s:
            adv, dis = draw(st.lists(finite, min_size=2, max_size=2, unique=True))
            columns.append(np.where(np.arange(m) % 2 == 0, adv, dis))
        elif draw(st.booleans()):
            columns.append(np.full(m, draw(finite)))
        else:
            columns.append(np.array(draw(st.lists(finite, min_size=m, max_size=m))))
    labels = np.arange(m) % 3 == 0
    ds = TabularDataset(np.column_stack(columns), tuple(f"f{j}" for j in range(d)), labels, s, (adv, dis))
    return ds, draw(st.sampled_from([0.5, 0.8])), draw(st.integers(min_value=0, max_value=2**31 - 1))


@given(datasets_with_constant_columns())
@settings(max_examples=60, deadline=None)
def test_standardized_split_is_the_zscore_of_the_raw_split(case):
    ds, ratio, seed = case
    try:
        raw = reference_split(ds, ratio, seed)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            standardized_split(ds, ratio, seed)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split, stats = standardized_split(ds, ratio, seed)
    mean = raw.train.features.mean(axis=0)
    std = raw.train.features.std(axis=0)
    shift = np.where(std > 0, mean, 0.0)
    scale = np.where(std > 0, std, 1.0)
    s = ds.sensitive_index
    for part, raw_part in ((split.train, raw.train), (split.test, raw.test)):
        assert np.array_equal(part.features, (raw_part.features - shift) / scale)
        assert part.group_values == tuple((v - shift[s]) / scale[s] for v in ds.group_values)
        assert part.provenance == raw_part.provenance + "|zscore"
        assert np.array_equal(part.labels, raw_part.labels)
        constant = std == 0
        assert np.array_equal(part.features[:, constant], raw_part.features[:, constant])
    assert stats.constant_columns == tuple(np.flatnonzero(std == 0))
    assert np.array_equal(stats.mean, mean) and np.array_equal(stats.std, std)


# ---------------------------------------------------------------------------
# train/test split


def test_split_sizes():
    ds = generate_synthetic(SyntheticConfig(m=10000, n_advantaged=6000, seed=0))
    split, _ = standardized_split(ds, 0.8, 0)
    assert split.train.m == 8000 and split.test.m == 2000


def test_split_deterministic():
    ds = generate_synthetic(SyntheticConfig(m=400, n_advantaged=240, seed=1))
    a, _ = standardized_split(ds, 0.8, 123)
    b, _ = standardized_split(ds, 0.8, 123)
    assert np.array_equal(a.train.features, b.train.features)
    assert np.array_equal(a.test.labels, b.test.labels)


def test_split_disjoint_union():
    ds = generate_synthetic(SyntheticConfig(m=203, n_advantaged=120, seed=2))
    split, _ = standardized_split(ds, 0.8, 9)
    assert split.train.m + split.test.m == ds.m
    assert split.train.m == math.ceil(0.8 * 203)
    combined = np.vstack([split.train.features, split.test.features])
    assert np.unique(combined, axis=0).shape[0] == ds.m  # rows all distinct draws


def test_split_invalid_ratio():
    ds = toy_dataset()
    with pytest.raises(ValueError):
        standardized_split(ds, 1.0, 0)
    with pytest.raises(ValueError):
        standardized_split(ds, 0.0, 0)


def test_split_reports_lost_group():
    # one disadvantaged row: most splits strand it in one side
    features = np.column_stack([np.arange(6.0), [1, 1, 1, 1, 1, 0]])
    ds = TabularDataset(features, ("a", "s"), [0, 1, 0, 1, 0, 1], 1, (1.0, 0.0))
    with pytest.raises(ValueError, match="seed"):
        for seed in range(50):
            standardized_split(ds, 0.5, seed)


@pytest.fixture(scope="module")
def synthetic_200k():
    return generate_synthetic(SyntheticConfig(m=200_000, n_advantaged=120_000, seed=0))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_split_copies_each_part_once(synthetic_200k):
    # both parts' z-scored rows and labels, the permutation and the checks'
    # temporaries read 1.5 times the source's 6.4 MB of features; copying
    # each part's rows again on the way in adds at least 1.25 more
    standardized_split(synthetic_200k, 0.04)
    assert _traced_peak(lambda: standardized_split(synthetic_200k, 0.04)) < 2.5 * synthetic_200k.features.nbytes


def test_split_holds_only_the_permutation_beside_its_buffer(synthetic_200k):
    # the buffer's rows and labels are 1.25 times the source's features, the
    # int32 permutation 0.06 and the checks' boolean temporaries the rest of
    # 1.5; an int64 permutation and np.isin's label check read 2.07
    standardized_split(synthetic_200k, 0.04)
    assert _traced_peak(lambda: standardized_split(synthetic_200k, 0.04)) < 1.6 * synthetic_200k.features.nbytes


def test_generate_synthetic_holds_three_columns_beside_its_result(synthetic_200k):
    # the features and labels, the column buffer, the proxy draw and the
    # noise read 1.4 times the features and labels; drawing each column
    # apart, stacking them and summing the score out of place read 3.2
    config = SyntheticConfig(m=200_000, n_advantaged=120_000, seed=0)
    result = synthetic_200k.features.nbytes + synthetic_200k.labels.nbytes
    assert _traced_peak(lambda: generate_synthetic(config)) < 2 * result


def test_take_copies_the_rows_once(synthetic_200k):
    # 192k rows keep 7.7 MB of features and labels, and the checks add their
    # boolean temporaries (1.1 times in all); copying the rows again adds at
    # least 1.0 more
    rows = np.random.default_rng(0).permutation(synthetic_200k.m)[:192_000]
    kept = rows.size * (synthetic_200k.d + 1) * 8
    assert _traced_peak(lambda: synthetic_200k.take(rows)) < 1.75 * kept


def test_load_csv_peaks_at_a_fixed_multiple_of_its_features(synthetic_200k, tmp_path):
    # the float64 chunks (1.25 times the features, the label's column
    # included), the features they are joined into and one chunk's strings
    # read about 2.5 times the 6.4 MB of parsed features; holding one Python
    # string per cell until the column is coded read 11.8
    write_csv(synthetic_200k, tmp_path / "d.csv")
    write_schema(synthetic_200k, tmp_path / "d.schema.json")
    loaded = load_csv(tmp_path / "d.csv", tmp_path / "d.schema.json")
    assert loaded.features.tobytes() == synthetic_200k.features.tobytes()
    peak = _traced_peak(lambda: load_csv(tmp_path / "d.csv", tmp_path / "d.schema.json"))
    assert peak < 3 * loaded.features.nbytes


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_shape_and_layout():
    ds = generate_synthetic(SyntheticConfig())
    assert ds.m == 10000 and ds.d == 4
    assert ds.feature_names == ("x1", "x2", "xs", "xp")
    assert ds.sensitive_index == 2
    assert ds.group_values == (1.0, 0.0)
    assert int(ds.advantaged_mask.sum()) == 6000


def test_synthetic_deterministic():
    a = generate_synthetic(SyntheticConfig(seed=11))
    b = generate_synthetic(SyntheticConfig(seed=11))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_forced_positive_labels():
    config = SyntheticConfig(m=500, n_advantaged=300, weights=(100.0, 0, 0, 0, 0), noise_std=0.0, seed=0)
    ds = generate_synthetic(config)
    assert ds.labels.min() == 1
    assert dp(ds.labels, ds.advantaged_mask) == 0.0


def test_synthetic_label_rule_noiseless():
    config = SyntheticConfig(m=400, n_advantaged=240, noise_std=0.0, seed=6)
    ds = generate_synthetic(config)
    w0, w1, w2, w3, w4 = config.weights
    t = w0 + w1 * ds.features[:, 0] + w2 * ds.features[:, 1] + w3 * ds.features[:, 2] + w4 * ds.features[:, 3]
    np.testing.assert_array_equal(ds.labels, (t >= 0).astype(int))


def test_synthetic_dp_near_expected():
    ds = generate_synthetic(SyntheticConfig(seed=0))
    assert dp(ds.labels, ds.advantaged_mask) == pytest.approx(0.2, abs=0.05)


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(m=10, n_advantaged=10)
    with pytest.raises(ValueError):
        SyntheticConfig(proxy_std=0.0)
    with pytest.raises(ValueError, match="noise_std"):
        SyntheticConfig(noise_std=-1.0)
    with pytest.raises(ValueError, match="noise_std"):
        SyntheticConfig(noise_std=float("nan"))


@pytest.mark.parametrize(
    "field, value",
    [
        ("m", 1000.0),
        ("n_advantaged", 600.5),
        ("seed", 1.5),
        ("seed", -1),
        ("weights", (-0.2, 1.5, float("nan"), 0.5, 0.5)),
        ("weights", (-0.2, 1.5, 0.5, 0.5, float("inf"))),
        ("weights", (-0.2, 1.5, 0.5, 0.5)),
        ("proxy_std", float("inf")),
        ("noise_std", float("inf")),
    ],
)
def test_synthetic_config_refuses_a_malformed_field_by_name(field, value):
    # unchecked, a float m failed inside numpy, and a NaN weight labelled every row 0
    config = {"m": 1000, "n_advantaged": 600, field: value}
    with pytest.raises(ValueError, match=f"SyntheticConfig.{field} must be"):
        SyntheticConfig(**config)


def test_synthetic_config_keeps_numpy_ints_as_python_ints():
    config = SyntheticConfig(m=np.int64(1000), n_advantaged=np.int32(600), seed=np.uint8(3))
    assert all(type(getattr(config, name)) is int for name in ("m", "n_advantaged", "seed"))
    assert config == SyntheticConfig(m=1000, n_advantaged=600, seed=3)
    assert config.config_hash() == SyntheticConfig(m=1000, n_advantaged=600, seed=3).config_hash()


# ---------------------------------------------------------------------------
# dataset DP: fairness.dp of the labels, as gen-data reports it


def test_dataset_dp_hand_case():
    features = np.column_stack([np.zeros(4), [1.0, 1.0, 0.0, 0.0]])
    ds = TabularDataset(features, ("a", "s"), [1, 1, 1, 0], 1, (1.0, 0.0))
    assert dp(ds.labels, ds.advantaged_mask) == pytest.approx(0.5)


def test_dataset_dp_group_swap_symmetric():
    ds = toy_dataset(m=20, seed=3)
    swapped = TabularDataset(
        ds.features, ds.feature_names, ds.labels, ds.sensitive_index,
        (ds.group_values[1], ds.group_values[0]),
    )
    assert dp(ds.labels, ds.advantaged_mask) == pytest.approx(dp(swapped.labels, swapped.advantaged_mask))


def test_dataset_dp_row_permutation_invariant():
    ds = toy_dataset(m=30, seed=4)
    perm = np.random.default_rng(0).permutation(ds.m)
    taken = ds.take(perm)
    assert dp(taken.labels, taken.advantaged_mask) == pytest.approx(dp(ds.labels, ds.advantaged_mask))


# ---------------------------------------------------------------------------
# correlations and fair-feature selection


def test_pearson_self_correlation():
    ds = toy_dataset(m=16, seed=6)
    assert pearson_correlation(ds, ds.sensitive_index) == pytest.approx(1.0)


def test_pearson_proxy_strongly_correlated():
    ds = generate_synthetic(SyntheticConfig(seed=0))
    assert pearson_correlation(ds, 3) > 0.9


def test_pearson_independent_feature_uncorrelated():
    ds = generate_synthetic(SyntheticConfig(seed=0))
    assert abs(pearson_correlation(ds, 0)) < 0.05
    assert abs(pearson_correlation(ds, 1)) < 0.05


def test_pearson_zero_variance_errors():
    features = np.column_stack([np.ones(4), [1.0, 0.0, 1.0, 0.0]])
    ds = TabularDataset(features, ("c", "s"), [0, 1, 0, 1], 1, (1.0, 0.0))
    with pytest.raises(ValueError, match="variance"):
        pearson_correlation(ds, 0)


def test_select_fair_features_synthetic():
    ds = generate_synthetic(SyntheticConfig(seed=0))
    assert select_fair_features(ds, 0.10) == (0, 1)


def test_select_fair_features_loose_threshold():
    ds = generate_synthetic(SyntheticConfig(seed=0))
    assert select_fair_features(ds, 1.01) == (0, 1, 3)


def test_select_fair_features_empty_errors():
    rng = np.random.default_rng(0)
    s = (rng.random(100) < 0.5).astype(float)
    features = np.column_stack([s, s])
    labels = (rng.random(100) < 0.5).astype(int)
    ds = TabularDataset(features, ("copy", "s"), labels, 1, (1.0, 0.0))
    with pytest.raises(ValueError, match="threshold"):
        select_fair_features(ds, 0.10)


def test_select_fair_features_counts_a_constant_column_as_fair():
    rng = np.random.default_rng(0)
    s = (rng.random(100) < 0.5).astype(float)
    features = np.column_stack([np.full(100, 2.0), s, s])
    labels = (rng.random(100) < 0.5).astype(int)
    ds = TabularDataset(features, ("constant", "s", "copy"), labels, 1, (1.0, 0.0))
    assert select_fair_features(ds, 0.10) == (0,)


def test_concat_datasets():
    ds = toy_dataset(m=10, seed=8)
    split, _ = standardized_split(ds, 0.8, 0)
    merged = concat_datasets(split.train, split.test)
    assert merged.m == ds.m


def _stacked(a, b):
    """The copying concat's arrays, the oracle for the rows and labels of
    ``concat_datasets(a, b)``."""
    return np.vstack([a.features, b.features]), np.concatenate([a.labels, b.labels])


def assert_concat_is_stacked(a, b, shared: bool):
    merged = concat_datasets(a, b)
    features, labels = _stacked(a, b)
    assert merged.features.tobytes() == features.tobytes() and merged.features.shape == features.shape
    assert merged.labels.tobytes() == labels.tobytes() and merged.labels.dtype == labels.dtype
    assert merged.provenance == a.provenance + "+" + b.provenance
    assert not merged.features.flags.writeable and not merged.labels.flags.writeable
    for part in (a, b):
        assert np.shares_memory(merged.features, part.features) is shared
        assert np.shares_memory(merged.labels, part.labels) is shared


@given(
    st.integers(min_value=20, max_value=400),
    st.sampled_from([0.1, 0.5, 0.8, 0.9]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_concat_of_a_split_shares_its_one_buffer(m, ratio, seed):
    ds = generate_synthetic(SyntheticConfig(m=m, n_advantaged=m // 2, seed=seed % 1000))
    try:
        split, _ = standardized_split(ds, ratio, seed)
    except ValueError:
        return  # a part lost a group or the training part a label class
    assert_concat_is_stacked(split.train, split.test, shared=True)
    # the pool is the split's buffer itself, and holds every row in split order
    pool = concat_datasets(split.train, split.test)
    assert pool.features.base is split.train.features.base is split.test.features.base


def test_concat_copies_parts_that_do_not_follow_in_one_buffer():
    ds = generate_synthetic(SyntheticConfig(m=300, n_advantaged=180, seed=3))
    split, _ = standardized_split(ds, 0.8, 0)
    train, test = split.train, split.test
    assert_concat_is_stacked(test, train, shared=False)  # reversed
    assert_concat_is_stacked(train, train, shared=False)  # the same rows twice
    assert_concat_is_stacked(train.take(np.arange(train.m)), test, shared=False)
    assert_concat_is_stacked(train, test.take(np.arange(1, test.m)), shared=False)
    other = replace(split, test=test.take(np.arange(test.m)))
    assert_concat_is_stacked(other.train, other.test, shared=False)
    # parts built by hand from row views of one writable buffer are copied
    # when built, so their concat copies too
    buffer = np.vstack([train.features, test.features])
    labels = np.concatenate([train.labels, test.labels])
    by_hand = [
        TabularDataset(buffer[rows], train.feature_names, labels[rows], train.sensitive_index, train.group_values)
        for rows in (slice(None, train.m), slice(train.m, None))
    ]
    assert_concat_is_stacked(*by_hand, shared=False)
    # row views of one read-only buffer are kept, and joined only when adjacent
    buffer.setflags(write=False)
    labels.setflags(write=False)

    def part(rows):
        names, s, groups = train.feature_names, train.sensitive_index, train.group_values
        return TabularDataset(buffer[rows], names, labels[rows], s, groups)

    assert_concat_is_stacked(part(slice(None, 100)), part(slice(100, None)), shared=True)
    assert_concat_is_stacked(part(slice(None, 100)), part(slice(101, None)), shared=False)
    assert_concat_is_stacked(part(slice(None, 100)), part(slice(100, None, 2)), shared=False)


def test_concat_scans_no_row_its_parts_checked(monkeypatch):
    # the parts passed every check when they were built; pooling them checks
    # only that their schemas and group values agree
    split, _ = standardized_split(generate_synthetic(SyntheticConfig(m=300, n_advantaged=180, seed=3)), 0.8, 0)
    checks = []
    post_init = TabularDataset.__post_init__
    monkeypatch.setattr(TabularDataset, "__post_init__", lambda self: checks.append(self) or post_init(self))
    for a, b in ((split.train, split.test), (split.test, split.train)):
        pooled = concat_datasets(a, b)
        assert not checks
        assert (pooled.feature_names, pooled.sensitive_index, pooled.group_values) == (
            a.feature_names, a.sensitive_index, a.group_values
        )
        assert pooled.features.dtype == np.float64 and pooled.labels.dtype == np.int64
    with pytest.raises(ValueError, match="group encodings"):
        swapped = split.test.group_values[::-1]
        concat_datasets(split.train, replace(split.test, group_values=swapped))


# ---------------------------------------------------------------------------
# properties


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_split_same_seed_identical(seed):
    ds = generate_synthetic(SyntheticConfig(m=120, n_advantaged=70, seed=0))
    a, _ = standardized_split(ds, 0.75, seed)
    b, _ = standardized_split(ds, 0.75, seed)
    assert np.array_equal(a.train.features, b.train.features)


@given(st.lists(st.sampled_from(["a", "b", "c", "d", " a", "b  "]), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_label_encode_codes_are_consistent(column):
    # padded cells share their stripped twin's code
    codes, mapping = label_encode(column)
    assert mapping is not None
    decoded = [ {v: k for k, v in mapping.items()}[int(c)] for c in codes ]
    assert decoded == [cell.strip() for cell in column]
