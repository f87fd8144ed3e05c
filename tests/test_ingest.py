import copy
import os
import re
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from electmine import ingest
from electmine.cli import main
from electmine.ingest import (
    DROP,
    NUMERIC_BINNED,
    Bin,
    ColumnSpec,
    ConsistencyRule,
    SchemaSpec,
    bin_numeric,
    clean,
    load,
    load_csv,
    load_schema,
    select_features,
)
from electmine.model import encode_rows

from conftest import direct_load

ROOT = Path(__file__).parents[1]

AGE_BINS = (
    Bin(18, 29, "18-29"),
    Bin(30, 44, "30-44"),
    Bin(45, 64, "45-64"),
    Bin(65, 120, "65+"),
)


def simple_schema():
    return SchemaSpec(
        columns=(
            ColumnSpec("q9"),
            ColumnSpec("age", kind="numeric_binned", bins=AGE_BINS),
        )
    )


def test_load_csv(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("q9,age\nNo,35\nYes,70\n")
    result = load_csv(path, simple_schema())
    assert result.rows == [{"q9": "No", "age": "35"}, {"q9": "Yes", "age": "70"}]
    assert result.ignored_columns == ()


def test_load_csv_ignores_extra_column(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("q9,age,weight\nNo,35,1.2\n")
    result = load_csv(path, simple_schema())
    assert result.rows == [{"q9": "No", "age": "35"}]
    assert len(result.ignored_columns) == 1


def test_load_csv_missing_schema_column(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("q9\nNo\n")
    with pytest.raises(ValueError, match="age"):
        load_csv(path, simple_schema())


def test_load_csv_malformed_line(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("q9,age\nNo,35,extra,cells\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path, simple_schema())
    # Lines, not records: a quoted field may span two of them.
    path.write_text('q9,age\n"No\nreally",35\nYes\n')
    with pytest.raises(ValueError, match="line 4"):
        load_csv(path, simple_schema())


def test_load_csv_utf8_bom(tmp_path):
    # Spreadsheet exports start with a byte-order mark; it is not part of
    # the first column's name.
    path = tmp_path / "survey.csv"
    path.write_bytes("\ufeffq9,age\nNo,35\n".encode("utf-8"))
    assert load_csv(path, simple_schema()).rows == [{"q9": "No", "age": "35"}]


def test_padded_header_loads_as_the_clean_header(tmp_path):
    # Exports pad names as they pad cells; "q9 " is the column q9.
    clean_path, padded_path = tmp_path / "clean.csv", tmp_path / "padded.csv"
    clean_path.write_text("q9,age,weight\nNo,35,1.2\nYes ,70,1\n")
    padded_path.write_text(" q9 ,age\t, weight\nNo,35,1.2\nYes ,70,1\n")
    schema = simple_schema()
    clean, padded = (load(schema, path) for path in (clean_path, padded_path))
    assert clean[0].labels == ("q9_No", "age_30-44", "q9_Yes", "age_65+")
    assert (padded[0].labels, padded[1].transactions) == (clean[0].labels, clean[1].transactions)
    assert padded[2] == clean[2] and padded[2].ignored_columns == ("weight",)
    assert padded[2].as_text() == clean[2].as_text()
    assert load_csv(padded_path, schema) == load_csv(clean_path, schema)
    padded_path.write_text("q9, q9 ,age\nNo,No,35\n")
    with pytest.raises(ValueError, match="'q9' appears twice"):
        load_csv(padded_path, schema)


def test_clean_blanks_missing_cells():
    rows, report = clean([{"q9": "", "age": "35"}], simple_schema())
    assert rows == [{"age": "30-44"}]
    assert report.blanked_cells == {"q9": 1}


def test_clean_drops_contradictory_rows():
    rule = ConsistencyRule(
        "mail and election-day in-person voting both reported",
        (("q9", "mail"), ("age", "in-person")),
    )
    schema = SchemaSpec(columns=(ColumnSpec("q9"), ColumnSpec("age")))
    rows, report = clean([{"q9": "mail", "age": "in-person"}, {"q9": "No", "age": "ok"}], schema, [rule])
    assert rows == [{"q9": "No", "age": "ok"}]
    assert report.rows_dropped == {rule.description: 1}


def test_clean_identity_case():
    rows, report = clean([{"q9": "No", "age": "35"}], simple_schema())
    assert rows == [{"q9": "No", "age": "30-44"}]
    assert report.blanked_cells == {} and report.rows_dropped == {}


def test_clean_is_idempotent():
    raw = [{"q9": "NA", "age": "29"}, {"q9": "No", "age": "nope"}, {"q9": "Yes", "age": "15"}]
    once, _ = clean(raw, simple_schema())
    twice, report = clean(once, simple_schema())
    assert twice == once
    assert report.blanked_cells == {} and report.out_of_range == {}


def test_clean_strips_cell_whitespace():
    # "No " and "No" are one answer, and padding does not dodge a rule.
    rule = ConsistencyRule("mail voter who is White", (("q9", "mail"), ("race", "White")))
    schema = SchemaSpec(columns=(ColumnSpec("q9"), ColumnSpec("race")))
    raw = [{"q9": "No ", "race": "White"}, {"q9": " mail", "race": "White "}, {"q9": " NA ", "race": "White"}]
    rows, report = clean(raw, schema, [rule])
    assert rows == [{"q9": "No", "race": "White"}, {"race": "White"}]
    assert report.rows_dropped == {rule.description: 1}
    assert report.blanked_cells == {"q9": 1}


def test_clean_counts_out_of_range():
    rows, report = clean([{"age": "17"}], simple_schema())
    assert rows == [{}]
    assert report.out_of_range == {"age": 1}


@pytest.mark.parametrize(
    "age,label",
    [(18, "18-29"), (29, "18-29"), (30, "30-44"), (44, "30-44"),
     (45, "45-64"), (64, "45-64"), (65, "65+"), (99, "65+"),
     # Half-open bins: a value between two bins is in the lower one, and
     # the last bin's upper bound is inclusive.
     (29.5, "18-29"), (29.999, "18-29"), (44.5, "30-44"), (120, "65+")],
)
def test_bin_boundaries(age, label):
    assert bin_numeric(age, AGE_BINS) == label


def test_bin_out_of_range():
    for age in (17, 17.999, 120.5, float("nan")):
        with pytest.raises(ValueError, match="out of binning range"):
            bin_numeric(age, AGE_BINS)


def test_bins_partition_their_range():
    for age in range(18, 121):
        labels = [b.label for b in AGE_BINS if b.lower <= age <= b.upper]
        assert len(labels) == 1
    for reversed_or_nan in (Bin(5, 1, "x"), Bin(float("nan"), 10, "x"), Bin(0, float("nan"), "x")):
        with pytest.raises(ValueError, match="reversed or has a NaN bound"):
            ColumnSpec("age", kind="numeric_binned", bins=(reversed_or_nan,))
    ColumnSpec("age", kind="numeric_binned", bins=(Bin(7, 7, "seven"),))  # one-value bins are fine


def test_column_spec_validation():
    with pytest.raises(ValueError, match="reserved separator"):
        ColumnSpec("voter_location")
    with pytest.raises(ValueError, match="overlap"):
        ColumnSpec("age", kind="numeric_binned", bins=(Bin(0, 10, "a"), Bin(5, 20, "b")))
    with pytest.raises(ValueError, match="not unique"):
        ColumnSpec("age", kind="numeric_binned", bins=(Bin(0, 10, "a"), Bin(11, 20, "a")))


def test_schema_rejects_an_empty_bin_label(tmp_path):
    # Its cells would load as empty answers: a valid age of 30 would be an error.
    with pytest.raises(ValueError, match="^column 'age': a bin label is empty$"):
        ColumnSpec("age", kind="numeric_binned", bins=(Bin(0, 50, ""), Bin(51, 120, "old")))
    path = tmp_path / "schema.yaml"
    path.write_text("columns:\n  - name: age\n    kind: numeric_binned\n    bins: [[0, 50, ''], [51, 120, old]]\n")
    with pytest.raises(ValueError, match="a bin label is empty"):
        load_schema(path)


def test_schema_rejects_unknown_keep_column():
    with pytest.raises(ValueError, match=r"keep columns absent from schema: \['q77'\]"):
        SchemaSpec(columns=(ColumnSpec("q9"),), keep=("q9", "q77"))


def test_load_names_the_line_of_an_empty_kept_cell(tmp_path):
    # Without "" among the missing tokens, a blank cell is an empty answer.
    path = tmp_path / "survey.csv"
    path.write_text("a,b\n1,\n1,2\n")
    schema = SchemaSpec(columns=(ColumnSpec("a"), ColumnSpec("b")), default_missing_tokens=frozenset({"na"}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: empty value in column 'b'$"):
        load(schema, path)
    # Not an error in a column that is not kept, or in a row a rule drops.
    dictionary, db, _ = load(replace(schema, keep=("a",)), path)
    assert (dictionary.labels, db.transactions) == (("a_1",), ((0,), (0,)))
    dropped = ConsistencyRule("b left blank", (("a", "1"), ("b", "")))
    dictionary, db, report = load(replace(schema, consistency_rules=(dropped,)), path)
    assert (dictionary.labels, db.transactions) == (("a_1", "b_2"), ((0, 1),))
    assert report.rows_dropped == {"b left blank": 1}


def test_load_counts_only_the_missing_cells_of_a_dropped_row(tmp_path):
    # Line 2 is dropped: its missing c is blanked, its out-of-range age is not
    # counted. Line 3's b is the missing token "na", which no rule matches.
    path = tmp_path / "survey.csv"
    path.write_text("a,b,age,c\n1,x,200,na\n1,na,35,y\n2,x,17,y\n")
    schema = SchemaSpec(
        columns=(ColumnSpec("a"), ColumnSpec("b"), ColumnSpec("age", kind="numeric_binned", bins=AGE_BINS),
                 ColumnSpec("c")),
        consistency_rules=(ConsistencyRule("x", (("a", "1"), ("b", "x"))),
                           ConsistencyRule("na", (("a", "1"), ("b", "na")))),
    )
    dictionary, db, report = load(schema, path)
    assert dictionary.labels == ("a_1", "age_30-44", "c_y", "a_2", "b_x")
    assert db.transactions == ((0, 1, 2), (2, 3, 4))
    assert (report.rows_dropped, report.blanked_cells, report.out_of_range) == ({"x": 1}, {"b": 1, "c": 1}, {"age": 1})
    steps = four_calls(schema, path)
    assert (steps[0].labels, steps[1].transactions, steps[2].as_text()) == (dictionary.labels, db.transactions,
                                                                           report.as_text())


def test_schema_rejects_a_key_given_twice(tmp_path):
    # A YAML loader keeps the last value of a repeated key; the schema reader names the key and its line.
    path = tmp_path / "schema.yaml"
    for text, line, key in [
        ("columns:\n  - name: a\n  - name: b\nkeep: [a]\nkeep: [a, b]\n", 5, "keep"),
        ("columns:\n  - name: a\n    kind: drop\n    kind: categorical\n", 4, "kind"),
        ("columns:\n  - name: a\n  - name: b\nconsistency_rules:\n  - description: x\n"
         "    conjuncts: {a: '1', b: '1', a: '2'}\n", 6, "a"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^line {line}: key '{key}' given twice in one mapping$"):
            load_schema(path)
    # A merge key is not a repeated key: its mapping's own keys override the merged ones.
    path.write_text("columns:\n  - &a {name: a, kind: drop}\n  - <<: *a\n    name: b\n    kind: categorical\n")
    assert [(c.name, c.kind) for c in load_schema(path).columns] == [("a", "drop"), ("b", "categorical")]


def test_schema_rejects_a_scalar_for_a_list(tmp_path):
    # yaml reads "na" as a string, which would become the tokens {'n', 'a'}.
    path = tmp_path / "schema.yaml"
    for text, what, kind in [
        ("missing_tokens: na\ncolumns:\n  - name: a\n", "missing_tokens", "str"),
        ("columns:\n  - name: a\n    missing_tokens: na\n", "column 'a': missing_tokens", "str"),
        ("columns:\n  - name: race\nkeep: race\n", "keep", "str"),
        ("columns:\n", "columns", "NoneType"),
        ("columns: {a: 1}\n", "columns", "dict"),
        ("columns:\n  - name: age\n    kind: numeric_binned\n    bins: 5\n", "column 'age': bins", "int"),
        ("columns:\n  - name: a\nconsistency_rules: a\n", "consistency_rules", "str"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{what} must be a list, not {kind}$"):
            load_schema(path)


def test_select_features():
    rows = [{"q9": "No", "age": "35", "extra": "x"}]
    assert select_features(rows, ["q9"]) == [{"q9": "No"}]
    assert select_features(rows, []) == [{}]


def test_select_features_unknown_column():
    with pytest.raises(ValueError, match="absent from schema"):
        select_features([{"q9": "No"}], ["q77"], simple_schema())


def test_select_never_adds_attributes():
    rows = [{"q9": "No"}, {"age": "20"}]
    selected = select_features(rows, ["q9", "age"])
    for before, after in zip(rows, selected):
        assert set(after) <= set(before)


def test_load_schema_round_trip(tmp_path):
    path = tmp_path / "schema.yaml"
    path.write_text(
        """
missing_tokens: ["", "skip"]
columns:
  - name: q9
  - name: age
    kind: numeric_binned
    bins:
      - [18, 29, "18-29"]
      - [30, 120, "30+"]
keep: [q9, age]
consistency_rules:
  - description: "impossible combo"
    conjuncts:
      q9: "No"
      age: "17"
"""
    )
    assert load_schema(path) == SchemaSpec(
        columns=(ColumnSpec("q9"),
                 ColumnSpec("age", NUMERIC_BINNED, bins=(Bin(18, 29, "18-29"), Bin(30, 120, "30+")))),
        default_missing_tokens=frozenset({"", "skip"}),
        consistency_rules=(ConsistencyRule("impossible combo", (("age", "17"), ("q9", "No"))),),
        keep=("q9", "age"),
    )


def test_shipped_spae_schema_parses():
    names = ("race", "income", "gender", "location", "newsint", "q4", "q5", "q9", "q12", "q39", "q40", "q41", "q55")
    assert load_schema(ROOT / "configs" / "spae2022.yaml") == SchemaSpec(
        columns=(*map(ColumnSpec, names), ColumnSpec("age", NUMERIC_BINNED, bins=AGE_BINS)),
        default_missing_tokens=frozenset({"", "na", "nan"}),
        consistency_rules=(ConsistencyRule("mail voter reporting an Election-Day polling-place wait over an hour",
                                           (("q12", "More than an hour"), ("q4", "Voted by mail (or absentee)"))),),
        keep=("race", "income", "age", "gender", "q55", "location", "q12", "q5", "q9", "q39", "q40", "q41",
              "newsint", "q4"),
    )


def test_benchmark_and_test_schemas_load_whole():
    p = tuple(f"p{i}" for i in range(1, 7))
    assert load_schema(ROOT / "electbench" / "oracle6.yaml") == SchemaSpec(
        columns=tuple(map(ColumnSpec, p)), default_missing_tokens=frozenset({"", "na", "nan"}), keep=p)
    assert load_schema(ROOT / "tests" / "data" / "d5.yaml") == SchemaSpec(
        columns=tuple(map(ColumnSpec, "abc")), keep=tuple("abc"))


def _value_paths(node, path=()):
    """The path of every value in a YAML document, its root included."""
    yield path
    for key, child in node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ():
        yield from _value_paths(child, (*path, key))


SPAE_DOC = yaml.safe_load((ROOT / "configs" / "spae2022.yaml").read_text())
yaml_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


@settings(deadline=None)
@example(path=("columns", 13, "bins", 0, 1), value=[2])  # float() raises TypeError on a list
@example(path=("columns", 13, "bins", 0, 0), value=10 ** 400)  # and OverflowError on an int this large
@given(path=st.sampled_from(list(_value_paths(SPAE_DOC))), value=yaml_values)
def test_load_schema_raises_only_value_errors(tmp_path_factory, path, value):
    # Any value at any path of the shipped schema loads or is a ValueError, never another exception.
    doc = parent = [copy.deepcopy(SPAE_DOC)]  # the document at index 0, so that its root has a parent too
    *walk, last = (0, *path)
    for key in walk:
        parent = parent[key]
    parent[last] = value
    schema_path = tmp_path_factory.getbasetemp() / "mutated.yaml"
    schema_path.write_text(yaml.safe_dump(doc[0]))
    try:
        assert isinstance(load_schema(schema_path), SchemaSpec)
    except (ValueError, yaml.YAMLError):
        pass


# Cells for the load property test: padding, missing tokens in mixed case,
# and one pool shared by both categorical columns, so that one raw value
# occurs in two columns.
ANSWERS = ("x", "y", " x", "y ", "X", "x_y", "", " ", "na", "NA", " NaN ", "skip", "SKIP")
AGES = ("35", " 35 ", "29", "29.5", "29.999", "30", "44.5", "120", "120.5", "17", "abc", "",
        "na", "NA", "nan", "inf", "1e2", "18-29", " 65+", "30-44 ")


@st.composite
def survey_files(draw):
    """(schema, CSV text): columns a and b (categorical), age (binned, with
    gaps between bins), d (drop) and an ignored column z, in drawn header
    order; blank lines among the rows; consistency rules on the stripped
    cells of drawn rows, so that they drop some rows."""
    header = draw(st.permutations(("a", "b", "age", "d", "z")))
    cells = {"a": ANSWERS, "b": ANSWERS, "age": AGES, "d": ("x", ""), "z": ("1", "")}
    row = st.fixed_dictionaries({h: st.sampled_from(cells[h]) for h in header})
    rows = draw(st.lists(st.one_of(row, st.just(None)), max_size=25))
    lines = [",".join(header), *("" if r is None else ",".join(r[h] for h in header) for r in rows)]

    rules = []
    for i, r in enumerate(draw(st.lists(st.sampled_from([r for r in rows if r] or [None]), max_size=3))):
        names = draw(st.permutations(("a", "b", "age")))[:2]
        conjuncts = tuple(sorted((name, (r or {}).get(name, "x").strip()) for name in names))
        rules.append(ConsistencyRule(f"rule {i}", conjuncts))
    keep = draw(st.one_of(st.just(()), st.permutations(("a", "b", "age")).flatmap(
        lambda order: st.integers(1, 3).map(lambda k: tuple(order[:k])))))
    tokens = draw(st.sampled_from([None, frozenset({"", "NA", "Skip"}), frozenset({"na", "nan"})]))
    schema = SchemaSpec(
        columns=(
            ColumnSpec("a", missing_tokens=tokens),
            ColumnSpec("b"),
            ColumnSpec("age", kind="numeric_binned", bins=AGE_BINS),
            ColumnSpec("d", kind=DROP),
        ),
        consistency_rules=tuple(rules),
        keep=keep,
    )
    return schema, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def four_calls(schema, path):
    """load_csv, clean, select_features and encode_rows in turn."""
    loaded = load_csv(path, schema)
    rows, report = clean(loaded.rows, schema, schema.consistency_rules)
    keep = schema.keep or tuple(c.name for c in schema.columns if c.kind != DROP)
    dictionary, db = encode_rows(select_features(rows, keep, schema), keep)
    return dictionary, db, report, loaded.ignored_columns


@settings(max_examples=200, deadline=None)
@given(survey=survey_files())
def test_load_matches_the_four_calls_and_the_direct_rules(tmp_path_factory, survey):
    schema, text = survey
    path = tmp_path_factory.mktemp("load") / "survey.csv"
    path.write_text(text)

    def outcome(read):
        try:
            return read()
        except ValueError:  # a kept cell that is empty but not missing
            return "ValueError"

    def summary(dictionary, db, report):
        counts = (report.blanked_cells, report.out_of_range, report.rows_dropped)
        return dictionary.labels, db.transactions, counts

    # Every chunk size gives one result, or one message: item ids, tallies
    # and the first fault's line carry across chunk boundaries.
    by_chunk = []
    for chunk_rows in (1, 3, ingest.CHUNK_ROWS):
        with patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            try:
                dictionary, db, report = load(schema, path)
                by_chunk.append((dictionary.labels, db.transactions, report.as_text(), summary(dictionary, db, report)))
            except ValueError as exc:
                by_chunk.append(str(exc))
    assert by_chunk[0] == by_chunk[1] == by_chunk[2]

    loaded = outcome(lambda: load(schema, path))
    composed = outcome(lambda: four_calls(schema, path))
    direct = outcome(lambda: direct_load(schema, path))
    if loaded == "ValueError":
        assert composed == direct == "ValueError"
        return
    dictionary, db, report = loaded
    assert summary(dictionary, db, report) == summary(*composed[:3]) == direct
    assert report.as_text() == composed[2].as_text()
    assert report.ignored_columns == composed[3] == ("z",)


# Two rows a chunk. Record 0 is a quoted field over lines 2-3 and line 4 is
# blank, so record k (from 0) ends on line k + 4 for k >= 1: records 2 and 3
# fill the second chunk.
FAULT_HEAD = 'a,b\n"x\ny",1\n\n1,2\n'
EMPTY_SCHEMA = SchemaSpec(columns=(ColumnSpec("a"), ColumnSpec("b")), default_missing_tokens=frozenset({"na"}))


FAULTS = [
    ("empty-then-ragged", b"1,\n1,2,3\n", "line 6: empty value in column 'b'"),
    ("ragged-then-empty", b"1,2,3\n1,\n", "malformed CSV line 6"),
    ("empty-then-oversized", b"1,\n1," + b"x" * 131_073 + b"\n", "line 6: empty value in column 'b'"),
    ("oversized-then-empty", b"1," + b"x" * 131_073 + b"\n1,\n", "line 6: field larger than field limit (131072)"),
    ("empty-first-in-chunk", b"1,\n1,2\n", "line 6: empty value in column 'b'"),
    ("empty-last-in-chunk", b"1,2\n,2\n", "line 7: empty value in column 'a'"),
    ("empty-then-nul", b"1,\n1,\x00\n", "line 6: empty value in column 'b'"),
    ("nul-then-empty", b"1,\x00\n1,\n", "line 6: line contains NUL"),
]


@pytest.mark.parametrize("tail,message", [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS])
def test_load_raises_the_first_fault_in_file_order(tmp_path, tail, message):
    path = tmp_path / "survey.csv"
    path.write_bytes(FAULT_HEAD.encode() + tail)
    with patch.object(ingest, "CHUNK_ROWS", 2), pytest.raises(ValueError) as caught:
        load(EMPTY_SCHEMA, path)
    assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize("empty,message", [
    (2046, "line 2048: empty value in column 'a'"),
    (2047, "line 2050 is not UTF-8: invalid start byte"),
], ids=["empty-read-before", "empty-not-read"])
def test_load_checks_the_rows_read_before_a_non_utf8_line(tmp_path, empty, message):
    # Text is decoded 8,192 bytes at a time, so a bad byte is raised while
    # the first record past them is read. Every record here is 4 bytes, so
    # records 0-2046 fill the first 8,192 bytes; the bad byte is in record
    # 2048. Record 2046 is read, and checked, before the fault; 2047 is not.
    rows = [b"1,2\n"] * 2100
    rows[empty], rows[2048] = b",22\n", b"1,\xff\n"
    path = tmp_path / "survey.csv"
    path.write_bytes(b"a,b\n" + b"".join(rows))
    with patch.object(ingest, "CHUNK_ROWS", 2), pytest.raises(ValueError) as caught:
        load(EMPTY_SCHEMA, path)
    assert str(caught.value) == f"{path}: {message}"


# csv.reader rejects a line holding a NUL byte up to Python 3.10 and keeps
# the NUL in its cell from 3.11 on; ingest rejects it on every version.
NUL_FAULTS = [
    ("kept-column", b"a,b\n1,2\n1,\x00\n", 3),
    ("ignored-column", b"a,x,b\n1,2,3\n1,\x00,3\n", 3),
    ("after-a-two-line-field", FAULT_HEAD.encode() + b"1,\x00\n", 6),
    ("in-a-two-line-field", b'a,b\n1,2\n"x\n\x00y",1\n', 4),
]


@pytest.mark.parametrize("data,line", [f[1:] for f in NUL_FAULTS], ids=[f[0] for f in NUL_FAULTS])
def test_a_nul_byte_is_an_error_naming_its_line(tmp_path, capsys, data, line):
    path = tmp_path / "survey.csv"
    path.write_bytes(data)
    message = f"{path}: line {line}: line contains NUL"
    for read in (lambda: load(EMPTY_SCHEMA, path), lambda: load_csv(path, EMPTY_SCHEMA)):
        with pytest.raises(ValueError) as caught:
            read()
        assert str(caught.value) == message
    schema = tmp_path / "schema.yaml"
    schema.write_text("missing_tokens: [na]\ncolumns:\n  - name: a\n  - name: b\n")
    assert main(["ingest", "--input", str(path), "--schema", str(schema)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_load_shares_one_int_per_item_id(tmp_path):
    # Python caches no int above 256, so an id made per cell would be an
    # object per cell: 4 MB more on 20,000 rows of 8 columns of 500 values.
    path = tmp_path / "survey.csv"
    path.write_text("a,b\n" + "".join(f"{i % 300},{i % 7}\n" for i in range(1000)))
    with patch.object(ingest, "CHUNK_ROWS", 64):
        _, db, _ = load(SchemaSpec(columns=(ColumnSpec("a"), ColumnSpec("b"))), path)
    assert len({id(item) for row in db.transactions for item in row}) == db.n_items == 307


@pytest.fixture
def pipe_of():
    """Makes a pipe that holds data, with its write end closed, and gives
    the path that opens it, as bash's <(...) does: a second open of it
    reads nothing. data must fit the pipe's buffer (64 KiB on Linux)."""
    ends = []

    def make(data: bytes) -> str:
        read, write = os.pipe()
        ends.append(read)
        with os.fdopen(write, "wb") as fh:
            fh.write(data)
        return f"/dev/fd/{read}"

    yield make
    for fd in ends:
        os.close(fd)


def test_load_from_a_pipe_equals_the_file(tmp_path, pipe_of):
    data = FAULT_HEAD.encode() + b"".join(b"%d,%d\n" % (i % 5, i % 3) for i in range(300))
    path = tmp_path / "survey.csv"
    path.write_bytes(data)
    with patch.object(ingest, "CHUNK_ROWS", 64):
        dictionary, db, report = load(EMPTY_SCHEMA, path)
        piped = load(EMPTY_SCHEMA, pipe_of(data))
    assert (piped[0], piped[1], piped[2].as_text()) == (dictionary, db, report.as_text())
    assert db.n_transactions == 302


# A pipe cannot be read twice, so each line must come from the one read.
PIPE_FAULTS = [
    ("empty-kept-cell", b"1,\n", "line 6: empty value in column 'b'"),
    ("non-utf8", b"1,\xff\n", "line 6 is not UTF-8: invalid start byte"),
]


@pytest.mark.parametrize("tail,message", [f[1:] for f in PIPE_FAULTS], ids=[f[0] for f in PIPE_FAULTS])
def test_load_names_the_line_of_a_fault_in_a_pipe(pipe_of, tail, message):
    path = pipe_of(FAULT_HEAD.encode() + tail)
    with pytest.raises(ValueError) as caught:
        load(EMPTY_SCHEMA, path)
    assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize("tail,message", [f[1:] for f in PIPE_FAULTS], ids=[f[0] for f in PIPE_FAULTS])
def test_ingest_of_a_faulty_pipe_is_one_error_line(tmp_path, capsys, pipe_of, tail, message):
    schema = tmp_path / "schema.yaml"
    schema.write_text("missing_tokens: [na]\ncolumns:\n  - name: a\n  - name: b\n")
    path = pipe_of(FAULT_HEAD.encode() + tail)
    assert main(["ingest", "--input", path, "--schema", str(schema)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def first_non_utf8_line(path) -> int:
    """The first line, split at b"\\n", that does not decode as UTF-8 on its
    own, or 0. load once found the line so, by reading the file again."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return 0


BLOCK = 8192  # the bytes a text file decodes at a time
NEAR_BLOCK_ENDS = [k * BLOCK + d for k in (1, 2, 3) for d in (-2, -1, 0, 1)]


@st.composite
def non_utf8_files(draw):
    """A CSV of columns a and b, several decode blocks long, with
    "\\n" or "\\r\\n" line ends, with or without a byte-order mark, holding a
    quoted two-line field and a field longer than one block, and one byte
    >= 0x80 put in at any offset."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [f"{i},{i % 7}" for i in range(draw(st.integers(2000, 3000)))]
    rows.insert(draw(st.integers(0, len(rows))), f'"x{newline}y",1')
    rows.insert(draw(st.integers(0, len(rows))), "x" * draw(st.integers(BLOCK + 1, 2 * BLOCK)) + ",1")
    ending = draw(st.sampled_from(["", newline]))
    data = (draw(st.sampled_from(["", "\ufeff"])) + newline.join(["a,b", *rows]) + ending).encode()
    at = draw(st.one_of(st.integers(0, len(data)), st.sampled_from(NEAR_BLOCK_ENDS)))
    return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]


@settings(max_examples=150, deadline=None)
@given(data=non_utf8_files())
@example(data=b"a,b\r\n1," + b"2" * (BLOCK - 8) + b"\r\n\xff1,2\r\n")  # "\r" ends the first block
@example(data=b"a,b\n" + b"1,2\n" * 2047 + b"1,2\xc3")  # an unfinished sequence at the end
def test_load_names_the_line_of_a_non_utf8_byte_as_a_reread_does(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("utf8") / "survey.csv"
    path.write_bytes(data)
    line = first_non_utf8_line(path)
    assert line > 0
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line} is not UTF-8: "):
        load(SchemaSpec(columns=(ColumnSpec("a"), ColumnSpec("b"))), path)
