import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electmine.ingest import (
    DROP,
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


def test_schema_rejects_a_scalar_for_a_list(tmp_path):
    # yaml reads "na" as a string, which would become the tokens {'n', 'a'}.
    path = tmp_path / "schema.yaml"
    for text, what in [
        ("missing_tokens: na\ncolumns:\n  - name: a\n", "missing_tokens"),
        ("columns:\n  - name: a\n    missing_tokens: na\n", "column 'a': missing_tokens"),
        ("columns:\n  - name: race\nkeep: race\n", "keep"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{what} must be a list, not str$"):
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
    schema = load_schema(path)
    assert [c.name for c in schema.columns] == ["q9", "age"]
    assert schema.keep == ("q9", "age")
    assert schema.default_missing_tokens == frozenset({"", "skip"})
    assert schema.consistency_rules[0].description == "impossible combo"
    assert schema.columns[1].bins[1].label == "30+"


def test_shipped_spae_schema_parses():
    from pathlib import Path

    schema = load_schema(Path(__file__).parents[1] / "configs" / "spae2022.yaml")
    assert len(schema.keep) == 14
    assert {c.name: c for c in schema.columns}["age"].kind == "numeric_binned"
    assert len(schema.consistency_rules) >= 1


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
