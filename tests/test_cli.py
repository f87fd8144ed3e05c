import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from electmine.cli import (
    DEFAULT_MIN_CONFIDENCE,
    DEFAULT_MIN_LIFT,
    DEFAULT_MIN_SUPPORT,
    MINORITY_PRESET_MIN_SUPPORT,
    build_parser,
    main,
    thresholds_from,
)


def d5_args(data_dir):
    return ["--input", str(data_dir / "d5.csv"), "--schema", str(data_dir / "d5.yaml")]


def test_defaults_match_published_parameters():
    assert (DEFAULT_MIN_SUPPORT, DEFAULT_MIN_CONFIDENCE, DEFAULT_MIN_LIFT) == (0.03, 0.60, 1.50)
    args = build_parser().parse_args(["rules", "--input", "x", "--schema", "y"])
    t = thresholds_from(args)
    assert (t.min_support, t.min_confidence, t.min_lift) == (0.03, 0.60, 1.50)


def test_minority_preset_sets_support():
    assert MINORITY_PRESET_MIN_SUPPORT == 0.02
    args = build_parser().parse_args(["rules", "--input", "x", "--schema", "y", "--minority-preset"])
    assert thresholds_from(args).min_support == 0.02


@pytest.mark.parametrize("command", ["rules", "compare", "verify"])
def test_minority_preset_excludes_min_support(capsys, command):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--input", "x", "--schema", "y",
                                   "--min-support", "0.1", "--minority-preset"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_mine_d5(data_dir, capsys):
    assert main(["mine", *d5_args(data_dir), "--min-support", "0.6"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line and not line.startswith("items")]
    assert len(lines) == 6
    assert lines[0].startswith("a_1")


def test_mine_missing_input(data_dir, capsys):
    code = main(["mine", "--input", "no-such-file.csv", "--schema", str(data_dir / "d5.yaml")])
    assert code == 1
    assert "no-such-file.csv" in capsys.readouterr().err


def test_mine_bad_min_support(data_dir, capsys):
    code = main(["mine", *d5_args(data_dir), "--min-support", "1.5"])
    assert code == 2
    assert "min-support must be in (0,1]" in capsys.readouterr().err


def test_mine_all_algorithms_agree(data_dir, capsys):
    outputs = []
    for algorithm in ("apriori", "fpgrowth", "oracle"):
        assert main(["mine", *d5_args(data_dir), "--min-support", "0.6",
                     "--algorithm", algorithm, "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_rules_d5_zero_lift(data_dir, capsys):
    assert main(["rules", *d5_args(data_dir), "--min-support", "0.03",
                 "--min-lift", "0", "--top", "6"]) == 0
    out = capsys.readouterr().out
    body = [line for line in out.splitlines() if line and not line.startswith("antecedent")]
    assert len(body) == 6
    assert all("75.0" in line for line in body)


def test_rules_default_sort_is_lift_descending(data_dir, capsys):
    assert main(["rules", *d5_args(data_dir), "--min-lift", "0", "--format", "json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    lifts = [r["lift"] for r in records]
    assert lifts == sorted(lifts, reverse=True)


def test_rules_tag_filter(data_dir, capsys):
    assert main(["rules", *d5_args(data_dir), "--min-lift", "0", "--tags", "minority",
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == ""


def test_rules_unknown_tag_rejected(data_dir, capsys):
    assert main(["rules", *d5_args(data_dir), "--min-lift", "0", "--tags", "minority,equty",
                 "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "['equty']" in captured.err
    assert "valid tags are equity, minority" in captured.err


def test_compare_d5(data_dir, capsys):
    assert main(["compare", *d5_args(data_dir), "--min-lift", "0", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = report["rows"]
    assert [r["algorithm"] for r in rows] == ["apriori", "fpgrowth"]
    assert rows[0]["total_rules"] == rows[1]["total_rules"] == 9


def test_compare_unknown_algorithm(data_dir, tmp_path, capsys):
    # Exit 2, not 1 for the missing file: the input is never opened.
    missing = ["--input", str(tmp_path / "no-such-file.csv"), "--schema", str(data_dir / "d5.yaml")]
    for spec in ("eclat", "oracle", ",", "apriori,apriori"):
        assert main(["compare", *missing, "--algorithm", spec]) == 2
        assert "algorithm" in capsys.readouterr().err


def test_compare_repeat_flag(data_dir):
    assert main(["compare", *d5_args(data_dir), "--repeat", "3", "--output", "/dev/null"]) == 0
    assert main(["compare", *d5_args(data_dir), "--repeat", "0"]) == 2


def test_verify_d5(data_dir, capsys):
    assert main(["verify", *d5_args(data_dir), "--min-support", "0.6"]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"


def test_ingest_report(data_dir, capsys):
    assert main(["ingest", *d5_args(data_dir), "--report"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "a_1;b_1;c_1"
    assert "blanked cells" in captured.err


@pytest.mark.parametrize("command", ["ingest", "verify"])
def test_format_rejected_where_output_is_fixed(data_dir, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *d5_args(data_dir), "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


# Inputs that once ended in a traceback, in an error that named neither
# the file nor the line, or in no error: (id, schema text or None for d5.yaml,
# --input, --output, exit code). --input is None for d5.csv, "dir" for a
# directory, or the bytes of the input file; --output "dir" is a directory,
# "no-parent" a file in a missing directory.
BAD_INPUTS = [
    ("yaml-syntax", "columns: [a, b\n", None, None, 2),
    ("top-level-list", "- name: a\n", None, None, 2),
    ("short-bin", "columns:\n  - name: a\n    kind: numeric_binned\n    bins: [[1, 2]]\n", None, None, 2),
    ("reversed-bin", "columns:\n  - name: a\n    kind: numeric_binned\n    bins: [[5, 1, x]]\n", None, None, 2),
    # Bins on a column that is not numeric_binned would leave its raw values unbinned.
    ("bins-not-binned", "columns:\n  - name: a\n    bins: [[1, 2, x]]\n", "dir", None, 2),
    # An unknown keep column is a schema error, found before the input is opened.
    ("unknown-keep", "columns:\n  - name: a\nkeep: [a, q77]\n", "dir", None, 2),
    # A scalar where a list belongs, which would otherwise be read letter by letter.
    ("scalar-missing-tokens", "missing_tokens: na\ncolumns:\n  - name: a\n", "dir", None, 2),
    ("scalar-column-missing-tokens", "columns:\n  - name: a\n    missing_tokens: na\n", "dir", None, 2),
    ("scalar-keep", "columns:\n  - name: race\nkeep: race\n", "dir", None, 2),
    # A misspelt key is a schema error that names the key, never dropped silently.
    ("column-key", "column:\n  - name: a\n", "dir", None, 2),
    ("missing-token-key", "missing_token: [na]\ncolumns:\n  - name: a\n", "dir", None, 2),
    ("bin-key", "columns:\n  - name: a\n    bin: [[1, 2, x]]\n", "dir", None, 2),
    ("conjunct-key", "columns:\n  - name: a\nconsistency_rules:\n  - description: x\n"
                     "    conjunct: {a: '1', b: '1'}\n", "dir", None, 2),
    # keep selects each non-drop column at most once.
    ("keep-twice", "columns:\n  - name: a\n  - name: b\n  - name: c\nkeep: [a, a, c]\n", "dir", None, 2),
    ("keep-drop", "columns:\n  - name: a\n  - name: b\n    kind: drop\n  - name: c\nkeep: [a, b, c]\n",
     "dir", None, 2),
    # A consistency rule on a column that is not read would never match.
    ("rule-unknown-column", "columns:\n  - name: a\n  - name: b\nconsistency_rules:\n  - description: x\n"
                            "    conjuncts: {a: '1', q99: '1'}\n", "dir", None, 2),
    ("rule-drop-column", "columns:\n  - name: a\n  - name: d\n    kind: drop\nconsistency_rules:\n"
                         "  - description: x\n    conjuncts: {a: '1', d: '1'}\n", "dir", None, 2),
    ("input-is-directory", None, "dir", None, 1),
    ("oversized-field", None, b"a,b,c\n1,1,1\n1," + b"x" * 131_073 + b",1\n", None, 1),
    ("non-utf8", None, b"a,b,c\n1,1,1\n1,\xff,1\n", None, 1),
    ("duplicate-column", None, b"a,b,a,c\n1,1,1,1\n", None, 1),
    ("empty-kept-cell", "missing_tokens: [na]\ncolumns:\n  - name: a\n  - name: b\n", b"a,b\n1,2\n1,\n", None, 1),
    ("output-is-directory", None, None, "dir", 1),
    ("output-parent-missing", None, None, "no-parent", 1),
]


@pytest.mark.parametrize("what,schema,input_,output,code", BAD_INPUTS, ids=[b[0] for b in BAD_INPUTS])
def test_bad_input_exits_without_traceback(data_dir, tmp_path, what, schema, input_, output, code):
    schema_path = data_dir / "d5.yaml"
    if schema is not None:
        schema_path = tmp_path / "schema.yaml"
        schema_path.write_text(schema)
    input_path = {None: data_dir / "d5.csv", "dir": tmp_path}.get(input_, tmp_path / "input.csv")
    if isinstance(input_, bytes):
        input_path.write_bytes(input_)
    output_args = {None: [], "dir": ["--output", str(tmp_path)],
                   "no-parent": ["--output", str(tmp_path / "missing" / "out.txt")]}[output]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    child = subprocess.run(
        [sys.executable, "-m", "electmine.cli", "rules", "--input", str(input_path),
         "--schema", str(schema_path), *output_args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == code
    assert child.stderr.startswith("error: ") and "Traceback" not in child.stderr
    if output is not None:
        assert child.stderr.startswith("error: cannot write output ")
    if code == 2:
        assert child.stderr.startswith(f"error: bad schema {schema_path}: {SCHEMA_FAULTS.get(what, '')}")
    if isinstance(input_, bytes):  # the file, and the line or the column at fault
        assert child.stderr.startswith(f"error: {input_path}: {INPUT_FAULTS[what]}")


SCHEMA_FAULTS = {
    "column-key": "the schema has unknown keys ['column']",
    "missing-token-key": "the schema has unknown keys ['missing_token']",
    "bin-key": "a column entry has unknown keys ['bin']",
    "conjunct-key": "a consistency rule has unknown keys ['conjunct']",
    "keep-twice": "keep columns named twice: ['a']",
    "keep-drop": "keep columns of kind drop: ['b']",
    "bins-not-binned": "column 'a': bins need kind numeric_binned, not 'categorical'",
    "rule-unknown-column": "consistency rule columns absent from schema: ['q99']",
    "rule-drop-column": "consistency rule columns of kind drop: ['d']",
}


INPUT_FAULTS = {
    "oversized-field": "line 3",
    "non-utf8": "line 3",
    "duplicate-column": "column 'a' appears twice in the header",
    "empty-kept-cell": "line 3: empty value in column 'b'",
}


ragged_row = st.lists(st.text("0123456789abc", min_size=1, max_size=3), min_size=1, max_size=6)


@st.composite
def unusable_csvs(draw):
    """Bytes of a CSV for d5.yaml that no mining command can use."""
    kind = draw(st.sampled_from(["empty", "bom-only", "header-only", "ragged", "oversized", "non-utf8"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    body = draw(st.lists(st.lists(st.text("0123456789abc", max_size=3), min_size=3, max_size=3), max_size=4))
    rows = [["a", "b", "c"], *body]
    if kind in ("empty", "bom-only"):
        bom, rows = ("" if kind == "empty" else "\ufeff"), []
    elif kind == "header-only":
        rows = rows[:1]
    elif kind == "ragged":
        rows.insert(draw(st.integers(1, len(rows))), draw(ragged_row.filter(lambda r: len(r) != 3)))
    elif kind == "oversized":  # a field over csv.field_size_limit()
        rows.insert(draw(st.integers(1, len(rows))), ["1", "x" * draw(st.integers(131_073, 140_000)), "1"])
    data = (bom + newline.join(map(",".join, rows)) + draw(st.sampled_from(["", newline]))).encode()
    if kind == "non-utf8":  # one byte >= 0x80 anywhere makes valid UTF-8 invalid
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
    return data


word = st.text("abcdefghij", min_size=1, max_size=6)
bad_schemas = st.one_of(
    word.map(lambda w: f"columns: [{w}\n"),  # unclosed flow sequence
    word.map(lambda w: f"columns:\n\t- name: {w}\n"),  # tab indentation
    word.map(lambda w: f"- name: {w}\n"),  # a list, not a mapping
    word.map(lambda w: f"columns:\n  - {w}\n"),  # a column that is not a mapping
    word.map(lambda w: f"columns:\n  - kind: {w}\n"),  # a column with no name
    word.map(lambda w: f"columns:\n  - name: {w}\n    kind: {w}\n"),  # an unknown kind
    word.map(lambda w: f"columns:\n  - name: {w}\n    kind: numeric_binned\n    bins: [[1, 2]]\n"),
    word.map(lambda w: f"consistency_rules:\n  - description: {w}\n    conjuncts: {{a: '1'}}\n"),
)


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["mine", "rules", "compare", "verify"]),
    case=st.one_of(unusable_csvs().map(lambda b: ("input", b)), bad_schemas.map(lambda t: ("schema", t))),
)
def test_unusable_input_is_an_error_line(tmp_path_factory, data_dir, command, case):
    # In-process: main() returns the exit code and lets no exception escape.
    where, content = case
    input_path, schema_path = data_dir / "d5.csv", data_dir / "d5.yaml"
    if where == "input":
        input_path = tmp_path_factory.mktemp("fuzz") / "input.csv"
        input_path.write_bytes(content)
        expected = (1, f"error: {input_path}: ")
    else:
        schema_path = tmp_path_factory.mktemp("fuzz") / "schema.yaml"
        schema_path.write_text(content)
        expected = (2, f"error: bad schema {schema_path}: ")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([command, "--input", str(input_path), "--schema", str(schema_path)])
    assert (code, err.getvalue()[: len(expected[1])]) == expected


cells = st.sampled_from(["1", "0", "x", "3", "8", "-1", "4.5", "na", "", " 1", "x\t", "abc"])
bad_bins = st.sampled_from([
    [[0, 5]], [["x", 5, "lo"]], [[5, 0, "lo"]], [[None, 5, "lo"]], "0-5", None, [],
    [[0, 5, "lo"], [3, 8, "mid"]], [[0, 5, "lo"], [0, 5, "lo"]], {"lo": [0, 5]},
])


@st.composite
def mutated_exports(draw):
    """A CSV and a schema for columns a, b and a binned n, each mutated as
    real exports and hand-edited schemas are."""
    rows = [["a", "b", "n"], *draw(st.lists(st.lists(cells, min_size=3, max_size=3), max_size=8))]
    for _ in range(draw(st.integers(0, 3))):  # stray whitespace
        row = draw(st.sampled_from(rows))
        at = draw(st.integers(0, 2))
        row[at] = draw(st.sampled_from([" ", "\t", "  "])) + row[at] + draw(st.sampled_from(["", " "]))
    for _ in range(draw(st.integers(0, 2))):  # ragged lines, the header included
        row = draw(st.sampled_from(rows))
        row[:] = row[: draw(st.integers(0, 2))] if draw(st.booleans()) else [*row, draw(cells)]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = draw(st.sampled_from(["", "\ufeff"])) + newline.join(map(",".join, rows)) + draw(st.sampled_from(["", newline]))

    columns = [{"name": "a"}, {"name": "b"}, {"name": "n", "kind": "numeric_binned", "bins": [[0, 5, "lo"], [6, 10, "hi"]]}]
    schema = {"columns": columns, "keep": ["a", "b", "n"]}
    for _ in range(draw(st.integers(0, 2))):
        mutation = draw(st.sampled_from(["top-key", "column-key", "rule-key", "bins", "bins-on-a", "keep"]))
        if mutation == "top-key":
            schema[draw(st.sampled_from(["colums", "kep", "missing", "rules"]))] = ["a"]
        elif mutation == "column-key":
            draw(st.sampled_from(columns))[draw(st.sampled_from(["bin", "type", "missing"]))] = "x"
        elif mutation == "rule-key":
            schema["consistency_rules"] = [{"description": "d", "conjuncts": {"a": "1"}, "conjunct": {"b": "x"}}]
        elif mutation == "bins":
            columns[2]["bins"] = draw(bad_bins)
        elif mutation == "bins-on-a":
            columns[0]["bins"] = [[0, 5, "lo"]]
        else:
            schema["keep"] = draw(st.sampled_from([["a", "a"], ["z"], "a", [], None]))
    return data.encode(), json.dumps(schema)  # JSON is YAML


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(["ingest", "mine", "rules", "compare", "verify"]), export=mutated_exports())
def test_mutated_exports_exit_with_a_defined_code(tmp_path_factory, command, export):
    # In-process: main() returns 0, 1 or 2 and lets no exception escape.
    data, schema = export
    work = tmp_path_factory.mktemp("fuzz")
    (work / "input.csv").write_bytes(data)
    (work / "schema.yaml").write_text(schema)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main([command, "--input", str(work / "input.csv"), "--schema", str(work / "schema.yaml")])
    assert code in (0, 1, 2)


def test_byte_identical_reruns(data_dir, tmp_path):
    paths = []
    for i in (1, 2):
        out = tmp_path / f"run{i}.json"
        assert main(["rules", *d5_args(data_dir), "--min-lift", "0",
                     "--format", "json", "--output", str(out)]) == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_output_file(data_dir, tmp_path, capsys):
    out = tmp_path / "itemsets.csv"
    assert main(["mine", *d5_args(data_dir), "--min-support", "0.6",
                 "--format", "csv", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("items,count,support")


# Runs whose bytes are pinned in tests/data/golden, captured before the
# emitters were merged into one. Every miner of a command writes the same file.
GOLDEN_RUNS = [
    ("mine", "apriori"), ("mine", "fpgrowth"), ("mine", "oracle"),
    ("rules", "apriori"), ("rules", "fpgrowth"),
    ("compare", "apriori,fpgrowth"),
]
# compare's time column, which differs from run to run.
COMPARE_TIME = {
    "table": rb"\d+\.\d{3}$",
    "csv": rb"(?<=,)[\d.]+(?=,[^,]*\r?$)",
    "json": rb'(?<="wall_seconds": )[\d.]+',
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command,algorithm", GOLDEN_RUNS)
def test_golden_output(data_dir, tmp_path, command, algorithm, fmt):
    out = tmp_path / "out"
    extra = [] if command == "mine" else ["--min-lift", "0"]
    assert main([command, *d5_args(data_dir), *extra, "--algorithm", algorithm,
                 "--format", fmt, "--output", str(out)]) == 0
    actual = out.read_bytes()
    expected = (data_dir / "golden" / f"{command}.{fmt}").read_bytes()
    if command == "compare":
        actual, expected = (re.sub(COMPARE_TIME[fmt], b"T", b, flags=re.M) for b in (actual, expected))
    assert actual == expected


# Every subcommand and miner that takes a count option.
COUNT_OPTIONS = [
    *(("mine", a, "max-len") for a in ("apriori", "fpgrowth", "oracle")),
    *(("rules", a, option) for a in ("apriori", "fpgrowth") for option in ("max-len", "top")),
    *(("compare", a, "max-len") for a in ("apriori", "fpgrowth", "apriori,fpgrowth")),
]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command,algorithm,option", COUNT_OPTIONS)
def test_count_below_one_is_config_error(data_dir, capsys, command, algorithm, option, value):
    argv = [command, *d5_args(data_dir), "--algorithm", algorithm, f"--{option}", value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"{option} must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value,message", [("0", "must be >= 1"), ("25", "must be in 1..24")])
def test_max_oracle_items_out_of_range(data_dir, capsys, value, message):
    assert main(["verify", *d5_args(data_dir), "--max-oracle-items", value]) == 2
    captured = capsys.readouterr()
    assert f"max-oracle-items {message}" in captured.err
    assert captured.out == ""


def test_verify_beyond_oracle_limits(data_dir, capsys):
    assert main(["verify", *d5_args(data_dir), "--max-oracle-items", "2"]) == 2
    assert "oracle limits exceeded" in capsys.readouterr().err


def test_mine_oracle_beyond_limits(tmp_path, capsys):
    names = [f"q{i}" for i in range(21)]
    (tmp_path / "wide.csv").write_text(",".join(names) + "\n" + ",".join("1" * 21) + "\n")
    (tmp_path / "wide.yaml").write_text("columns:\n" + "".join(f"  - name: {n}\n" for n in names))
    assert main(["mine", "--input", str(tmp_path / "wide.csv"), "--schema", str(tmp_path / "wide.yaml"),
                 "--algorithm", "oracle"]) == 2
    assert "oracle limits exceeded" in capsys.readouterr().err
