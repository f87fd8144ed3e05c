import os
import re
import threading

import pytest

from electmine import ingest
from electmine.ingest import DROP, clean, load, load_csv, load_schema, select_features
from electmine.model import encode_rows
from support import cli


def summary(dictionary, db, report):
    return dictionary.labels, db.transactions, report.as_text()


# Nothing else pins load's report where the SPAE consistency rule fires: the
# totals are blanked cells, rows dropped, out of range and transactions.
@pytest.mark.parametrize("name,totals", [
    ("spae", (1902, 32, 22, 3968)), ("spae50k", (23730, 447, 183, 49553)), ("many", (0, 0, 0, 20000))])
def test_load_equals_the_four_step_functions(inputs, name, totals):
    path, schema = inputs[name].csv, load_schema(inputs[name].schema)
    keep = schema.keep or tuple(c.name for c in schema.columns if c.kind != DROP)
    dictionary, db, report = load(schema, path)
    rows, steps = clean(load_csv(path, schema).rows, schema, schema.consistency_rules)
    assert summary(dictionary, db, report) == summary(*encode_rows(select_features(rows, keep, schema), keep), steps)
    tallies = (report.blanked_cells, report.rows_dropped, report.out_of_range)
    assert (*(sum(tally.values()) for tally in tallies), db.n_transactions) == totals


@pytest.mark.parametrize("name", ["spae", "many"])
def test_load_gives_the_same_result_in_7_row_chunks(inputs, monkeypatch, name):
    path, schema = inputs[name].csv, load_schema(inputs[name].schema)
    default = summary(*load(schema, path))
    monkeypatch.setattr(ingest, "CHUNK_ROWS", 7)  # divides neither 4,000 nor 20,000
    assert summary(*load(schema, path)) == default


def piped(data: bytes, *args):
    """electmine ARGS --input /dev/fd/N, a pipe a thread fills with data, as bash's <(...) gives."""
    read, write = os.pipe()

    def fill():
        with open(write, "wb") as fh:
            fh.write(data)

    feeder = threading.Thread(target=fill)
    feeder.start()
    try:
        return cli(*args, "--input", f"/dev/fd/{read}", pass_fds=(read,))
    finally:
        os.close(read)
        feeder.join()


@pytest.mark.parametrize("command", [["rules", "--format", "json"], ["ingest", "--report"]], ids=["rules", "ingest"])
def test_a_piped_input_gives_the_output_of_the_file(inputs, command):
    spae = inputs["spae"]
    from_file, from_pipe = cli(*command, *spae.args), piped(spae.csv.read_bytes(), *command, "--schema", spae.schema)
    assert from_file.returncode == from_pipe.returncode == 0, from_pipe.stderr
    assert (from_pipe.stdout, from_pipe.stderr) == (from_file.stdout, from_file.stderr)


@pytest.mark.parametrize("tail,fault", [(b"1,\n", "line 3: empty value in column 'b'"),
                                        (b"1,\xff\n", "line 3 is not UTF-8: invalid start byte")],
                         ids=["empty-cell", "non-utf8"])
def test_a_piped_fault_is_one_error_line(tmp_path, tail, fault):
    (tmp_path / "ab.yaml").write_text("missing_tokens: [na]\ncolumns:\n  - name: a\n  - name: b\n")
    child = piped(b"a,b\n1,2\n" + tail, "ingest", "--schema", tmp_path / "ab.yaml")
    assert child.returncode == 1
    assert re.fullmatch(rf"error: /dev/fd/\d+: {re.escape(fault)}\n", child.stderr.decode())
