"""Tests of the benchmark itself (not of electmine).

Run: python3 -m pytest electbench/test_electbench.py -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("make", [gen.spae_csv, gen.oracle_csv])
def test_generator_is_deterministic_per_seed(make):
    a, b, other = make(7, 600), make(7, 600), make(8, 600)
    assert a.data == b.data
    assert a.labels == b.labels and (a.matrix == b.matrix).all()
    assert other.data != a.data


def test_spae_input_trips_every_clean_counter(tmp_path):
    from electmine import ingest

    path = tmp_path / "in.csv"
    path.write_bytes(gen.spae_csv(3, 4000).data)
    schema = ingest.load_schema(run.SPAE_SCHEMA)
    loaded = ingest.load_csv(path, schema)
    assert loaded.ignored_columns == (gen.EXTRA_COLUMN,)
    rows, report = ingest.clean(loaded.rows, schema, schema.consistency_rules)
    assert report.blanked_cells and report.out_of_range and report.rows_dropped
    text = path.read_text()
    assert ",NA," in text and ",nan," in text and ",," in text


def test_truth_matrix_matches_electmine_encoding(tmp_path):
    """The generator's cleaned copy is what electmine builds from the CSV."""
    from electmine import ingest
    from electmine.model import encode_rows

    g = gen.spae_csv(5, 1500)
    path = tmp_path / "in.csv"
    path.write_bytes(g.data)
    schema = ingest.load_schema(run.SPAE_SCHEMA)
    rows, _ = ingest.clean(ingest.load_csv(path, schema).rows, schema, schema.consistency_rules)
    dictionary, db = encode_rows(ingest.select_features(rows, schema.keep, schema), schema.keep)
    expected = {frozenset(g.labels[i] for i in row.nonzero()[0]) for row in g.matrix}
    actual = {frozenset(dictionary.label_of(i) for i in t) for t in db.transactions}
    assert db.n_transactions == g.matrix.shape[0]
    assert actual == expected


def test_metric_names_are_well_formed_and_declared():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(declared)) == len(declared)
    for name in declared + list(run.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    # The traced run emits exactly the declared per-layer metrics and units.
    trace = {"counters": {}, "spans": [{"id": 0, "name": "ingest.load_csv", "run": "cli",
                                        "parent": None, "start": 1.0, "end": 2.0,
                                        "rss_hwm_mb": 5.0}]}
    emitted = run.layer_metrics(trace, run.Child(0, 3.0, 1.0, Path(), 0.5, 3.5),
                                run.Child(0, 2.0, 1.0, Path(), 0.0, 2.0))
    assert {k: unit for k, (_, unit) in emitted.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


@pytest.fixture(scope="module")
def rules_output(tmp_path_factory):
    """A real CLI rules output on a small generated input, and its truth."""
    from electmine import cli

    work = tmp_path_factory.mktemp("rules")
    g = gen.spae_csv(11, 800)
    (work / "in.csv").write_bytes(g.data)
    out = work / "out.json"
    code = cli.main(["rules", "--format", "json", "--algorithm", "fpgrowth", "--input",
                     str(work / "in.csv"), "--schema", str(run.SPAE_SCHEMA), "--output", str(out)])
    assert code == 0
    return g, out


def _child(path: Path, code: int = 0) -> run.Child:
    return run.Child(code, 1.0, 10.0, path, 0.0, 1.0)


def test_good_output_passes(rules_output):
    g, out = rules_output
    checker = run.Checker("rules-fpgrowth-large", 10**9, g)
    assert checker.pinned is None
    assert checker.record(_child(out)) and checker.record(_child(out))
    assert (checker.attempted, checker.failed) == (2, 0)


@pytest.mark.parametrize("corrupt, recount_catches", [
    (lambda b: b.replace(b'"lift": 1', b'"lift": 2', 1), True),  # a wrong metric
    (lambda b: b + b"{}\n", True),  # a malformed record
    (lambda b: b[: b.rindex(b"\n", 0, len(b) - 1) + 1], False),  # the last rule dropped
])
def test_corrupted_output_counts_as_failed(rules_output, tmp_path, corrupt, recount_catches):
    g, out = rules_output
    good = out.read_bytes()
    bad = tmp_path / "bad.json"
    bad.write_bytes(corrupt(good))
    assert bad.read_bytes() != good
    # An unpinned seed: the first output checked becomes the reference.
    checker = run.Checker("rules-fpgrowth-large", 10**9, g)
    assert checker.record(_child(out))
    assert not checker.record(_child(bad))
    assert (checker.attempted, checker.failed) == (2, 1)
    # The independent recount alone catches wrong metrics and bad records.
    assert (run.recount_rules(bad.read_bytes(), g) is not None) == recount_catches


def test_failed_exit_and_divergent_verify_count_as_failed(tmp_path):
    g = gen.oracle_csv(1, 100)
    out = tmp_path / "verify.out"
    checker = run.Checker("verify-oracle", 1, g)
    out.write_bytes(b"equivalent\n")
    assert checker.record(_child(out))
    assert not checker.record(_child(out, code=1))
    out.write_bytes(b"divergent: itemset (1,) in apriori but not oracle\n")
    assert not checker.record(_child(out))
    assert (checker.attempted, checker.failed) == (3, 2)
