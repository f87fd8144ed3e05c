import csv
import io
import json

import numpy as np
import pytest

from support import SPAE_SCHEMA, cli

MINERS = ["apriori", "fpgrowth"]


def rules_json(work, data: bytes, algorithm: str) -> bytes:
    (work / "input.csv").write_bytes(data)
    child = cli("rules", "--format", "json", "--algorithm", algorithm, "--input", work / "input.csv",
                "--schema", SPAE_SCHEMA)
    assert child.returncode == 0 and child.stdout, child.stderr
    return child.stdout


@pytest.fixture(scope="module")
def spae50k(inputs, tmp_path_factory):
    """The seed-1 50,000-row input, where no oracle runs, and each miner's rules on it."""
    data, work = inputs["spae50k"].csv.read_bytes(), tmp_path_factory.mktemp("relations")
    return data, {algorithm: rules_json(work, data, algorithm) for algorithm in MINERS}


def rewritten(data: bytes, change) -> bytes:
    """data with change applied to its list of CSV rows."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(change(list(csv.reader(io.StringIO(data.decode())))))
    return out.getvalue().encode()


def every_row_twice(data: bytes) -> bytes:
    header, *lines = data.splitlines(keepends=True)
    return header + b"".join(line + line for line in lines)


def columns_reversed(data: bytes) -> bytes:
    return rewritten(data, lambda rows: [row[::-1] for row in rows])


def an_unnamed_column(data: bytes) -> bytes:
    return rewritten(data, lambda rows: [[*row[:5], f"n{i % 7}" if i else "note", *row[5:]] for i, row in enumerate(rows)])


@pytest.mark.parametrize("algorithm", MINERS)
@pytest.mark.parametrize("change", [every_row_twice, columns_reversed, an_unnamed_column])
def test_rules_stdout_does_not_change(spae50k, tmp_path, algorithm, change):
    data, expected = spae50k
    assert rules_json(tmp_path, change(data), algorithm) == expected[algorithm]


def rule_set(output: bytes) -> list[str]:
    """The rules as sets of labels with their metrics and tags."""
    records = [json.loads(line) for line in output.splitlines()]
    return sorted(json.dumps({**r, "antecedent": sorted(r["antecedent"]), "consequent": sorted(r["consequent"])})
                  for r in records)


# Item ids follow first encounter, so the rows' order moves the labels and the ties.
@pytest.mark.parametrize("algorithm", MINERS)
def test_rules_do_not_change_when_the_rows_are_shuffled(spae50k, tmp_path, algorithm):
    data, expected = spae50k
    header, *lines = data.splitlines(keepends=True)
    shuffled = header + b"".join(lines[i] for i in np.random.default_rng(1).permutation(len(lines)))
    assert rule_set(rules_json(tmp_path, shuffled, algorithm)) == rule_set(expected[algorithm])
