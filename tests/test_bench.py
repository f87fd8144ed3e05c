"""electmine compare: both miners side by side on one input."""

import json

import pytest

from electmine.cli import PARITY_NOTE, compare_records, main
from electmine.rules import Thresholds


def test_d5_both_algorithms(d5_db, d5_dict):
    # Mining at 0.03 also surfaces the triple (support 0.4), whose three
    # 2-to-1 splits pass confidence 2/3: nine rules total, not just the six
    # pair rules. Averages verified by hand from the counts {4,4,4,3,3,3,2}.
    records = compare_records(d5_db, d5_dict, Thresholds(0.03, 0.60, 0.0))
    assert [rec["algorithm"] for rec in records] == ["apriori", "fpgrowth"]
    for rec in records:
        assert rec["total_rules"] == 9
        assert rec["avg_support"] == pytest.approx((6 * 0.6 + 3 * 0.4) / 9)
        assert rec["avg_confidence"] == pytest.approx((6 * 0.75 + 3 * 2 / 3) / 9)
        assert rec["avg_lift"] == pytest.approx((6 * 0.9375 + 3 * (2 / 3) / 0.8) / 9)


def test_d5_pairs_only(d5_db, d5_dict):
    # Capped at pairs, the report reduces to the six pair rules.
    records = compare_records(d5_db, d5_dict, Thresholds(0.03, 0.60, 0.0), max_len=2)
    for rec in records:
        assert rec["total_rules"] == 6
        assert rec["avg_support"] == pytest.approx(0.6)
        assert rec["avg_confidence"] == pytest.approx(0.75)
        assert rec["avg_lift"] == pytest.approx(0.9375)


def test_rows_differ_only_in_time(d5_db, d5_dict):
    a, b = compare_records(d5_db, d5_dict, Thresholds(0.03, 0.60, 0.0))
    assert {k: v for k, v in a.items() if k not in ("algorithm", "wall_seconds")} == {
        k: v for k, v in b.items() if k not in ("algorithm", "wall_seconds")
    }
    assert a["error"] is None


def test_single_algorithm(d5_db, d5_dict):
    records = compare_records(d5_db, d5_dict, Thresholds(), ("fpgrowth",))
    assert [rec["algorithm"] for rec in records] == ["fpgrowth"]


def test_zero_rules_reports_absent_averages(d5_db, d5_dict):
    for rec in compare_records(d5_db, d5_dict, Thresholds()):
        assert rec["total_rules"] == 0
        assert rec["avg_support"] is None and rec["avg_confidence"] is None and rec["avg_lift"] is None


def test_averages_respect_filter_bounds(d5_db, d5_dict):
    t = Thresholds(0.03, 0.60, 0.0)
    for rec in compare_records(d5_db, d5_dict, t):
        if rec["total_rules"]:
            assert rec["avg_confidence"] >= t.min_confidence
            assert rec["avg_lift"] >= t.min_lift


def test_unknown_algorithm_rejected(data_dir, capsys):
    io_args = ["--input", str(data_dir / "d5.csv"), "--schema", str(data_dir / "d5.yaml")]
    # The oracle is the miners' reference, not compared.
    for spec, message in (("eclat", "unknown algorithm: eclat"), ("apriori,oracle", "unknown algorithm: oracle"),
                          (",", "at least one algorithm required"),
                          ("fpgrowth,apriori,fpgrowth", "algorithm named twice: fpgrowth")):
        assert main(["compare", *io_args, "--algorithm", spec]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_parity_note_in_outputs(data_dir, capsys):
    io_args = ["--input", str(data_dir / "d5.csv"), "--schema", str(data_dir / "d5.yaml")]
    outputs = {}
    for fmt in ("table", "csv", "json"):
        assert main(["compare", *io_args, "--format", fmt]) == 0
        outputs[fmt] = capsys.readouterr().out
    assert outputs["table"].endswith(PARITY_NOTE + "\n")
    assert json.loads(outputs["json"])["note"] == PARITY_NOTE
    assert outputs["csv"].startswith("algorithm,")
