import json

import pytest

from electmine.bench import PARITY_NOTE, compare
from electmine.cli import main
from electmine.rules import CategoryConfig, Thresholds


def test_d5_both_algorithms(d5_db, d5_dict):
    # Mining at 0.03 also surfaces the triple (support 0.4), whose three
    # 2-to-1 splits pass confidence 2/3: nine rules total, not just the six
    # pair rules. Averages verified by hand from the counts {4,4,4,3,3,3,2}.
    report = compare(d5_db, d5_dict, Thresholds(0.03, 0.60, 0.0), CategoryConfig())
    assert [row.algorithm for row in report.rows] == ["apriori", "fpgrowth"]
    for row in report.rows:
        assert row.total_rules == 9
        assert row.avg_support == pytest.approx((6 * 0.6 + 3 * 0.4) / 9)
        assert row.avg_confidence == pytest.approx((6 * 0.75 + 3 * 2 / 3) / 9)
        assert row.avg_lift == pytest.approx((6 * 0.9375 + 3 * (2 / 3) / 0.8) / 9)


def test_d5_pairs_only(d5_db, d5_dict):
    # Capped at pairs, the report reduces to the six pair rules.
    report = compare(
        d5_db, d5_dict, Thresholds(0.03, 0.60, 0.0), CategoryConfig(), max_itemset_len=2
    )
    for row in report.rows:
        assert row.total_rules == 6
        assert row.avg_support == pytest.approx(0.6)
        assert row.avg_confidence == pytest.approx(0.75)
        assert row.avg_lift == pytest.approx(0.9375)


def test_rows_differ_only_in_time(d5_db, d5_dict):
    report = compare(d5_db, d5_dict, Thresholds(0.03, 0.60, 0.0), CategoryConfig())
    a, b = report.rows
    assert (a.total_rules, a.equity_rules, a.minority_rules) == (b.total_rules, b.equity_rules, b.minority_rules)
    assert (a.avg_support, a.avg_confidence, a.avg_lift) == (b.avg_support, b.avg_confidence, b.avg_lift)


def test_single_algorithm(d5_db, d5_dict):
    report = compare(d5_db, d5_dict, Thresholds(), CategoryConfig(), algorithms=("fpgrowth",))
    assert len(report.rows) == 1
    assert report.rows[0].algorithm == "fpgrowth"


def test_zero_rules_reports_absent_averages(d5_db, d5_dict):
    report = compare(d5_db, d5_dict, Thresholds(), CategoryConfig())
    for row in report.rows:
        assert row.total_rules == 0
        assert row.avg_support is None and row.avg_confidence is None and row.avg_lift is None


def test_averages_respect_filter_bounds(d5_db, d5_dict):
    t = Thresholds(0.03, 0.60, 0.0)
    report = compare(d5_db, d5_dict, t, CategoryConfig())
    for row in report.rows:
        if row.total_rules:
            assert row.avg_confidence >= t.min_confidence
            assert row.avg_lift >= t.min_lift


def test_unknown_algorithm_rejected(d5_db, d5_dict):
    for name in ("eclat", "oracle"):  # the oracle is the miners' reference, not compared
        with pytest.raises(ValueError, match="unknown algorithm"):
            compare(d5_db, d5_dict, Thresholds(), CategoryConfig(), algorithms=(name,))
    with pytest.raises(ValueError, match="at least one"):
        compare(d5_db, d5_dict, Thresholds(), CategoryConfig(), algorithms=())


def test_parity_note_in_outputs(data_dir, capsys):
    io_args = ["--input", str(data_dir / "d5.csv"), "--schema", str(data_dir / "d5.yaml")]
    outputs = {}
    for fmt in ("table", "csv", "json"):
        assert main(["compare", *io_args, "--format", fmt]) == 0
        outputs[fmt] = capsys.readouterr().out
    assert outputs["table"].endswith(PARITY_NOTE + "\n")
    assert json.loads(outputs["json"])["note"] == PARITY_NOTE
    assert outputs["csv"].startswith("algorithm,")
