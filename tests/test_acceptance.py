"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import math
import os
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from electmine.apriori import MinerConfig, mine_apriori
from electmine.bench import compare
from electmine.cli import build_parser, thresholds_from
from electmine.fpgrowth import mine_fpgrowth
from electmine.ingest import Bin, bin_numeric
from electmine.model import encode_rows
from electmine.rules import (
    CategoryConfig,
    Thresholds,
    categorize,
    format_lift,
    format_pct,
    generate_rules,
    rule_metrics,
)
from electmine.verify import brute_force_frequent, brute_force_rules

from conftest import random_db

SUPPORT_GRID = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


def _ok(name):
    print(f"PASS: {name}")


def as_pairs(frequent):
    return [(fs.items, fs.count) for fs in frequent]


def rule_keys(rules):
    return {(r.antecedent, r.consequent) for r in rules}


def test_oracle_equivalence_100_databases():
    start = time.perf_counter()
    for seed in range(100):
        db = random_db(seed)
        for min_support in SUPPORT_GRID:
            apriori_sets = mine_apriori(db, MinerConfig(min_support))
            fpgrowth_sets = mine_fpgrowth(db, min_support)
            oracle_sets = brute_force_frequent(db, min_support)
            assert as_pairs(apriori_sets) == as_pairs(fpgrowth_sets) == as_pairs(oracle_sets), (
                f"seed {seed} min_support {min_support}"
            )
            thresholds = Thresholds(min_support=max(min_support, 0.01))
            a_rules = rule_keys(generate_rules(apriori_sets, db, thresholds))
            f_rules = rule_keys(generate_rules(fpgrowth_sets, db, thresholds))
            o_rules = rule_keys(brute_force_rules(db, thresholds))
            assert a_rules == f_rules == o_rules, f"seed {seed} min_support {min_support}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
    _ok(f"oracle equivalence, 100 databases x 6 thresholds in {elapsed:.1f}s")


def test_d5_worked_example(d5_db):
    mined = mine_apriori(d5_db, MinerConfig(0.6))
    assert as_pairs(mined) == [
        ((0,), 4), ((1,), 4), ((2,), 4),
        ((0, 1), 3), ((0, 2), 3), ((1, 2), 3),
    ]
    loose = generate_rules(mined, d5_db, Thresholds(0.03, 0.60, 0.0))
    assert len(loose) == 6
    assert all(r.confidence == 0.75 for r in loose)
    assert generate_rules(mined, d5_db, Thresholds()) == []
    _ok("D5 worked example: six itemsets {4,4,4,3,3,3}, six loose rules, zero default rules")


def test_downward_closure_random_suite():
    violations = 0
    for seed in range(100):
        db = random_db(seed)
        for min_support in (0.05, 0.25):
            counts = {fs.items: fs.count for fs in mine_apriori(db, MinerConfig(min_support))}
            for items, count in counts.items():
                for size in range(1, len(items)):
                    for sub in combinations(items, size):
                        if sub not in counts or counts[sub] < count:
                            violations += 1
    assert violations == 0
    _ok("downward closure: zero violations across the random suite")


def test_threshold_fidelity():
    t = Thresholds()
    assert (t.min_support, t.min_confidence, t.min_lift) == (0.03, 0.60, 1.50)
    parser = build_parser()
    defaults = thresholds_from(parser.parse_args(["rules", "--input", "x", "--schema", "y"]))
    assert (defaults.min_support, defaults.min_confidence, defaults.min_lift) == (0.03, 0.60, 1.50)
    preset = thresholds_from(
        parser.parse_args(["rules", "--input", "x", "--schema", "y", "--minority-preset"])
    )
    assert preset.min_support == 0.02
    _ok("threshold fidelity: defaults (0.03, 0.60, 1.50); minority preset 0.02")


def test_metric_algebra_on_1000_rules():
    checked = 0
    seed = 0
    while checked < 1000:
        db = random_db(seed)
        seed += 1
        try:
            frequent = mine_apriori(db, MinerConfig(0.05))
        except ValueError:
            continue
        counts = {fs.items: fs.count for fs in frequent}
        n = db.n_transactions
        rules = generate_rules(frequent, db, Thresholds(0.05, 0.05, 0.0))
        lifts = {(r.antecedent, r.consequent): r.lift for r in rules}
        for r in rules:
            assert r.support <= r.confidence + 1e-15
            expected_lift = r.confidence / (counts[r.consequent] / n)
            assert math.isclose(r.lift, expected_lift, rel_tol=1e-12)
            assert math.isclose(r.lift, lifts[(r.consequent, r.antecedent)], rel_tol=1e-12)
            checked += 1
            if checked >= 1000:
                break
        if checked >= 1000:
            break
    assert checked >= 1000
    _ok("metric algebra: 1000 rules, support <= confidence, lift identity and symmetry at 1e-12")


def test_rendering_fidelity():
    assert format_pct(0.0344, 2) == "3.44"
    assert format_pct(0.614, 1) == "61.4"
    assert format_lift(8.31) == "8.31"
    _ok('rendering fidelity: (0.0344, 0.614, 8.31) -> "3.44 / 61.4 / 8.31"')


def test_age_binning():
    bins = (Bin(18, 29, "18-29"), Bin(30, 44, "30-44"), Bin(45, 64, "45-64"), Bin(65, 120, "65+"))
    expected = {18: "18-29", 29: "18-29", 30: "30-44", 44: "30-44",
                45: "45-64", 64: "45-64", 65: "65+", 99: "65+"}
    for age, label in expected.items():
        assert bin_numeric(age, bins) == label
    with pytest.raises(ValueError, match="out of binning range"):
        bin_numeric(17, bins)
    _ok("binning: boundary ages map to the four ranges; 17 rejected")


def test_equal_threshold_parity():
    from electmine.model import ItemDictionary

    for seed in (0, 7, 23):
        db = random_db(seed)
        dictionary = ItemDictionary(tuple(f"c{i}_1" for i in range(db.n_items)))
        report = compare(db, dictionary, Thresholds(0.05, 0.5, 1.0), CategoryConfig())
        a, b = report.rows
        assert a.error is None and b.error is None
        assert (a.total_rules, a.equity_rules, a.minority_rules) == (
            b.total_rules, b.equity_rules, b.minority_rules,
        )
        assert (a.avg_support, a.avg_confidence, a.avg_lift) == (
            b.avg_support, b.avg_confidence, b.avg_lift,
        )
    _ok("equal-threshold parity: rows differ only in wall time (published asymmetry not reproduced)")


def test_performance_sanity():
    rng = np.random.default_rng(2022)
    n_transactions, n_attributes, values_per_attr = 10_000, 10, 5
    rows = []
    for _ in range(n_transactions):
        row = {}
        for a in range(n_attributes):
            # skewed answer distribution so some itemsets clear 3% support
            v = min(int(rng.geometric(0.5)) - 1, values_per_attr - 1)
            row[f"q{a}"] = str(v)
        rows.append(row)
    _, db = encode_rows(rows, [f"q{a}" for a in range(n_attributes)])
    assert db.n_items == 50
    start = time.perf_counter()
    result = mine_apriori(db, MinerConfig(0.03))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"mining took {elapsed:.1f}s"
    assert result, "expected a nonempty frequent-itemset result"
    _ok(f"performance sanity: 10,000 x 50 at support 0.03 mined in {elapsed:.2f}s")


SPAE_PATH = os.environ.get("SPAE2022_CSV", str(Path(__file__).parents[1] / "data" / "spae2022.csv"))


@pytest.mark.skipif(not Path(SPAE_PATH).exists(), reason="SPAE 2022 CSV not supplied")
def test_spae_smoke():
    from electmine.ingest import load_csv, load_schema, clean, select_features

    schema = load_schema(Path(__file__).parents[1] / "configs" / "spae2022.yaml")
    loaded = load_csv(SPAE_PATH, schema)
    rows, _ = clean(loaded.rows, schema, schema.consistency_rules)
    rows = select_features(rows, schema.keep, schema)
    dictionary, db = encode_rows(rows, schema.keep)
    frequent = mine_apriori(db, MinerConfig(0.03))
    rules = categorize(generate_rules(frequent, db, Thresholds()), dictionary, CategoryConfig())
    assert any("equity" in r.tags for r in rules)
    ant = (dictionary.id_of("q40_Not too confident"),)
    cons = (dictionary.id_of("q41_Not too confident"),)
    support, confidence, lift = rule_metrics(ant, cons, db)
    assert lift > 1.5
    for observed, target in ((support, 0.0344), (confidence, 0.614), (lift, 8.31)):
        deviation = abs(observed - target) / target
        if deviation > 0.20:
            print(f"NOTE: metric {observed:.4f} deviates {deviation:.0%} from target {target}")
        assert deviation <= 0.20
    _ok("SPAE smoke test: pipeline ran, equity rules found, headline rule above lift 1.5")
