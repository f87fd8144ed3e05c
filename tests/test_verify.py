import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from electmine import verify
from electmine.apriori import MinerConfig, mine_apriori
from electmine.cli import main
from electmine.model import ConfigError, TransactionDb, support_cutoff
from electmine.rules import Thresholds, generate_rules
from electmine.verify import (
    MINERS,
    OracleLimits,
    _subset_counts,
    brute_force_frequent,
    brute_force_rules,
    check_equivalence,
)

from conftest import itemset_table, random_db, small_dbs


def as_pairs(frequent):
    return [(fs.items, fs.count) for fs in frequent]


def test_limits_validation():
    for max_items in (25, 0, -1):
        with pytest.raises(ValueError, match="max_items must be in 1..24"):
            OracleLimits(max_items=max_items)


def test_d5_oracle(d5_db):
    assert as_pairs(brute_force_frequent(d5_db, 0.6)) == [
        ((0,), 4), ((1,), 4), ((2,), 4),
        ((0, 1), 3), ((0, 2), 3), ((1, 2), 3),
    ]


def test_oracle_rejects_too_many_items():
    db = TransactionDb((tuple(range(21)),), n_items=21)
    with pytest.raises(ValueError, match="oracle limits exceeded"):
        brute_force_frequent(db, 0.5)


@given(small_dbs())
@example(TransactionDb(((),), n_items=0))
@example(TransactionDb(((), (0, 1, 2), (2,)), n_items=3))
def test_subset_counts_match_their_definition(db):
    masks = [sum(1 << item for item in t) for t in db.transactions]
    counts = _subset_counts(db, OracleLimits())
    assert counts.shape == (1 << db.n_items,)
    assert counts.tolist() == [sum(m & s == s for m in masks) for s in range(1 << db.n_items)]


def test_oracle_has_no_row_limit():
    rng = np.random.default_rng(5)
    include = rng.random((6000, 8)) < rng.uniform(0.2, 0.7, size=8)
    db = TransactionDb(tuple(tuple(np.flatnonzero(row).tolist()) for row in include), n_items=8)
    assert db.n_items <= OracleLimits().max_items
    oracle = as_pairs(brute_force_frequent(db, 0.05))
    assert oracle == as_pairs(mine_apriori(db, MinerConfig(0.05)))
    assert len(oracle) > 8


def test_oracle_empty_result_above_max_frequency(d5_db):
    # no item reaches 5 of 5 transactions
    assert len(brute_force_frequent(d5_db, 1.0)) == 0


def test_oracle_spot_recounts(d5_db):
    # re-count a few subsets by naive per-transaction scans
    for items, expected in [((0,), 4), ((0, 1), 3), ((0, 1, 2), 2)]:
        naive = sum(1 for t in d5_db.transactions if set(items) <= set(t))
        oracle = {fs.items: fs.count for fs in brute_force_frequent(d5_db, 0.01)}
        assert oracle[items] == naive == expected


def test_brute_force_rules_d5(d5_db):
    rules = brute_force_rules(d5_db, Thresholds(0.03, 0.60, 0.0))
    pair_rules = [r for r in rules if len(r.antecedent) + len(r.consequent) == 2]
    assert len(pair_rules) == 6
    assert all(r.confidence == 0.75 for r in pair_rules)
    assert brute_force_rules(d5_db, Thresholds()) == []


def test_brute_force_rules_perfect_implication():
    db = TransactionDb(((0, 1), (0, 1), (2,), (2,)), n_items=3)
    rules = brute_force_rules(db, Thresholds())
    keyed = {(r.antecedent, r.consequent): r for r in rules}
    assert keyed[((0,), (1,))].lift == 2.0


def test_brute_force_rules_match_generator(d5_db):
    # The same rules in the same order with the same metrics: combinations with
    # paired complements on one side, submasks of each union on the other.
    cases = [(d5_db, Thresholds(0.03, 0.60, 0.0))]
    cases += [(random_db(seed), Thresholds(0.1, 0.3, 0.0)) for seed in range(15)]
    antecedent_sizes = set()
    for db, t in cases:
        rules = generate_rules(mine_apriori(db, MinerConfig(t.min_support)), db, t)
        assert rules == brute_force_rules(db, t)
        antecedent_sizes |= {len(r.antecedent) for r in rules}
    # Seed 1 has 8-item itemsets, so splits with every antecedent size up to 7 get paired.
    assert antecedent_sizes == set(range(1, 8))


@pytest.mark.parametrize("name", sorted(MINERS))
@pytest.mark.parametrize(
    "min_support,max_len,message",
    [
        (0.0, None, "min_support must be in"),
        (1.5, None, "min_support must be in"),
        (0.5, 0, "max_itemset_len must be >= 1"),
        (0.5, -1, "max_itemset_len must be >= 1"),
        (float("nan"), None, "min_support must be in"),
        (float("inf"), None, "min_support must be in"),
    ],
    ids=["min-support-0", "min-support-1.5", "max-len-0", "max-len--1", "min-support-nan", "min-support-inf"],
)
def test_miners_reject_the_same_arguments(d5_db, name, min_support, max_len, message):
    with pytest.raises(ConfigError, match=message):
        MINERS[name](d5_db, min_support, max_len)


@pytest.mark.parametrize("name", sorted(MINERS))
@given(small_dbs(), st.sampled_from([0.01, 0.1, 0.3, 0.6, 1.0]), st.sampled_from([None, 1, 2, 3]))
def test_every_route_lists_rows_in_order_at_or_above_the_cutoff(name, db, min_support, max_len):
    table = MINERS[name](db, min_support, max_len)
    cutoff = support_cutoff(min_support, db.n_transactions)
    assert list(table.levels) == sorted(table.levels) and all(k <= (max_len or k) for k in table.levels)
    for k, (rows, counts) in table.levels.items():
        assert (rows.dtype, counts.dtype, rows.shape) == (np.intp, np.int64, (len(counts), k))
        assert (np.diff(rows, axis=1) > 0).all() and (counts >= cutoff).all()
        itemsets = list(map(tuple, rows.tolist()))
        assert all(a < b for a, b in zip(itemsets, itemsets[1:]))  # strictly increasing: no row twice


def test_check_equivalence_d5(d5_db):
    report = check_equivalence(d5_db, 0.6, Thresholds())
    assert report.equivalent
    assert report.as_text() == "equivalent"


def test_check_equivalence_needs_the_oracle():
    # 21 items, one a row: cheap to mine, but past the oracle's limit, so no verdict.
    db = TransactionDb(tuple((i,) for i in range(21)), n_items=21)
    with pytest.raises(ValueError, match="oracle limits exceeded"):
        check_equivalence(db, 0.5, Thresholds())


@pytest.mark.parametrize("seed", range(15))
def test_check_equivalence_random(seed):
    db = random_db(seed)
    report = check_equivalence(db, 0.1, Thresholds(min_support=0.1))
    assert report.equivalent, report.detail


@pytest.mark.parametrize("seed", range(2, 6))  # seeds with multi-item unions under every rule cutoff
@pytest.mark.parametrize("mining_support,rule_support", [(0.05, 0.2), (0.1, 0.3), (0.02, 0.5)])
def test_check_equivalence_rule_support_above_mining_support(seed, mining_support, rule_support):
    # The rules come from itemsets mined below the rule cutoff, so the
    # oracle's rule walk skips the unions under it.
    db = random_db(seed)
    t = Thresholds(rule_support, 0.5, 1.0)
    frequent = mine_apriori(db, MinerConfig(mining_support))
    cutoff = support_cutoff(rule_support, db.n_transactions)
    assert any(len(fs.items) > 1 and fs.count < cutoff for fs in frequent)  # the skip fires
    assert check_equivalence(db, mining_support, t).as_text() == "equivalent"
    assert generate_rules(frequent, db, t) == brute_force_rules(db, t)


def test_extra_baseline_itemset_is_named(d5_db):
    # The baseline holds an itemset the next list lacks: the first branch of the comparison.
    def padded(db, min_support, max_len):
        return itemset_table([*MINERS["apriori"](db, min_support, max_len), ((0, 1, 2), 1)])

    report = check_equivalence(d5_db, 0.6, Thresholds(), miners={"padded": padded, "apriori": MINERS["apriori"]})
    assert report.as_text() == "divergent: itemset (0, 1, 2) (count 1) in padded but not apriori"


@pytest.mark.parametrize("first", [True, False])
def test_itemset_listed_twice_is_named(d5_db, first):
    # The same itemsets and counts, but one of them twice: equal as sets, not as tables.
    def doubled(db, min_support, max_len):
        itemsets = list(MINERS["apriori"](db, min_support, max_len))
        return itemset_table([*itemsets, itemsets[0]])

    miners = {"doubled": doubled, "apriori": MINERS["apriori"]}
    if not first:
        miners = dict(reversed(miners.items()))
    report = check_equivalence(d5_db, 0.6, Thresholds(), miners=miners)
    assert report.as_text() == "divergent: itemset (0,) (count 4) listed twice in doubled"


def test_corrupted_miner_is_named(d5_db, data_dir, capsys):
    def lossy_apriori(db, min_support, max_len):
        return itemset_table(list(mine_apriori(db, MinerConfig(min_support, max_len)))[1:])  # drop the first itemset

    report = check_equivalence(
        d5_db,
        0.6,
        Thresholds(),
        miners={"lossy": lossy_apriori, "oracle-check": MINERS["apriori"]},
    )
    assert not report.equivalent
    assert "(0,)" in report.detail

    # A miner that raises is named in compare's row, with its exception type.
    def crashing_fpgrowth(db, min_support, max_len):
        raise KeyError(3)

    io_args = ["--input", str(data_dir / "d5.csv"), "--schema", str(data_dir / "d5.yaml")]
    outputs = {}
    with mock.patch.dict(MINERS, {"fpgrowth": crashing_fpgrowth}):
        for fmt in ("table", "csv", "json"):
            assert main(["compare", *io_args, "--format", fmt]) == 1
            outputs[fmt] = capsys.readouterr().out
    assert "\nfpgrowth   error: KeyError: 3\n" in outputs["table"]
    assert "\nfpgrowth,0,0,0,,,,0.0,KeyError: 3\r\n" in outputs["csv"]
    assert [row["error"] for row in json.loads(outputs["json"])["rows"]] == [None, "KeyError: 3"]


@pytest.mark.parametrize("emptied,where", [("_oracle_rules", "apriori"), ("generate_rules", "oracle-rules")])
def test_rule_divergence_is_named(d5_db, emptied, where):
    # Itemsets agree; one side's rules go missing, so the first rule is only in the other.
    with mock.patch(f"electmine.verify.{emptied}", return_value=[]):
        report = check_equivalence(d5_db, 0.03, Thresholds(0.03, 0.60, 0.0))
    assert report.detail == f"rule (0,) -> (1,) only in {where}"


def test_check_equivalence_counts_subsets_once(d5_db):
    # The oracle's rules come from its own itemsets, so one subset table serves both.
    with mock.patch.object(verify, "_subset_counts", wraps=verify._subset_counts) as counts:
        assert check_equivalence(d5_db, 0.03, Thresholds(0.03, 0.60, 0.0)).equivalent
    assert counts.call_count == 1


def test_random_db_is_deterministic():
    a = random_db(42)
    b = random_db(42)
    assert a.transactions == b.transactions
    assert a.n_items == b.n_items


def test_random_db_within_bounds():
    for seed in range(20):
        db = random_db(seed)
        assert 1 <= db.n_items <= 15
        assert 1 <= db.n_transactions <= 500
