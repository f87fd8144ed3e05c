from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from electmine.apriori import MinerConfig, mine_apriori
from electmine.model import FrequentItemset, ItemDictionary, TransactionDb, encode_rows, row_keys
from electmine.rules import (
    AssociationRule,
    CategoryConfig,
    Thresholds,
    categorize,
    format_lift,
    format_pct,
    generate_rules,
    passes_thresholds,
    rule_record,
)

from conftest import direct_rule_metrics, reference_rules, small_dbs


def test_thresholds_defaults():
    t = Thresholds()
    assert (t.min_support, t.min_confidence, t.min_lift) == (0.03, 0.60, 1.50)
    assert t.strict_lift is False


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(min_support=0.0)
    with pytest.raises(ValueError):
        Thresholds(min_confidence=1.5)
    with pytest.raises(ValueError):
        Thresholds(min_lift=-1.0)
    for not_finite in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Thresholds(min_lift=not_finite)


def test_rule_invariants():
    with pytest.raises(ValueError):
        AssociationRule((0,), (0,), 0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        AssociationRule((), (1,), 0.1, 0.5, 1.0)


def all_rules(db, min_support):
    """Every rule of db's itemsets at min_support, by (antecedent, consequent)."""
    frequent = mine_apriori(db, MinerConfig(min_support))
    rules = generate_rules(frequent, db, Thresholds(min_support, 1e-9, 0.0))
    return {(r.antecedent, r.consequent): r for r in rules}


def metrics(rule):
    return rule.support, rule.confidence, rule.lift


def test_metrics_d5_a_to_b(d5_db):
    rule = all_rules(d5_db, 0.2)[(0,), (1,)]
    assert metrics(rule) == direct_rule_metrics({0}, {1}, d5_db) == (0.6, 0.75, 0.9375)


def test_metrics_d5_ab_to_c(d5_db):
    rule = all_rules(d5_db, 0.2)[(0, 1), (2,)]
    assert metrics(rule) == pytest.approx(direct_rule_metrics({0, 1}, {2}, d5_db))
    support, confidence, lift = metrics(rule)
    assert support == pytest.approx(0.4)
    assert confidence == pytest.approx(2 / 3)
    assert lift == pytest.approx((2 / 3) / 0.8)


def test_lift_equals_confidence_when_consequent_everywhere():
    db = TransactionDb(((0, 1), (1,), (0, 1)), n_items=2)
    rule = all_rules(db, 0.1)[(0,), (1,)]
    assert rule.lift == rule.confidence
    _, confidence, lift = direct_rule_metrics({0}, {1}, db)
    assert lift == confidence == rule.confidence


def test_metrics_unsupported_body(d5_db):
    # Item 3 occurs in no transaction, so no rule may have it on either side.
    extended = TransactionDb(d5_db.transactions, n_items=4)
    rules = all_rules(extended, 0.01)
    assert rules.keys() == all_rules(d5_db, 0.01).keys()
    assert all(3 not in ant + cons for ant, cons in rules)


def test_d5_default_thresholds_no_rules(d5_db):
    frequent = mine_apriori(d5_db, MinerConfig(0.6))
    assert generate_rules(frequent, d5_db, Thresholds()) == []


def test_d5_zero_lift_six_rules(d5_db):
    frequent = mine_apriori(d5_db, MinerConfig(0.6))
    rules = generate_rules(frequent, d5_db, Thresholds(0.03, 0.60, 0.0))
    assert len(rules) == 6
    assert all(r.confidence == 0.75 for r in rules)
    # sorted: lift desc, confidence desc, antecedent then consequent lexicographic
    assert [(r.antecedent, r.consequent) for r in rules] == [
        ((0,), (1,)), ((0,), (2,)), ((1,), (0,)),
        ((1,), (2,)), ((2,), (0,)), ((2,), (1,)),
    ]


def test_perfect_implication_passes_defaults():
    db = TransactionDb(((0, 1), (0, 1), (2,), (2,)), n_items=3)
    frequent = mine_apriori(db, MinerConfig(0.03))
    rules = generate_rules(frequent, db, Thresholds())
    keyed = {(r.antecedent, r.consequent): r for r in rules}
    rule = keyed[((0,), (1,))]
    assert rule.confidence == 1.0
    assert rule.lift == 2.0


def test_incomplete_lattice_rejected(d5_db):
    frequent = mine_apriori(d5_db, MinerConfig(0.6))
    pairs_only = [fs for fs in frequent if len(fs.items) == 2]
    with pytest.raises(ValueError, match="incomplete itemset lattice"):
        generate_rules(pairs_only, d5_db, Thresholds(0.03, 0.60, 0.0))


def lattice(n, counts):
    """Itemsets with the given counts over n transactions, as a miner lists them."""
    return [FrequentItemset(items, count, count / n) for items, count in counts.items()]


def test_lattice_missing_a_subset_rejected(d5_db):
    frequent = [fs for fs in mine_apriori(d5_db, MinerConfig(0.2)) if fs.items != (0, 2)]
    assert any(len(fs.items) == 3 for fs in frequent)
    with pytest.raises(ValueError, match="incomplete itemset lattice"):
        generate_rules(frequent, d5_db, Thresholds(0.2, 1e-9, 0.0))


def test_lattice_missing_a_length_rejected(d5_db):
    frequent = [fs for fs in mine_apriori(d5_db, MinerConfig(0.2)) if len(fs.items) != 2]
    with pytest.raises(ValueError, match="incomplete itemset lattice"):
        generate_rules(frequent, d5_db, Thresholds(0.2, 1e-9, 0.0))


def test_lattice_missing_key_past_the_last_rejected():
    # Item 2's key sorts past both singleton keys, so its search position is
    # one past the end of the table.
    keys = np.sort(row_keys(np.array([[0], [1]], dtype=np.intp)))
    assert np.searchsorted(keys, row_keys(np.array([[2]], dtype=np.intp)))[0] == len(keys)
    db = TransactionDb(((0, 1, 2),) * 4, n_items=3)
    frequent = lattice(4, {(0,): 4, (1,): 4, (0, 1): 4, (0, 2): 4})
    with pytest.raises(ValueError, match="incomplete itemset lattice"):
        generate_rules(frequent, db, Thresholds(0.5, 1e-9, 0.0))


def test_split_completeness(d5_db):
    # one 3-itemset yields 2^3 - 2 candidate splits when filters are off
    frequent = mine_apriori(d5_db, MinerConfig(0.2))
    rules = generate_rules(frequent, d5_db, Thresholds(0.2, 1e-9, 0.0))
    from_triple = [r for r in rules if len(r.antecedent) + len(r.consequent) == 3]
    assert len(from_triple) == 6


def test_lift_symmetry(d5_db):
    frequent = mine_apriori(d5_db, MinerConfig(0.2))
    rules = generate_rules(frequent, d5_db, Thresholds(0.2, 1e-9, 0.0))
    lifts = {(r.antecedent, r.consequent): r.lift for r in rules}
    for (ant, cons), lift in lifts.items():
        assert lifts[(cons, ant)] == lift


def test_strict_lift_flag():
    db = TransactionDb(((0, 1), (0, 1), (2,), (2,)), n_items=3)
    frequent = mine_apriori(db, MinerConfig(0.03))
    inclusive = generate_rules(frequent, db, Thresholds(0.03, 0.5, 2.0))
    strict = generate_rules(frequent, db, Thresholds(0.03, 0.5, 2.0, strict_lift=True))
    assert any(r.lift == 2.0 for r in inclusive)
    assert all(r.lift > 2.0 for r in strict)


def test_thresholds_are_exact_at_survey_scale():
    # lift 649150000/432766667 = 1.4999999988...: a relative slack of 1e-9 let it pass
    assert not passes_thresholds(12983, 23389, 18503, 50000, Thresholds(0.03, 0.5, 1.5))
    # confidence 3/5 and lift 6/5 exactly at their thresholds pass
    assert passes_thresholds(3, 5, 5, 10, Thresholds(0.03, 0.6, 1.2))
    assert not passes_thresholds(3, 5, 5, 10, Thresholds(0.03, 0.6, 1.2, strict_lift=True))


def _decimal_near(draw, ratio: Fraction, places: int, low: int) -> Fraction:
    """A decimal of `places` places within one step of ratio, at least low steps."""
    step = 10**places
    return Fraction(max(low, round(ratio * step) + draw(st.integers(-1, 1))), step)


@st.composite
def threshold_cases(draw):
    """Counts of a rule and decimal thresholds at, just below or just above its metrics."""
    n = draw(st.integers(1, 10**5))
    c_ant, c_cons = draw(st.integers(1, n)), draw(st.integers(1, n))
    c_union = draw(st.integers(0, min(c_ant, c_cons)))
    places = draw(st.integers(0, 6))
    confidence = min(Fraction(1), _decimal_near(draw, Fraction(c_union, c_ant), places, 1))
    lift = _decimal_near(draw, Fraction(c_union * n, c_ant * c_cons), places, 0)
    return c_union, c_ant, c_cons, n, confidence, lift, draw(st.booleans())


@given(threshold_cases())
@example((12983, 23389, 18503, 50000, Fraction(1, 2), Fraction(3, 2), False))
@example((3, 5, 5, 10, Fraction(3, 5), Fraction(6, 5), True))
def test_passes_thresholds_matches_fraction_arithmetic(case):
    c_union, c_ant, c_cons, n, confidence, lift, strict = case
    # float() of a decimal of at most 15 digits prints as that decimal
    t = Thresholds(0.03, float(confidence), float(lift), strict_lift=strict)
    rule_lift = Fraction(c_union * n, c_ant * c_cons)
    lift_ok = rule_lift > lift if strict else rule_lift >= lift
    expected = Fraction(c_union, c_ant) >= confidence and lift_ok
    assert passes_thresholds(c_union, c_ant, c_cons, n, t) == expected


@st.composite
def rule_cases(draw):
    """A mined lattice and thresholds at, just below or just above the
    metrics of one of its rules, strict lift on or off."""
    db = draw(small_dbs())
    mine_support = draw(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5]))
    frequent = mine_apriori(db, MinerConfig(mine_support))
    min_support = draw(st.sampled_from([s for s in (0.05, 0.1, 0.2, 0.25, 0.5, 0.75) if s >= mine_support]))
    loose = reference_rules(frequent, db, Thresholds(min_support, 1e-9, 0.0))
    confidence, lift = Fraction(3, 5), Fraction(3, 2)
    if loose:
        rule = draw(st.sampled_from(loose))
        counts = {fs.items: fs.count for fs in frequent}
        c_union = counts[tuple(sorted(rule.antecedent + rule.consequent))]
        c_ant, c_cons, n = counts[rule.antecedent], counts[rule.consequent], db.n_transactions
        places = draw(st.integers(0, 6))
        confidence = min(Fraction(1), _decimal_near(draw, Fraction(c_union, c_ant), places, 1))
        lift = _decimal_near(draw, Fraction(c_union * n, c_ant * c_cons), places, 0)
    strict = draw(st.booleans())
    return frequent, db, Thresholds(min_support, float(confidence), float(lift), strict_lift=strict)


# Lift 1.4999999988 is within a relative 1e-9 of 1.5, which the float
# pre-test admits; the exact test must still reject it.
SURVEY_SCALE = lattice(50000, {(0,): 23389, (1,): 18503, (0, 1): 12983}), TransactionDb(((),) * 50000, n_items=2)
# Confidence 3/5 and lift 6/5 exactly at their thresholds.
AT_THRESHOLDS = lattice(10, {(0,): 5, (1,): 5, (0, 1): 3}), TransactionDb(((),) * 10, n_items=2)


@settings(deadline=None)
@given(rule_cases())
@example((*SURVEY_SCALE, Thresholds(0.03, 0.5, 1.5)))
@example((*AT_THRESHOLDS, Thresholds(0.03, 0.6, 1.2)))
@example((*AT_THRESHOLDS, Thresholds(0.03, 0.6, 1.2, strict_lift=True)))
def test_generate_rules_matches_reference_loop(case):
    frequent, db, t = case
    assert generate_rules(frequent, db, t) == reference_rules(frequent, db, t)


def test_rules_at_the_exact_boundaries():
    assert 12983 * 50000 / (23389 * 18503) > 1.5 * (1 - 1e-9)
    assert generate_rules(*SURVEY_SCALE, Thresholds(0.03, 0.5, 1.5)) == []
    rules = generate_rules(*AT_THRESHOLDS, Thresholds(0.03, 0.6, 1.2))
    assert [(r.antecedent, r.consequent) for r in rules] == [((0,), (1,)), ((1,), (0,))]
    assert generate_rules(*AT_THRESHOLDS, Thresholds(0.03, 0.6, 1.2, strict_lift=True)) == []


def _dict(labels):
    return ItemDictionary(tuple(labels))


def test_categorize_equity():
    d = _dict(["q40_Not too confident", "q41_Not too confident"])
    rule = AssociationRule((0,), (1,), 0.0344, 0.614, 8.31)
    (tagged,) = categorize([rule], d, CategoryConfig())
    assert tagged.tags == {"equity"}


def test_categorize_minority():
    d = _dict(["race_Black", "q9_No"])
    rule = AssociationRule((0,), (1,), 0.03, 0.98, 1.87)
    (tagged,) = categorize([rule], d, CategoryConfig())
    assert "minority" in tagged.tags


def test_categorize_neither():
    d = _dict(["income_Low", "income_High"])
    rule = AssociationRule((0,), (1,), 0.1, 0.7, 2.0)
    (tagged,) = categorize([rule], d, CategoryConfig())
    assert tagged.tags == frozenset()


def test_categorize_excluded_race_value():
    d = _dict(["race_White", "q9_No"])
    rule = AssociationRule((0,), (1,), 0.1, 0.7, 2.0)
    (tagged,) = categorize([rule], d, CategoryConfig())
    assert "minority" not in tagged.tags


def test_categorize_value_with_underscore():
    # The value is everything after the first '_', and a consequent item
    # tags the rule as well as an antecedent item does.
    d = _dict(["race_Black_Hispanic", "q9_No"])
    rule = AssociationRule((1,), (0,), 0.03, 0.98, 1.87)
    (tagged,) = categorize([rule], d, CategoryConfig())
    assert tagged.tags == {"minority"}
    excluded = CategoryConfig(minority_excluded_values=frozenset({"Black_Hispanic"}))
    (untagged,) = categorize([rule], d, excluded)
    assert untagged.tags == frozenset()


def test_categorize_keeps_existing_tags():
    d = _dict(["income_Low", "income_High"])
    rule = AssociationRule((0,), (1,), 0.1, 0.7, 2.0, tags=frozenset({"minority"}))
    (tagged,) = categorize([rule], d, CategoryConfig())
    assert tagged.tags == {"minority"}


def test_categorize_equity_needs_every_item():
    d = _dict(["q40_Not too confident", "q41_Not too confident", "income_Low"])
    rule = AssociationRule((0, 1), (2,), 0.05, 0.7, 2.0)
    (tagged,) = categorize([rule], d, CategoryConfig())
    assert tagged.tags == frozenset()


def test_percent_rendering():
    assert format_pct(0.0344, 2) == "3.44"
    assert format_pct(0.614, 1) == "61.4"
    assert format_lift(8.31) == "8.31"
    assert format_pct(0.75, 1) == "75.0"


def test_rounding_is_half_away_from_zero():
    assert format_pct(0.03445, 2) == "3.45"
    assert format_pct(0.6145, 1) == "61.5"


def test_rule_record_schema():
    d = _dict(["q40_Not too confident", "q41_Not too confident"])
    rule = AssociationRule((0,), (1,), 0.0344, 0.614, 8.31, tags=frozenset({"equity"}))
    rec = rule_record(rule, d)
    assert rec["antecedent"] == ["q40_Not too confident"]
    assert rec["consequent"] == ["q41_Not too confident"]
    assert (rec["support_pct"], rec["confidence_pct"], rec["lift_display"]) == ("3.44", "61.4", "8.31")
    assert rec["tags"] == ["equity"]


def test_metric_ranges_on_generated_rules():
    rows = [{"x": v, "y": w} for v, w in [("1", "1")] * 3 + [("1", "2")] * 2 + [("2", "2")] * 5]
    _, db = encode_rows(rows, ["x", "y"])
    frequent = mine_apriori(db, MinerConfig(0.05))
    rules = generate_rules(frequent, db, Thresholds(0.05, 1e-9, 0.0))
    counts = {fs.items: fs.count for fs in frequent}
    n = db.n_transactions
    for r in rules:
        assert 0.0 < r.support <= r.confidence <= 1.0
        assert r.support <= min(counts[r.antecedent], counts[r.consequent]) / n
