"""Association-rule generation, metrics, filtering, and categorization.

Rules come from splitting frequent itemsets (Agrawal & Srikant, VLDB 1994);
support/confidence/lift are computed from the itemset counts. The itemsets
of one length, a level of the miners' ItemsetTable, are split together, each
split's subsets looked up for all at once with ItemsetTable.counts_of. A float
pre-test only narrows the splits: exact integer arithmetic against the
thresholds decides, so boundary cases never flip on float noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from itertools import combinations
from typing import Sequence

import numpy as np

from .model import ConfigError, ItemDictionary, ItemSet, ItemsetTable, TransactionDb, attribute_of, exact, support_cutoff

EQUITY_TAG = "equity"
MINORITY_TAG = "minority"


@dataclass(frozen=True)
class Thresholds:
    """Rule filter parameters; defaults are the voter-survey analysis values."""

    min_support: float = 0.03
    min_confidence: float = 0.60
    min_lift: float = 1.50
    strict_lift: bool = False  # require lift strictly > min_lift instead of >=
    # min_confidence and min_lift as exact (numerator, denominator), read once
    confidence_ratio: tuple[int, int] = field(init=False, repr=False, compare=False)
    lift_ratio: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.min_support <= 1.0:
            raise ConfigError("min_support must be in (0, 1]")
        if not 0.0 < self.min_confidence <= 1.0:
            raise ConfigError("min_confidence must be in (0, 1]")
        if not 0.0 <= self.min_lift < float("inf"):
            raise ConfigError("min_lift must be finite and >= 0")
        object.__setattr__(self, "confidence_ratio", exact(self.min_confidence).as_integer_ratio())
        object.__setattr__(self, "lift_ratio", exact(self.min_lift).as_integer_ratio())


@dataclass(frozen=True)
class AssociationRule:
    antecedent: ItemSet
    consequent: ItemSet
    support: float
    confidence: float
    lift: float
    tags: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.antecedent or not self.consequent:
            raise ValueError("antecedent and consequent must be nonempty")
        if set(self.antecedent) & set(self.consequent):
            raise ValueError("antecedent and consequent must be disjoint")


@dataclass(frozen=True)
class CategoryConfig:
    equity_attributes: frozenset[str] = frozenset({"q4", "q5", "q9", "q12", "q39", "q40", "q41"})
    minority_attribute: str = "race"
    minority_excluded_values: frozenset[str] = frozenset({"White"})

    def __post_init__(self):
        if not self.equity_attributes:
            raise ConfigError("equity_attributes must be nonempty")
        if not self.minority_attribute:
            raise ConfigError("minority_attribute must be nonempty")


def passes_thresholds(c_union: int, c_ant: int, c_cons: int, n: int, t: Thresholds) -> bool:
    """Confidence and lift filters as exact integer-count inequalities.

    The thresholds are the decimals they print as (0.6 * 5 counts pass
    min_confidence 0.60), held by Thresholds as integer ratios, so each test
    is one product of integers. The support gate is support_cutoff, applied
    by callers. This predicate is the single definition of the filter
    contract; miners and the brute-force oracle share it while counting
    independently.
    """
    conf_num, conf_den = t.confidence_ratio
    lift_num, lift_den = t.lift_ratio
    lift_lhs = c_union * n * lift_den
    lift_rhs = lift_num * c_ant * c_cons
    lift_ok = lift_lhs > lift_rhs if t.strict_lift else lift_lhs >= lift_rhs
    return c_union * conf_den >= conf_num * c_ant and lift_ok


def rule_from_counts(
    antecedent: ItemSet, consequent: ItemSet, c_union: int, c_ant: int, c_cons: int, n: int
) -> AssociationRule:
    """The rule X -> Y with its metrics from the counts of X u Y, X and Y in
    n transactions."""
    lift = c_union * n / (c_ant * c_cons)
    return AssociationRule(antecedent, consequent, c_union / n, c_union / c_ant, lift)


def by_lift(rules: Sequence[AssociationRule]) -> list[AssociationRule]:
    """The rules by lift descending, confidence descending, then antecedent
    and consequent lexicographic: the order every rule list is output in."""
    return sorted(rules, key=lambda r: (-r.lift, -r.confidence, r.antecedent, r.consequent))


# Relative slack of the float pre-test in generate_rules: far above float64
# rounding, so it keeps every split that passes the exact test.
_SLACK = 1e-9


def generate_rules(frequent: ItemsetTable, db: TransactionDb, t: Thresholds) -> list[AssociationRule]:
    """Every threshold-passing split X -> Y of each frequent itemset, by_lift.

    Metrics come from the itemset counts already mined; a missing subset
    count means the caller mined at a higher support than the rule threshold.
    The k-itemsets at or above the support cutoff are split together: the
    subsets of every row under every column pattern of one size are looked
    up at once, with frequent.counts_of.
    A float test with relative slack keeps every split that could pass,
    and passes_thresholds alone decides on those.
    """
    n = db.n_transactions
    min_count = support_cutoff(t.min_support, n)
    min_confidence = t.min_confidence * (1 - _SLACK)
    min_lift = t.min_lift * (1 - _SLACK)
    out: list[AssociationRule] = []
    for k, (rows, counts) in frequent.levels.items():
        keep = counts >= min_count
        if k < 2 or not keep.any():
            continue
        unions, c_union = rows[keep], counts[keep]
        # The column patterns by size, each size in combinations order. The
        # size blocks mirror each other, and taking complements reverses the
        # order within a block, so the complement of patterns[j] is
        # patterns[-1 - j].
        columns = range(k)
        patterns = [cols for size in range(1, k) for cols in combinations(columns, size)]
        # One lookup per size: every row's subset under every pattern of it.
        subset = np.concatenate([
            frequent.counts_of(unions[:, list(combinations(columns, size))].swapaxes(0, 1).reshape(-1, size))
            for size in range(1, k)
        ]).reshape(len(patterns), -1)
        c_ant, c_cons = subset, subset[::-1]
        # float64 cannot wrap as int64 can, and the lift is a quotient, so a huge min_lift cannot overflow.
        could = (c_union >= c_ant * min_confidence) & (c_union * float(n) / c_ant / c_cons >= min_lift)
        js, at = np.nonzero(could)
        survivors = unions[at].tolist(), c_union[at].tolist(), c_ant[js, at].tolist(), c_cons[js, at].tolist()
        for j, union, cu, ca, cc in zip(js.tolist(), *survivors):
            if passes_thresholds(cu, ca, cc, n, t):
                antecedent = tuple(union[c] for c in patterns[j])
                consequent = tuple(union[c] for c in patterns[-1 - j])
                out.append(rule_from_counts(antecedent, consequent, cu, ca, cc, n))
    return by_lift(out)


def categorize(
    rules: Sequence[AssociationRule], dictionary: ItemDictionary, cc: CategoryConfig
) -> list[AssociationRule]:
    """Tag rules as equity (all items from equity attributes) and/or minority
    (any item from the minority attribute with a non-excluded value).

    Each item's flags are read once from its label: the attribute before
    the first '_', the value after it."""
    labels = dictionary.labels
    equity = {item for item, label in enumerate(labels) if attribute_of(label) in cc.equity_attributes}
    minority = {
        item for item, label in enumerate(labels)
        if attribute_of(label) == cc.minority_attribute
        and label.partition("_")[2] not in cc.minority_excluded_values
    }
    tagged = []
    for rule in rules:
        items = rule.antecedent + rule.consequent
        tags = set(rule.tags)
        if equity.issuperset(items):
            tags.add(EQUITY_TAG)
        if not minority.isdisjoint(items):
            tags.add(MINORITY_TAG)
        tagged.append(rule if tags == rule.tags else replace(rule, tags=frozenset(tags)))
    return tagged


# 1, 0.1 and 0.01: the places a displayed field is rounded to, half away from zero.
_QUANTA = tuple(Decimal(1).scaleb(-decimals) for decimals in range(3))


def _half_up(value: Decimal, decimals: int) -> str:
    return str(value.quantize(_QUANTA[decimals], rounding=ROUND_HALF_UP))


def format_pct(value: float, decimals: int) -> str:
    """value as a percentage, rounded half away from zero to `decimals`, 0 to 2."""
    return _half_up(Decimal(str(value)) * 100, decimals)


def format_lift(value: float) -> str:
    return _half_up(Decimal(str(value)), 2)


def rule_record(rule: AssociationRule, dictionary: ItemDictionary) -> dict:
    """Serialization record: labels, raw metrics, and display-precision fields."""
    return {
        "antecedent": [dictionary.label_of(i) for i in rule.antecedent],
        "consequent": [dictionary.label_of(i) for i in rule.consequent],
        "support": rule.support,
        "confidence": rule.confidence,
        "lift": rule.lift,
        "support_pct": format_pct(rule.support, 2),
        "confidence_pct": format_pct(rule.confidence, 1),
        "lift_display": format_lift(rule.lift),
        "tags": sorted(rule.tags),
    }
