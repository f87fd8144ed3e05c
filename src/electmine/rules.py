"""Association-rule generation, metrics, filtering, and categorization.

Rules come from splitting frequent itemsets; support/confidence/lift are
computed from the itemset counts (exact integer arithmetic against the
thresholds, so boundary cases never flip on float noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from itertools import combinations
from typing import Sequence

from .model import (
    FrequentItemset,
    ItemDictionary,
    ItemSet,
    TransactionDb,
    attribute_of,
    exact,
    support_cutoff,
)

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
            raise ValueError("min_support must be in (0, 1]")
        if not 0.0 < self.min_confidence <= 1.0:
            raise ValueError("min_confidence must be in (0, 1]")
        if not 0.0 <= self.min_lift < float("inf"):
            raise ValueError("min_lift must be finite and >= 0")
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
            raise ValueError("equity_attributes must be nonempty")
        if not self.minority_attribute:
            raise ValueError("minority_attribute must be nonempty")


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


def generate_rules(
    frequent: Sequence[FrequentItemset], db: TransactionDb, t: Thresholds
) -> list[AssociationRule]:
    """Every threshold-passing split X -> Y of each frequent itemset, by_lift.

    Metrics come from the itemset counts already mined; a missing subset
    count means the caller mined at a higher support than the rule threshold.
    """
    n = db.n_transactions
    counts = {fs.items: fs.count for fs in frequent}
    min_count = support_cutoff(t.min_support, n)
    out: list[AssociationRule] = []
    for fs in frequent:
        items = fs.items
        k = len(items)
        if k < 2 or fs.count < min_count:
            continue
        for ant_size in range(1, k):
            # Same-size sorted subsets come in descending order of their
            # indicator bits, and taking complements reverses that order.
            consequents = reversed(list(combinations(items, k - ant_size)))
            for antecedent, consequent in zip(combinations(items, ant_size), consequents):
                c_ant = counts.get(antecedent)
                c_cons = counts.get(consequent)
                if c_ant is None or c_cons is None:
                    raise ValueError("incomplete itemset lattice")
                if passes_thresholds(fs.count, c_ant, c_cons, n, t):
                    out.append(rule_from_counts(antecedent, consequent, fs.count, c_ant, c_cons, n))
    return by_lift(out)


def categorize(
    rules: Sequence[AssociationRule], dictionary: ItemDictionary, cc: CategoryConfig
) -> list[AssociationRule]:
    """Tag rules as equity (all items from equity attributes) and/or minority
    (any item from the minority attribute with a non-excluded value)."""
    tagged = []
    for rule in rules:
        tags = set(rule.tags)
        labels = [dictionary.label_of(i) for i in rule.antecedent + rule.consequent]
        attrs = [attribute_of(label) for label in labels]
        if all(a in cc.equity_attributes for a in attrs):
            tags.add(EQUITY_TAG)
        for label, attr in zip(labels, attrs):
            if attr == cc.minority_attribute:
                value = label.split("_", 1)[1]
                if value not in cc.minority_excluded_values:
                    tags.add(MINORITY_TAG)
                    break
        tagged.append(replace(rule, tags=frozenset(tags)))
    return tagged


def format_pct(value: float, decimals: int) -> str:
    """value as a percentage, rounded half away from zero to `decimals`."""
    scaled = Decimal(str(value)) * 100
    quantum = Decimal(1).scaleb(-decimals)
    return str(scaled.quantize(quantum, rounding=ROUND_HALF_UP))


def format_lift(value: float) -> str:
    return str(Decimal(str(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


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
