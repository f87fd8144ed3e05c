"""Brute-force oracle and cross-algorithm equivalence checks.

The oracle counts every subset of the item universe at once: it tallies each
transaction's item bitmask, then sums every subset's supersets (the fast
zeta transform), so its time and memory go with 2^n_items, not with rows.
It shares nothing with the miners' counting paths (no kernel, no FP-tree),
so agreement is meaningful. The threshold predicate, the support cutoff, the
rule constructor and the rule order are shared on purpose: they are the rule
contract, not part of the counting route or of the split enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .apriori import mine_apriori
from .fpgrowth import mine_fpgrowth
from .model import FrequentItemset, ItemSet, MinerConfig, TransactionDb, itemset_sort_key, support_cutoff
from .rules import AssociationRule, Thresholds, by_lift, generate_rules, passes_thresholds, rule_from_counts


@dataclass(frozen=True)
class OracleLimits:
    max_items: int = 20

    def __post_init__(self):
        if not 1 <= self.max_items <= 24:
            raise ValueError("max_items must be in 1..24 (subset enumeration)")


def within_limits(db: TransactionDb, limits: OracleLimits) -> bool:
    """Whether the oracle may enumerate the subsets of db."""
    return db.n_items <= limits.max_items


def _subset_counts(db: TransactionDb, limits: OracleLimits) -> np.ndarray:
    """counts[mask] = transactions containing every item of the bitmask.

    Each transaction's item bitmask is tallied once; one pass per item then
    adds to each subset without the item the count of the same subset with
    it, so every subset ends up summing all of its supersets.
    """
    if db.n_transactions == 0:
        raise ValueError("empty transaction database")
    if not within_limits(db, limits):
        raise ValueError("oracle limits exceeded")
    masks = np.fromiter(
        (sum(1 << item for item in t) for t in db.transactions), np.int64, db.n_transactions
    )
    counts = np.bincount(masks, minlength=1 << db.n_items)
    for item in range(db.n_items):
        view = counts.reshape(-1, 2, 1 << item)  # view[:, 1]: the subsets holding item
        view[:, 0] += view[:, 1]
    return counts


def _mask_to_items(mask: int) -> ItemSet:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def brute_force_frequent(
    db: TransactionDb, min_support: float, limits: OracleLimits = OracleLimits()
) -> list[FrequentItemset]:
    """Every frequent itemset by exhaustive subset enumeration."""
    counts = _subset_counts(db, limits)
    min_count = support_cutoff(min_support, db.n_transactions)
    masks = np.flatnonzero(counts[1:] >= min_count) + 1  # the nonempty frequent subsets
    found = [(_mask_to_items(mask), int(counts[mask])) for mask in masks.tolist()]
    found.sort(key=lambda pair: itemset_sort_key(pair[0]))
    n = db.n_transactions
    return [FrequentItemset(items, count, count / n) for items, count in found]


def _oracle_rules(frequent: list[FrequentItemset], n: int, thresholds: Thresholds) -> list[AssociationRule]:
    """Every threshold-passing rule of the oracle's itemsets, by_lift.

    Walks every nonempty proper submask X of each union that meets the rule
    support cutoff, with Y the rest; unions below it could never pass. Each
    submask of a frequent union is frequent, so every lookup finds its count.
    """
    counts = {sum(1 << item for item in fs.items): fs.count for fs in frequent}
    min_count = support_cutoff(thresholds.min_support, n)
    out: list[AssociationRule] = []
    for union, c_union in counts.items():
        if c_union < min_count:
            continue
        ant = (union - 1) & union
        while ant:
            cons = union ^ ant
            c_ant, c_cons = counts[ant], counts[cons]
            if passes_thresholds(c_union, c_ant, c_cons, n, thresholds):
                x, y = _mask_to_items(ant), _mask_to_items(cons)
                out.append(rule_from_counts(x, y, c_union, c_ant, c_cons, n))
            ant = (ant - 1) & union
    return by_lift(out)


def brute_force_rules(
    db: TransactionDb, thresholds: Thresholds, limits: OracleLimits = OracleLimits()
) -> list[AssociationRule]:
    """Every threshold-passing rule by direct counting, by_lift."""
    return _oracle_rules(brute_force_frequent(db, thresholds.min_support, limits), db.n_transactions, thresholds)


Miner = Callable[[TransactionDb, float, int | None], list[FrequentItemset]]


def _oracle(db: TransactionDb, min_support: float, max_len: int | None) -> list[FrequentItemset]:
    """The oracle as a miner: it enumerates every subset whatever max_len is,
    then drops the longer ones."""
    MinerConfig(min_support, max_len)  # the arguments the miners reject
    return [fs for fs in brute_force_frequent(db, min_support) if max_len is None or len(fs.items) <= max_len]


# Every route to the frequent itemsets, by CLI name: (db, min_support,
# max_len) -> itemsets of at most max_len items (None: no bound). Each raises
# the same ValueError for a min_support outside (0, 1] or a max_len below 1.
MINERS: dict[str, Miner] = {
    "apriori": lambda db, min_support, max_len: mine_apriori(db, MinerConfig(min_support, max_len)),
    "fpgrowth": mine_fpgrowth,
    "oracle": _oracle,
}
# The two miners under test; the oracle is their reference.
MINER_PAIR = ("apriori", "fpgrowth")


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    detail: str

    def as_text(self) -> str:
        return "equivalent" if self.equivalent else f"divergent: {self.detail}"


def _first_divergence(name_a, result_a, name_b, result_b, what):
    set_a = {(fs.items, fs.count) for fs in result_a}
    set_b = {(fs.items, fs.count) for fs in result_b}
    for items, count in sorted(set_a - set_b, key=lambda p: itemset_sort_key(p[0])):
        return f"{what} {items} (count {count}) in {name_a} but not {name_b}"
    for items, count in sorted(set_b - set_a, key=lambda p: itemset_sort_key(p[0])):
        return f"{what} {items} (count {count}) in {name_b} but not {name_a}"
    return None


def check_equivalence(
    db: TransactionDb,
    min_support: float,
    thresholds: Thresholds,
    limits: OracleLimits = OracleLimits(),
    miners: dict[str, Miner] | None = None,
) -> EquivalenceReport:
    """Run apriori, fpgrowth and the oracle; report the first divergence in
    itemsets or generated rules, or "equivalent". A db over the oracle's
    limits is a ValueError, raised before any miner runs."""
    if miners is None:
        miners = {name: MINERS[name] for name in MINER_PAIR}
    rule_thresholds = replace(thresholds, min_support=max(thresholds.min_support, min_support))
    oracle = brute_force_frequent(db, min_support, limits)
    results = {name: miner(db, min_support, None) for name, miner in miners.items()}
    results["oracle"] = oracle

    names = list(results)
    baseline = names[0]
    for other in names[1:]:
        divergence = _first_divergence(baseline, results[baseline], other, results[other], "itemset")
        if divergence:
            return EquivalenceReport(False, divergence)

    # The itemset lists agree as (items, count) sets, so generate_rules gives
    # each of them the same rules: it runs once, on the baseline's.
    rules = {(r.antecedent, r.consequent) for r in generate_rules(results[baseline], db, rule_thresholds)}
    oracle_rules = {(r.antecedent, r.consequent) for r in _oracle_rules(oracle, db.n_transactions, rule_thresholds)}
    diff = rules ^ oracle_rules
    if diff:
        ant, cons = sorted(diff)[0]
        where = baseline if (ant, cons) in rules else "oracle-rules"
        return EquivalenceReport(False, f"rule {ant} -> {cons} only in {where}")
    return EquivalenceReport(True, "")
