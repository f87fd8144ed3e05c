"""Brute-force oracle and cross-algorithm equivalence checks.

The oracle counts every subset of the item universe at once: it tallies each
transaction's item bitmask, then sums every subset's supersets (the fast
zeta transform), so its time and memory go with 2^n_items, not with rows.
It shares nothing with the miners' counting paths (no kernel, no FP-tree; it
reads `db.transactions`), so a fault in either shows as divergent; every
route returns an ItemsetTable, compared row by row. `load`'s tuples come from
the flat arrays the miners read; its test against the four step functions
and `TransactionDb`'s own check guard those arrays. The threshold predicate,
the support cutoff, the rule constructor and the rule order are shared on
purpose: they are the rule contract, not part of the counting route or of
the split enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .apriori import mine_apriori
from .fpgrowth import mine_fpgrowth
from .model import ConfigError, ItemSet, ItemsetTable, MinerConfig, TransactionDb, support_cutoff
from .rules import AssociationRule, Thresholds, by_lift, generate_rules, passes_thresholds, rule_from_counts


@dataclass(frozen=True)
class OracleLimits:
    max_items: int = 20

    def __post_init__(self):
        if not 1 <= self.max_items <= 24:
            raise ConfigError("max_items must be in 1..24 (subset enumeration)")


def _subset_counts(db: TransactionDb, limits: OracleLimits) -> np.ndarray:
    """counts[mask] = transactions containing every item of the bitmask.

    Each transaction's item bitmask is tallied once; one pass per item then
    adds to each subset without the item the count of the same subset with
    it, so every subset ends up summing all of its supersets.
    """
    if db.n_transactions == 0:
        raise ValueError("empty transaction database")
    if db.n_items > limits.max_items:
        raise ConfigError(f"oracle limits exceeded: {db.n_items} items, limit {limits.max_items}")
    masks = np.fromiter((sum(1 << item for item in t) for t in db.transactions), np.int64, db.n_transactions)
    counts = np.bincount(masks, minlength=1 << db.n_items)
    for item in range(db.n_items):
        view = counts.reshape(-1, 2, 1 << item)  # view[:, 1]: the subsets holding item
        view[:, 0] += view[:, 1]
    return counts


def _mask_to_items(mask: int) -> ItemSet:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def brute_force_frequent(db: TransactionDb, min_support: float, limits: OracleLimits = OracleLimits()) -> ItemsetTable:
    """Every frequent itemset by exhaustive subset enumeration: a mask's bits are its items."""
    counts = _subset_counts(db, limits)
    min_count = support_cutoff(min_support, db.n_transactions)
    masks = np.flatnonzero(counts[1:] >= min_count) + 1  # the nonempty frequent subsets
    sizes, bits = np.bitwise_count(masks), np.arange(db.n_items)
    return ItemsetTable((np.nonzero(masks[sizes == k, None] >> bits & 1)[1].reshape(-1, k), counts[masks[sizes == k]])
                        for k in range(1, db.n_items + 1))


def _oracle_rules(frequent: ItemsetTable, n: int, thresholds: Thresholds) -> list[AssociationRule]:
    """Every threshold-passing rule of the oracle's itemsets, by_lift.

    Walks every nonempty proper submask X of each union that meets the rule
    support cutoff, with Y the rest; unions below it could never pass. Each
    submask of a frequent union is frequent, so every lookup finds its count.
    """
    counts = {mask: count for rows, level in frequent.levels.values()
              for mask, count in zip((1 << rows).sum(axis=1).tolist(), level.tolist())}
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


Miner = Callable[[TransactionDb, float, int | None], ItemsetTable]


def _oracle(db: TransactionDb, min_support: float, max_len: int | None) -> ItemsetTable:
    """The oracle as a miner: it enumerates every subset whatever max_len is,
    then drops the longer lengths."""
    MinerConfig(min_support, max_len)  # the arguments the miners reject
    levels = brute_force_frequent(db, min_support).levels
    return ItemsetTable(level for k, level in levels.items() if max_len is None or k <= max_len)


# Every route to the frequent itemsets, by CLI name: (db, min_support,
# max_len) -> itemsets of at most max_len items (None: no bound). Each raises
# the same ConfigError for a min_support outside (0, 1] or a max_len below 1.
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


def _first_divergence(name_a: str, a: ItemsetTable, name_b: str, b: ItemsetTable) -> str | None:
    """The first row where a and b differ, level by level, named with the
    table that holds it (a's if both hold its items), as listed twice if that
    table repeats it; None if they are equal."""
    for k in sorted(a.levels.keys() | b.levels.keys()):
        none = np.empty((0, k), np.intp), np.empty(0, np.int64)
        (rows_a, counts_a), (rows_b, counts_b) = a.levels.get(k, none), b.levels.get(k, none)
        m = min(len(counts_a), len(counts_b))
        i = np.append((rows_a[:m] != rows_b[:m]).any(axis=1) | (counts_a[:m] != counts_b[:m]), True).argmax()
        if i == len(counts_a) == len(counts_b):
            continue
        a_holds = i < len(counts_a) and (i == len(counts_b) or rows_a[i].tolist() <= rows_b[i].tolist())
        name, rows, counts, other = (name_a, rows_a, counts_a, name_b) if a_holds else (name_b, rows_b, counts_b, name_a)
        where = f"listed twice in {name}" if i and (rows[i - 1] == rows[i]).all() else f"in {name} but not {other}"
        return f"itemset {tuple(rows[i].tolist())} (count {counts[i]}) {where}"
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
    limits is a ConfigError, raised before any miner runs."""
    if miners is None:
        miners = {name: MINERS[name] for name in MINER_PAIR}
    rule_thresholds = replace(thresholds, min_support=max(thresholds.min_support, min_support))
    oracle = brute_force_frequent(db, min_support, limits)
    tables = [(name, miner(db, min_support, None)) for name, miner in miners.items()]
    (baseline, table), *others = *tables, ("oracle", oracle)
    for other, other_table in others:
        divergence = _first_divergence(baseline, table, other, other_table)
        if divergence:
            return EquivalenceReport(False, divergence)

    # The tables are equal, so generate_rules gives each of them the same
    # rules: it runs once, on the baseline's.
    rules = {(r.antecedent, r.consequent) for r in generate_rules(table, db, rule_thresholds)}
    oracle_rules = {(r.antecedent, r.consequent) for r in _oracle_rules(oracle, db.n_transactions, rule_thresholds)}
    diff = rules ^ oracle_rules
    if diff:
        ant, cons = min(diff)
        where = baseline if (ant, cons) in rules else "oracle-rules"
        return EquivalenceReport(False, f"rule {ant} -> {cons} only in {where}")
    return EquivalenceReport(True, "")
