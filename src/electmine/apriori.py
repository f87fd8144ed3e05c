"""Level-wise Apriori miner with join-and-prune candidate generation.

Candidate generation merges (k-1)-itemsets sharing their first k-2 items and
prunes any candidate with an infrequent (k-1)-subset (downward closure).
Every level, the singletons included, is counted by count_support on the
shared counting kernel.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from . import _kernels
from .model import FrequentItemset, ItemSet, MinerConfig, TransactionDb, itemset_sort_key, support_cutoff


def generate_candidates(frequent_k_minus_1: Sequence[ItemSet], k: int) -> list[ItemSet]:
    """Join-and-prune candidate generation for level k.

    Two (k-1)-sets sharing their first k-2 items join into a k-set; any
    candidate with a (k-1)-subset missing from the input is pruned.
    """
    if k < 2:
        raise ValueError("candidate generation starts at k=2")
    prev = sorted(frequent_k_minus_1)
    prev_set = set(prev)
    candidates: list[ItemSet] = []
    for i, a in enumerate(prev):
        for b in prev[i + 1 :]:
            if a[: k - 2] != b[: k - 2]:
                break  # sorted input: no later b shares the prefix either
            candidate = a + (b[k - 2],)
            if all(sub in prev_set for sub in combinations(candidate, k - 1)):
                candidates.append(candidate)
    return candidates


def count_support(candidates: Sequence[ItemSet], db: TransactionDb) -> dict[ItemSet, int]:
    """Exact occurrence count of each candidate of one level (all of one
    length) over the database."""
    if not candidates:
        return {}
    counts = _kernels.count_itemsets(db.matrix, np.array(candidates, dtype=np.intp))
    return dict(zip(candidates, counts.tolist()))


def mine_apriori(db: TransactionDb, cfg: MinerConfig) -> list[FrequentItemset]:
    """All itemsets with count >= ceil(min_support * N), with exact counts.

    Output is ordered by itemset length ascending, then item ids
    lexicographic, so runs are byte-reproducible.
    """
    n = db.n_transactions
    if n == 0:
        raise ValueError("empty transaction database")
    min_count = support_cutoff(cfg.min_support, n)

    found: list[tuple[ItemSet, int]] = []
    candidates: list[ItemSet] = [(item,) for item in range(db.n_items)]
    k = 1
    while candidates:
        counts = count_support(candidates, db)
        frequent = [c for c in candidates if counts[c] >= min_count]
        found.extend((c, counts[c]) for c in frequent)
        k += 1
        if cfg.max_itemset_len is not None and k > cfg.max_itemset_len:
            break
        candidates = generate_candidates(frequent, k)

    found.sort(key=lambda pair: itemset_sort_key(pair[0]))
    return [FrequentItemset(items, count, count / n) for items, count in found]
