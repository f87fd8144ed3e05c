"""Level-wise Apriori miner with join-and-prune candidate generation.

Each level is an (m, k) `intp` array of item ids whose rows are in
lexicographic order, from counting through to the next join; tuples appear
only in the final FrequentItemset list. A level is counted by the shared
counting kernel, and its frequent rows are kept with a boolean mask.
Candidate generation (Agrawal & Srikant, VLDB 1994) merges (k-1)-itemsets
sharing their first k-2 items and prunes any candidate with an infrequent
(k-1)-subset (downward closure). The join works on the whole level at once,
as in Borgelt's level arrays ("Efficient Implementations of Apriori and
Eclat", FIMI 2003).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _kernels
from .model import FrequentItemset, ItemSet, MinerConfig, TransactionDb, row_keys, support_cutoff


def _join(level: np.ndarray) -> np.ndarray:
    """Join-and-prune on one level: from the distinct, lexicographically
    sorted (k-1)-itemsets of `level`, an (m, k-1) intp array with k >= 2,
    every k-itemset whose (k-1)-subsets are all rows of `level`, as an
    (m', k) array in lexicographic order.
    """
    m, width = level.shape
    # Rows sharing their first k-2 items are consecutive; each row joins
    # every later row of its group, which gives the candidates in order.
    starts = np.ones(m, dtype=bool)
    starts[1:] = (level[1:, :-1] != level[:-1, :-1]).any(axis=1)
    group_end = np.append(np.flatnonzero(starts)[1:], m)[np.cumsum(starts) - 1]
    partners = group_end - np.arange(m) - 1
    left = np.repeat(np.arange(m), partners)
    first = np.cumsum(partners) - partners  # index of each row's first candidate
    right = left + 1 + np.arange(len(left)) - np.repeat(first, partners)
    candidates = np.empty((len(left), width + 1), dtype=np.intp)
    candidates[:, :width] = level[left]
    candidates[:, width] = level[right, -1]
    # The subsets without the last or the next-to-last item are the two
    # parents; look up the k-2 others among the level's keys.
    keys = np.sort(row_keys(level))
    for drop in range(width - 1):
        subsets = row_keys(np.delete(candidates, drop, axis=1))
        at = np.minimum(np.searchsorted(keys, subsets), m - 1)
        candidates = candidates[keys[at] == subsets]
    return candidates


def generate_candidates(frequent_k_minus_1: Sequence[ItemSet], k: int) -> list[ItemSet]:
    """Join-and-prune candidate generation for level k, on tuples: `_join`
    on the sorted, distinct (k-1)-itemsets given."""
    if k < 2:
        raise ValueError("candidate generation starts at k=2")
    level = np.array(sorted(set(frequent_k_minus_1)), dtype=np.intp).reshape(-1, k - 1)
    return [tuple(c) for c in _join(level).tolist()]


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

    found: list[FrequentItemset] = []
    level = np.arange(db.n_items, dtype=np.intp).reshape(-1, 1)
    while len(level):
        counts = _kernels.count_itemsets(db.matrix, level)
        frequent = counts >= min_count
        level = level[frequent]
        found.extend(
            FrequentItemset(tuple(items), count, count / n)
            for items, count in zip(level.tolist(), counts[frequent].tolist())
        )
        if level.shape[1] == cfg.max_itemset_len:
            break
        level = _join(level)
    return found
