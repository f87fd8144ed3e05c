"""Level-wise Apriori miner with join-and-prune candidate generation.

Each level is an (m, k) `intp` array of item ids whose rows are in
lexicographic order, from counting through to the next join and into the
ItemsetTable returned; no tuple is built. A level is counted by the shared
counting kernel, and its frequent rows are kept with a boolean mask.
Candidate generation (Agrawal & Srikant, VLDB 1994) merges (k-1)-itemsets
sharing their first k-2 items and prunes any candidate with an infrequent
(k-1)-subset (downward closure), looked up with `model.find_rows`, the
search ItemsetTable.counts_of uses. The join works on the whole level at
once, as in Borgelt's level arrays ("Efficient Implementations of Apriori
and Eclat", FIMI 2003).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _kernels
from .model import ItemSet, ItemsetTable, MinerConfig, TransactionDb, find_rows, row_keys, support_cutoff


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
    # parents; look up the k-2 others among the level's keys, which sort as its rows.
    keys = row_keys(level)
    for drop in range(width - 1):
        candidates = candidates[find_rows(keys, np.delete(candidates, drop, axis=1)) >= 0]
    return candidates


def generate_candidates(frequent_k_minus_1: Sequence[ItemSet], k: int) -> list[ItemSet]:
    """Join-and-prune candidate generation for level k, on tuples: `_join`
    on the distinct (k-1)-itemsets given, in lexicographic order."""
    if k < 2:
        raise ValueError("candidate generation starts at k=2")
    level = np.unique(np.array(list(frequent_k_minus_1), dtype=np.intp).reshape(-1, k - 1), axis=0)
    return [tuple(c) for c in _join(level).tolist()]


def count_support(candidates: Sequence[ItemSet], db: TransactionDb) -> dict[ItemSet, int]:
    """Exact occurrence count of each candidate of one level (all of one
    length) over the database."""
    if not candidates:
        return {}
    counts = _kernels.count_itemsets(db.matrix, np.array(candidates, dtype=np.intp))
    return dict(zip(candidates, counts.tolist()))


def mine_apriori(db: TransactionDb, cfg: MinerConfig) -> ItemsetTable:
    """All itemsets with count >= ceil(min_support * N), with exact counts:
    each frequent level as it was counted."""
    if db.n_transactions == 0:
        raise ValueError("empty transaction database")
    found, min_count = [], support_cutoff(cfg.min_support, db.n_transactions)
    level = np.arange(db.n_items, dtype=np.intp).reshape(-1, 1)
    while len(level):
        counts = _kernels.count_itemsets(db.matrix, level)
        frequent = counts >= min_count
        level = level[frequent]
        found.append((level, counts[frequent]))
        if level.shape[1] == cfg.max_itemset_len:
            break
        level = _join(level)
    return ItemsetTable(found)
