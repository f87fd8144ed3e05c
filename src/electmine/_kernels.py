"""Support counting: one packed-bitset kernel.

`pack` is the one bit layout of a transaction database, built from its flat
arrays (`TransactionDb.flat` and `lengths`): row i is item i's column, packed
eight transactions a byte, the last byte's padding bits zero. The count of
an itemset is the popcount of the AND of its items' packed rows: vertical
tidset intersection as in Eclat (Zaki 2000), on bitsets.

Memory: `pack` holds an n_items * n_rows bool temporary while it packs, and
its result is n_items * ceil(n_rows / 8) bytes. `count_itemsets` counts one
Apriori level a call, m itemsets of one length k as an (m, k) array, in
blocks; a block gathers at most BLOCK_BYTES of packed rows (one row, if a
row alone is larger), and its gathered, AND-ed and popcount arrays are each
that size. So the temporaries stay within three blocks however many
itemsets a level has.
"""

from __future__ import annotations

import numpy as np

BACKEND = "bitset"  # the one counting kernel; electbench/run.py records it
BLOCK_BYTES = 1 << 20


def pack(lengths: np.ndarray, flat: np.ndarray, n_items: int) -> np.ndarray:
    """Read-only uint8 array (n_items, ceil(n_rows / 8)): bit r of row i is set
    when transaction r (lengths[r] ids of flat, in row order) holds item i."""
    columns = np.zeros((n_items, len(lengths)), dtype=bool)
    columns[flat, np.repeat(np.arange(len(lengths)), lengths)] = True
    packed = np.packbits(columns, axis=1)
    packed.setflags(write=False)
    return packed


def count_itemsets(packed: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Occurrence count of each row of `level`, an (m, k) array of item ids
    with k >= 1, in a `pack`ed database."""
    counts = np.zeros(len(level), dtype=np.int64)
    block = max(1, BLOCK_BYTES // max(1, packed.shape[1]))
    for start in range(0, len(level), block):
        cols = level[start : start + block]
        acc = packed[cols[:, 0]]  # fancy indexing copies, so the AND below never writes to packed
        for j in range(1, cols.shape[1]):
            acc &= packed[cols[:, j]]
        counts[start : start + block] = np.bitwise_count(acc).sum(axis=1)
    return counts
