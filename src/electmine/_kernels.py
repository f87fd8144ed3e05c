"""Support counting: one packed-bitset kernel.

Each item's column of the boolean transaction matrix is packed into bits,
eight transactions a byte; the padding bits of the last byte are zero. The
count of an itemset is the popcount of the AND of its items' packed columns:
vertical tidset intersection as in Eclat (Zaki 2000), on bitsets.

Memory, per call: the transposed copy of the matrix (n_rows * n_items
bytes) and its packed columns (n_items * ceil(n_rows / 8) bytes). Itemsets
are counted in blocks of one length; a block gathers at most BLOCK_BYTES of
packed columns (one column, if a column alone is larger), and its gathered,
AND-ed and popcount arrays are each that size. So the temporaries stay
within three blocks however many itemsets a call counts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

BACKEND = "bitset"  # the one counting kernel; electbench/run.py records it
BLOCK_BYTES = 1 << 20


def count_itemsets(matrix: np.ndarray, itemsets: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Occurrence count of each nonempty itemset in the boolean transaction matrix."""
    counts = np.zeros(len(itemsets), dtype=np.int64)
    packed = np.packbits(np.ascontiguousarray(matrix.T), axis=1)  # (n_items, ceil(n_rows / 8))
    block = max(1, BLOCK_BYTES // max(1, packed.shape[1]))
    by_len: dict[int, list[int]] = {}
    for i, itemset in enumerate(itemsets):
        by_len.setdefault(len(itemset), []).append(i)
    for positions in by_len.values():
        members = np.array([itemsets[i] for i in positions], dtype=np.intp)  # (m, length)
        for start in range(0, len(positions), block):
            cols = members[start : start + block]
            acc = packed[cols[:, 0]]
            for j in range(1, cols.shape[1]):
                acc &= packed[cols[:, j]]
            counts[positions[start : start + block]] = np.bitwise_count(acc).sum(axis=1)
    return counts
