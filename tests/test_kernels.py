"""The bit layout and the counting kernel against a direct per-row count."""

from unittest import mock

import numpy as np
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from electmine import _kernels
from electmine.model import TransactionDb


def direct_count(matrix, itemset):
    return sum(all(row[i] for i in itemset) for row in matrix)


def pack_rows(matrix):
    """_kernels.pack, through TransactionDb.matrix, of the transactions a
    bool rows x items matrix holds."""
    transactions = tuple(tuple(int(i) for i in np.flatnonzero(row)) for row in matrix)
    return TransactionDb(transactions, matrix.shape[1]).matrix


@st.composite
def counting_cases(draw):
    """A bool matrix, one level of itemsets over its columns (an (m, k)
    array, every itemset of one length k), and a block budget."""
    n_rows = draw(st.integers(0, 70))  # 0, 1, and row counts on and off byte boundaries
    n_items = draw(st.integers(1, 8))
    matrix = draw(arrays(np.bool_, (n_rows, n_items)))
    k = draw(st.integers(1, n_items))
    itemset = st.lists(st.integers(0, n_items - 1), min_size=k, max_size=k, unique=True)
    itemsets = draw(st.lists(itemset.map(sorted), max_size=40))
    # A budget of a few bytes puts one or a few itemsets in each block.
    block_bytes = draw(st.sampled_from([1, 3, 16, _kernels.BLOCK_BYTES]))
    return matrix, np.array(itemsets, dtype=np.intp).reshape(len(itemsets), k), block_bytes


def level(*itemsets):
    return np.array(itemsets, dtype=np.intp)


@given(counting_cases())
@example((np.zeros((0, 3), dtype=bool), level((0, 2), (1, 2)), 1))
@example((np.ones((1, 3), dtype=bool), level((0, 1, 2)), 1))
@example((np.ones((9, 2), dtype=bool), level((0,), (1,), (0,)), 2))
@example((np.ones((9, 2), dtype=bool), np.empty((0, 2), dtype=np.intp), 1))  # an empty level
def test_count_itemsets_matches_direct_count(case):
    matrix, itemsets, block_bytes = case
    packed = pack_rows(matrix)
    with mock.patch.object(_kernels, "BLOCK_BYTES", block_bytes):
        counts = _kernels.count_itemsets(packed, itemsets)
    assert counts.dtype == np.int64
    assert counts.tolist() == [direct_count(matrix, s) for s in itemsets]


@given(arrays(np.bool_, st.tuples(st.integers(0, 70), st.integers(0, 8))))
@example(np.zeros((0, 3), dtype=bool))
@example(np.ones((13, 2), dtype=bool))
def test_pack_layout(matrix):
    n_rows, n_items = matrix.shape
    packed = pack_rows(matrix)
    assert packed.dtype == np.uint8 and not packed.flags.writeable
    assert packed.shape == (n_items, -(-n_rows // 8))
    bits = np.unpackbits(packed, axis=1)
    assert (bits[:, :n_rows] == matrix.T).all()
    assert not bits[:, n_rows:].any()  # zero padding
