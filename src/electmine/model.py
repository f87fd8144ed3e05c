"""Transaction data model.

Categorical records become transactions over an integer item universe: each
answered attribute=value pair maps to one item labeled "<attribute>_<value>".
Item ids are dense and assigned in first-encounter order so identical inputs
always produce identical encodings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _kernels

# An itemset is always a sorted, duplicate-free tuple of item ids.
ItemSet = tuple[int, ...]


class ConfigError(ValueError):
    """An invalid setting: a threshold, a limit or a category definition.
    Every other ValueError is a fault in the data or an invariant."""


def attribute_of(label: str) -> str:
    """Attribute prefix of an item label (everything before the first '_')."""
    return label.split("_", 1)[0]


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque scalar per row of a 2-d array, equal exactly when the rows
    are equal. Only for membership: the keys' order is not the rows' order."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def exact(threshold: float) -> Fraction:
    """A threshold as the decimal it prints as: 0.6 is 3/5, not the binary
    float nearest to it. Raises ValueError for inf and nan."""
    return Fraction(str(threshold))


def support_cutoff(min_support: float, n_transactions: int) -> int:
    """Absolute count an itemset needs: ceil(min_support * N), at least 1.

    Exact: 0.05 * 20 is 1, and 0.1000000001 * 10 is above 1.
    """
    return max(1, math.ceil(exact(min_support) * n_transactions))


@dataclass(frozen=True)
class ItemDictionary:
    """Bijective map between item ids and "attribute_value" labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for label in self.labels:
            attribute, sep, value = label.partition("_")
            if not attribute or not sep:
                raise ValueError(f"item label {label!r} has no attribute prefix")
            if not value:
                raise ValueError(f"item label {label!r} has an empty value")
            if label in seen:
                raise ValueError(f"duplicate item label {label!r}")
            seen.add(label)

    def label_of(self, item: int) -> str:
        if not 0 <= item < len(self.labels):
            raise KeyError(f"unknown item id {item}")
        return self.labels[item]


class TransactionDb:
    """Encoded dataset: rows of sorted, duplicate-free item ids, held as two
    arrays and checked once. ``flat`` holds the ids in row order, in the
    smallest unsigned dtype for n_items - 1, and ``lengths`` the rows' intp
    sizes; ``transactions``, the rows as tuples, are the constructor's or
    built on first read. Equality and the repr are the rows' and n_items'."""

    def __init__(self, transactions: Iterable[Iterable[int]], n_items: int):
        rows = tuple(map(tuple, transactions))  # tuple() of a tuple returns that tuple
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        self._check(np.fromiter(chain.from_iterable(rows), np.int64, int(lengths.sum())), lengths, n_items)
        self.__dict__["transactions"] = rows

    @classmethod
    def from_arrays(cls, flat: np.ndarray, lengths: np.ndarray, n_items: int) -> TransactionDb:
        """The database of the rows that flat, cut at lengths, holds."""
        db = cls.__new__(cls)
        db._check(flat, np.asarray(lengths, np.intp), n_items)
        return db

    def _check(self, flat: np.ndarray, lengths: np.ndarray, n_items: int) -> None:
        """Keep the arrays, or raise for the first row that is not sorted, duplicate-free
        and in [0, n_items): vectorised in flat's dtype, with no per-id row index."""
        bad = np.zeros(len(flat), bool)
        np.less_equal(flat[1:], flat[:-1], out=bad[1:])
        ends = np.cumsum(lengths)
        bad[ends[ends < len(flat)]] = False  # an id may drop where a row starts
        bad |= flat >= n_items
        if flat.dtype.kind == "i":
            bad |= flat < 0
        if bad.any():
            row = int(np.searchsorted(ends, bad.argmax(), "right"))
            raise ValueError(f"transaction {row} is not sorted, duplicate-free and in [0, {n_items})")
        self.flat = flat.astype(np.min_scalar_type(max(0, n_items - 1)), copy=False)
        self.lengths, self.n_items, self.n_transactions = lengths, n_items, len(lengths)

    @cached_property
    def transactions(self) -> tuple[ItemSet, ...]:
        """The rows as tuples, built on first read from flat, with one int
        object per item id, which every row shares."""
        ids = iter(np.arange(self.n_items).astype(object)[self.flat].tolist())
        return tuple(tuple(islice(ids, n)) for n in self.lengths.tolist())

    @cached_property
    def matrix(self) -> np.ndarray:
        """The packed item columns the counting kernel reads (`_kernels.pack`),
        built on first use: FP-Growth and the oracle never need them."""
        return _kernels.pack(self.lengths, self.flat, self.n_items)

    def __eq__(self, other):
        return isinstance(other, TransactionDb) and self.n_items == other.n_items and all(
            map(np.array_equal, (self.lengths, self.flat), (other.lengths, other.flat)))

    def __repr__(self) -> str:
        return f"TransactionDb(transactions={self.transactions!r}, n_items={self.n_items!r})"


@dataclass(frozen=True)
class FrequentItemset:
    items: ItemSet
    count: int
    support: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("frequent itemset must occur at least once")


@dataclass(frozen=True)
class MinerConfig:
    """The thresholds every miner takes; each miner rejects the same values."""

    min_support: float
    max_itemset_len: int | None = None

    def __post_init__(self):
        if not 0.0 < self.min_support <= 1.0:
            raise ConfigError("min_support must be in (0, 1]")
        if self.max_itemset_len is not None and self.max_itemset_len < 1:
            raise ConfigError("max_itemset_len must be >= 1")


def itemset_sort_key(items: ItemSet):
    """Canonical output order: length ascending, then item ids lexicographic."""
    return (len(items), items)


def encode_rows(
    rows: Sequence[Mapping[str, str]], attribute_order: Sequence[str]
) -> tuple[ItemDictionary, TransactionDb]:
    """Encode attribute->value records into an item dictionary and database.

    Item ids are assigned in first-encounter order, scanning rows in input
    order and each row's attributes in attribute_order.
    """
    order = list(attribute_order)
    order_set = set(order)
    index: dict[str, int] = {}
    transactions = []
    for row_no, row in enumerate(rows):
        unknown = set(row) - order_set
        if unknown:
            raise ValueError(f"row {row_no}: attributes not in attribute_order: {sorted(unknown)}")
        ids = []
        for attr in order:
            if attr not in row:
                continue
            if row[attr] == "":
                raise ValueError(f"row {row_no}: empty value for attribute {attr!r}")
            ids.append(index.setdefault(f"{attr}_{row[attr]}", len(index)))
        transactions.append(tuple(sorted(ids)))
    return ItemDictionary(tuple(index)), TransactionDb(tuple(transactions), n_items=len(index))
