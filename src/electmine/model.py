"""Transaction data model.

Categorical records become transactions over an integer item universe: each
answered attribute=value pair maps to one item labeled "<attribute>_<value>".
Item ids are dense and assigned in first-encounter order so identical inputs
always produce identical encodings. Every miner returns one ItemsetTable;
find_rows, the one itemset-row search, serves counts_of and Apriori's prune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    """One scalar per row of a 2-d array of non-negative ids, its bytes as
    big-endian int64: the keys are equal exactly when the rows are, and sort
    (np.sort and np.searchsorted compare their bytes) as the rows do."""
    rows = np.ascontiguousarray(rows, ">i8")
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def find_rows(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The index in `keys`, the sorted row_keys of some rows, of each row of
    the 2-d array `rows` (the first, for a row listed twice), or -1."""
    wanted = row_keys(rows)
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, at, -1) if len(keys) else np.full(len(wanted), -1, np.intp)


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


class Itemset(NamedTuple):
    """One row of an ItemsetTable, as iterating the table gives it."""

    items: ItemSet
    count: int


class ItemsetTable:
    """The frequent itemsets every miner returns: ``levels[k]``, k ascending,
    is an (m, k) intp array of item ids in lexicographic order, the canonical
    output order, and its m int64 counts. Iterating yields an Itemset per row
    in that order, built on each iteration; counts_of looks rows up."""

    def __init__(self, pieces: Iterable[tuple[np.ndarray, np.ndarray]]):
        """The (rows, counts) pieces, each of one length, in any order: each
        length's rows sorted once by row_keys (kept for counts_of), a repeated row kept twice."""
        grouped: dict[int, list] = {}
        for rows, counts in pieces:
            grouped.setdefault(rows.shape[1], []).append((rows, counts))
        self.levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._keys: dict[int, np.ndarray] = {}
        for k, parts in sorted(grouped.items()):
            rows, counts = map(np.concatenate, zip(*parts))
            keys = row_keys(rows)
            order = np.argsort(keys, kind="stable")
            if len(order):
                self.levels[k] = rows[order].astype(np.intp, copy=False), counts[order].astype(np.int64, copy=False)
                self._keys[k] = keys[order]

    def counts_of(self, rows: np.ndarray) -> np.ndarray:
        """The count of each row of the (m, k) array `rows`; a ValueError if
        the table lacks one of them, or its length k."""
        at = find_rows(self._keys[rows.shape[1]], rows) if rows.shape[1] in self._keys else None
        if at is None or (at < 0).any():
            raise ValueError("incomplete itemset lattice")
        return self.levels[rows.shape[1]][1][at]

    def __len__(self) -> int:
        return sum(len(counts) for _, counts in self.levels.values())

    def __iter__(self) -> Iterator[Itemset]:
        for rows, counts in self.levels.values():
            yield from map(Itemset, map(tuple, rows.tolist()), counts.tolist())


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
