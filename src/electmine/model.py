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
from typing import Mapping, Sequence

import numpy as np

from . import _kernels

# An itemset is always a sorted, duplicate-free tuple of item ids.
ItemSet = tuple[int, ...]


def attribute_of(label: str) -> str:
    """Attribute prefix of an item label (everything before the first '_')."""
    return label.split("_", 1)[0]


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
            if "_" not in label:
                raise ValueError(f"item label {label!r} has no attribute prefix")
            if label in seen:
                raise ValueError(f"duplicate item label {label!r}")
            seen.add(label)

    def label_of(self, item: int) -> str:
        if not 0 <= item < len(self.labels):
            raise KeyError(f"unknown item id {item}")
        return self.labels[item]


@dataclass(frozen=True)
class TransactionDb:
    """Encoded dataset: transactions are sorted, duplicate-free item-id tuples."""

    transactions: tuple[ItemSet, ...]
    n_items: int

    def __post_init__(self):
        transactions = tuple(tuple(t) for t in self.transactions)
        object.__setattr__(self, "transactions", transactions)
        for row, t in enumerate(transactions):
            if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                raise ValueError(f"transaction {row} is not sorted and duplicate-free: {t}")
            if t and (t[0] < 0 or t[-1] >= self.n_items):
                raise ValueError(f"transaction {row} has an item id outside [0, {self.n_items})")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The packed item columns the counting kernel reads (`_kernels.pack`),
        built on first use: FP-Growth and the oracle never need them."""
        return _kernels.pack(self.transactions, self.n_items)

    @property
    def n_transactions(self) -> int:
        return len(self.transactions)


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
            raise ValueError("min_support must be in (0, 1]")
        if self.max_itemset_len is not None and self.max_itemset_len < 1:
            raise ValueError("max_itemset_len must be >= 1")


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
    labels: list[str] = []
    index: dict[str, int] = {}
    transactions: list[ItemSet] = []

    for row_no, row in enumerate(rows):
        unknown = set(row) - order_set
        if unknown:
            raise ValueError(f"row {row_no}: attributes not in attribute_order: {sorted(unknown)}")
        items = []
        for attr in order:
            if attr not in row:
                continue
            value = row[attr]
            if value == "":
                raise ValueError(f"row {row_no}: empty value for attribute {attr!r}")
            label = f"{attr}_{value}"
            item = index.get(label)
            if item is None:
                item = len(labels)
                index[label] = item
                labels.append(label)
            items.append(item)
        transactions.append(tuple(sorted(items)))

    dictionary = ItemDictionary(tuple(labels))
    db = TransactionDb(tuple(transactions), n_items=len(labels))
    return dictionary, db
