import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from electmine.model import TransactionDb, encode_rows

DATA_DIR = Path(__file__).parent / "data"

# Five transactions over three binary attributes; the worked example used
# throughout: counts a:4 b:4 c:4, ab:3 ac:3 bc:3, abc:2.
D5_ROWS = [
    {"a": "1", "b": "1", "c": "1"},
    {"a": "1", "b": "1"},
    {"a": "1", "c": "1"},
    {"b": "1", "c": "1"},
    {"a": "1", "b": "1", "c": "1"},
]


@pytest.fixture(scope="session")
def d5():
    return encode_rows(D5_ROWS, ["a", "b", "c"])


@pytest.fixture(scope="session")
def d5_db(d5):
    return d5[1]


@pytest.fixture(scope="session")
def d5_dict(d5):
    return d5[0]


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


def direct_rule_metrics(antecedent, consequent, db: TransactionDb) -> tuple[float, float, float]:
    """(support, confidence, lift) of antecedent -> consequent, counted by set
    containment over db.transactions: no miner and no counting kernel."""
    rows = [set(t) for t in db.transactions]
    x, y = set(antecedent), set(consequent)
    c_x, c_y, c_xy = (sum(s <= row for row in rows) for s in (x, y, x | y))
    n = len(rows)
    return c_xy / n, c_xy / c_x, (c_xy / c_x) / (c_y / n)


def direct_load(schema, path) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...], tuple[dict, ...]]:
    """What ingest.load should give for a CSV: item labels, transactions and
    the blanked, out-of-range and dropped counts. The cleaning rules are
    applied straight from the schema's fields, rows come from
    csv.DictReader, and no electmine.ingest code runs. ValueError for a
    kept cell that is empty but not a missing answer."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = [c for c in schema.columns if c.kind != "drop"]
    keep = schema.keep or [c.name for c in columns]
    blanked, out_of_range, dropped = {}, {}, {}
    labels: list[str] = []
    transactions = []
    for raw in rows:
        row = {}
        for col in columns:
            tokens = schema.default_missing_tokens if col.missing_tokens is None else col.missing_tokens
            value = raw[col.name].strip()
            if value.lower() in {t.lower() for t in tokens}:
                blanked[col.name] = blanked.get(col.name, 0) + 1
            else:
                row[col.name] = value
        broken = [r for r in schema.consistency_rules if all(row.get(c) == v for c, v in r.conjuncts)]
        if broken:
            dropped[broken[0].description] = dropped.get(broken[0].description, 0) + 1
            continue
        for col in columns:
            if col.kind != "numeric_binned" or row.get(col.name) in (None, *(b.label for b in col.bins)):
                continue
            try:
                number = float(row[col.name])
            except ValueError:
                number = float("nan")
            # Half-open: bin i holds [lower_i, lower_i+1), the last [lower, upper].
            holding = [b.label for b in col.bins if b.lower <= number <= col.bins[-1].upper]
            if holding:
                row[col.name] = holding[-1]
            else:
                del row[col.name]
                out_of_range[col.name] = out_of_range.get(col.name, 0) + 1
        items = []
        for name in keep:
            if name not in row:
                continue
            if row[name] == "":
                raise ValueError(f"empty value for {name!r}")
            label = f"{name}_{row[name]}"
            if label not in labels:
                labels.append(label)
            items.append(labels.index(label))
        transactions.append(tuple(sorted(items)))
    return tuple(labels), tuple(transactions), (blanked, out_of_range, dropped)


def random_db(
    seed: int,
    max_items: int = 15,
    max_transactions: int = 500,
) -> TransactionDb:
    """Seeded random database for property tests.

    Per-item inclusion is independent Bernoulli at a density drawn from
    [0.1, 0.9]. Above 8 items, items are partitioned into attribute groups
    and at most one included item per group survives (survey-style
    exclusivity); this also keeps the itemset lattice desk-scale.
    """
    rng = np.random.default_rng(seed)
    n_items = int(rng.integers(1, max_items + 1))
    n_transactions = int(rng.integers(1, max_transactions + 1))
    density = float(rng.uniform(0.1, 0.9))
    include = rng.random((n_transactions, n_items)) < density
    if n_items > 8:
        n_groups = max(3, n_items // 3)
        groups = np.sort(rng.integers(0, n_groups, size=n_items))
        for g in range(n_groups):
            members = np.flatnonzero(groups == g)
            if len(members) <= 1:
                continue
            sub = include[:, members]
            chosen = rng.integers(0, len(members), size=n_transactions)
            keep = np.zeros_like(sub)
            rows = np.arange(n_transactions)
            keep[rows, chosen] = sub[rows, chosen]
            # Rows where the chosen item was absent fall back to the first
            # included item of the group.
            fallback = sub.argmax(axis=1)
            has_any = sub.any(axis=1)
            missed = has_any & ~keep.any(axis=1)
            keep[rows[missed], fallback[missed]] = True
            include[:, members] = keep
    transactions = tuple(tuple(np.flatnonzero(row)) for row in include)
    transactions = tuple(tuple(int(i) for i in t) for t in transactions)
    return TransactionDb(transactions, n_items=n_items)


def wide_db(seed: int, n_items: int = 300, n_transactions: int = 1000, max_len: int = 5) -> TransactionDb:
    """Seeded random database with more items than a byte can rank.

    Each transaction holds 0 to max_len distinct items, drawn without
    replacement at skewed, shuffled rates (weight 1/sqrt(k) for the k-th),
    so at a count cutoff of 2 most items are frequent and their totals tie
    often. Short transactions keep every itemset countable by enumerating
    each transaction's subsets.
    """
    rng = np.random.default_rng(seed)
    weights = rng.permutation(1 / np.sqrt(np.arange(1, n_items + 1)))
    lengths = rng.integers(0, max_len + 1, size=n_transactions)
    transactions = tuple(
        tuple(sorted(rng.choice(n_items, size=k, replace=False, p=weights / weights.sum()).tolist()))
        for k in lengths
    )
    return TransactionDb(transactions, n_items=n_items)


@st.composite
def small_dbs(draw):
    """0-10 items and 1-60 transactions, empty transactions included."""
    n_items = draw(st.integers(0, 10))
    transaction = st.frozensets(st.integers(0, n_items - 1)) if n_items else st.just(frozenset())
    rows = draw(st.lists(transaction, min_size=1, max_size=60))
    return TransactionDb(tuple(tuple(sorted(t)) for t in rows), n_items=n_items)
