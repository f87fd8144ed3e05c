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


@st.composite
def small_dbs(draw):
    """0-10 items and 1-60 transactions, empty transactions included."""
    n_items = draw(st.integers(0, 10))
    transaction = st.frozensets(st.integers(0, n_items - 1)) if n_items else st.just(frozenset())
    rows = draw(st.lists(transaction, min_size=1, max_size=60))
    return TransactionDb(tuple(tuple(sorted(t)) for t in rows), n_items=n_items)
