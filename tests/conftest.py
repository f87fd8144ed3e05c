import csv
from itertools import chain, combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from electmine.model import TransactionDb, encode_rows, support_cutoff
from electmine.rules import by_lift, passes_thresholds, rule_from_counts

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


def reference_rules(frequent, db: TransactionDb, t):
    """What rules.generate_rules should give, as a plain loop: each split
    of each itemset at or above the support cutoff, looked up in a dict of
    counts and filtered by passes_thresholds, then put in by_lift order."""
    n = db.n_transactions
    counts = {fs.items: fs.count for fs in frequent}
    min_count = support_cutoff(t.min_support, n)
    out = []
    for fs in frequent:
        items = fs.items
        k = len(items)
        if k < 2 or fs.count < min_count:
            continue
        for ant_size in range(1, k):
            # Same-size sorted subsets come in descending order of their
            # indicator bits, and taking complements reverses that order.
            consequents = reversed(list(combinations(items, k - ant_size)))
            for antecedent, consequent in zip(combinations(items, ant_size), consequents):
                c_ant = counts.get(antecedent)
                c_cons = counts.get(consequent)
                if c_ant is None or c_cons is None:
                    raise ValueError("incomplete itemset lattice")
                if passes_thresholds(fs.count, c_ant, c_cons, n, t):
                    out.append(rule_from_counts(antecedent, consequent, fs.count, c_ant, c_cons, n))
    return by_lift(out)


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


class WalkForest(NamedTuple):
    """One forest of reference_forests: the FPTree fields that do not hold paths."""

    items: list
    suffix: np.ndarray
    totals: np.ndarray
    parent: np.ndarray
    rank: np.ndarray
    count: np.ndarray


def _walk_trie(paths, weights, n_ranks, tree, n_trees):
    """(parent, rank, count) of prefix trees from left-justified rank rows
    padded with n_ranks, one np.unique over parent * n_ranks + rank per column."""
    rows, node = np.arange(len(paths)), tree.astype(np.int64)
    roots = np.arange(n_trees, dtype=np.int32)
    levels = [(roots, np.full(n_trees, n_ranks, np.int32), np.zeros(n_trees, np.int32))]
    n_nodes = n_trees
    for column in paths.T:
        ranks = column[rows]
        live = ranks < n_ranks
        if not live.any():
            break
        rows, node = rows[live], node[live]
        keys, inverse = np.unique(node * n_ranks + ranks[live], return_inverse=True)
        counts = np.bincount(inverse, weights[rows]).astype(np.int32)
        levels.append(((keys // n_ranks).astype(np.int32), (keys % n_ranks).astype(np.int32), counts))
        node = n_nodes + inverse
        n_nodes += len(keys)
    return tuple(map(np.concatenate, zip(*levels)))


def _walk_project(tree, nodes, pair, suffix, min_count):
    """The forest below tree's nodes, each node's prefix path found by walking
    its parents up one depth per numpy call."""
    n_roots, pad, n_trees = len(tree.suffix), int(suffix[0, 0]), len(suffix)
    weights = tree.count[nodes]
    root = np.empty(len(nodes), np.int32)
    steps, rows, up = [], np.arange(len(nodes), dtype=np.int32), tree.parent[nodes]
    while True:
        live = up >= n_roots
        root[rows[~live]] = up[~live]
        if not live.any():
            break
        rows, up = rows[live], up[live]
        steps.append((rows, tree.rank[up]))
        up = tree.parent[up]
    new_tree = pair[root, tree.rank[nodes]]
    totals = np.zeros(n_trees * pad)
    for rows, ranks in steps:
        totals += np.bincount(new_tree[rows] * pad + ranks, weights[rows], n_trees * pad)
    totals = totals.reshape(n_trees, pad).astype(np.int64)
    totals[totals < min_count] = 0
    kept = totals > 0
    paths = np.full((len(nodes), len(steps)), pad, np.int32)
    for j, (rows, ranks) in enumerate(steps):
        paths[rows, j] = np.where(kept[new_tree[rows], ranks], ranks, pad)
    paths.sort(axis=1)
    has_items = kept.any(axis=1)
    renumbered = np.cumsum(has_items) - 1
    return WalkForest(tree.items, suffix[has_items], totals[has_items],
                      *_walk_trie(paths, weights, pad, renumbered[new_tree], int(has_items.sum())))


def reference_forests(db: TransactionDb, min_support: float, max_len=None):
    """What fpgrowth._forests(build_fptree(db, min_support), ...) should give,
    built the way it was before node paths were stored: the root tree from a
    sorted rank matrix, each projection by walking every node up its path, and
    every trie with one np.unique per depth. Test-only reference."""
    min_count = support_cutoff(min_support, db.n_transactions)
    lengths = np.fromiter(map(len, db.transactions), np.int32, db.n_transactions)
    flat = np.fromiter(chain.from_iterable(db.transactions), np.int32, int(lengths.sum()))
    totals = np.bincount(flat, minlength=db.n_items)
    by_count = np.argsort(-totals, kind="stable")
    ordered = by_count[totals[by_count] >= min_count]
    n_ranks = len(ordered)
    rank_of = np.full(db.n_items, n_ranks, np.int32)
    rank_of[ordered] = np.arange(n_ranks, dtype=np.int32)
    starts = np.cumsum(lengths) - lengths
    paths = np.full((db.n_transactions, lengths.max()), n_ranks, np.int32)
    for j in range(paths.shape[1]):
        rows = np.flatnonzero(lengths > j)
        paths[rows, j] = rank_of[flat[starts[rows] + j]]
    paths.sort(axis=1)
    tree = WalkForest(ordered.tolist(), np.zeros((1, 0), np.int64), totals[None, ordered],
                      *_walk_trie(paths, np.ones(db.n_transactions, np.int32), n_ranks,
                                  np.zeros(db.n_transactions, np.int32), 1))
    yield tree
    if max_len == 1:
        return
    for r in range(n_ranks):
        forest = _walk_project(tree, np.flatnonzero(tree.rank == r), np.zeros((1, r + 1), np.int32),
                               np.array([[r]]), min_count)
        while len(forest.suffix):
            yield forest
            if forest.suffix.shape[1] + 1 == max_len:
                break
            kept = forest.totals > 0
            t, k = np.nonzero(kept)
            pair = np.cumsum(kept).reshape(kept.shape) - 1
            forest = _walk_project(forest, np.arange(len(forest.suffix), len(forest.rank)), pair,
                                   np.column_stack([forest.suffix[t], k]), min_count)
