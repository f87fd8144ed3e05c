import ast
from collections import Counter
from itertools import combinations
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from electmine import fpgrowth
from electmine.apriori import MinerConfig, mine_apriori
from electmine.fpgrowth import build_fptree, mine_fpgrowth, mine_fptree
from electmine.model import TransactionDb, itemset_sort_key, support_cutoff
from electmine.verify import brute_force_frequent

from conftest import random_db, small_dbs, wide_db


def as_pairs(frequent):
    return [(fs.items, fs.count) for fs in frequent]


class Lists(NamedTuple):
    """One tree's nodes as dicts, read off the arrays of an FPTree or a forest."""

    item_total: dict  # the tree's items in rank order, each with its total
    item: dict  # node -> item, every node but the root, in id order
    count: dict
    parent: dict
    root: int


def as_lists(tree):
    """The root tree of an FPTree."""
    nodes = range(1, len(tree.count))
    return Lists(dict(zip(tree.items, tree.totals)), {n: tree.items[tree.rank[n]] for n in nodes},
                 {n: int(tree.count[n]) for n in nodes}, {n: int(tree.parent[n]) for n in nodes}, 0)


def forest_lists(tree, forest):
    """Each tree of a forest below tree's items, keyed by its conditioning
    items, the root item first."""
    items, out = tree.items, {}
    n_trees = len(forest.suffix)
    tree_of = list(range(n_trees))  # each node's tree: the root a walk up reaches
    for up in forest.parent[n_trees:].tolist():
        tree_of.append(tree_of[up])
    for t, suffix in enumerate(forest.suffix.tolist()):
        nodes = [n for n in range(n_trees, len(tree_of)) if tree_of[n] == t]
        out[tuple(items[r] for r in suffix)] = Lists(
            {items[r]: int(forest.totals[t, r]) for r in np.flatnonzero(forest.totals[t]).tolist()},
            {n: items[forest.rank[n]] for n in nodes}, {n: int(forest.count[n]) for n in nodes},
            {n: int(forest.parent[n]) for n in nodes}, t)
    return out


def node_path(tree, node):
    """The items from the root down to node."""
    path = []
    while node != tree.root:
        path.append(tree.item[node])
        node = tree.parent[node]
    return tuple(reversed(path))


def header(tree):
    """Each item's nodes in id order, its header chain."""
    chains = {item: [] for item in tree.item_total}
    for node, item in tree.item.items():
        chains[item].append(node)
    return chains


def prefix_paths(tree, chain):
    """The prefix paths of an item's chain of nodes: the items above each
    node from the root down, weighted by the node's count."""
    return [(node_path(tree, tree.parent[node]), tree.count[node]) for node in chain]


def check_definition(tree, paths, order, min_count):
    """tree, as Lists, against its definition: the prefix tree of the
    weighted paths, each listing items in order, over the items of order
    whose total reaches min_count."""
    totals: Counter = Counter()
    for path, weight in paths:
        for i in path:
            totals[i] += weight
    kept = [i for i in order if totals[i] >= min_count]
    assert list(tree.item_total.items()) == [(i, totals[i]) for i in kept]
    rank = {item: r for r, item in enumerate(kept)}

    # One node per distinct nonempty prefix of the filtered paths, counted by
    # the weights of the paths that have that prefix.
    prefixes: Counter = Counter()
    for path, weight in paths:
        filtered = tuple(i for i in path if i in rank)
        for k in range(1, len(filtered) + 1):
            prefixes[filtered[:k]] += weight
    nodes = list(tree.item)
    assert len(nodes) == len(prefixes)
    assert {node_path(tree, node): tree.count[node] for node in nodes} == prefixes

    for item, chain in header(tree).items():
        assert sum(tree.count[node] for node in chain) == tree.item_total[item]
    for node in nodes:
        up = tree.parent[node]
        assert up < node
        if up != tree.root:
            assert rank[tree.item[up]] < rank[tree.item[node]]
    # What the tries' unique keys enforce: no two nodes share a parent and an item.
    assert len({(tree.parent[node], tree.item[node]) for node in nodes}) == len(nodes)


def check_tree(db, min_support, array_tree):
    """array_tree, build_fptree(db, min_support), against its definition."""
    min_count = support_cutoff(min_support, db.n_transactions)
    totals = Counter(item for t in db.transactions for item in t)
    order = sorted(totals, key=lambda i: (-totals[i], i))
    rank = {item: r for r, item in enumerate(order)}
    paths = [(tuple(sorted(t, key=rank.__getitem__)), 1) for t in db.transactions]
    tree = as_lists(array_tree)
    check_definition(tree, paths, order, min_count)
    assert array_tree.rank[0] == len(array_tree.items) and array_tree.parent[0] == 0

    # The nested view, walked as the benchmark counts FP-tree nodes.
    walked, stack = 0, [array_tree.root]
    while stack:
        view = stack.pop()
        walked += len(view.children)
        stack.extend(view.children.values())
    assert walked == len(tree.item)


def check_forests(tree, min_count, max_len=None):
    """Every conditional tree the forests below tree hold at every depth,
    against its definition: each is built from its parent tree's prefix
    paths of its last conditioning item, and each nonempty one whose
    itemsets are at most max_len long is built, none longer."""
    built = {(): as_lists(tree)}
    for forest in fpgrowth._forests(tree, min_count, max_len):
        n_trees, pad = len(forest.suffix), int(forest.suffix[0, 0])
        assert (forest.parent[:n_trees] == np.arange(n_trees)).all() and (forest.rank[:n_trees] == pad).all()
        assert (forest.parent[n_trees:] < np.arange(n_trees, len(forest.rank))).all()
        trees = forest_lists(tree, forest)
        assert not trees.keys() & built.keys()
        built.update(trees)
    for suffix, conditional in built.items():
        assert max_len is None or len(suffix) < max_len or not suffix
        if suffix:
            parent = built[suffix[:-1]]
            paths = prefix_paths(parent, header(parent)[suffix[-1]])
            check_definition(conditional, paths, list(parent.item_total), min_count)
        if max_len is None or len(suffix) + 1 < max_len:
            for item, chain in header(conditional).items():
                weights: Counter = Counter()
                for path, weight in prefix_paths(conditional, chain):
                    weights.update(dict.fromkeys(path, weight))
                frequent = any(w >= min_count for w in weights.values())
                assert (suffix + (item,) in built) == frequent, (suffix, item)
    return built


def test_d5_header_totals(d5_db):
    tree = build_fptree(d5_db, 0.6)
    assert dict(zip(tree.items, tree.totals)) == {0: 4, 1: 4, 2: 4}
    for r, total in enumerate(tree.totals):
        assert tree.count[tree.rank == r].sum() == total


def test_identical_transactions_share_one_path():
    db = TransactionDb(((0, 1),) * 4, n_items=2)
    tree = build_fptree(db, 0.5)
    # root -> 0 -> 1: one child under the root, one under it, both counted 4
    assert tree.parent.tolist() == [0, 0, 1]
    assert [tree.items[r] for r in tree.rank[1:]] == [0, 1]
    assert tree.count[1:].tolist() == [4, 4]


def test_cutoff_above_everything_gives_root_only():
    db = TransactionDb(((0,), (1,)), n_items=2)
    tree = build_fptree(db, 1.0)
    assert (tree.items, tree.totals, tree.parent.tolist(), tree.rank.tolist(), tree.count.tolist()) == (
        [], [], [0], [0], [0])
    assert tree.root.children == {}
    assert mine_fptree(tree, 1.0, db.n_transactions) == []


def test_empty_database_rejected():
    with pytest.raises(ValueError, match="empty transaction database"):
        build_fptree(TransactionDb((), n_items=0), 0.5)


def test_d5_matches_apriori(d5_db):
    assert as_pairs(mine_fpgrowth(d5_db, 0.6)) == [
        ((0,), 4), ((1,), 4), ((2,), 4),
        ((0, 1), 3), ((0, 2), 3), ((1, 2), 3),
    ]


def test_single_path_combinations():
    db = TransactionDb(((0, 1), (0, 1), (0, 1)), n_items=2)
    result = mine_fpgrowth(db, 1.0)
    assert as_pairs(result) == [((0,), 3), ((1,), 3), ((0, 1), 3)]


def test_paths_strictly_descend_in_rank():
    db = random_db(11)
    tree = build_fptree(db, 0.05)
    assert len(tree.count) > 1
    up = tree.parent[1:]
    below_root = up > 0
    assert (tree.rank[up][below_root] < tree.rank[1:][below_root]).all()


# Row i holds items i and N + i, all totals 1: below the first depth, the
# trie's parent * n_ranks + rank keys pass 2**31.
KEYS_PAST_INT32 = TransactionDb(tuple((i, 40_000 + i) for i in range(40_000)), n_items=80_000)


@given(small_dbs(), st.sampled_from([0.01, 0.1, 0.3, 0.6, 1.0]))
@example(KEYS_PAST_INT32, 1e-5)
@settings(deadline=None)  # the example above takes about a second
def test_flat_tree_matches_its_definition(db, min_support):
    check_tree(db, min_support, build_fptree(db, min_support))


def test_conditional_base_reconstructs_totals():
    db = random_db(7)
    tree = build_fptree(db, 0.05)
    first = {suffix: lists for forest in fpgrowth._forests(tree, 1, 2)
             for suffix, lists in forest_lists(tree, forest).items()}
    for r, (item, total) in enumerate(zip(tree.items, tree.totals)):
        containing = [t for t in db.transactions if item in t]
        assert tree.count[tree.rank == r].sum() == len(containing) == total
        # Each conditional total counts the transactions holding both items.
        expected = {i: sum(i in t for t in containing) for i in tree.items[:r]}
        expected = {i: n for i, n in expected.items() if n}
        assert (first[(item,)].item_total if (item,) in first else {}) == expected


def test_conditional_items_precede_conditioning_item():
    db = random_db(5)
    tree = build_fptree(db, 0.05)
    rank = {item: r for r, item in enumerate(tree.items)}
    built = check_forests(tree, 1)
    assert len(built) > len(tree.items) + 1
    for suffix, conditional in built.items():
        if suffix:
            assert all(rank[i] < rank[suffix[-1]] for i in conditional.item_total)
            # A conditional tree keeps its parent's item order.
            assert sorted(conditional.item_total, key=rank.__getitem__) == list(conditional.item_total)


@given(small_dbs(), st.sampled_from([0.01, 0.1, 0.3, 0.6, 1.0]))
@example(TransactionDb(((), ()), n_items=0), 0.01)  # no items
@example(TransactionDb(((0,), (), (0,)), n_items=1), 0.1)  # one item, an empty transaction
@example(TransactionDb(((0, 1), (1, 2), (0, 2)), n_items=3), 1.0)  # nothing frequent
@example(TransactionDb(((0, 1, 2), (0, 1), (1, 2)), n_items=3), 0.6)
def test_projection_matches_its_definition(db, min_support):
    check_forests(build_fptree(db, min_support), support_cutoff(min_support, db.n_transactions))


@given(small_dbs(), st.sampled_from([0.01, 0.1, 0.3]), st.sampled_from([1, 2, 3]))
@example(TransactionDb(((0, 1, 2, 3),) * 2, n_items=4), 0.5, 3)  # one path, four deep
def test_array_projections_match_their_definition(db, min_support, max_len):
    """Under max_len, the forests stop at the trees whose itemsets have max_len items."""
    check_forests(build_fptree(db, min_support), support_cutoff(min_support, db.n_transactions), max_len)


@pytest.mark.parametrize("seed", range(3))
def test_more_items_than_a_byte_ranks(seed):
    db, min_support = wide_db(seed), 0.002
    tree = build_fptree(db, min_support)
    assert len(tree.items) > 255
    check_tree(db, min_support, tree)
    check_forests(tree, support_cutoff(min_support, db.n_transactions))
    # Every itemset counted by enumerating each transaction's subsets.
    min_count = support_cutoff(min_support, db.n_transactions)
    counts = Counter(s for t in db.transactions for k in range(1, len(t) + 1) for s in combinations(t, k))
    expected = sorted(((s, c) for s, c in counts.items() if c >= min_count), key=lambda pair: itemset_sort_key(pair[0]))
    assert as_pairs(mine_fpgrowth(db, min_support)) == expected
    assert as_pairs(mine_fptree(tree, min_support, db.n_transactions)) == expected


def test_independent_of_the_counting_kernel():
    """The three-way check needs FP-Growth to count on its own route: it
    imports no counting kernel and never packs Apriori's bit columns."""
    imported = set()
    for node in ast.walk(ast.parse(Path(fpgrowth.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert imported and not any("_kernels" in name for name in imported)
    db = random_db(3)
    mine_fpgrowth(db, 0.1)
    mine_fptree(build_fptree(db, 0.1), 0.1, db.n_transactions)
    assert "matrix" not in vars(db)


def test_mine_fpgrowth_mines_the_tree_build_fptree_returns(d5_db):
    """The benchmark times build_fptree and mine_fptree as FP-Growth's two
    layers, so mine_fpgrowth must be exactly one call of each."""
    built = []

    def build(db, min_support):
        built.append(build_fptree(db, min_support))
        return built[-1]

    calls = mock.Mock()
    with mock.patch.object(fpgrowth, "build_fptree", wraps=build) as build_mock, \
            mock.patch.object(fpgrowth, "mine_fptree", wraps=mine_fptree) as mine_mock:
        calls.attach_mock(build_mock, "build_fptree")
        calls.attach_mock(mine_mock, "mine_fptree")
        result = mine_fpgrowth(d5_db, 0.6, 2)
    assert [name for name, _, _ in calls.mock_calls] == ["build_fptree", "mine_fptree"]
    assert build_mock.call_args == mock.call(d5_db, 0.6)
    (tree, *rest), _ = mine_mock.call_args
    assert tree is built[0] and rest == [0.6, d5_db.n_transactions, 2]
    assert result == mine_fptree(build_fptree(d5_db, 0.6), 0.6, d5_db.n_transactions, 2)


@given(small_dbs(), st.sampled_from([0.01, 0.1, 0.3, 0.6, 1.0]), st.sampled_from([None, 1, 2, 3]))
def test_matches_oracle(db, min_support, max_len):
    expected = [
        fs for fs in brute_force_frequent(db, min_support) if max_len is None or len(fs.items) <= max_len
    ]
    assert mine_fpgrowth(db, min_support, max_len) == expected


@pytest.mark.parametrize("seed", range(12))
def test_equivalence_with_apriori(seed):
    db = random_db(seed)
    for min_support in (0.05, 0.1, 0.25, 0.5):
        assert as_pairs(mine_fpgrowth(db, min_support)) == as_pairs(
            mine_apriori(db, MinerConfig(min_support))
        )


@pytest.mark.parametrize("seed", range(8))
def test_max_len_matches_oracle(seed):
    db = random_db(seed, max_items=10, max_transactions=200)
    oracle = as_pairs(brute_force_frequent(db, 0.1))
    for k in (1, 2, 3):
        expected = [pair for pair in oracle if len(pair[0]) <= k]
        assert as_pairs(mine_fpgrowth(db, 0.1, max_len=k)) == expected
