import ast
from collections import Counter
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from electmine import fpgrowth
from electmine.apriori import MinerConfig, mine_apriori
from electmine.fpgrowth import _conditional_trees, _tree, build_fptree, mine_fpgrowth, mine_fptree
from electmine.model import TransactionDb, itemset_sort_key, support_cutoff
from electmine.verify import brute_force_frequent

from conftest import random_db, small_dbs, wide_db


def as_pairs(frequent):
    return [(fs.items, fs.count) for fs in frequent]


def test_d5_header_totals(d5_db):
    tree = _tree(build_fptree(d5_db, 0.6))
    assert tree.item_total == {0: 4, 1: 4, 2: 4}
    for item, nodes in tree.header.items():
        assert sum(tree.count[n] for n in nodes) == tree.item_total[item]


def test_identical_transactions_share_one_path():
    db = TransactionDb(((0, 1),) * 4, n_items=2)
    tree = _tree(build_fptree(db, 0.5))
    # root -> 0 -> 1: one child under the root, one under it, both counted 4
    assert tree.parent == [-1, 0, 1]
    assert tree.item == [None, 0, 1]
    assert tree.count[1:] == [4, 4]


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
    tree = _tree(build_fptree(db, 0.05))
    assert len(tree.count) > 1
    for node in range(1, len(tree.count)):
        up = tree.parent[node]
        if up:
            assert tree.rank[tree.item[up]] < tree.rank[tree.item[node]]


def check_tree(db, min_support, array_tree):
    """array_tree, build_fptree(db, min_support), against its definition."""
    tree = _tree(array_tree)
    min_count = support_cutoff(min_support, db.n_transactions)
    totals = Counter(item for t in db.transactions for item in t)
    ranked = sorted((i for i, c in totals.items() if c >= min_count), key=lambda i: (-totals[i], i))
    assert list(tree.item_total.items()) == [(item, totals[item]) for item in ranked]
    rank = {item: r for r, item in enumerate(ranked)}
    assert tree.rank == rank

    # One node per distinct nonempty prefix of the rank-sorted, filtered
    # transactions, counted by the transactions that have that prefix.
    prefixes: Counter = Counter()
    for t in db.transactions:
        path = tuple(sorted((i for i in t if i in rank), key=rank.__getitem__))
        prefixes.update(path[:k] for k in range(1, len(path) + 1))
    nodes = range(1, len(tree.count))
    assert len(nodes) == len(prefixes)
    assert {node_path(tree, node): tree.count[node] for node in nodes} == prefixes

    for item, chain in tree.header.items():
        assert all(tree.item[node] == item for node in chain)
        assert chain == sorted(chain)
        assert sum(tree.count[node] for node in chain) == tree.item_total[item]
    assert sorted(node for chain in tree.header.values() for node in chain) == list(nodes)

    for node in nodes:
        up = tree.parent[node]
        assert up < node
        if up:
            assert rank[tree.item[up]] < rank[tree.item[node]]

    # The nested view, walked as the benchmark counts FP-tree nodes.
    walked, stack = 0, [array_tree.root]
    while stack:
        view = stack.pop()
        walked += len(view.children)
        stack.extend(view.children.values())
    assert walked == len(nodes)


@given(small_dbs(), st.sampled_from([0.01, 0.1, 0.3, 0.6, 1.0]))
def test_flat_tree_matches_its_definition(db, min_support):
    check_tree(db, min_support, build_fptree(db, min_support))


def test_conditional_base_reconstructs_totals():
    db = random_db(7)
    tree = _tree(build_fptree(db, 0.05))
    for item, total in tree.item_total.items():
        containing = [t for t in db.transactions if item in t]
        assert sum(tree.count[node] for node in tree.header[item]) == len(containing) == total
        # Each projected total counts the transactions holding both items.
        projected = tree.project(item, 1)
        earlier = [i for i in tree.item_total if tree.rank[i] < tree.rank[item]]
        expected = {i: sum(i in t for t in containing) for i in earlier}
        expected = {i: n for i, n in expected.items() if n}
        if projected is None:
            assert expected == {}
        else:
            assert projected.item_total == expected


def test_conditional_items_precede_conditioning_item():
    db = random_db(5)
    tree = _tree(build_fptree(db, 0.05))
    for item in tree.item_total:
        projected = tree.project(item, 1)
        if projected is None:
            continue
        assert all(tree.rank[i] < tree.rank[item] for i in projected.item_total)
        # The projection keeps the parent's item order.
        assert sorted(projected.item_total, key=tree.rank.__getitem__) == list(projected.item_total)


def check_projection(tree, item, min_count, projected):
    """projected, a conditional tree of item in tree, against its definition,
    computed from item's prefix paths walked up through `parent`."""
    paths = []
    for node in tree.header[item]:
        path, up = [], tree.parent[node]
        while up:
            path.append(tree.item[up])
            up = tree.parent[up]
        paths.append((path[::-1], tree.count[node]))
    totals: Counter = Counter()
    for path, weight in paths:
        for i in path:
            totals[i] += weight
    kept = [i for i in tree.item_total if totals[i] >= min_count]

    if not kept:
        assert projected is None
        return
    assert list(projected.item_total.items()) == [(i, totals[i]) for i in kept]
    assert projected.rank == {i: r for r, i in enumerate(kept)}

    # One node per distinct nonempty prefix of the filtered paths, counted by
    # the weights of the paths that have that prefix.
    prefixes: Counter = Counter()
    for path, weight in paths:
        filtered = tuple(i for i in path if i in projected.item_total)
        for k in range(1, len(filtered) + 1):
            prefixes[filtered[:k]] += weight
    nodes = range(1, len(projected.count))
    assert len(nodes) == len(prefixes)
    assert {node_path(projected, node): projected.count[node] for node in nodes} == prefixes

    for i, chain in projected.header.items():
        assert all(projected.item[node] == i for node in chain)
        assert chain == sorted(chain)
    assert sorted(node for chain in projected.header.values() for node in chain) == list(nodes)
    assert all(projected.parent[node] < node for node in nodes)
    # What the constructors' child lookup enforces: no two nodes share a parent and an item.
    assert len({(projected.parent[node], projected.item[node]) for node in nodes}) == len(nodes)


def node_path(tree, node):
    """The items from the root down to node."""
    path = []
    while node:
        path.append(tree.item[node])
        node = tree.parent[node]
    return tuple(reversed(path))


@given(small_dbs(), st.sampled_from([0.01, 0.1, 0.3, 0.6, 1.0]))
def test_projection_matches_its_definition(db, min_support):
    tree = _tree(build_fptree(db, min_support))
    min_count = support_cutoff(min_support, db.n_transactions)
    for item in tree.item_total:
        projected = tree.project(item, min_count)
        check_projection(tree, item, min_count, projected)
        if projected is not None:  # conditional trees are projected too
            for inner in projected.item_total:
                check_projection(projected, inner, min_count, projected.project(inner, min_count))


def check_array_projections(db, min_support, tree):
    """Every item's conditional tree built on the arrays of tree,
    build_fptree(db, min_support), against its definition."""
    min_count = support_cutoff(min_support, db.n_transactions)
    built = dict(_conditional_trees(tree, min_count))
    assert list(built) == [item for item in tree.items if item in built]
    lists = _tree(tree)
    for item in tree.items:
        check_projection(lists, item, min_count, built.get(item))


@given(small_dbs(), st.sampled_from([0.01, 0.1, 0.3, 0.6, 1.0]))
@example(TransactionDb(((), ()), n_items=0), 0.01)  # no items
@example(TransactionDb(((0,), (), (0,)), n_items=1), 0.1)  # one item, an empty transaction
@example(TransactionDb(((0, 1), (1, 2), (0, 2)), n_items=3), 1.0)  # nothing frequent
@example(TransactionDb(((0, 1, 2), (0, 1), (1, 2)), n_items=3), 0.6)
def test_array_projections_match_their_definition(db, min_support):
    check_array_projections(db, min_support, build_fptree(db, min_support))


@pytest.mark.parametrize("seed", range(3))
def test_more_items_than_a_byte_ranks(seed):
    db, min_support = wide_db(seed), 0.002
    tree = build_fptree(db, min_support)
    assert len(tree.items) > 255
    check_tree(db, min_support, tree)
    check_array_projections(db, min_support, tree)
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
