import ast
from collections import Counter
from itertools import combinations
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from electmine import apriori, fpgrowth, rules
from electmine.apriori import MinerConfig, mine_apriori
from electmine.fpgrowth import build_fptree, mine_fpgrowth, mine_fptree
from electmine.model import TransactionDb, support_cutoff
from electmine.verify import brute_force_frequent

from conftest import random_db, reference_forests, small_dbs, wide_db


def as_pairs(frequent):
    return [(fs.items, fs.count) for fs in frequent]


class Lists(NamedTuple):
    """One tree's nodes as dicts, read off the arrays of a forest."""

    item_total: dict  # the tree's items in rank order, each with its total
    item: dict  # node -> item, every node but the root, in id order
    count: dict
    parent: dict
    root: int


def forest_lists(tree, forest):
    """Each tree of a forest below tree's items, keyed by its conditioning
    items, the root item first; the root tree, the forest of the empty
    suffix, is forest_lists(tree, tree)[()]."""
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


def check_paths(forest):
    """Each node's tree and path words against a walk up its parents: column
    w of its mask holds the ranks 64w to 64w + 63 on the walk, one column per
    word below the padding rank, at least one."""
    n_trees, parent, rank = len(forest.suffix), forest.parent.tolist(), forest.rank.tolist()
    n_words = max(1, -(-forest.totals.shape[1] // 64))
    assert forest.mask.shape == (len(parent), n_words)
    for node in range(len(parent)):
        words, up = [0] * n_words, node
        while up >= n_trees:
            words[rank[up] // 64] |= 1 << rank[up] % 64
            up = parent[up]
        assert forest.tree[node] == up
        assert forest.mask[node].tolist() == words


def check_tree(db, min_support, array_tree):
    """array_tree, build_fptree(db, min_support), against its definition."""
    min_count = support_cutoff(min_support, db.n_transactions)
    totals = Counter(item for t in db.transactions for item in t)
    order = sorted(totals, key=lambda i: (-totals[i], i))
    rank = {item: r for r, item in enumerate(order)}
    paths = [(tuple(sorted(t, key=rank.__getitem__)), 1) for t in db.transactions]
    tree = forest_lists(array_tree, array_tree)[()]
    check_definition(tree, paths, order, min_count)
    assert array_tree.rank[0] == len(array_tree.items) and array_tree.parent[0] == 0
    assert array_tree.suffix.shape == (1, 0) and array_tree.totals.shape == (1, len(array_tree.items))
    check_paths(array_tree)

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
    itemsets are at most max_len long is built, none longer. The first
    forest is tree itself, the root tree; every rank on a forest's paths is
    below its padding rank, however the forests group the trees."""
    built = {}
    for forest in fpgrowth._forests(tree, min_count, max_len):
        assert built or forest is tree
        n_trees, pad = len(forest.suffix), forest.totals.shape[1]
        assert built or pad == len(tree.items)
        assert (forest.rank[n_trees:] < pad).all()
        assert (forest.parent[:n_trees] == np.arange(n_trees)).all() and (forest.rank[:n_trees] == pad).all()
        assert (forest.parent[n_trees:] < np.arange(n_trees, len(forest.rank))).all()
        check_paths(forest)
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
    assert dict(zip(tree.items, tree.totals[0])) == {0: 4, 1: 4, 2: 4}
    for r, total in enumerate(tree.totals[0]):
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
    assert (tree.items, tree.totals.tolist(), tree.parent.tolist(), tree.rank.tolist(), tree.count.tolist()) == (
        [], [[]], [0], [0], [0])
    assert tree.root.children == {}
    assert len(mine_fptree(tree, 1.0, db.n_transactions)) == 0


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
    for r, (item, total) in enumerate(zip(tree.items, tree.totals[0])):
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


def subset_counts(db, min_count):
    """Every itemset at or above min_count, counted by enumerating each
    transaction's subsets, in the miners' order."""
    counts = Counter(s for t in db.transactions for k in range(1, len(t) + 1) for s in combinations(t, k))
    return sorted(((s, c) for s, c in counts.items() if c >= min_count), key=lambda pair: (len(pair[0]), pair[0]))


@pytest.mark.parametrize("seed", range(3))
def test_more_items_than_a_byte_ranks(seed):
    db, min_support = wide_db(seed), 0.002
    tree = build_fptree(db, min_support)
    assert len(tree.items) > 255
    check_tree(db, min_support, tree)
    check_forests(tree, support_cutoff(min_support, db.n_transactions))
    expected = subset_counts(db, support_cutoff(min_support, db.n_transactions))
    assert as_pairs(mine_fpgrowth(db, min_support)) == expected
    assert as_pairs(mine_fptree(tree, min_support, db.n_transactions)) == expected


ARRAYS = ("suffix", "totals", "parent", "rank", "count")


def trees_by_suffix(forests):
    """Every tree of the forests, keyed by its suffix: its nonzero totals by
    rank and its nodes in id order, the root first, as parents numbered
    within the tree, ranks (the root's padding rank left out) and counts.
    Forests may group the trees in any way; a suffix is built once."""
    out = {}
    for forest in forests:
        n_trees = len(forest.suffix)
        tree_of = list(range(n_trees))  # each node's tree: the root a walk up reaches
        for up in forest.parent[n_trees:].tolist():
            tree_of.append(tree_of[up])
        tree_of = np.array(tree_of)
        for t, suffix in enumerate(map(tuple, forest.suffix.tolist())):
            nodes = np.flatnonzero(tree_of == t)
            assert suffix not in out
            out[suffix] = ({r: int(forest.totals[t, r]) for r in np.flatnonzero(forest.totals[t]).tolist()},
                           np.searchsorted(nodes, forest.parent[nodes]).tolist(),
                           forest.rank[nodes[1:]].tolist(), forest.count[nodes].tolist())
    return out


def check_against_the_walk(db, min_support, max_len=None):
    """_forests against reference_forests, which builds one root item's
    trees at a time: the root tree array for array, and every conditional
    tree, keyed by its suffix, node for node in the same relative order."""
    tree = build_fptree(db, min_support)
    forests = list(fpgrowth._forests(tree, support_cutoff(min_support, db.n_transactions), max_len))
    reference = list(reference_forests(db, min_support, max_len))
    for name in ARRAYS:
        assert np.array_equal(getattr(forests[0], name), getattr(reference[0], name)), name
        assert {getattr(f, name).dtype for f in forests} == {getattr(f, name).dtype for f in reference}, name
    assert all(forest.items == tree.items for forest in forests + reference)
    assert trees_by_suffix(forests) == trees_by_suffix(reference)
    return tree


@pytest.mark.parametrize("budget", ["one", "a third"])
def test_node_budget_changes_only_the_grouping(budget):
    """At any node budget the forests hold the same trees and mine the same
    list. At a budget of 1 each root item has its forest, as in the walk,
    so every forest matches it array for array."""
    db, min_support = wide_db(0), 0.002
    min_count = support_cutoff(min_support, db.n_transactions)
    tree = build_fptree(db, min_support)
    expected = as_pairs(mine_fptree(tree, min_support, db.n_transactions))
    limit = 1 if budget == "one" else len(tree.rank) // 3
    with mock.patch.object(fpgrowth, "NODE_BUDGET", limit):
        forests = list(fpgrowth._forests(tree, min_count, None))
        assert as_pairs(mine_fptree(tree, min_support, db.n_transactions)) == expected
    reference = list(reference_forests(db, min_support))
    assert trees_by_suffix(forests) == trees_by_suffix(reference)
    if budget == "one":
        assert len(forests) == len(reference)
        for forest, walked in zip(forests, reference):
            for name in ARRAYS:
                assert np.array_equal(getattr(forest, name), getattr(walked, name)), name
    else:  # the budget splits the root items partway
        first_depth = [f for f in forests if f.suffix.shape[1] == 1]
        assert 1 < len(first_depth) < len(tree.items) / 10


@given(small_dbs(), st.sampled_from([0.01, 0.1, 0.3, 0.6, 1.0]), st.sampled_from([None, 1, 2, 3]))
@example(TransactionDb(((0, 1), (), (0, 1, 2), ()), n_items=3), 0.25, None)  # empty transactions
@example(TransactionDb(((0, 1), (1, 2), (0, 2)), n_items=3), 1.0, None)  # nothing frequent
def test_forests_match_the_walk(db, min_support, max_len):
    """Node paths read off the masks build the same trees, nodes in the
    same order, as walking every node up its parents did."""
    check_against_the_walk(db, min_support, max_len)


# 140 items and the rows (0, 130) and (1, 70, 135); singleton rows, one of item i
# for each of the bounds 70, 130, 135 and 140 above i, rank every item at its own
# id. So the path of (0, 130) has ranks in words 0 and 2 and none in word 1.
SKIPS_A_WORD = TransactionDb(((0, 130), (1, 70, 135), *((i,) for n in (70, 130, 135, 140) for i in range(n))),
                             n_items=140)


@pytest.mark.parametrize("db", [
    *(pytest.param(wide_db(0, n_items=n_ranks, n_transactions=400), id=str(n_ranks)) for n_ranks in (63, 64, 65, 128, 129)),
    pytest.param(SKIPS_A_WORD, id="skips-a-word"),
])
def test_forests_match_the_walk_at_mask_word_boundaries(db):
    min_support = 0.002  # a count cutoff of 1 on 400 and on 477 rows
    tree = check_against_the_walk(db, min_support)
    assert len(tree.items) == db.n_items and tree.mask.shape[1] == -(-db.n_items // 64)
    if db is SKIPS_A_WORD:  # the node of 130 under 0, at ranks 0 and 130
        skips = (tree.mask[:, 0] != 0) & (tree.mask[:, 1] == 0) & (tree.mask[:, 2] != 0)
        assert tree.mask[skips].tolist() == [[1, 0, 1 << 2]]
    check_tree(db, min_support, tree)
    check_forests(tree, 1)
    assert as_pairs(mine_fpgrowth(db, min_support)) == subset_counts(db, 1) == as_pairs(
        mine_apriori(db, MinerConfig(min_support)))


def test_root_view_needs_a_single_tree():
    db = random_db(5)
    tree = build_fptree(db, 1 / db.n_transactions)
    forest = next(f for f in fpgrowth._forests(tree, 1, None) if len(f.suffix) > 1)
    with pytest.raises(ValueError, match="has no single root"):
        forest.root
    assert tree.root.children


def imported_and_called(module) -> tuple[set[str], set[str]]:
    """The names a module's source imports (modules and their names) and the
    dotted names it calls, such as "np.searchsorted"."""
    imported, called = set(), set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call):
            called.add(ast.unparse(node.func))
    return imported, called


def test_independent_of_the_counting_kernel():
    """The three-way check needs FP-Growth to count on its own route: it
    imports no counting kernel and never packs Apriori's bit columns."""
    imported, _ = imported_and_called(fpgrowth)
    assert imported and not any("_kernels" in name for name in imported)
    db = random_db(3)
    mine_fpgrowth(db, 0.1)
    mine_fptree(build_fptree(db, 0.1), 0.1, db.n_transactions)
    assert "matrix" not in vars(db)


def test_one_itemset_lookup():
    """Itemset rows are looked up one way, model.find_rows: the Apriori
    prune and the rule splits search no sorted keys of their own, and the
    rule stage never builds a row key."""
    for module in (apriori, rules):
        imported, called = imported_and_called(module)
        assert not {name for name in called if name.endswith("searchsorted")}, module.__name__
        assert "find_rows" in imported or "counts_of" in {name.rpartition(".")[2] for name in called}
    assert "row_keys" not in imported_and_called(rules)[0]


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
    assert list(result) == list(mine_fptree(build_fptree(d5_db, 0.6), 0.6, d5_db.n_transactions, 2))


@given(small_dbs(), st.sampled_from([0.01, 0.1, 0.3, 0.6, 1.0]), st.sampled_from([None, 1, 2, 3]))
def test_matches_oracle(db, min_support, max_len):
    expected = [
        fs for fs in brute_force_frequent(db, min_support) if max_len is None or len(fs.items) <= max_len
    ]
    assert list(mine_fpgrowth(db, min_support, max_len)) == expected


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
