"""FP-Growth miner: prefix-tree compression plus conditional-tree recursion.

The prefix tree and its conditional trees are Han, Pei & Yin's (SIGMOD
2000). ``build_fptree`` returns the root tree as int32 arrays (``FPTree``),
``mine_fptree`` mines them, and ``mine_fpgrowth`` is the two in turn. Every
tree, the root tree and each conditional tree at every depth, is built by
one numpy trie (``_trie``): the paths are left-justified rows of item
ranks, and one column, that is one depth, at a time the distinct (parent,
rank) pairs become that depth's nodes.

The recursion runs breadth-first within each root item. A forest
(``_Forest``) holds every conditional tree of one search depth below one
root item as flat arrays, and one step (``_project``) builds the next
depth's forest from all of them at once: it walks every node up one depth
per numpy call, totals the weighted ranks it meets per (new tree, rank)
with ``bincount``, drops the ranks below the cutoff, left-justifies the
paths with a sort and hands them to ``_trie`` with one root per new tree.
Batching a depth's trees pays for numpy's per-call cost on the thousands of
small deep trees. One root item at a time keeps memory bounded: at 50k
survey rows, a prototype's traced allocation peaked at 221 MB with one
forest per depth across all root items, and at 13.5 MB one root item at a
time.

Produces exactly the same itemsets, counts, and output order as the Apriori
miner; the two are cross-checked against each other and against the
brute-force oracle in the verify module. So that check has an independent
route, this module never uses the counting kernel or ``db.matrix``, the
packed item columns Apriori counts on.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .model import FrequentItemset, MinerConfig, TransactionDb, itemset_sort_key, support_cutoff


class NodeView(NamedTuple):
    """One node of ``FPTree.root``'s nested view."""

    item: int | None
    count: int
    children: dict[int, "NodeView"]


class FPTree(NamedTuple):
    """A prefix tree held as int32 arrays over node ids, node 0 the root.

    ``items[r]`` is the item of rank r and ``totals[r]`` its total: the
    frequent items by descending total, ties broken by ascending item id.
    ``parent``, ``rank`` and ``count`` are per node. Every root-to-node path
    lists strictly increasing ranks, and nodes are numbered depth by depth,
    so every node's id is above its parent's. The root's ``parent`` is 0 and
    its ``rank`` is ``len(items)``, the padding rank, so a walk up stays at
    the root and reads no item there.
    """

    items: list[int]
    totals: list[int]
    parent: np.ndarray
    rank: np.ndarray
    count: np.ndarray

    @property
    def root(self) -> NodeView:
        """The nodes as a nested (item, count, children-by-item) view, built
        on each access; the benchmark's node count and the tests walk it."""
        item = [None, *np.array(self.items, np.int64)[self.rank[1:]].tolist()]
        views = [NodeView(i, c, {}) for i, c in zip(item, self.count.tolist())]
        for node, up in enumerate(self.parent[1:].tolist(), 1):
            views[up].children[item[node]] = views[node]
        return views[0]


class _Forest(NamedTuple):
    """Every conditional tree of one search depth below one root item.

    Tree t is the conditional tree of the itemset of root-tree ranks
    ``suffix[t]``, the root item first; ``totals[t, r]`` is the total of its
    item of root rank r, 0 for the ranks it does not hold. Ranks stay the
    root tree's, so every tree keeps its parent's item order, and the
    padding rank is the root item's. ``parent``, ``rank`` and ``count`` are
    per node, as in ``FPTree``: node t is tree t's root, its own parent, and
    every other node's id is above its parent's. A node's tree is the root
    a walk up from it reaches.
    """

    suffix: np.ndarray
    totals: np.ndarray
    parent: np.ndarray
    rank: np.ndarray
    count: np.ndarray


def _trie(paths: np.ndarray, weights: np.ndarray, n_ranks: int, tree: np.ndarray,
          n_trees: int) -> tuple[np.ndarray, ...]:
    """The (parent, rank, count) arrays of n_trees prefix trees, row i of
    paths a path of tree[i].

    Each row lists ascending ranks, left-justified and padded with n_ranks,
    and adds weights[row] to every node on its path. Nodes 0 to n_trees - 1
    are the roots, each its own parent, with the padding rank. One column,
    that is one depth, per step: the distinct ``parent * n_ranks + rank``
    keys of a column are its nodes, in key order, so every node's id is
    above its parent's and a depth's nodes follow the shallower ones.
    """
    rows = np.arange(len(paths))
    node = tree.astype(np.int64)  # each live row's node at the last depth
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


def build_fptree(db: TransactionDb, min_support: float) -> FPTree:
    """FP-tree over the database, items below the count cutoff discarded."""
    if db.n_transactions == 0:
        raise ValueError("empty transaction database")
    min_count = support_cutoff(min_support, db.n_transactions)
    lengths = np.fromiter(map(len, db.transactions), np.int32, db.n_transactions)
    flat = np.fromiter(chain.from_iterable(db.transactions), np.int32, int(lengths.sum()))
    totals = np.bincount(flat, minlength=db.n_items)
    by_count = np.argsort(-totals, kind="stable")  # ties by ascending item id
    ordered = by_count[totals[by_count] >= min_count]
    n_ranks = len(ordered)
    rank_of = np.full(db.n_items, n_ranks, np.int32)
    rank_of[ordered] = np.arange(n_ranks, dtype=np.int32)
    # Each transaction's ranks, filled one column at a time, then sorted within rows.
    starts = np.cumsum(lengths) - lengths
    paths = np.full((db.n_transactions, lengths.max()), n_ranks, np.int32)
    for j in range(paths.shape[1]):
        rows = np.flatnonzero(lengths > j)
        paths[rows, j] = rank_of[flat[starts[rows] + j]]
    del flat, starts
    paths.sort(axis=1)
    return FPTree(ordered.tolist(), totals[ordered].tolist(),
                  *_trie(paths, np.ones(db.n_transactions, np.int32), n_ranks,
                         np.zeros(db.n_transactions, np.int32), 1))


def _project(tree: FPTree | _Forest, n_roots: int, nodes: np.ndarray, pair: np.ndarray,
             suffix: np.ndarray, pad: int, min_count: int) -> _Forest:
    """The forest of the conditional trees of suffix's itemsets: the prefix
    paths of nodes, nodes of tree whose roots are its first n_roots nodes,
    each weighted by its node's count, a node of rank r in tree t bound for
    new tree pair[t, r].

    Every rank on those paths is below pad. A new tree keeps the ranks whose
    total reaches min_count, and a tree that keeps none is left out.
    """
    weights = tree.count[nodes]
    # One depth up per step; a row leaves the walk at its tree's root.
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
    n_trees = len(suffix)
    totals = np.zeros(n_trees * pad)
    for rows, ranks in steps:
        totals += np.bincount(new_tree[rows] * pad + ranks, weights[rows], n_trees * pad)
    totals = totals.reshape(n_trees, pad).astype(np.int64)
    totals[totals < min_count] = 0
    kept = totals > 0
    # Each path's kept ranks, walked in descending order, then sorted so
    # they come first in ascending order.
    paths = np.full((len(nodes), len(steps)), pad, np.int32)
    for j, (rows, ranks) in enumerate(steps):
        paths[rows, j] = np.where(kept[new_tree[rows], ranks], ranks, pad)
    del steps
    paths.sort(axis=1)
    # Rows of a tree left out keep no rank, so _trie never reads their tree.
    has_items = kept.any(axis=1)
    renumbered = np.cumsum(has_items) - 1
    return _Forest(suffix[has_items], totals[has_items],
                   *_trie(paths, weights, pad, renumbered[new_tree], int(has_items.sum())))


def _forests(tree: FPTree, min_count: int, max_len: int | None) -> Iterator[_Forest]:
    """The nonempty forests below each of tree's items, in rank order and
    depth by depth, down to the one whose itemsets have max_len items."""
    if max_len == 1:
        return
    for r in range(len(tree.items)):
        nodes = np.flatnonzero(tree.rank == r)
        forest = _project(tree, 1, nodes, np.zeros((1, r + 1), np.int32), np.array([[r]]), r, min_count)
        while len(forest.suffix):
            yield forest
            if forest.suffix.shape[1] + 1 == max_len:
                break
            # The conditional trees of each tree's items, numbered as np.nonzero lists them.
            kept = forest.totals > 0
            t, k = np.nonzero(kept)
            pair = np.cumsum(kept).reshape(kept.shape) - 1
            forest = _project(forest, len(forest.suffix), np.arange(len(forest.suffix), len(forest.rank)), pair,
                              np.column_stack([forest.suffix[t], k]), r, min_count)


def mine_fptree(tree: FPTree, min_support: float, n_transactions: int,
                max_len: int | None = None) -> list[FrequentItemset]:
    """Conditional-tree mining, normalized to the miners' ordering.

    Each forest's trees give the itemsets one item longer than their
    suffixes: a suffix plus each item the tree holds, counted by its total.
    With max_len, the search stops at itemsets of that many items. Rejects
    the arguments the Apriori miner rejects (``MinerConfig``).
    """
    MinerConfig(min_support, max_len)
    min_count = support_cutoff(min_support, n_transactions)
    found = [((item,), total) for item, total in zip(tree.items, tree.totals)]
    item_of = np.array(tree.items, np.int64)
    for forest in _forests(tree, min_count, max_len):
        t, k = np.nonzero(forest.totals)
        itemsets = np.sort(item_of[np.column_stack([forest.suffix[t], k])], axis=1)
        found += zip(map(tuple, itemsets.tolist()), forest.totals[t, k].tolist())
    found.sort(key=lambda pair: itemset_sort_key(pair[0]))
    return [FrequentItemset(items, count, count / n_transactions) for items, count in found]


def mine_fpgrowth(db: TransactionDb, min_support: float,
                  max_len: int | None = None) -> list[FrequentItemset]:
    """``mine_fptree`` over ``build_fptree``'s tree."""
    return mine_fptree(build_fptree(db, min_support), min_support, db.n_transactions, max_len)
