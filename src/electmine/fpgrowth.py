"""FP-Growth miner: prefix-tree compression plus conditional-tree recursion.

The prefix tree and its conditional trees are Han, Pei & Yin's (SIGMOD
2000). The root tree and the conditional trees of its own items are built
as numpy tries (``_trie``): the paths are left-justified rows of item
ranks, and one column, that is one depth, at a time the distinct
(parent, rank) pairs become that depth's nodes. Below those, each
conditional tree is projected in Python from its parent tree's node ids
(``FPTree.project``), without copying the item's prefix paths, and is not
built at all when none of its items is frequent: most of those trees are
small, where numpy's per-call cost would lose.

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

from .model import FrequentItemset, ItemSet, MinerConfig, TransactionDb, itemset_sort_key, support_cutoff


class NodeView(NamedTuple):
    """One node of ``FPTree.root``'s nested view."""

    item: int | None
    count: int
    children: dict[int, "NodeView"]


class FPTree:
    """Prefix tree with a header table of same-item node chains, held flat.

    Nodes are ids into the parallel lists ``item``, ``count`` and ``parent``;
    node 0 is the root (item None, parent -1), and ``header[item]`` lists the
    ids of the item's nodes in ascending order (the flat layout of Borgelt,
    "An Implementation of the FP-growth Algorithm", OSDM 2005). ``item_total``,
    ``rank`` and ``header`` hold the tree's items in rank order. In the root
    tree (``build_fptree``) that is descending total count, ties broken by
    ascending item id; a conditional tree keeps its parent's order over the
    items it kept. Every root-to-node path lists items in strictly increasing
    rank, and every node's id is above its parent's: the trees built from
    arrays number their nodes depth by depth, and ``project`` numbers them
    in the order it meets them. ``project``'s lookup from (parent, rank) to
    child is a local, freed once the tree is built. ``root`` is a nested view
    for the benchmark's node count.
    """

    def __init__(self, item_total: dict[int, int]):
        self.item_total = item_total
        self.rank = {item: r for r, item in enumerate(item_total)}
        self.item: list[int | None] = [None]
        self.count = [0]
        self.parent = [-1]
        self.header: dict[int, list[int]] = {item: [] for item in item_total}

    def project(self, item: int, min_count: int) -> "FPTree | None":
        """The conditional tree of item: its prefix paths, each weighted by
        its node's count, with items below min_count dropped; None when no
        item reaches min_count.

        Works on node ids, not path copies: the walks up from item's nodes
        stop at the first ancestor already reached, so each distinct
        ancestor is visited once. The projection keeps this tree's item
        order, so its paths are sorted without re-ranking.
        """
        item_of, count, parent = self.item, self.count, self.parent
        # Keys: every ancestor of item's nodes, the root included. After the
        # sweep below, weight[node] is the summed count of item's nodes under it.
        weight = {0: 0}
        for node in self.header[item]:
            up = parent[node]
            if up in weight:
                weight[up] += count[node]
                continue
            weight[up] = count[node]
            up = parent[up]
            while up not in weight:
                weight[up] = 0
                up = parent[up]
        # A node's id is above its parent's, so descending ids meet every
        # node after all of its children.
        nodes = sorted(weight, reverse=True)
        nodes.pop()  # the root
        totals = dict.fromkeys(self.item_total, 0)
        for node in nodes:
            w = weight[node]
            weight[parent[node]] += w
            totals[item_of[node]] += w
        kept = {i: c for i, c in totals.items() if c >= min_count}
        if not kept:
            return None

        tree = FPTree(kept)
        rank, stride, child, header = tree.rank, len(kept), {}, tree.header
        new_item, new_count, new_parent = tree.item, tree.count, tree.parent
        # mapped[node]: the projected node of node's nearest kept ancestor-or-self
        mapped = {0: 0}
        for node in reversed(nodes):
            up = mapped[parent[node]]
            r = rank.get(item_of[node])
            if r is None:
                mapped[node] = up
                continue
            key = up * stride + r
            projected = child.get(key)
            if projected is None:
                projected = child[key] = len(new_count)
                new_item.append(item_of[node])
                new_count.append(weight[node])
                new_parent.append(up)
                header[item_of[node]].append(projected)
            else:
                new_count[projected] += weight[node]
            mapped[node] = projected
        return tree

    @property
    def root(self) -> NodeView:
        """The nodes as a nested (item, count, children-by-item) view, built
        on each access; only the benchmark's node count reads it."""
        views = [NodeView(i, c, {}) for i, c in zip(self.item, self.count)]
        for node in range(1, len(views)):
            views[self.parent[node]].children[self.item[node]] = views[node]
        return views[0]


class _Trie(NamedTuple):
    """A prefix tree held as int32 arrays over node ids, node 0 the root.

    ``items[r]`` is the item of rank r and ``totals[r]`` its total. The
    root's ``parent`` is 0 and its ``rank`` is ``len(items)``, the padding
    rank, so a walk up stays at the root and reads no item there.
    """

    items: list[int]
    totals: list[int]
    parent: np.ndarray
    rank: np.ndarray
    count: np.ndarray


def _trie(paths: np.ndarray, weights: np.ndarray, n_ranks: int) -> tuple[np.ndarray, ...]:
    """The (parent, rank, count) arrays of the prefix tree of paths' rows.

    Each row lists ascending ranks, left-justified and padded with n_ranks,
    and adds weights[row] to every node on its path. One column, that is one
    depth, per step: the distinct ``parent * n_ranks + rank`` keys of a
    column are its nodes, in key order, so every node's id is above its
    parent's and a depth's nodes follow the shallower ones.
    """
    rows = np.arange(len(paths), dtype=np.int32)
    node = np.zeros(len(paths), np.int64)  # each live row's node at the last depth
    levels = [(np.zeros(1, np.int32), np.full(1, n_ranks, np.int32), np.zeros(1, np.int32))]
    n_nodes = 1
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


def _root_trie(db: TransactionDb, min_support: float) -> _Trie:
    """The FP-tree of ``build_fptree``, as arrays."""
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
    return _Trie(ordered.tolist(), totals[ordered].tolist(),
                 *_trie(paths, np.ones(db.n_transactions, np.int32), n_ranks))


def _tree(trie: _Trie) -> FPTree:
    """The list-backed FPTree of a trie, header chains in node-id order."""
    tree = FPTree(dict(zip(trie.items, trie.totals)))
    tree.item += np.array(trie.items, np.int64)[trie.rank[1:]].tolist()
    tree.count += trie.count[1:].tolist()
    tree.parent += trie.parent[1:].tolist()
    for r, item in enumerate(trie.items):
        tree.header[item] = np.flatnonzero(trie.rank == r).tolist()
    return tree


def _as_trie(tree: FPTree) -> _Trie:
    """The arrays of a list-backed FPTree."""
    parent = np.array(tree.parent, np.int32)
    parent[0] = 0
    rank = np.full(len(parent), len(tree.item_total), np.int32)
    for r, nodes in enumerate(tree.header.values()):
        rank[nodes] = r
    return _Trie(list(tree.item_total), list(tree.item_total.values()), parent, rank,
                 np.array(tree.count, np.int32))


def build_fptree(db: TransactionDb, min_support: float) -> FPTree:
    """FP-tree over the database, items below the count cutoff discarded."""
    return _tree(_root_trie(db, min_support))


def _conditional_trees(trie: _Trie, min_count: int) -> Iterator[tuple[int, FPTree]]:
    """(item, conditional tree) for each of the trie's items in rank order,
    skipping the items that have none: ``FPTree.project`` over arrays.

    Each of the item's nodes gives one path: its ancestors' ranks, read one
    depth per step up to the root, weighted by the node's count. The kept
    items keep the trie's order, and each path is re-ranked over them,
    sorted and left-justified before ``_trie`` builds the conditional tree.
    """
    items, parent, rank, count = trie.items, trie.parent, trie.rank, trie.count
    n_ranks = len(items)
    for r, item in enumerate(items):
        nodes = np.flatnonzero(rank == r)
        up, columns = parent[nodes], []
        while up.any():
            columns.append(rank[up])
            up = parent[up]
        if not columns:
            continue
        paths = np.stack(columns, axis=1)  # descending ranks, then padding
        weights = count[nodes]
        totals = np.bincount(paths.ravel(), np.repeat(weights, paths.shape[1]), n_ranks + 1)[:n_ranks]
        kept = np.flatnonzero(totals >= min_count)
        if not len(kept):
            continue
        re_rank = np.full(n_ranks + 1, len(kept), np.int32)
        re_rank[kept] = np.arange(len(kept), dtype=np.int32)
        paths = re_rank[paths]
        paths.sort(axis=1)
        yield item, _tree(_Trie([items[k] for k in kept], totals[kept].astype(np.int64).tolist(),
                                *_trie(paths, weights, len(kept))))


def _mine(tree: FPTree, suffix: ItemSet, min_count: int, max_len: int | None,
          out: list[tuple[ItemSet, int]]) -> None:
    for item, count in tree.item_total.items():
        itemset = tuple(sorted(suffix + (item,)))
        out.append((itemset, count))
        if max_len is not None and len(itemset) >= max_len:
            continue  # every conditional itemset would be longer
        conditional = tree.project(item, min_count)
        if conditional is not None:
            _mine(conditional, itemset, min_count, max_len, out)


def _mine_trie(trie: _Trie, min_support: float, n_transactions: int,
               max_len: int | None) -> list[FrequentItemset]:
    MinerConfig(min_support, max_len)
    min_count = support_cutoff(min_support, n_transactions)
    found = [((item,), total) for item, total in zip(trie.items, trie.totals)]
    if max_len is None or max_len > 1:
        for item, conditional in _conditional_trees(trie, min_count):
            _mine(conditional, (item,), min_count, max_len, found)
    found.sort(key=lambda pair: itemset_sort_key(pair[0]))
    return [FrequentItemset(items, count, count / n_transactions) for items, count in found]


def mine_fptree(tree: FPTree, min_support: float, n_transactions: int,
                max_len: int | None = None) -> list[FrequentItemset]:
    """Recursive conditional-tree mining, normalized to the miners' ordering.

    The tree's own items' conditional trees are built on arrays, and the
    recursion below them projects with ``FPTree.project``. With max_len,
    the recursion stops at itemsets of that many items. Rejects the
    arguments the Apriori miner rejects (``MinerConfig``).
    """
    return _mine_trie(_as_trie(tree), min_support, n_transactions, max_len)


def mine_fpgrowth(db: TransactionDb, min_support: float,
                  max_len: int | None = None) -> list[FrequentItemset]:
    """``mine_fptree(build_fptree(db, min_support), ...)``, without ever
    holding the root tree as lists."""
    return _mine_trie(_root_trie(db, min_support), min_support, db.n_transactions, max_len)
