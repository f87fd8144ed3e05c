"""FP-Growth miner: prefix-tree compression plus conditional-pattern-base
recursion.

Produces exactly the same itemsets, counts, and output order as the Apriori
miner; the two are cross-checked against each other and against the
brute-force oracle in the verify module.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .model import FrequentItemset, ItemSet, TransactionDb, itemset_sort_key, support_cutoff


class NodeView(NamedTuple):
    """One node of ``FPTree.root``'s nested view."""

    item: int | None
    count: int
    children: dict[int, "NodeView"]


class FPTree:
    """Prefix tree with a header table of same-item node chains, held flat.

    Nodes are ids into the parallel lists ``item``, ``count`` and ``parent``;
    node 0 is the root (item None, parent -1). ``child`` maps
    ``parent * len(item_total) + rank`` to the child holding the item of that
    rank, and ``header[item]`` lists the ids of the item's nodes in creation
    order (the flat layout of Borgelt, "An Implementation of the FP-growth
    Algorithm", OSDM 2005). ``item_total``, ``rank`` and ``header`` hold the
    tree's items in rank order: descending total count, ties broken by
    ascending item id. Every root-to-node path lists items in strictly
    increasing rank. ``root`` is a nested view for the benchmark's node count.
    """

    def __init__(self, item_total: dict[int, int]):
        self.item_total = item_total
        self.rank = {item: r for r, item in enumerate(item_total)}
        self.item: list[int | None] = [None]
        self.count = [0]
        self.parent = [-1]
        self.child: dict[int, int] = {}
        self.header: dict[int, list[int]] = {item: [] for item in item_total}

    @classmethod
    def from_patterns(cls, patterns: Sequence[tuple[Iterable[int], int]], min_count: int) -> "FPTree":
        """Build from (items, weight) pairs, dropping sub-threshold items."""
        totals: dict[int, int] = {}
        for items, weight in patterns:
            for item in items:
                totals[item] = totals.get(item, 0) + weight
        ordered = sorted((i for i, c in totals.items() if c >= min_count), key=lambda i: (-totals[i], i))
        tree = cls({item: totals[item] for item in ordered})
        rank, stride, child = tree.rank, len(ordered), tree.child
        item_of, count, parent, header = tree.item, tree.count, tree.parent, tree.header
        for items, weight in patterns:
            node = 0
            for r in sorted([r for r in map(rank.get, items) if r is not None]):
                key = node * stride + r
                next_node = child.get(key)
                if next_node is None:
                    next_node = child[key] = len(count)
                    item_of.append(ordered[r])
                    count.append(weight)
                    parent.append(node)
                    header[ordered[r]].append(next_node)
                else:
                    count[next_node] += weight
                node = next_node
        return tree

    def prefix_paths(self, item: int) -> list[tuple[list[int], int]]:
        """Conditional pattern base: prefix path and weight per node of item."""
        item_of, parent = self.item, self.parent
        paths = []
        for node in self.header.get(item, ()):
            path: list[int] = []
            up = parent[node]
            while up:
                path.append(item_of[up])
                up = parent[up]
            path.reverse()
            paths.append((path, self.count[node]))
        return paths

    @property
    def root(self) -> NodeView:
        """The nodes as a nested (item, count, children-by-item) view, built
        on each access; only the benchmark's node count reads it."""
        views = [NodeView(i, c, {}) for i, c in zip(self.item, self.count)]
        for node in range(1, len(views)):
            views[self.parent[node]].children[self.item[node]] = views[node]
        return views[0]


def build_fptree(db: TransactionDb, min_support: float) -> FPTree:
    """FP-tree over the database, items below the count cutoff discarded."""
    if db.n_transactions == 0:
        raise ValueError("empty transaction database")
    min_count = support_cutoff(min_support, db.n_transactions)
    return FPTree.from_patterns([(t, 1) for t in db.transactions], min_count)


def _mine(tree: FPTree, suffix: ItemSet, min_count: int, max_len: int | None,
          out: list[tuple[ItemSet, int]]) -> None:
    for item, count in tree.item_total.items():
        itemset = tuple(sorted(suffix + (item,)))
        out.append((itemset, count))
        if max_len is not None and len(itemset) >= max_len:
            continue  # every conditional itemset would be longer
        conditional = FPTree.from_patterns(tree.prefix_paths(item), min_count)
        if conditional.item_total:
            _mine(conditional, itemset, min_count, max_len, out)


def mine_fptree(tree: FPTree, min_support: float, n_transactions: int,
                max_len: int | None = None) -> list[FrequentItemset]:
    """Recursive conditional-tree mining, normalized to the miners' ordering.

    With max_len, the recursion stops at itemsets of that many items.
    """
    min_count = support_cutoff(min_support, n_transactions)
    found: list[tuple[ItemSet, int]] = []
    _mine(tree, (), min_count, max_len, found)
    found.sort(key=lambda pair: itemset_sort_key(pair[0]))
    return [FrequentItemset(items, count, count / n_transactions) for items, count in found]


def mine_fpgrowth(db: TransactionDb, min_support: float,
                  max_len: int | None = None) -> list[FrequentItemset]:
    """Convenience wrapper: build the tree and mine it."""
    return mine_fptree(build_fptree(db, min_support), min_support, db.n_transactions, max_len)
