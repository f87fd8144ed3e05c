"""FP-Growth miner: prefix-tree compression plus conditional-tree recursion.

The root tree is built once from the transactions. Each item's conditional
tree (Han, Pei & Yin, SIGMOD 2000) is projected from its parent tree's node
ids, without copying the item's prefix paths, and is not built at all when
none of its items is frequent.

Produces exactly the same itemsets, counts, and output order as the Apriori
miner; the two are cross-checked against each other and against the
brute-force oracle in the verify module. It uses neither numpy nor the
counting kernel, so that check has an independent route.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import NamedTuple

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
    ids of the item's nodes in creation order (the flat layout of Borgelt,
    "An Implementation of the FP-growth Algorithm", OSDM 2005). ``item_total``,
    ``rank`` and ``header`` hold the tree's items in rank order. In the root
    tree (``build_fptree``) that is descending total count, ties broken by
    ascending item id; a projection (``project``) keeps its parent's order
    over the items it kept. Every root-to-node path lists items in strictly
    increasing rank, and every node's id is above its parent's. The lookup
    from (parent, rank) to child is a local of the two constructors, freed
    once the tree is built. ``root`` is a nested view for the benchmark's
    node count.
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


def build_fptree(db: TransactionDb, min_support: float) -> FPTree:
    """FP-tree over the database, items below the count cutoff discarded."""
    if db.n_transactions == 0:
        raise ValueError("empty transaction database")
    min_count = support_cutoff(min_support, db.n_transactions)
    totals = Counter(chain.from_iterable(db.transactions))
    ordered = sorted((i for i, c in totals.items() if c >= min_count), key=lambda i: (-totals[i], i))
    tree = FPTree({item: totals[item] for item in ordered})
    rank, stride, child = tree.rank, len(ordered), {}
    item_of, count, parent, header = tree.item, tree.count, tree.parent, tree.header
    for t in db.transactions:
        node = 0
        for r in sorted([r for r in map(rank.get, t) if r is not None]):
            key = node * stride + r
            next_node = child.get(key)
            if next_node is None:
                next_node = child[key] = len(count)
                item_of.append(ordered[r])
                count.append(1)
                parent.append(node)
                header[ordered[r]].append(next_node)
            else:
                count[next_node] += 1
            node = next_node
    return tree


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


def mine_fptree(tree: FPTree, min_support: float, n_transactions: int,
                max_len: int | None = None) -> list[FrequentItemset]:
    """Recursive conditional-tree mining, normalized to the miners' ordering.

    With max_len, the recursion stops at itemsets of that many items.
    Rejects the arguments the Apriori miner rejects (``MinerConfig``).
    """
    MinerConfig(min_support, max_len)
    min_count = support_cutoff(min_support, n_transactions)
    found: list[tuple[ItemSet, int]] = []
    _mine(tree, (), min_count, max_len, found)
    found.sort(key=lambda pair: itemset_sort_key(pair[0]))
    return [FrequentItemset(items, count, count / n_transactions) for items, count in found]


def mine_fpgrowth(db: TransactionDb, min_support: float,
                  max_len: int | None = None) -> list[FrequentItemset]:
    """Convenience wrapper: build the tree and mine it."""
    return mine_fptree(build_fptree(db, min_support), min_support, db.n_transactions, max_len)
