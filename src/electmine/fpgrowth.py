"""FP-Growth miner: prefix-tree compression plus conditional-pattern-base
recursion.

Produces exactly the same itemsets, counts, and output order as the Apriori
miner; the two are cross-checked against each other and against the
brute-force oracle in the verify module.
"""

from __future__ import annotations

from .model import FrequentItemset, ItemSet, TransactionDb, itemset_sort_key, support_cutoff


class FPNode:
    __slots__ = ("item", "count", "parent", "children")

    def __init__(self, item: int | None, count: int, parent: "FPNode | None"):
        self.item = item
        self.count = count
        self.parent = parent
        self.children: dict[int, FPNode] = {}


class FPTree:
    """Prefix tree with a header table of same-item node chains.

    Every root-to-node path lists items in strictly increasing rank, where
    rank orders items by descending total count, ties broken by ascending
    item id.
    """

    def __init__(self):
        self.root = FPNode(None, 0, None)
        self.header: dict[int, list[FPNode]] = {}
        self.item_total: dict[int, int] = {}
        self.rank: dict[int, int] = {}

    @classmethod
    def from_patterns(cls, patterns: list[tuple[list[int], int]], min_count: int) -> "FPTree":
        """Build from (item list, weight) pairs, dropping sub-threshold items."""
        totals: dict[int, int] = {}
        for items, weight in patterns:
            for item in items:
                totals[item] = totals.get(item, 0) + weight
        tree = cls()
        tree.item_total = {i: c for i, c in totals.items() if c >= min_count}
        ordered = sorted(tree.item_total, key=lambda i: (-tree.item_total[i], i))
        tree.rank = {item: r for r, item in enumerate(ordered)}
        for items, weight in patterns:
            surviving = sorted((i for i in items if i in tree.rank), key=tree.rank.__getitem__)
            tree._insert(surviving, weight)
        return tree

    def _insert(self, items: list[int], weight: int) -> None:
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = FPNode(item, 0, node)
                node.children[item] = child
                self.header.setdefault(item, []).append(child)
            child.count += weight
            node = child

    def prefix_paths(self, item: int) -> list[tuple[list[int], int]]:
        """Conditional pattern base: prefix path and weight per node of item."""
        paths = []
        for node in self.header.get(item, []):
            path: list[int] = []
            up = node.parent
            while up is not None and up.item is not None:
                path.append(up.item)
                up = up.parent
            path.reverse()
            paths.append((path, node.count))
        return paths


def build_fptree(db: TransactionDb, min_support: float) -> FPTree:
    """FP-tree over the database, items below the count cutoff discarded."""
    if db.n_transactions == 0:
        raise ValueError("empty transaction database")
    min_count = support_cutoff(min_support, db.n_transactions)
    patterns = [(list(t), 1) for t in db.transactions]
    return FPTree.from_patterns(patterns, min_count)


def _mine(tree: FPTree, suffix: ItemSet, min_count: int, max_len: int | None,
          out: list[tuple[ItemSet, int]]) -> None:
    for item in sorted(tree.item_total, key=tree.rank.__getitem__):
        count = tree.item_total[item]
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
