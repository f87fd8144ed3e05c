"""FP-Growth miner: prefix-tree compression plus conditional-tree recursion.

The trees are Han, Pei & Yin's (SIGMOD 2000), held as arrays in forests
(``FPTree``); ``build_fptree`` returns the root tree, ``mine_fptree`` mines
it. Each node holds its root-to-node path as a bitmask of ranks, rank r
being bit r % 64 of word r // 64, one uint64 column per word of ranks.
One numpy trie (``_trie``) builds every tree from such paths. The recursion
runs breadth-first below runs of root items sized by their nodes: one forest
holds every conditional tree of one depth below one run, and one step
(``_project``) builds the next depth's forest from all of them at once, which
pays for numpy's per-call cost on thousands of small trees.

Produces exactly the same itemset table as the Apriori miner, and is
cross-checked against it and the brute-force oracle. So that
check has an independent route, this module never uses the counting kernel
or ``db.matrix``, the packed item columns Apriori counts on.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .model import ItemsetTable, MinerConfig, TransactionDb, support_cutoff

# Bit j of v, for the 4- and 8-bit digits v; the 8 and the 16 bits of v in reverse order.
_BITS = {b: np.unpackbits(np.arange(1 << b, dtype=np.uint8)[:, None], axis=1, bitorder="little")[:, :b].astype(float)
         for b in (4, 8)}
_REVERSED = np.packbits(_BITS[8].astype(np.uint8), axis=1).ravel()
_REVERSED = (_REVERSED.astype("<u2") << 8 | _REVERSED[:, None]).ravel()
NODE_BUDGET = 16_384  # root-tree nodes one step below the root tree projects, unless one item has more


class NodeView(NamedTuple):
    """One node of ``FPTree.root``'s nested view."""

    item: int | None
    count: int
    children: dict[int, "NodeView"]


class FPTree(NamedTuple):
    """A forest of prefix trees held as arrays over node ids.

    Tree t is the conditional tree of the itemset of ranks ``suffix[t]``,
    the root item first; the root tree is the forest of the empty suffix.
    ``items[r]`` is the item of rank r (descending total, ties by item id)
    in every tree; ``totals[t, r]`` is tree t's total of rank r, 0 if it
    holds none. Per node: int32 ``parent``, ``rank`` and ``count``, its
    ``tree``, and its root-to-node path, ``mask[n, w]`` the bits of ranks 64w
    to 64w + 63, one column per word below the padding rank
    ``totals.shape[1]`` (at least one). Node t is tree t's root, its own
    parent, with the padding rank and an empty path; other nodes' ids are
    above their parents'.
    """

    items: list[int]
    suffix: np.ndarray
    totals: np.ndarray
    parent: np.ndarray
    rank: np.ndarray
    count: np.ndarray
    tree: np.ndarray
    mask: np.ndarray

    @property
    def root(self) -> NodeView:
        """A one-tree forest as a nested (item, count, children-by-item) view,
        built on each access; the benchmark's node count and the tests walk it."""
        if len(self.suffix) != 1:
            raise ValueError(f"a forest of {len(self.suffix)} trees has no single root")
        item = [None, *np.array(self.items, np.int64)[self.rank[1:]].tolist()]
        views = [NodeView(i, c, {}) for i, c in zip(item, self.count.tolist())]
        for node, up in enumerate(self.parent[1:].tolist(), 1):
            views[up].children[item[node]] = views[node]
        return views[0]


def _trie(tree: np.ndarray, mask: np.ndarray, weights: np.ndarray,
          n_trees: int, pad: int) -> tuple[np.ndarray, ...]:
    """The (parent, rank, count, tree, mask) arrays of n_trees prefix trees,
    the roots first; row i of mask is a path of tree[i] adding weights[i] to
    each node on it. The rows are sorted once, by tree and then by path in
    lexicographic rank order, a path after the longer ones it begins. Then
    one depth per step each row's lowest remaining rank is peeled off, and a
    node starts wherever (parent, rank) differs from the row before: node
    ids follow np.unique's order of (parent, rank).
    """
    live = np.flatnonzero(mask.any(axis=1))  # an empty path adds no node
    tree, mask, weights = tree[live].astype(np.min_scalar_type(n_trees)), mask[live], weights[live]
    size, n_words = n_trees + int(np.bitwise_count(mask).sum()), mask.shape[1]
    if len(tree) > 1:
        # np.lexsort sorts by its last key first: the tree, then each word that holds ranks,
        # its bits reversed and inverted so that a row holding a lower rank sorts first.
        words = np.flatnonzero(mask.any(axis=0))
        quarters = np.ascontiguousarray(mask[:, words], "<u8").view("<u2").reshape(len(mask), -1, 4)[:, :, ::-1]
        keys = ~np.ascontiguousarray(_REVERSED[quarters]).view("<u8")[:, :, 0]
        order = np.lexsort([*keys.T[::-1], tree])
        tree, mask, weights = (np.take(a, order, axis=0) for a in (tree, mask, weights))
        # Ranks a row shares with the row before add no node; an equal row merges.
        same, shared = tree[1:] == tree[:-1], np.zeros(len(tree) - 1, np.int64)
        for w in words:
            differ = mask[1:, w] ^ mask[:-1, w]
            shared += np.where(same, np.bitwise_count(mask[1:, w] & ((differ & -differ) - 1)), 0)
            same &= differ == 0
        size -= int(shared.sum())
        del quarters, keys, order, shared
        first = np.flatnonzero(np.concatenate([[True], ~same]))
        weights = np.add.reduceat(weights, first, dtype=np.int32)
        tree, mask = tree[first], mask[first]
    out, trees = np.empty((3, size), np.int32), np.empty(size, tree.dtype)  # out: parent, rank, count
    paths = np.zeros((size, n_words), np.uint64)
    out[0, :n_trees], out[1:, :n_trees], trees[:n_trees] = np.arange(n_trees), [[pad], [0]], np.arange(n_trees)
    # Per live row: its index, node and weight, its word and that word's ranks left.
    row, node, at, n_nodes = np.arange(len(tree)), tree.astype(np.int32), (mask != 0).argmax(axis=1), n_trees
    bits, spans = mask[row, at], np.count_nonzero(mask) > len(mask)  # spans: some row holds ranks in two words
    if spans:  # ahead[i, w]: row i's first word from w on that holds ranks, n_words if none
        ahead = np.where(mask != 0, np.arange(n_words, dtype=np.min_scalar_type(n_words)), n_words)
        ahead = np.minimum.accumulate(ahead[:, ::-1], axis=1)[:, ::-1]
    while len(bits):
        low = bits & -bits
        ranks = at.astype(np.int32) * 64 + np.bitwise_count(low - 1)
        bits ^= low
        differs = np.ones(len(bits), bool)
        differs[1:] = (node[1:] != node[:-1]) | (ranks[1:] != ranks[:-1])
        first = np.flatnonzero(differs)
        up, new = node[first], slice(n_nodes, n_nodes + len(first))
        out[:, new] = up, ranks[first], np.add.reduceat(weights, first)
        trees[new] = trees[up]
        np.take(paths[:n_nodes], up, axis=0, out=paths[new], mode="clip")  # "raise" would buffer; none is clipped
        paths.ravel()[np.arange(new.start, new.stop) * n_words + at[first]] |= low[first]
        node = np.cumsum(differs, dtype=np.int32) + np.int32(n_nodes - 1)
        n_nodes += len(first)
        if spans:  # a row whose word is spent skips to its next word that holds ranks
            spent = np.flatnonzero((bits == 0) & (at < n_words - 1))
            spent = spent[ahead[row[spent], at[spent] + 1] < n_words]
            at[spent] = ahead[row[spent], at[spent] + 1]
            bits[spent] = mask[row[spent], at[spent]]
        live = np.flatnonzero(bits)
        row, node, weights, at, bits = row[live], node[live], weights[live], at[live], bits[live]
    return *out, trees, paths


def build_fptree(db: TransactionDb, min_support: float) -> FPTree:
    """FP-tree over the database, items below the count cutoff discarded."""
    if db.n_transactions == 0:
        raise ValueError("empty transaction database")
    min_count = support_cutoff(min_support, db.n_transactions)
    totals = np.bincount(db.flat, minlength=db.n_items)
    by_count = np.argsort(-totals, kind="stable")  # ties by ascending item id
    ordered = by_count[totals[by_count] >= min_count]
    n_ranks = len(ordered)
    rank_of = np.full(db.n_items, n_ranks, np.int32)
    rank_of[ordered] = np.arange(n_ranks, dtype=np.int32)
    # Each transaction's path, one item column at a time; a rank sets its bit in its word.
    mask, starts = np.zeros((db.n_transactions, max(1, -(-n_ranks // 64))), np.uint64), np.cumsum(db.lengths) - db.lengths
    for j in range(db.lengths.max()):
        rows = np.flatnonzero(db.lengths > j)
        ranks = rank_of[db.flat[starts[rows] + j]]
        rows, ranks = rows[ranks < n_ranks], ranks[ranks < n_ranks]
        mask.ravel()[rows * mask.shape[1] + (ranks >> 6)] |= np.uint64(1) << (ranks & 63).astype(np.uint64)
    return FPTree(ordered.tolist(), np.zeros((1, 0), np.int64), totals[None, ordered], *_trie(
        np.zeros(db.n_transactions, np.int32), mask, np.ones(db.n_transactions, np.int32), 1, n_ranks))


def _project(tree: FPTree, nodes: np.ndarray, pair: np.ndarray, suffix: np.ndarray,
             min_count: int, pad: int) -> FPTree:
    """The forest of the conditional trees of suffix's itemsets: the prefix
    paths of nodes, each weighted by its node's count, a node of rank r in
    tree t bound for new tree pair[t, r]. Every rank on them is below the
    padding rank pad. A new tree keeps the ranks whose total reaches
    min_count, and a tree that keeps none is left out.
    """
    n_trees = len(suffix)
    n_words = max(1, -(-pad // 64))
    # A prefix path is the parent's path, empty under a root; its ranks are below pad.
    nodes = nodes[tree.parent[nodes] >= len(tree.suffix)]
    kept = np.zeros((n_trees, 64 * n_words), bool)
    if len(nodes):
        mask = tree.mask[tree.parent[nodes], :n_words]
        new_tree, weights = pair[tree.tree[nodes], tree.rank[nodes]], tree.count[nodes]
        # Totals: per b-bit digit in use, a bincount over (tree, word, digit) of the words that
        # hold ranks and a bit table; bytes unless their bins outnumber those words plus a numpy
        # call's cost (about 8192 elements). Sums are exact and, like node counts, fit int32.
        held = np.flatnonzero(mask)
        row, words = held // n_words, mask.ravel()[held]
        b, totals = 8 if 256 * n_trees * n_words < len(row) + 8192 else 4, np.zeros((n_trees, 64 * n_words), np.int32)
        key, word_weights = (new_tree[row].astype(np.intp) * n_words + held % n_words) << b, weights[row]
        used = int(np.bitwise_or.reduce(words))
        for q in [q for q in range(0, 64, b) if used >> q & ((1 << b) - 1)]:
            sums = np.bincount(key + (words >> q & (1 << b) - 1).astype(np.intp), word_weights, n_trees * n_words << b)
            totals.reshape(-1, 64)[:, q:q + b] = sums.reshape(-1, 1 << b) @ _BITS[b]
        del held, row, words, key, word_weights  # before _trie's peak
        kept = totals >= min_count
    if not kept.any():
        return FPTree(tree.items, suffix[:0], np.zeros((0, pad), np.int64), *(a[:0] for a in tree[3:]))
    mask &= np.packbits(kept, axis=1, bitorder="little").view("<u8")[new_tree]
    has_items = kept.any(axis=1)
    return FPTree(tree.items, suffix[has_items], np.where(kept, totals, 0)[has_items, :pad].astype(np.int64),
                  *_trie((np.cumsum(has_items) - 1)[new_tree], mask, weights, int(has_items.sum()), pad))


def _forests(tree: FPTree, min_count: int, max_len: int | None) -> Iterator[FPTree]:
    """tree, then each nonempty forest below its items, depth by depth, down to
    the one whose itemsets have max_len items. Consecutive root items share a
    forest, padded at the largest one's rank, while their header-chain nodes
    number at most NODE_BUDGET and their trees times that rank at most 2**20."""
    yield tree
    if max_len == 1:
        return
    chains = np.argsort(tree.rank.astype(np.min_scalar_type(len(tree.items))), kind="stable")  # in id order
    bounds = [0, *np.cumsum(np.bincount(tree.rank)).tolist()]
    first, n_ranks = 0, len(tree.items)
    while first < n_ranks:
        end = first + 1  # the root items of ranks first to end - 1
        while (end < n_ranks and bounds[end + 1] - bounds[first] <= NODE_BUDGET
               and (end + 1 - first) * end <= 1 << 20):
            end += 1
        pair = np.arange(end, dtype=np.int32)[None] - first  # root item r's tree is r - first
        forest = _project(tree, chains[bounds[first]:bounds[end]], pair, np.arange(first, end)[:, None],
                          min_count, end - 1)
        first = end
        while len(forest.suffix):
            yield forest
            if forest.suffix.shape[1] + 1 == max_len:
                break
            # The conditional trees of each tree's items, numbered as np.nonzero lists them.
            kept = forest.totals > 0
            t, k = np.nonzero(kept)
            pair = np.cumsum(kept).reshape(kept.shape) - 1
            forest = _project(forest, np.arange(len(forest.suffix), len(forest.rank)), pair,
                              np.column_stack([forest.suffix[t], k]), min_count, forest.totals.shape[1])


def mine_fptree(tree: FPTree, min_support: float, n_transactions: int, max_len: int | None = None) -> ItemsetTable:
    """Conditional-tree mining: each tree gives its suffix plus each item it
    holds, counted by its total, up to max_len items; one table piece per
    forest. Rejects what the Apriori miner rejects (``MinerConfig``)."""
    MinerConfig(min_support, max_len)
    min_count = support_cutoff(min_support, n_transactions)
    found, item_of = [], np.array(tree.items, np.intp)
    for forest in _forests(tree, min_count, max_len):
        t, k = np.nonzero(forest.totals)
        found.append((np.sort(item_of[np.column_stack([forest.suffix[t], k])], axis=1), forest.totals[t, k]))
    return ItemsetTable(found)


def mine_fpgrowth(db: TransactionDb, min_support: float, max_len: int | None = None) -> ItemsetTable:
    """``mine_fptree`` over ``build_fptree``'s tree."""
    MinerConfig(min_support, max_len)  # before the tree is built
    return mine_fptree(build_fptree(db, min_support), min_support, db.n_transactions, max_len)
