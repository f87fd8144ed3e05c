import pytest

from electmine.apriori import MinerConfig, mine_apriori
from electmine.fpgrowth import build_fptree, mine_fpgrowth, mine_fptree
from electmine.model import TransactionDb
from electmine.verify import brute_force_frequent, random_db


def as_pairs(frequent):
    return [(fs.items, fs.count) for fs in frequent]


def test_d5_header_totals(d5_db):
    tree = build_fptree(d5_db, 0.6)
    assert tree.item_total == {0: 4, 1: 4, 2: 4}
    for item, nodes in tree.header.items():
        assert sum(n.count for n in nodes) == tree.item_total[item]


def test_identical_transactions_share_one_path():
    db = TransactionDb(((0, 1),) * 4, n_items=2)
    tree = build_fptree(db, 0.5)
    assert len(tree.root.children) == 1
    first = next(iter(tree.root.children.values()))
    assert first.count == 4
    second = next(iter(first.children.values()))
    assert second.count == 4


def test_cutoff_above_everything_gives_root_only():
    db = TransactionDb(((0,), (1,)), n_items=2)
    tree = build_fptree(db, 1.0)
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
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for child in node.children.values():
            if node.item is not None:
                assert tree.rank[node.item] < tree.rank[child.item]
            stack.append(child)


def test_conditional_base_reconstructs_totals():
    db = random_db(7)
    tree = build_fptree(db, 0.05)
    for item, total in tree.item_total.items():
        assert sum(weight for _, weight in tree.prefix_paths(item)) == total


def test_conditional_items_precede_conditioning_item():
    db = random_db(5)
    tree = build_fptree(db, 0.05)
    for item in tree.item_total:
        for path, _ in tree.prefix_paths(item):
            assert all(tree.rank[p] < tree.rank[item] for p in path)


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
