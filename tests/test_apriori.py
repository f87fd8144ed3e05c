from itertools import combinations

import pytest

from electmine.apriori import MinerConfig, count_support, generate_candidates, mine_apriori
from electmine.model import TransactionDb, support_cutoff
from electmine.verify import brute_force_frequent

from conftest import random_db


def as_pairs(frequent):
    return [(fs.items, fs.count) for fs in frequent]


def test_d5_at_point_six(d5_db):
    result = mine_apriori(d5_db, MinerConfig(0.6))
    assert as_pairs(result) == [
        ((0,), 4), ((1,), 4), ((2,), 4),
        ((0, 1), 3), ((0, 2), 3), ((1, 2), 3),
    ]
    for fs in result:
        assert fs.support == fs.count / 5


def test_d5_at_full_support(d5_db):
    assert mine_apriori(d5_db, MinerConfig(1.0)) == []


def test_single_transaction():
    db = TransactionDb(((0,),), n_items=1)
    result = mine_apriori(db, MinerConfig(1.0))
    assert as_pairs(result) == [((0,), 1)]


def test_empty_database_rejected():
    db = TransactionDb((), n_items=0)
    with pytest.raises(ValueError, match="empty transaction database"):
        mine_apriori(db, MinerConfig(0.5))


def test_max_itemset_len(d5_db):
    result = mine_apriori(d5_db, MinerConfig(0.6, max_itemset_len=1))
    assert all(len(fs.items) == 1 for fs in result)


def test_miner_config_validation():
    with pytest.raises(ValueError):
        MinerConfig(0.0)
    with pytest.raises(ValueError):
        MinerConfig(1.5)
    with pytest.raises(ValueError):
        MinerConfig(0.5, max_itemset_len=0)


def test_generate_candidates_pairs():
    assert generate_candidates([(0,), (1,), (2,)], 2) == [(0, 1), (0, 2), (1, 2)]


def test_generate_candidates_triple_kept():
    assert generate_candidates([(0, 1), (0, 2), (1, 2)], 3) == [(0, 1, 2)]


def test_generate_candidates_prune():
    # (0,1,2) joins from (0,1) and (0,2) but (1,2) is infrequent
    assert generate_candidates([(0, 1), (0, 2)], 3) == []


def test_generate_candidates_empty():
    assert generate_candidates([], 2) == []


def test_count_support_d5(d5_db):
    assert count_support([(0, 1, 2)], d5_db) == {(0, 1, 2): 2}
    assert count_support([], d5_db) == {}


def test_count_support_singleton():
    db = TransactionDb(((0,),), n_items=1)
    assert count_support([(0,)], db) == {(0,): 1}


def test_count_support_absent_candidate(d5_db):
    extra = TransactionDb(d5_db.transactions, n_items=4)
    assert count_support([(3,)], extra) == {(3,): 0}


@pytest.mark.parametrize("seed", range(10))
def test_oracle_equivalence(seed):
    db = random_db(seed)
    for min_support in (0.05, 0.25, 0.6):
        mined = as_pairs(mine_apriori(db, MinerConfig(min_support)))
        oracle = as_pairs(brute_force_frequent(db, min_support))
        assert mined == oracle


@pytest.mark.parametrize("seed", range(6))
def test_downward_closure(seed):
    from itertools import combinations

    db = random_db(seed)
    result = mine_apriori(db, MinerConfig(0.1))
    counts = {fs.items: fs.count for fs in result}
    for items, count in counts.items():
        for size in range(1, len(items)):
            for sub in combinations(items, size):
                assert sub in counts
                assert counts[sub] >= count


def test_threshold_monotonicity():
    db = random_db(3)
    previous = None
    for min_support in (0.05, 0.1, 0.25, 0.5, 1.0):
        current = {fs.items for fs in mine_apriori(db, MinerConfig(min_support))}
        if previous is not None:
            assert current <= previous
        previous = current


@pytest.mark.parametrize("seed", range(6))
def test_naive_generation_gives_same_result(seed):
    # Unpruned generation, every k-subset of the items frequent at level
    # k-1, finds the same frequent k-sets as join-and-prune: the extra
    # candidates are infrequent by downward closure and die in counting.
    db = random_db(seed, max_items=8, max_transactions=100)
    min_count = support_cutoff(0.1, db.n_transactions)
    levels: dict[int, list] = {}
    for fs in mine_apriori(db, MinerConfig(0.1)):
        levels.setdefault(len(fs.items), []).append(fs.items)
    for k in range(2, max(levels, default=1) + 2):
        items = sorted({i for s in levels.get(k - 1, []) for i in s})
        naive = list(combinations(items, k))
        counts = count_support(naive, db)
        assert [c for c in naive if counts[c] >= min_count] == levels.get(k, [])
