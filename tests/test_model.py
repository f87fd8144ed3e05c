import math
import operator
import tracemalloc
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from electmine import cli
from electmine.apriori import generate_candidates
from electmine.fpgrowth import mine_fpgrowth
from electmine.model import (
    ConfigError,
    FrequentItemset,
    ItemDictionary,
    MinerConfig,
    TransactionDb,
    attribute_of,
    encode_rows,
    support_cutoff,
)
from electmine.rules import CategoryConfig, Thresholds
from electmine.verify import OracleLimits, brute_force_frequent

from conftest import D5_ROWS, small_dbs


def test_encode_single_attribute():
    d, db = encode_rows([{"q9": "No"}, {"q9": "No"}, {"q9": "Yes"}], ["q9"])
    assert d.labels == ("q9_No", "q9_Yes")
    assert db.transactions == ((0,), (0,), (1,))


def test_encode_empty():
    d, db = encode_rows([], ["q9"])
    assert d.labels == ()
    assert db.n_transactions == 0


def test_encode_d5(d5):
    d, db = d5
    assert db.n_items == 3
    assert db.transactions == ((0, 1, 2), (0, 1), (0, 2), (1, 2), (0, 1, 2))


def test_encode_rejects_unknown_attribute():
    with pytest.raises(ValueError, match="attribute_order"):
        encode_rows([{"q1": "x"}], ["q9"])


def test_decode_single():
    d = ItemDictionary(("q9_No",))
    assert d.label_of(0) == "q9_No"


def test_decode_d5(d5_dict):
    assert [d5_dict.label_of(i) for i in (0, 2)] == ["a_1", "c_1"]


def test_decode_empty():
    with pytest.raises(KeyError, match="0"):
        ItemDictionary(()).label_of(0)


def test_decode_unknown_id(d5_dict):
    with pytest.raises(KeyError, match="7"):
        d5_dict.label_of(7)


def test_dictionary_is_bijective(d5_dict):
    assert len(set(d5_dict.labels)) == len(d5_dict.labels)
    for i, label in enumerate(d5_dict.labels):
        assert d5_dict.label_of(i) == label


def test_transaction_validation():
    with pytest.raises(ValueError):
        TransactionDb(((0, 0),), n_items=2)
    with pytest.raises(ValueError):
        TransactionDb(((2, 1),), n_items=3)
    with pytest.raises(ValueError):
        TransactionDb(((0, 5),), n_items=3)
    # A negative id, an id equal to n_items, and a fault after empty rows.
    for rows, n_items, faulty in [(((0,), (-1, 1)), 2, 1), (((1, 2),), 2, 0),
                                  (((), (0,), (), (), (1, 1)), 2, 4)]:
        with pytest.raises(ValueError, match=f"^transaction {faulty} "):
            TransactionDb(rows, n_items=n_items)


def old_row_check(rows, n_items):
    """The first faulty row, or None: the per-row check TransactionDb made
    before it checked its flat array. Test-only reference."""
    for row, t in enumerate(rows):
        if not all(map(operator.lt, t, t[1:])) or (t and (t[0] < 0 or t[-1] >= n_items)):
            return row
    return None


@given(small_dbs())
def test_flat_layout_is_the_rows_concatenated(db):
    assert db.flat.tolist() == list(chain.from_iterable(db.transactions))
    assert db.lengths.tolist() == [len(t) for t in db.transactions]
    assert db.flat.dtype == np.min_scalar_type(max(0, db.n_items - 1)) and db.flat.dtype.kind == "u"
    assert db.lengths.dtype == np.intp
    # The arrays take no part in equality or the repr.
    assert db == TransactionDb(db.transactions, db.n_items) and "flat" not in repr(db)


random_rows = st.integers(0, 6).flatmap(lambda n_items: st.tuples(
    st.lists(st.one_of(st.lists(st.integers(-2, n_items + 1), max_size=4),
                       st.frozensets(st.integers(0, n_items), max_size=4).map(sorted)).map(tuple), max_size=8),
    st.just(n_items)))


@given(random_rows)
@example(([(0, 2), (1,)], 3))  # ids drop where a row starts: a boundary-blind check rejects it
@example(([(2,), (), (1,)], 3))  # the same across an empty row
@example(([(), ()], 0))
@example(([(), (), (0, 0)], 1))
def test_flat_check_matches_the_per_row_check(case):
    rows, n_items = case
    faulty = old_row_check(rows, n_items)
    if faulty is None:
        assert TransactionDb(tuple(rows), n_items).flat.tolist() == list(chain.from_iterable(rows))
    else:
        with pytest.raises(ValueError, match=f"^transaction {faulty} "):
            TransactionDb(tuple(rows), n_items)


@given(small_dbs())
def test_array_constructor_gives_the_same_database(db):
    # A database from its own arrays equals it and builds the same tuples,
    # one int object per item id.
    again = TransactionDb.from_arrays(db.flat, db.lengths, db.n_items)
    assert again == db and repr(again) == repr(db) and again.n_transactions == db.n_transactions
    assert again.transactions == db.transactions
    assert len({id(i) for t in again.transactions for i in t}) == len(set(again.flat.tolist()))


@given(random_rows)
@example(([(0, 2), (1,)], 3))
@example(([(2,), (), (1,)], 3))
@example(([(), (), (0, 0)], 1))
def test_array_constructor_checks_as_the_rows_do(case):
    rows, n_items = case
    faulty = old_row_check(rows, n_items)
    lengths = [len(t) for t in rows]
    ids = list(chain.from_iterable(rows))
    flats = [np.array(ids, np.int64)] + ([np.array(ids, np.uint8)] if min(ids, default=0) >= 0 else [])
    for flat in flats:
        if faulty is None:
            assert TransactionDb.from_arrays(flat, lengths, n_items) == TransactionDb(tuple(rows), n_items)
        else:
            with pytest.raises(ValueError, match=f"^transaction {faulty} is not sorted, duplicate-free and in "):
                TransactionDb.from_arrays(flat, lengths, n_items)


def test_array_check_needs_no_copy_of_the_ids():
    # 600,000 uint8 ids in 50,000 rows, about as ingest hands over the SPAE
    # input: the check's temporaries stay under 4 bytes an id.
    lengths = np.full(50_000, 12, np.intp)
    flat = np.tile(np.arange(0, 48, 4, dtype=np.uint8), 50_000)
    tracemalloc.start()
    try:
        db = TransactionDb.from_arrays(flat, lengths, 54)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert db.flat is flat and db.lengths is lengths
    assert peak <= 4 * len(flat)


@pytest.mark.parametrize("make", [
    lambda: MinerConfig(0.0),
    lambda: MinerConfig(0.5, 0),
    lambda: Thresholds(min_support=float("nan")),
    lambda: Thresholds(min_confidence=1.5),
    lambda: Thresholds(min_lift=float("inf")),
    lambda: OracleLimits(max_items=25),
    lambda: CategoryConfig(equity_attributes=frozenset()),
    lambda: CategoryConfig(minority_attribute=""),
    # the oracle's 2^n limit, which only the data can exceed
    lambda: brute_force_frequent(TransactionDb(((0, 1, 2),), n_items=3), 0.5, OracleLimits(max_items=2)),
], ids=["support", "max-len", "rule-support", "confidence", "lift", "oracle-items",
        "equity", "minority", "oracle-limit"])
def test_settings_raise_config_error(make):
    # ConfigError is the one class the CLI maps to exit 2.
    assert cli.ConfigError is ConfigError and issubclass(ConfigError, ValueError)
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize("make,message", [
    (lambda: ItemDictionary(("a1",)), "'a1' has no attribute prefix"),
    (lambda: ItemDictionary(("_1",)), "'_1' has no attribute prefix"),
    (lambda: ItemDictionary(("a_",)), "'a_' has an empty value"),
    (lambda: ItemDictionary(("a_1", "b_1", "a_1")), "duplicate item label 'a_1'"),
    (lambda: FrequentItemset((0,), 0, 0.0), "must occur at least once"),
    (lambda: generate_candidates([(0,), (1,)], 1), "starts at k=2"),
    (lambda: brute_force_frequent(TransactionDb((), n_items=2), 0.5), "empty transaction database"),
], ids=["label-prefix", "label-empty-prefix", "label-value", "label-twice", "count-zero", "k-below-2", "oracle-empty-db"])
def test_bad_values_raise_value_error(make, message):
    # A fault in the data, not a setting: the CLI maps it to exit 1, not 2.
    with pytest.raises(ValueError, match=message) as raised:
        make()
    assert not isinstance(raised.value, ConfigError)


@pytest.mark.parametrize("miner", [mine_fpgrowth, brute_force_frequent])
def test_packed_columns_built_only_for_the_kernel(miner):
    _, db = encode_rows(D5_ROWS, ["a", "b", "c"])
    assert len(miner(db, 0.4)) == 7
    assert "matrix" not in vars(db)
    assert db.matrix.shape == (3, 1) and "matrix" in vars(db)


def test_encoding_determinism():
    a = encode_rows(D5_ROWS, ["a", "b", "c"])
    b = encode_rows(D5_ROWS, ["a", "b", "c"])
    assert a[0].labels == b[0].labels
    assert a[1].transactions == b[1].transactions


row_strategy = st.dictionaries(
    keys=st.sampled_from(["q1", "q2", "q3", "q4"]),
    values=st.sampled_from(["yes", "no", "maybe"]),
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(row_strategy, max_size=20))
def test_decode_reencode_round_trip(rows):
    order = ["q1", "q2", "q3", "q4"]
    d, db = encode_rows(rows, order)
    for row, t in zip(rows, db.transactions):
        labels = [d.label_of(i) for i in t]
        assert sorted(labels) == sorted(f"{a}_{v}" for a, v in row.items())
        assert tuple(sorted(d.labels.index(label) for label in labels)) == t


@settings(max_examples=100, deadline=None)
@given(st.lists(row_strategy, max_size=20))
def test_per_attribute_exclusivity(rows):
    d, db = encode_rows(rows, ["q1", "q2", "q3", "q4"])
    for t in db.transactions:
        attrs = [attribute_of(d.label_of(i)) for i in t]
        assert len(attrs) == len(set(attrs))


@pytest.mark.parametrize(
    "min_support,n,expected",
    [
        (0.6, 5, 3),
        (1.0, 5, 5),
        (0.03, 10200, 306),
        (0.05, 20, 1),  # 0.05 * 20 is 1 despite the float image sitting just above
        (0.001, 5, 1),  # never below one occurrence
        (0.5, 3, 2),
        (0.1000000001, 10, 2),  # just above 1 occurrence: no slack rounds it down
    ],
)
def test_support_cutoff(min_support, n, expected):
    assert support_cutoff(min_support, n) == expected


@given(st.integers(0, 9), st.integers(1, 10**6), st.data())
def test_support_cutoff_matches_fraction_arithmetic(places, n, data):
    # min_support = k / 10**places, drawn so that k / 10**places * n lands on,
    # just below or just above a whole count
    step = 10**places
    whole = data.draw(st.integers(1, n))
    k = data.draw(st.integers(max(1, whole * step // n - 1), min(step, whole * step // n + 1)))
    min_support = Fraction(k, step)
    assert support_cutoff(float(min_support), n) == max(1, math.ceil(min_support * n))
