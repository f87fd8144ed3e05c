"""Side-by-side algorithm comparison: rule counts, category counts, metric
averages, and wall time per miner on identical inputs.

With equal thresholds the two miners are semantically equivalent, so every
column except wall time must match; the report annotation spells this out so
nobody "fixes" the implementation to reproduce asymmetric published counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .model import ItemDictionary, TransactionDb
from .rules import EQUITY_TAG, MINORITY_TAG, CategoryConfig, Thresholds, categorize, generate_rules
from .verify import MINER_PAIR, MINERS

PARITY_NOTE = (
    "note: with equal thresholds the algorithms are exact equivalents; "
    "identical rule counts and averages are the expected outcome."
)


@dataclass(frozen=True)
class AlgorithmRow:
    algorithm: str
    total_rules: int = 0
    equity_rules: int = 0
    minority_rules: int = 0
    avg_support: float | None = None
    avg_confidence: float | None = None
    avg_lift: float | None = None
    wall_seconds: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[AlgorithmRow, ...]
    note: str = PARITY_NOTE


def compare(
    db: TransactionDb,
    dictionary: ItemDictionary,
    thresholds: Thresholds,
    category_config: CategoryConfig,
    algorithms: Sequence[str] = MINER_PAIR,
    max_itemset_len: int | None = None,
    repeat: int = 1,
) -> ComparisonReport:
    """Full mine -> rules -> categorize chain per algorithm on one input.

    Timing covers mining plus rule generation only (ingest is shared and
    excluded). With repeat > 1 the reported time is the minimum over runs.
    """
    if not algorithms:
        raise ValueError("at least one algorithm required")
    unknown = [a for a in algorithms if a not in MINER_PAIR]
    if unknown:
        raise ValueError(f"unknown algorithm: {unknown[0]}")
    rows = []
    for name in algorithms:
        miner = MINERS[name]
        try:
            times = []
            for _ in range(max(1, repeat)):
                start = time.perf_counter()
                frequent = miner(db, thresholds.min_support, max_itemset_len)
                plain = generate_rules(frequent, db, thresholds)
                times.append(time.perf_counter() - start)
            tagged = categorize(plain, dictionary, category_config)
            n = len(tagged)
            rows.append(
                AlgorithmRow(
                    algorithm=name,
                    total_rules=n,
                    equity_rules=sum(EQUITY_TAG in r.tags for r in tagged),
                    minority_rules=sum(MINORITY_TAG in r.tags for r in tagged),
                    avg_support=sum(r.support for r in tagged) / n if n else None,
                    avg_confidence=sum(r.confidence for r in tagged) / n if n else None,
                    avg_lift=sum(r.lift for r in tagged) / n if n else None,
                    wall_seconds=round(min(times), 3),
                )
            )
        except Exception as exc:  # keep going with the other algorithms
            rows.append(AlgorithmRow(algorithm=name, error=f"{type(exc).__name__}: {exc}"))
    return ComparisonReport(rows=tuple(rows))
