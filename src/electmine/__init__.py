"""Frequent-itemset and association-rule mining for categorical survey data.

Two interchangeable miners (Apriori, FP-Growth), a brute-force verification
oracle, a rule generator with support/confidence/lift filtering and
equity/minority categorization, a schema-driven CSV ingestion pipeline, and
an algorithm-comparison benchmark.
"""

from .apriori import MinerConfig, generate_candidates, mine_apriori
from .bench import ComparisonReport, compare
from .fpgrowth import FPTree, build_fptree, mine_fpgrowth, mine_fptree
from .model import (
    FrequentItemset,
    ItemDictionary,
    TransactionDb,
    decode_itemset,
    encode_rows,
    support_cutoff,
)
from .rules import (
    AssociationRule,
    CategoryConfig,
    Thresholds,
    categorize,
    generate_rules,
    rule_metrics,
)
from .verify import OracleLimits, brute_force_frequent, brute_force_rules, check_equivalence

__all__ = [
    "AssociationRule",
    "CategoryConfig",
    "ComparisonReport",
    "FPTree",
    "FrequentItemset",
    "ItemDictionary",
    "MinerConfig",
    "OracleLimits",
    "Thresholds",
    "TransactionDb",
    "brute_force_frequent",
    "brute_force_rules",
    "build_fptree",
    "categorize",
    "check_equivalence",
    "compare",
    "decode_itemset",
    "encode_rows",
    "generate_candidates",
    "generate_rules",
    "mine_apriori",
    "mine_fpgrowth",
    "mine_fptree",
    "rule_metrics",
    "support_cutoff",
]

__version__ = "0.1.0"
