"""Frequent-itemset and association-rule mining for categorical survey data.

Two interchangeable miners (Apriori, FP-Growth), a brute-force verification
oracle, a rule generator with support/confidence/lift filtering and
equity/minority categorization, a schema-driven CSV ingestion pipeline, and
the `compare` report (rule counts, metric averages and wall time per miner).
"""

__version__ = "0.1.0"
