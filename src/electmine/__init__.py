"""Frequent-itemset and association-rule mining for categorical survey data.

Two interchangeable miners (Apriori, FP-Growth), a brute-force verification
oracle, a rule generator with support/confidence/lift filtering and
equity/minority categorization, a schema-driven CSV ingestion pipeline, and
an algorithm-comparison benchmark.
"""

__version__ = "0.1.0"
