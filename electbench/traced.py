"""Traced electmine run: the CLI's layer calls, each wrapped in a span.

Run as a child of ``run.py`` with the same arguments the ``electmine`` CLI
gets. It makes the public layer calls in the order ``electmine.cli`` makes
them (pass "cli"), writes the same bytes the CLI would write to stdout, and
then replays the composite calls through their public parts (pass
"replay"): ``mine_apriori`` level by level as ``generate_candidates`` then
``count_support``, ``mine_fpgrowth`` as ``build_fptree`` then
``mine_fptree``, and ``check_equivalence`` as ``mine_apriori``,
``mine_fpgrowth``, ``brute_force_frequent``, ``generate_rules`` and
``brute_force_rules``. A replayed span's parent is the span whose work it
repeats, so that span's self time is what its parts do not explain. No
module internals are patched.

Spans (name, start, end, parent, run) and exact counters are kept in memory
and written as one JSON document to ``--trace-out`` at the end. Times are
``time.perf_counter()`` readings, the system monotonic clock, so the parent
can compare them with its own spawn and exit times.

Usage: python3 electbench/traced.py --trace-out FILE -- <electmine CLI args>
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager

from electmine import cli, ingest
from electmine.apriori import MinerConfig, count_support, generate_candidates, mine_apriori
from electmine.fpgrowth import build_fptree, mine_fpgrowth, mine_fptree
from electmine.model import encode_rows, support_cutoff
from electmine.rules import CategoryConfig, categorize, generate_rules, rule_record
from electmine.verify import (
    OracleLimits,
    brute_force_frequent,
    brute_force_rules,
    check_equivalence,
)

CLI, REPLAY = "cli", "replay"


class ReplayMismatch(Exception):
    """A replayed call disagreed with the call it repeats."""


class Trace:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}

    @contextmanager
    def span(self, name: str, run: str = CLI, parent: int | None = None, **attrs):
        record = {"id": len(self.spans), "name": name, "run": run, "parent": parent,
                  "attrs": attrs, "start": time.perf_counter()}
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()
            # ru_maxrss is the process's resident high-water mark, in KiB.
            record["rss_hwm_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def _itemsets(frequent) -> set:
    return {(fs.items, fs.count) for fs in frequent}


def replay_apriori(tr: Trace, parent: int, db, min_support: float, frequent) -> None:
    """mine_apriori's level loop, repeated through its public calls."""
    min_count = support_cutoff(min_support, db.n_transactions)
    by_level: dict[int, set] = {}
    for fs in frequent:
        by_level.setdefault(len(fs.items), set()).add(fs.items)
    level = sorted(by_level.get(1, ()))
    k = 2
    while level:
        with tr.span("apriori.generate_candidates", REPLAY, parent, k=k):
            candidates = generate_candidates(level, k)
        with tr.span("apriori.count_support", REPLAY, parent, k=k):
            counts = count_support(candidates, db)
        level = [c for c in candidates if counts[c] >= min_count]
        if set(level) != by_level.get(k, set()):
            raise ReplayMismatch(f"apriori level {k} differs from mine_apriori")
        tr.count(f"apriori.candidates.k{k}", len(candidates))
        tr.count("apriori.candidates", len(candidates))
        tr.count("apriori.frequent", len(level))
        tr.count("apriori.candidate_rows", len(candidates) * db.n_transactions)
        k += 1


def _tree_nodes(tree) -> int:
    nodes, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        nodes += len(node.children)
        stack.extend(node.children.values())
    return nodes


def replay_fpgrowth(tr: Trace, parent: int, db, min_support: float, frequent) -> None:
    with tr.span("fpgrowth.build_fptree", REPLAY, parent):
        tree = build_fptree(db, min_support)
    with tr.span("fpgrowth.mine_fptree", REPLAY, parent):
        mined = mine_fptree(tree, min_support, db.n_transactions)
    if _itemsets(mined) != _itemsets(frequent):
        raise ReplayMismatch("build_fptree + mine_fptree differ from mine_fpgrowth")
    tr.count("fpgrowth.tree_nodes", _tree_nodes(tree))
    tr.count("fpgrowth.itemsets", len(mined))


def count_splits(tr: Trace, frequent, n: int, min_support: float) -> None:
    """Rule splits generate_rules evaluates: 2^k - 2 per frequent k-itemset."""
    min_count = support_cutoff(min_support, n)
    tr.count("rules.splits_evaluated", sum(
        2 ** len(fs.items) - 2 for fs in frequent if len(fs.items) >= 2 and fs.count >= min_count
    ))


def load(tr: Trace, args):
    """cli._load_pipeline's calls, one span each."""
    with tr.span("ingest.load_schema"):
        schema = ingest.load_schema(args.schema)
    with tr.span("ingest.load_csv"):
        loaded = ingest.load_csv(args.input, schema)
    with tr.span("ingest.clean"):
        rows, report = ingest.clean(loaded.rows, schema, schema.consistency_rules)
    keep = schema.keep or tuple(c.name for c in schema.columns if c.kind != ingest.DROP)
    with tr.span("ingest.select_features"):
        rows = ingest.select_features(rows, keep, schema)
    with tr.span("model.encode_rows"):
        dictionary, db = encode_rows(rows, keep)
    tr.count("ingest.rows_read", len(loaded.rows))
    tr.count("ingest.cells_blanked", sum(report.blanked_cells.values()))
    tr.count("ingest.rows_dropped", sum(report.rows_dropped.values()))
    tr.count("ingest.out_of_range", sum(report.out_of_range.values()))
    tr.count("model.items", db.n_items)
    tr.count("model.transactions", db.n_transactions)
    tr.count("model.matrix_bytes", db.matrix.nbytes)
    return dictionary, db


def emit(tr: Trace, text_of) -> None:
    with tr.span("cli.emit"):
        data = text_of().encode("utf-8")
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    tr.count("cli.bytes_out", len(data))


def traced_rules(tr: Trace, args) -> None:
    thresholds = cli.thresholds_from(args)
    min_support = thresholds.min_support
    dictionary, db = load(tr, args)
    if args.algorithm == "apriori":
        with tr.span("apriori.mine") as mine:
            frequent = mine_apriori(db, MinerConfig(min_support, args.max_len))
    else:
        with tr.span("fpgrowth.mine") as mine:
            frequent = mine_fpgrowth(db, min_support)
    with tr.span("rules.generate_rules"):
        rules = generate_rules(frequent, db, thresholds)
    with tr.span("rules.categorize"):
        rules = categorize(rules, dictionary, CategoryConfig())

    def text():
        lines = [json.dumps(rule_record(r, dictionary)) for r in rules]
        return "\n".join(lines) + ("\n" if lines else "")

    emit(tr, text)
    count_splits(tr, frequent, db.n_transactions, min_support)
    tr.count("rules.passed", len(rules))
    tr.count("rules.equity", sum("equity" in r.tags for r in rules))
    tr.count("rules.minority", sum("minority" in r.tags for r in rules))
    if args.algorithm == "apriori":
        replay_apriori(tr, mine, db, min_support, frequent)
    else:
        replay_fpgrowth(tr, mine, db, min_support, frequent)


def traced_verify(tr: Trace, args) -> None:
    thresholds = cli.thresholds_from(args)
    min_support = thresholds.min_support
    _, db = load(tr, args)
    limits = OracleLimits(max_items=min(args.max_oracle_items, 24))
    with tr.span("verify.check_equivalence") as check:
        report = check_equivalence(db, min_support, thresholds, limits)
    emit(tr, lambda: report.as_text() + "\n")

    with tr.span("apriori.mine", REPLAY, check) as mine_a:
        apriori = mine_apriori(db, MinerConfig(min_support))
    with tr.span("fpgrowth.mine", REPLAY, check) as mine_f:
        fpgrowth = mine_fpgrowth(db, min_support)
    with tr.span("verify.brute_force_frequent", REPLAY, check):
        oracle = brute_force_frequent(db, min_support, limits)
    for frequent in (apriori, fpgrowth, oracle):
        with tr.span("rules.generate_rules", REPLAY, check):
            rules = generate_rules(frequent, db, thresholds)
    with tr.span("verify.brute_force_rules", REPLAY, check):
        oracle_rules = brute_force_rules(db, thresholds, limits)
    replay_apriori(tr, mine_a, db, min_support, apriori)
    replay_fpgrowth(tr, mine_f, db, min_support, fpgrowth)
    count_splits(tr, oracle, db.n_transactions, min_support)
    tr.count("rules.passed", len(rules))
    tr.count("verify.subsets_counted", 2 * ((1 << db.n_items) - 1))  # once per oracle call
    tr.count("verify.oracle_itemsets", len(oracle))
    tr.count("verify.oracle_rules", len(oracle_rules))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    trace_out, cli_args = argv[1], argv[3:]
    args = cli.build_parser().parse_args(cli_args)
    tr = Trace()
    if args.command == "rules":
        traced_rules(tr, args)
    elif args.command == "verify":
        traced_verify(tr, args)
    else:
        print(f"traced.py: no trace for command {args.command!r}", file=sys.stderr)
        return 2
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.spans, "counters": tr.counters}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
