"""Command-line entry point: ingest -> encode -> mine -> rules -> report.

Defaults reproduce the published parameterization (support 0.03, confidence
0.60, lift 1.50); --minority-preset, which excludes --min-support, mines at
support 0.02. Diagnostics go to stderr, data to stdout or --output, so
commands compose in pipelines.

Exit codes, set in main alone: 0 success (or "equivalent" for verify); 2 a
settings error (model.ConfigError: a bad threshold, count, tag, algorithm,
schema or oracle limit); 1 any other ValueError (input or output that cannot
be read, loaded or written), a divergence, or a miner that raised in compare.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from typing import Callable, Sequence

import yaml

from . import ingest, verify
from .model import ConfigError, ItemDictionary, MinerConfig, TransactionDb
from .rules import (
    EQUITY_TAG, MINORITY_TAG, AssociationRule, CategoryConfig, Thresholds, categorize, generate_rules,
    rule_record,
)
from .verify import OracleLimits

# The published parameterization, defined once as Thresholds' field defaults.
DEFAULT_MIN_SUPPORT, DEFAULT_MIN_CONFIDENCE, DEFAULT_MIN_LIFT = (
    Thresholds.min_support, Thresholds.min_confidence, Thresholds.min_lift)
MINORITY_PRESET_MIN_SUPPORT = 0.02


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="electmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="survey CSV path")
        p.add_argument("--schema", required=True, help="YAML schema path")
        p.add_argument("--output", default=None, help="write primary output here instead of stdout")

    def add_format(p):  # the commands whose output goes through _emit
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")

    def add_thresholds(p):
        support = p.add_mutually_exclusive_group()
        support.add_argument("--min-support", type=float, default=DEFAULT_MIN_SUPPORT)
        support.add_argument("--minority-preset", action="store_true",
                             help="minority-analysis preset: min-support 0.02")
        p.add_argument("--min-confidence", type=float, default=DEFAULT_MIN_CONFIDENCE)
        p.add_argument("--min-lift", type=float, default=DEFAULT_MIN_LIFT)
        p.add_argument("--strict-lift", action="store_true",
                       help="require lift strictly above the threshold")

    p = sub.add_parser("ingest", help="load, clean, and select survey columns")
    add_io(p)
    p.add_argument("--report", action="store_true", help="print the clean report to stderr")

    p = sub.add_parser("mine", help="mine frequent itemsets")
    add_io(p)
    add_format(p)
    p.add_argument("--algorithm", choices=tuple(verify.MINERS), default="apriori")
    p.add_argument("--min-support", type=float, default=DEFAULT_MIN_SUPPORT)
    p.add_argument("--max-len", type=int, default=None)

    p = sub.add_parser("rules", help="mine, generate, and categorize association rules")
    add_io(p)
    add_format(p)
    add_thresholds(p)
    p.add_argument("--algorithm", choices=verify.MINER_PAIR, default="apriori")
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--top", type=int, default=None, help="show only the top-k rules by lift")
    p.add_argument("--tags", default=None, help="comma list; keep only rules carrying all of them")

    p = sub.add_parser("compare", help="run both miners and report a comparison table")
    add_io(p)
    add_format(p)
    add_thresholds(p)
    p.add_argument("--algorithm", default=",".join(verify.MINER_PAIR),
                   help="comma list of algorithms to compare")
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--repeat", type=int, default=1, help="repeat runs, report minimum time")

    p = sub.add_parser("verify", help="cross-check apriori, fpgrowth, and the brute-force oracle")
    add_io(p)
    add_thresholds(p)
    p.add_argument("--max-oracle-items", type=int, default=20)

    return parser


def thresholds_from(args) -> Thresholds:
    min_support = MINORITY_PRESET_MIN_SUPPORT if args.minority_preset else args.min_support
    return Thresholds(
        min_support=min_support,
        min_confidence=args.min_confidence,
        min_lift=args.min_lift,
        strict_lift=args.strict_lift,
    )


def _load_pipeline(args) -> tuple[ItemDictionary, TransactionDb, ingest.CleanReport]:
    try:
        schema = ingest.load_schema(args.schema)
    except OSError as exc:
        raise ValueError(f"cannot read schema {args.schema}: {exc.strerror or exc}") from exc
    except (ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"bad schema {args.schema}: {exc}") from exc
    try:
        dictionary, db, report = ingest.load(schema, args.input)
    except OSError as exc:
        raise ValueError(f"cannot read input {args.input}: {exc.strerror or exc}") from exc
    if report.ignored_columns:
        print(
            f"warning: {len(report.ignored_columns)} header columns not in schema, ignored",
            file=sys.stderr,
        )
    return dictionary, db, report


def _load_db(args) -> tuple[ItemDictionary, TransactionDb]:
    """_load_pipeline for the commands that mine, which need transactions."""
    dictionary, db, _ = _load_pipeline(args)
    if db.n_transactions == 0:
        raise ValueError(f"{args.input}: empty transaction database")
    return dictionary, db


def _check_counts(args) -> None:
    """--max-len, --top and --repeat, on whichever subcommand takes them, must be >= 1."""
    for option in ("max_len", "top", "repeat"):
        value = getattr(args, option, None)
        if value is not None and value < 1:
            raise ConfigError(f"{option.replace('_', '-')} must be >= 1")


def _write(args, text: str) -> None:
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.output:  # else the bytes a failed flush keeps fail again at exit, with status 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError(f"cannot write output {args.output or '<stdout>'}: {exc.strerror or exc}") from exc


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows) + "\n"


def _emit(args, records: list[dict], columns: Sequence[str], headers: Sequence[str],
          cells: Callable[[dict], list[str]], note: str | None = None) -> None:
    """Render records in --format and write them to --output or stdout.

    json: one object per line, or, with a note, one indented document
    {"note", "rows"}. csv: a header of columns, then each record's columns
    with list values joined by ";". table: headers over cells(record) per
    record, columns aligned, then the note.
    """
    if args.format == "json":
        if note is None:
            text = "".join(json.dumps(rec) + "\n" for rec in records)
        else:
            text = json.dumps({"note": note, "rows": records}, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([";".join(rec[c]) if isinstance(rec[c], list) else rec[c] for c in columns])
        text = buf.getvalue()
    else:
        text = _table([list(headers), *map(cells, records)])
        if note is not None:
            text += note + "\n"
    _write(args, text)


ITEMSET_FIELDS = ("items", "count", "support")
RULE_FIELDS = (
    "antecedent", "consequent", "support", "confidence", "lift",
    "support_pct", "confidence_pct", "lift_display", "tags",
)
RULE_HEADERS = ("antecedent", "consequent", "support%", "confidence%", "lift", "tags")
COMPARE_FIELDS = (
    "algorithm", "total_rules", "equity_rules", "minority_rules",
    "avg_support", "avg_confidence", "avg_lift", "wall_seconds", "error",
)
COMPARE_HEADERS = (
    "algorithm", "rules", "equity", "minority", "avg_support", "avg_confidence", "avg_lift", "time_s",
)
# With equal thresholds every compare column but the time must match; the note
# says so, so that nobody "fixes" a miner to reproduce asymmetric published counts.
PARITY_NOTE = (
    "note: with equal thresholds the algorithms are exact equivalents; "
    "identical rule counts and averages are the expected outcome."
)


def _itemset_cells(rec: dict) -> list[str]:
    return [";".join(rec["items"]), str(rec["count"]), f"{rec['support']:.4f}"]


def _rule_cells(rec: dict) -> list[str]:
    return [
        ", ".join(rec["antecedent"]), ", ".join(rec["consequent"]),
        rec["support_pct"], rec["confidence_pct"], rec["lift_display"], ",".join(rec["tags"]),
    ]


def _compare_cells(rec: dict) -> list[str]:
    if rec["error"] is not None:
        return [rec["algorithm"], f"error: {rec['error']}", "", "", "", "", "", ""]
    averages = (rec["avg_support"], rec["avg_confidence"], rec["avg_lift"])
    return [
        rec["algorithm"], str(rec["total_rules"]), str(rec["equity_rules"]), str(rec["minority_rules"]),
        *("-" if avg is None else f"{avg:.4f}" for avg in averages),
        f"{rec['wall_seconds']:.3f}",
    ]


def mine_rules(db: TransactionDb, dictionary: ItemDictionary, thresholds: Thresholds,
               algorithm: str, max_len: int | None = None) -> list[AssociationRule]:
    """The rule route: mine with verify.MINERS[algorithm], keep the rules that pass, tag them."""
    frequent = verify.MINERS[algorithm](db, thresholds.min_support, max_len)
    return categorize(generate_rules(frequent, db, thresholds), dictionary, CategoryConfig())


def cmd_ingest(args) -> int:
    dictionary, db, report = _load_pipeline(args)
    if args.report:
        print(report.as_text(), file=sys.stderr)
    _write(args, "".join(";".join(map(dictionary.label_of, t)) + "\n" for t in db.transactions))
    return 0


def cmd_mine(args) -> int:
    MinerConfig(args.min_support, args.max_len)
    dictionary, db = _load_db(args)
    records = [
        {"items": [dictionary.label_of(i) for i in fs.items], "count": fs.count, "support": fs.support}
        for fs in verify.MINERS[args.algorithm](db, args.min_support, args.max_len)
    ]
    _emit(args, records, ITEMSET_FIELDS, ITEMSET_FIELDS, _itemset_cells)
    return 0


def cmd_rules(args) -> int:
    thresholds = thresholds_from(args)
    wanted = {t.strip() for t in (args.tags or "").split(",") if t.strip()}
    unknown = wanted - {EQUITY_TAG, MINORITY_TAG}
    if unknown:
        raise ConfigError(f"unknown tags {sorted(unknown)}: valid tags are {EQUITY_TAG}, {MINORITY_TAG}")
    dictionary, db = _load_db(args)
    rules = mine_rules(db, dictionary, thresholds, args.algorithm, args.max_len)
    rules = [r for r in rules if wanted <= r.tags]
    records = [rule_record(r, dictionary) for r in rules[: args.top]]
    _emit(args, records, RULE_FIELDS, RULE_HEADERS, _rule_cells)
    return 0


def compare_records(db: TransactionDb, dictionary: ItemDictionary, thresholds: Thresholds,
                    algorithms: Sequence[str] = verify.MINER_PAIR, max_len: int | None = None,
                    repeat: int = 1) -> list[dict]:
    """One COMPARE_FIELDS record per algorithm, all on the same input.
    wall_seconds is mine_rules' time (mining, rule generation and tagging;
    ingest excluded), the minimum over repeat runs. A miner that raises gets
    0 rules, no averages and the error "<type>: <message>", and the other
    algorithms still run."""
    records = []
    for name in algorithms:
        try:
            seconds = float("inf")
            for _ in range(max(1, repeat)):
                start = time.perf_counter()
                rules, error = mine_rules(db, dictionary, thresholds, name, max_len), None
                seconds = min(seconds, time.perf_counter() - start)
        except Exception as exc:  # keep going with the other algorithms
            rules, seconds, error = [], 0.0, f"{type(exc).__name__}: {exc}"
        n = len(rules)
        records.append({
            "algorithm": name,
            "total_rules": n,
            "equity_rules": sum(EQUITY_TAG in r.tags for r in rules),
            "minority_rules": sum(MINORITY_TAG in r.tags for r in rules),
            "avg_support": sum(r.support for r in rules) / n if n else None,
            "avg_confidence": sum(r.confidence for r in rules) / n if n else None,
            "avg_lift": sum(r.lift for r in rules) / n if n else None,
            "wall_seconds": round(seconds, 3),
            "error": error,
        })
    return records


def cmd_compare(args) -> int:
    thresholds = thresholds_from(args)
    algorithms = tuple(a.strip() for a in args.algorithm.split(",") if a.strip())
    if not algorithms:
        raise ConfigError("at least one algorithm required")
    unknown = [a for a in algorithms if a not in verify.MINER_PAIR]
    if unknown:  # the oracle among them: it is the miners' reference, not compared
        raise ConfigError(f"unknown algorithm: {unknown[0]}")
    twice = [a for i, a in enumerate(algorithms) if a in algorithms[:i]]
    if twice:
        raise ConfigError(f"algorithm named twice: {twice[0]}")
    dictionary, db = _load_db(args)
    records = compare_records(db, dictionary, thresholds, algorithms, args.max_len, args.repeat)
    _emit(args, records, COMPARE_FIELDS, COMPARE_HEADERS, _compare_cells, PARITY_NOTE)
    return 1 if any(rec["error"] for rec in records) else 0


def cmd_verify(args) -> int:
    thresholds = thresholds_from(args)
    try:
        limits = OracleLimits(max_items=args.max_oracle_items)
    except ConfigError as exc:
        raise ConfigError("max-oracle-items must be in 1..24") from exc
    _, db = _load_db(args)
    report = verify.check_equivalence(db, thresholds.min_support, thresholds, limits)
    _write(args, report.as_text() + "\n")
    return 0 if report.equivalent else 1


COMMANDS = {
    "ingest": cmd_ingest,
    "mine": cmd_mine,
    "rules": cmd_rules,
    "compare": cmd_compare,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
