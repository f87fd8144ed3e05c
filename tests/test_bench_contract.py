"""The electmine names the benchmark in electbench/ calls, in the shapes it
calls them.

electbench/run.py spawns ``python -m electmine.cli`` and reads its output;
electbench/traced.py repeats the CLI's layer calls one by one. The
benchmark's own tests are not part of this suite, so these checks are what
stops a change to one of these names from breaking the benchmark unseen.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import electmine
from electmine import _kernels, cli, ingest
from electmine.apriori import MinerConfig, count_support, generate_candidates, mine_apriori
from electmine.fpgrowth import build_fptree, mine_fpgrowth, mine_fptree
from electmine.model import encode_rows, support_cutoff
from electmine.rules import CategoryConfig, categorize, generate_rules, rule_record
from electmine.verify import OracleLimits, brute_force_frequent, brute_force_rules, check_equivalence


def parse(data_dir, *argv):
    io_args = ["--input", str(data_dir / "d5.csv"), "--schema", str(data_dir / "d5.yaml")]
    return cli.build_parser().parse_args([*argv, *io_args])


def load(args):
    """traced.py's load(): the calls cli._load_pipeline makes."""
    schema = ingest.load_schema(args.schema)
    loaded = ingest.load_csv(args.input, schema)
    rows, report = ingest.clean(loaded.rows, schema, schema.consistency_rules)
    keep = schema.keep or tuple(c.name for c in schema.columns if c.kind != ingest.DROP)
    rows = ingest.select_features(rows, keep, schema)
    dictionary, db = encode_rows(rows, keep)
    return loaded, report, dictionary, db


def pairs(frequent):
    return {(fs.items, fs.count) for fs in frequent}


def test_set_up_child_names():
    # run.py's set-up child imports electmine.cli, then reaches the schema
    # loader as electmine.ingest and prints the counting backend.
    assert electmine.ingest.load_schema is ingest.load_schema
    assert _kernels.BACKEND == "bitset"


def test_ingest_calls(data_dir):
    loaded, report, _, db = load(parse(data_dir, "rules"))
    assert len(loaded.rows) == 5
    assert sum(report.blanked_cells.values()) == 3
    assert not report.rows_dropped and not report.out_of_range
    assert (db.n_items, db.n_transactions) == (3, 5)
    assert db.matrix.nbytes == 3  # traced.py's model.matrix_bytes: 3 items x 1 packed byte


def test_rules_calls(data_dir):
    args = parse(data_dir, "rules", "--format", "json", "--algorithm", "fpgrowth", "--min-lift", "0")
    assert (args.command, args.algorithm, args.max_len) == ("rules", "fpgrowth", None)
    thresholds = cli.thresholds_from(args)
    min_support = thresholds.min_support
    _, _, dictionary, db = load(args)

    frequent = mine_apriori(db, MinerConfig(min_support, args.max_len))
    assert pairs(mine_fpgrowth(db, min_support)) == pairs(frequent)
    tree = build_fptree(db, min_support)
    assert tree.root.children
    # traced.py's _tree_nodes walk of tree.root gives fpgrowth.tree_nodes:
    # d5's a-b-c, a-b, a-c, b-c, a-b-c share six prefixes, one node each.
    nodes, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        nodes += len(node.children)
        stack.extend(node.children.values())
    assert nodes == len(tree.count) - 1 == 6
    assert pairs(mine_fptree(tree, min_support, db.n_transactions)) == pairs(frequent)

    level = sorted(fs.items for fs in frequent if len(fs.items) == 1)
    candidates = generate_candidates(level, 2)
    assert count_support(candidates, db) == {(0, 1): 3, (0, 2): 3, (1, 2): 3}
    assert support_cutoff(min_support, db.n_transactions) == 1

    rules = categorize(generate_rules(frequent, db, thresholds), dictionary, CategoryConfig())
    record = rule_record(rules[0], dictionary)
    assert (record["antecedent"], record["consequent"], record["tags"]) == (["a_1"], ["b_1"], [])
    assert (record["support"], record["confidence"], record["lift"]) == (0.6, 0.75, 0.9375)


def test_verify_calls(data_dir):
    args = parse(data_dir, "verify", "--min-support", "0.6")
    thresholds = cli.thresholds_from(args)
    _, _, _, db = load(args)
    limits = OracleLimits(max_items=min(args.max_oracle_items, 24))
    report = check_equivalence(db, thresholds.min_support, thresholds, limits)
    assert report.as_text() == "equivalent"
    assert len(brute_force_frequent(db, thresholds.min_support, limits)) == 6
    assert brute_force_rules(db, thresholds, limits) == []


def test_cli_module_children(data_dir):
    # run.py times `python -m electmine.cli` children and checks their stdout.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    io_args = ["--input", str(data_dir / "d5.csv"), "--schema", str(data_dir / "d5.yaml")]

    def child(*argv):
        return subprocess.run([sys.executable, "-m", "electmine.cli", *argv, *io_args],
                              capture_output=True, env=env, timeout=60, check=True).stdout

    rules = child("rules", "--format", "json", "--algorithm", "fpgrowth", "--min-lift", "0")
    assert [json.loads(line)["lift"] for line in rules.splitlines()][:1] == [0.9375]
    assert child("verify", "--min-support", "0.05") == b"equivalent\n"
