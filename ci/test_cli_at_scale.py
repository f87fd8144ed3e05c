import csv
import io
import json
import os
import subprocess
import sys

import pytest

from support import ENV, ROOT, cli, peak_mb


# Each run checks the CLI's output against its pinned digest and by recounting
# every rule; seed 15 has a rule with a lift of exactly 1.5. A traced run
# (trace 1) replays the CLI's calls into src/ and fails on a ReplayMismatch.
@pytest.mark.parametrize("workload,seed,trace", [
    ("rules-apriori", 1, 0), ("rules-apriori", 2, 0), ("rules-apriori", 15, 0), ("rules-fpgrowth-large", 1, 0),
    ("rules-fpgrowth-large", 2, 0), ("verify-oracle", 1, 0),
    ("rules-apriori", 1, 1), ("rules-fpgrowth-large", 1, 1), ("verify-oracle", 1, 1)])
def test_benchmark_run_is_correct(workload, seed, trace):
    child = subprocess.run([sys.executable, "electbench/run.py", "--workload", workload, "--seed", str(seed),
                            "--seconds", "1", "--trace", str(trace)],
                           cwd=ROOT, capture_output=True, text=True, env=ENV, timeout=600)
    verdict = json.loads(child.stdout.splitlines()[-1])  # run.py exits 0 whatever it finds
    assert verdict["correct"] is True and verdict["failed"] == 0, child.stdout + child.stderr


# The benchmark's peak_rss_mb has a floor at the harness's own size (about 81
# MB on rules-fpgrowth-large), so the CLI's own peak can grow unseen below it.
# At 50,000 rows it is about 52 MB with --algorithm fpgrowth and 42 MB without.
@pytest.mark.parametrize("extra", [["--algorithm", "fpgrowth"], []], ids=["fpgrowth", "apriori"])
def test_rules_peak_at_benchmark_scale(inputs, extra):
    status, peak, err = peak_mb(os.devnull, "rules", *inputs["spae50k"].args, "--format", "json", *extra)
    assert status == 0 and peak <= 70, f"exit status {status}, peak {peak:.1f} MB (bound 70 MB)\n{err}"


# FP-Growth's node paths hold one uint64 word per 64 ranks, so its memory grows
# with the nodes times the words. About 3,600 items are frequent here, so paths
# span 57 words: about 120 MB with dense words (55 MB with the sparse cells
# before them). With 3,000 or fewer frequent items the input spans too few words.
def test_fpgrowth_peak_past_many_mask_words(inputs, tmp_path):
    status, peak, err = peak_mb(tmp_path / "out.csv", "mine", *inputs["many"].args, "--format", "csv",
                                "--algorithm", "fpgrowth", "--min-support", "0.001")
    with open(tmp_path / "out.csv") as fh:
        singles = sum(";" not in row["items"] for row in csv.DictReader(fh))
    assert status == 0 and peak <= 150 and singles > 3000, f"status {status}, peak {peak:.1f} MB, {singles}\n{err}"


# A failed write to stdout ends as a failed --output does: exit 1, the error
# line last on stderr, no traceback.
@pytest.mark.parametrize("name,command", [("spae", ["rules", "--format", "json"]), ("spae", ["ingest"]),
                                          ("oracle", ["verify"])], ids=["rules", "ingest", "verify"])
def test_a_full_stdout_is_an_error_line(inputs, name, command):
    with open("/dev/full", "wb") as full:
        child = cli(*command, *inputs[name].args, stdout=full)
    err = child.stderr.decode()
    assert child.returncode == 1 and "Traceback" not in err, err
    assert err.splitlines()[-1] == "error: cannot write output <stdout>: No space left on device"


MINERS = ("apriori", "fpgrowth")


def same_itemsets(data, algorithms, *thresholds) -> bytes:
    """mine --format csv's stdout on data (an Input), byte-identical from each of algorithms."""
    children = [cli("mine", *data.args, "--format", "csv", "--algorithm", algorithm, *thresholds)
                for algorithm in algorithms]
    assert [c.returncode for c in children] == [0] * len(algorithms), [c.stderr for c in children]
    assert len({c.stdout for c in children}) == 1
    return children[0].stdout


# The pinned runs mine FP-Growth only at support 0.03 with no max_len. Max-len
# 1 gives the root tree's items alone, max-len 2 stops at the first depth
# below it; at 50,000 rows the root items' header chains pass
# fpgrowth.NODE_BUDGET, so that depth is built in several runs of root items.
@pytest.mark.parametrize("name,thresholds", [
    ("spae", "--min-support 0.02"), ("spae", "--min-support 0.03 --max-len 1"),
    ("spae", "--min-support 0.03 --max-len 2"), ("spae", "--min-support 0.03 --max-len 3"),
    ("spae50k", "--min-support 0.02 --max-len 2"), ("spae50k", "--min-support 0.02 --max-len 3"),
    ("spae50k", "--min-support 0.03 --max-len 2"), ("spae50k", "--min-support 0.03 --max-len 3")])
def test_miners_agree_at_other_thresholds(inputs, name, thresholds):
    same_itemsets(inputs[name], MINERS, *thresholds.split())


# Every pinned run has 54 items or fewer, so a node path fits one 64-rank
# word; here 130 items are frequent, and itemsets reach three items and more.
def test_miners_agree_past_one_mask_word(inputs):
    out = same_itemsets(inputs["wide"], MINERS, "--min-support", "0.05").decode()
    sizes = [len(row["items"].split(";")) for row in csv.DictReader(io.StringIO(out))]
    assert sizes.count(1) > 128 and max(sizes) >= 3


# Only tier-1's small inputs check what mine --algorithm oracle writes; here
# the oracle and both miners mine the 18-item verify-oracle input.
@pytest.mark.parametrize("support,itemsets", [("0.05", 281), ("0.01", 1204)])
def test_oracle_mines_the_miners_bytes(inputs, support, itemsets):
    out = same_itemsets(inputs["oracle"], (*MINERS, "oracle"), "--min-support", support).decode()
    assert len(list(csv.DictReader(io.StringIO(out)))) == itemsets


# The pinned verify-oracle run checks rules only at support 0.05 with the
# default confidence and lift.
@pytest.mark.parametrize("thresholds", ["--minority-preset", "--min-support 0.05 --strict-lift",
                                        "--min-support 0.05 --min-confidence 0.8 --min-lift 1.2"])
def test_rules_agree_with_the_oracle_at_other_thresholds(inputs, thresholds):
    child = cli("verify", *inputs["oracle"].args, *thresholds.split())
    assert (child.returncode, child.stdout) == (0, b"equivalent\n"), child.stderr


# The goldens check compare's parity note only on d5. compare and rules run one
# rule route, so the apriori row counts rules' lines and tags (1,315, 167, 47).
def test_compare_rows_agree_with_each_other_and_with_rules(inputs):
    compare, rules = (cli(command, *inputs["spae"].args, "--format", "json") for command in ("compare", "rules"))
    assert compare.returncode == rules.returncode == 0
    rows = json.loads(compare.stdout)["rows"]
    fields = [{k: v for k, v in row.items() if k not in ("algorithm", "wall_seconds")} for row in rows]
    assert len(fields) == 2 and fields[0] == fields[1] and fields[0]["error"] is None, rows
    tags = [json.loads(line)["tags"] for line in rules.stdout.splitlines()]
    counts = (len(tags), sum("equity" in t for t in tags), sum("minority" in t for t in tags))
    assert (rows[0]["algorithm"], rows[0]["total_rules"], rows[0]["equity_rules"], rows[0]["minority_rules"]) == (
        "apriori", *counts)
