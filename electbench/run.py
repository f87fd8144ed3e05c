"""End-to-end benchmark of the electmine CLI.

    python3 electbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an electmine checkout (``src/`` and ``configs/`` must
be there). For one workload and seed it:

1. generates the seeded survey input (off the clock; see gen.py);
2. for rules-apriori, runs the FP-Growth CLI once on the same input (off
   the clock) to check the paper's parity claim: byte-identical output;
3. for S seconds, one child at a time, alternates a batch of set-up
   children (they only import ``electmine.cli`` and load the workload's
   schema: ``setup_s``) with a fresh child running the workload's
   ``electmine`` command, timed from spawn to exit, its peak RSS read from
   its own rusage; a child starts only if it should end by S plus half a child,
   except that every run times at least MIN_CHILDREN children;
4. reports medians over the run's children;
5. checks every child's output: rules outputs against the digest pinned in
   digests.json for this workload and seed (or, for seeds not pinned,
   against the run's reference output), and by recounting every emitted
   rule's support, confidence and lift on the generator's own copy of the
   cleaned data; verify output must be "equivalent";
6. with ``--trace 1``, spends S/2 seconds on step 3 and then runs one
   traced child (traced.py), reporting per-layer self times, counters,
   memory high-water marks and the tracing overhead against the untraced
   child timed just before it.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1). Lines before it say the same for people, plus the machine
record. The benchmark never sets ELECTMINE_BACKEND; it records which
counting backend the CLI picked.

``python3 electbench/run.py --pin-digests 0-47`` recomputes digests.json
from the current CLI (no timing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPAE_SCHEMA = ROOT / "configs" / "spae2022.yaml"
ORACLE_SCHEMA = BENCH_DIR / "oracle6.yaml"
DIGESTS = BENCH_DIR / "digests.json"
WORK_ROOT = ROOT / ".bench_work"

# Set-up children run in batches between the timed children, so that their
# median, like the timed one, spans the whole run rather than one moment of
# a machine whose speed drifts over seconds.
SETUP_BATCH = 4
# A median of fewer children is their mean, which one slow child moves.
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0  # stop starting children past this, whatever --seconds says

# Thresholds the rules workloads run at: the CLI defaults.
MIN_SUPPORT, MIN_CONFIDENCE, MIN_LIFT = 0.03, 0.60, 1.50
EQUITY_ATTRIBUTES = {"q4", "q5", "q9", "q12", "q39", "q40", "q41"}


@dataclass(frozen=True)
class Workload:
    rows: int
    oracle: bool  # 6-attribute oracle data instead of the spae2022 schema
    argv: tuple[str, ...]  # electmine CLI arguments, --input/--schema appended

    def generate(self, seed: int) -> gen.Generated:
        return (gen.oracle_csv if self.oracle else gen.spae_csv)(seed, self.rows)

    @property
    def schema(self) -> Path:
        return ORACLE_SCHEMA if self.oracle else SPAE_SCHEMA

    @property
    def is_rules(self) -> bool:
        return self.argv[0] == "rules"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "rules-apriori": Workload(4000, False, ("rules", "--format", "json")),
    "rules-fpgrowth-large": Workload(
        50000, False, ("rules", "--format", "json", "--algorithm", "fpgrowth")),
    "verify-oracle": Workload(2000, True, ("verify", "--min-support", "0.05")),
}
PARITY_ARGV = ("rules", "--format", "json", "--algorithm", "fpgrowth")

# Per-layer metrics of the traced run. Self times of these spans:
SPAN_TIMES = (
    "ingest.load_csv", "ingest.clean", "ingest.select_features", "model.encode_rows",
    "apriori.mine", "apriori.generate_candidates", "apriori.count_support",
    "fpgrowth.build_fptree", "fpgrowth.mine_fptree",
    "rules.generate_rules", "rules.categorize", "cli.emit",
    "verify.check_equivalence", "verify.brute_force_frequent", "verify.brute_force_rules",
)
# Resident high-water mark after each of these spans of the CLI pass:
SPAN_RSS = (
    "ingest.load_csv", "ingest.clean", "model.encode_rows", "apriori.mine", "fpgrowth.mine",
    "rules.generate_rules", "rules.categorize", "cli.emit", "verify.check_equivalence",
)
COUNTERS = (
    "ingest.rows_read", "ingest.cells_blanked", "ingest.rows_dropped", "ingest.out_of_range",
    "model.items", "model.transactions", "model.matrix_bytes",
    *(f"apriori.candidates.k{k}" for k in range(2, 9)),
    "apriori.candidates", "apriori.frequent", "apriori.candidate_rows",
    "fpgrowth.tree_nodes", "fpgrowth.itemsets",
    "rules.splits_evaluated", "rules.passed", "rules.equity", "rules.minority",
    "cli.bytes_out",
    "verify.subsets_counted", "verify.oracle_itemsets", "verify.oracle_rules",
)
BYTE_COUNTERS = ("model.matrix_bytes", "cli.bytes_out")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH_DIR), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: Path
    spawned: float  # perf_counter at spawn
    exited: float  # perf_counter after reaping


def run_child(argv: list[str], stdout: Path, stderr: Path) -> Child:
    """Run one child to completion; wall time spawn to exit, rusage peak RSS."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        exited = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Child(proc.returncode, exited - spawned, usage.ru_maxrss / 1024, stdout, spawned, exited)


def cli_argv(argv: tuple[str, ...], inp: Path, schema: Path) -> list[str]:
    return [sys.executable, "-m", "electmine.cli", *argv, "--input", str(inp),
            "--schema", str(schema)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def recount_rules(data: bytes, truth: gen.Generated) -> str | None:
    """Check every emitted rule against an independent count.

    Support, confidence and lift are recomputed from the generator's cleaned
    transactions with the same integer-ratio formulas, so they must match
    exactly; thresholds, tags and the lift-descending order are checked too.
    Returns a description of the first problem, or None.
    """
    column = {label: i for i, label in enumerate(truth.labels)}
    mat = truth.matrix
    n = mat.shape[0]
    min_count = math.ceil(MIN_SUPPORT * n - 1e-9)
    previous = None
    lines = data.decode("utf-8").splitlines()
    if not lines:
        return "no rules emitted"
    for line_no, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line)
            ant = [column[label] for label in rec["antecedent"]]
            cons = [column[label] for label in rec["consequent"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"rule {line_no}: unreadable record ({exc!r})"
        cx = int(mat[:, ant].all(axis=1).sum())
        cy = int(mat[:, cons].all(axis=1).sum())
        cu = int(mat[:, ant + cons].all(axis=1).sum())
        expected = (cu / n, cu / cx if cx else math.nan, cu * n / (cx * cy) if cx and cy else math.nan)
        if (rec["support"], rec["confidence"], rec["lift"]) != expected:
            return f"rule {line_no}: metrics {rec['support'], rec['confidence'], rec['lift']} != recount {expected}"
        if cu < min_count or cu < MIN_CONFIDENCE * cx * (1 - 1e-9) or \
                cu * n < MIN_LIFT * cx * cy * (1 - 1e-9):
            return f"rule {line_no}: below thresholds"
        labels = rec["antecedent"] + rec["consequent"]
        tags = []
        if all(label.split("_", 1)[0] in EQUITY_ATTRIBUTES for label in labels):
            tags.append("equity")
        if any(label.startswith("race_") and label != "race_White" for label in labels):
            tags.append("minority")
        if rec["tags"] != tags:
            return f"rule {line_no}: tags {rec['tags']} != {tags}"
        key = (rec["lift"], rec["confidence"])
        if previous is not None and key > previous:
            return f"rule {line_no}: not sorted by lift, confidence descending"
        previous = key
    return None


class Checker:
    """Checks child outputs for one workload and seed, and tallies failures."""

    def __init__(self, name: str, seed: int, truth: gen.Generated):
        self.name, self.truth = name, truth
        self.workload = WORKLOADS[name]
        pinned = json.loads(DIGESTS.read_text()).get(name, {}) if DIGESTS.exists() else {}
        self.pinned = pinned.get(str(seed))
        self.reference = self.pinned
        self.recounted: dict[str, str | None] = {}  # digest -> recount verdict
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def problem(self, child: Child) -> str | None:
        if child.code != 0:
            return f"exit code {child.code}"
        if not self.workload.is_rules:
            text = child.stdout.read_bytes()
            return None if text == b"equivalent\n" else f"verify printed {text[:80]!r}"
        digest = sha256(child.stdout)
        if self.reference is None:
            self.reference = digest  # unpinned seed: later runs must repeat the first
        if digest != self.reference:
            kind = "pinned" if self.pinned else "reference"
            return f"output digest {digest[:12]} != {kind} {self.reference[:12]}"
        if digest not in self.recounted:
            self.recounted[digest] = recount_rules(child.stdout.read_bytes(), self.truth)
        return self.recounted[digest]

    def record(self, child: Child) -> bool:
        """Check one child's output, count it, and say whether it passed."""
        self.attempted += 1
        problem = self.problem(child)
        if problem:
            self.failed += 1
            self.errors.append(problem)
        return problem is None


def setup_batch(workload: Workload, work: Path) -> tuple[list[float], str]:
    """Wall times of children that import electmine.cli and load the schema."""
    code = ("import sys, electmine.cli, electmine._kernels as k; "
            "electmine.ingest.load_schema(sys.argv[1]); print(k.BACKEND)")
    times, backend = [], "unknown"
    for _ in range(SETUP_BATCH):
        child = run_child([sys.executable, "-c", code, str(workload.schema)], work / "setup.out",
                          work / "setup.err")
        if child.code != 0:
            raise RuntimeError(f"set-up child failed: {(work / 'setup.err').read_text()[-500:]}")
        times.append(child.wall_s)
        backend = child.stdout.read_text().strip()
    return times, backend


def machine_record(backend: str) -> dict:
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": have_numba,
        "kernels_backend": backend,
        "ELECTMINE_BACKEND": os.environ.get("ELECTMINE_BACKEND"),
    }


def layer_metrics(trace: dict, traced: Child, untraced: Child) -> dict[str, tuple[float, str]]:
    """Per-layer self times, counters and memory marks from one traced child.

    The tracing overhead is taken against ``untraced``, the untraced child
    run just before the traced one, so that both ran at the same machine
    speed; it is one pair of children, so it carries their noise.
    """
    spans = trace["spans"]
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = {}
    for s in spans:
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + s["end"] - s["start"] - covered[s["id"]]
    m: dict[str, tuple[float, str]] = {}
    for name in SPAN_TIMES:
        m[f"{name}_s"] = (self_s.get(name, 0.0), "s")
    for name in SPAN_RSS:
        marks = [s["rss_hwm_mb"] for s in spans if s["name"] == name and s["run"] == "cli"]
        m[f"{name}.rss_hwm_mb"] = (max(marks, default=0.0), "MB")
    counters = trace["counters"]
    for name in COUNTERS:
        m[name] = (counters.get(name, 0), "B" if name in BYTE_COUNTERS else "count")
    m["apriori.yield"] = (counters.get("apriori.frequent", 0) / counters["apriori.candidates"]
                          if counters.get("apriori.candidates") else 0.0, "ratio")
    m["rules.pass_ratio"] = (counters.get("rules.passed", 0) / counters["rules.splits_evaluated"]
                             if counters.get("rules.splits_evaluated") else 0.0, "ratio")
    cli_spans = [s for s in spans if s["run"] == "cli"]
    replay_s = sum(s["end"] - s["start"] for s in spans if s["run"] == "replay")
    self_sum = sum(s["end"] - s["start"] for s in cli_spans if s["parent"] is None)
    setup = min(s["start"] for s in spans) - traced.spawned
    m["trace.wall_s"] = (traced.wall_s, "s")
    m["trace.setup_s"] = (setup, "s")
    m["trace.self_sum_s"] = (self_sum, "s")
    m["trace.replay_s"] = (replay_s, "s")
    m["trace.unaccounted_s"] = (traced.wall_s - setup - self_sum - replay_s, "s")
    m["trace.overhead_s"] = (traced.wall_s - replay_s - untraced.wall_s, "s")
    return m


def pin_digests(seeds: list[int], work: Path) -> None:
    """Record the current CLI's output digest per rules workload and seed."""
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name, workload in WORKLOADS.items():
        if not workload.is_rules:
            continue
        for seed in seeds:
            truth = workload.generate(seed)
            inp = work / "input.csv"
            inp.write_bytes(truth.data)
            child = run_child(cli_argv(workload.argv, inp, workload.schema), work / "out",
                              work / "err")
            if child.code != 0:
                raise RuntimeError(f"{name} seed {seed}: exit code {child.code}")
            problem = recount_rules((work / "out").read_bytes(), truth)
            if problem:
                raise RuntimeError(f"{name} seed {seed}: {problem}")
            pinned.setdefault(name, {})[str(seed)] = sha256(work / "out")
            print(f"{name} seed {seed} {pinned[name][str(seed)]} {child.wall_s:.2f}s", flush=True)
            DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def bench(name: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    workload = WORKLOADS[name]
    truth = workload.generate(seed)
    inp = work / "input.csv"
    inp.write_bytes(truth.data)
    argv = cli_argv(workload.argv, inp, workload.schema)

    checker = Checker(name, seed, truth)
    if name == "rules-apriori":
        # The paper's parity claim, off the clock: FP-Growth must write the
        # bytes Apriori writes, so its output meets the same digest.
        checker.record(run_child(cli_argv(PARITY_ARGV, inp, workload.schema),
                                 work / "parity.out", work / "parity.err"))

    # Closed loop, one child at a time: a set-up batch, then a timed child
    # unless MIN_CHILDREN have run and it would end more than half a child
    # past the budget, and so on. A traced run spends half the budget here,
    # the rest on the traced child.
    budget = min(seconds / 2 if trace else seconds, RUN_BUDGET_S)
    setups, walls, rss, all_walls, all_rss = [], [], [], [], []
    started = time.perf_counter()
    while True:
        times, backend = setup_batch(workload, work)
        setups += times
        now = time.perf_counter()
        if len(all_walls) >= MIN_CHILDREN and now - started + all_walls[-1] / 2 > budget:
            break
        if not walls and checker.failed >= 3:
            break  # the command is broken; do not spend the whole budget on it
        child = run_child(argv, work / "run.out", work / "run.err")
        all_walls.append(child.wall_s)
        all_rss.append(child.peak_rss_mb)
        if checker.record(child):
            walls.append(child.wall_s)
            rss.append(child.peak_rss_mb)
    # Failed runs are timed only when no run passed (the result is then
    # marked incorrect anyway).
    wall_s = statistics.median(walls or all_walls)
    result = {
        "machine": machine_record(backend),
        "samples": len(walls),
        "setup_samples": len(setups),
        "digest": "pinned" if checker.pinned else "run reference",
        "e2e": {
            "wall_s": (wall_s, "s"),
            "rows_per_s": (truth.rows / wall_s, "rows/s"),
            "peak_rss_mb": (statistics.median(rss or all_rss), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        },
    }
    if trace:
        trace_file = work / "trace.json"
        traced = run_child([sys.executable, str(BENCH_DIR / "traced.py"), "--trace-out",
                            str(trace_file), "--", *argv[3:]], work / "traced.out",
                           work / "traced.err")
        if checker.record(traced):
            result["layers"] = layer_metrics(json.loads(trace_file.read_text()), traced, child)
            # Keep the spans (per-level times included) for a closer look.
            shutil.copy(trace_file, WORK_ROOT / f"trace-{name}-seed{seed}.json")
    result["checker"] = checker
    return result


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", metavar="LO-HI", help="recompute digests.json")
    args = parser.parse_args()
    if not args.pin_digests and not args.workload:
        parser.error("--workload is required")
    missing = [p for p in (SRC / "electmine" / "cli.py", SPAE_SCHEMA) if not p.is_file()]
    if missing:
        print(f"electbench: not an electmine checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload or 'pin'}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.pin_digests:
            pin_digests(parse_seeds(args.pin_digests), work)
            return 0
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker: Checker = result["checker"]
    e2e = result["e2e"]
    print(f"electbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(result["machine"]))
    print(f"  wall_s        {e2e['wall_s'][0]:.4f} s   (median of {result['samples']} runs)")
    print(f"  rows_per_s    {e2e['rows_per_s'][0]:.1f} rows/s")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb'][0]:.1f} MB")
    print(f"  setup_s       {e2e['setup_s'][0]:.4f} s   (median of {result['setup_samples']})")
    print(f"  failed_ratio  {checker.failed / max(checker.attempted, 1):.4f} ratio"
          f"   ({checker.failed} of {checker.attempted} runs; digest: {result['digest']})")
    for error in checker.errors[:5]:
        print(f"  failed: {error}")
    metrics = result.get("layers", {}) if args.trace else e2e
    if args.trace:
        for key, (value, unit) in metrics.items():
            print(f"  {key:38s} {value:.6g} {unit}")
    correct = checker.failed == 0 and bool(metrics) and all(
        math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
