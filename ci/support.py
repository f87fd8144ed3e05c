"""What the checks outside tier-1 share. They need no install; from the
repository root: PYTHONPATH=src python -m pytest -q ci/"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPAE_SCHEMA, ORACLE_SCHEMA = ROOT / "configs" / "spae2022.yaml", ROOT / "electbench" / "oracle6.yaml"
sys.path.insert(0, str(ROOT / "electbench"))  # electbench/ is not a package
import gen  # noqa: E402,F401  the benchmark's seeded input generator

# Children block-buffer stdout, as by default: with PYTHONUNBUFFERED a short
# output meets a full device at its write, and a fault at the flush goes unseen.
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
CLI = [sys.executable, "-m", "electmine.cli"]


def cli(*args, **kwargs) -> subprocess.CompletedProcess:
    """electmine ARGS in a child; stdout and stderr are captured as bytes unless kwargs say otherwise."""
    return subprocess.run([*CLI, *map(str, args)], **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE,
                                                       "env": ENV, "timeout": 600, **kwargs})


# A child forked from pytest would start with pytest's resident size as its
# ru_maxrss floor, so a small parent starts the CLI and reads its rusage.
LAUNCHER = """\
import os, subprocess, sys
with open(sys.argv[1], "wb") as out:
    _, status, usage = os.wait4(subprocess.Popen(sys.argv[2:], stdout=out).pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_mb(out, *args) -> tuple[int, float, str]:
    """electmine ARGS, stdout to the file out: its exit status, its own peak RSS in MB and its stderr."""
    launcher = subprocess.run([sys.executable, "-c", LAUNCHER, str(out), *CLI, *map(str, args)],
                              capture_output=True, text=True, env=ENV, timeout=600)
    status, peak_kb = map(int, launcher.stdout.split())  # kilobytes on Linux
    return status, peak_kb / 1024, launcher.stderr
