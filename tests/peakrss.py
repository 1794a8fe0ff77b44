"""Peak resident memory of one bifilter command, for the hostile-memory
tests."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_pid, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def cli_peak_mb(*args: str, timeout: float = 120) -> float:
    """Peak RSS in MB of `python -m bifilter.cli ARGS`, which must exit 0.

    The command runs under a small launcher process that reads the child's
    own high-water mark with wait4: a child inherits its parent's RSS
    high-water mark through fork and exec, and the test process may have
    grown."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "bifilter.cli", *args],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    rc, maxrss_kb = map(int, proc.stdout.split())
    assert rc == 0, proc.stderr
    return maxrss_kb / 1024
