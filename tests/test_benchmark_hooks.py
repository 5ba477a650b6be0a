"""The benchmark's own self-test, run as part of this suite.

``perfbench/tracer.py`` times the program's layers by wrapping named
functions (``depth.trace_component``, ``CostTrace.critical_depth``,
``circuits.evaluate_many`` and others), and the self-test's install test
resolves every one of them.  Running ``perfbench/selftest.py`` here makes a
deleted or renamed wrapped name fail this suite, rather than only breaking
``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    run = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr[-4000:]
