"""Replay one mixed_queries op list through `cli.main` in one process and
print where its CPU time goes, per call class.

    python3 tools/class_shares.py [SEED]

The op list is the one `benchmark/workloads.py` builds for a 30-second run
at SEED (default 1): 1875 calls.  That file is loaded by path and only
read.  Each pass empties the table of points, and with it every point's
memoized series and kept powers, then makes every call in order with its
stdout and stderr captured, and times each call in CPU time
(`time.process_time`).  A call's time is its least over the passes
(PASSES).

Prints one JSON line: the seed, the core count, the Python version, the
calls, their total CPU ms, the 99th percentile of a call's ms
(`statistics.quantiles`, inclusive; the benchmark's `op_p99_ms` is a
Harrell-Davis estimate over wall time, so the two differ), the SHA-256 of
every call's (exit, stdout, stderr) in order, and per class, costliest
first, the calls, the calls that exit 2, the CPU ms, the share of the
total and the median and the slowest call's ms.
A class is the op list's first field, so the benchmark's `defect_sum_*`
calls count as `sum_plain` and `sum_x`, and `defect_matrix_digits` as
`matrix_fast`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 30.0  # the length of the benchmark run whose op list is replayed
PASSES = 5


def _workloads():
    """benchmark/workloads.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", ROOT / "benchmark" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _call(main, argv) -> tuple[float, tuple]:
    """(CPU seconds, (exit, stdout, stderr)) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        seconds = time.process_time() - start
    return seconds, (code, out.getvalue(), err.getvalue())


def class_shares(seed: int, calls: int | None = None, passes: int = PASSES) -> dict:
    """The table that `main` prints, as a dict, over the first `calls`
    calls of the op list (all of them by default)."""
    from bijacobsthal import cli, scalar

    ops = _workloads().mixed_ops(seed, RUN_SECONDS)[:calls]
    best = [float("inf")] * len(ops)
    for _ in range(passes):
        scalar.clear_caches()
        outputs = []
        for i, (_, argv, _) in enumerate(ops):
            seconds, output = _call(cli.main, argv)
            best[i] = min(best[i], seconds)
            outputs.append(output)
    rows: dict[str, list] = {}
    for (cls, _, _), seconds, (code, _, _) in zip(ops, best, outputs):
        rows.setdefault(cls, []).append((seconds, code))
    total = sum(best)
    classes = {}
    for cls, row in sorted(rows.items(), key=lambda item: -sum(s for s, _ in item[1])):
        spent = sum(s for s, _ in row)
        classes[cls] = {"calls": len(row), "exit_2": sum(code == 2 for _, code in row),
                        "cpu_ms": round(spent * 1000, 3),
                        "share": round(spent / total, 4) if total else 0.0,
                        "median_ms": round(statistics.median(s for s, _ in row) * 1000, 4),
                        "max_ms": round(max(s for s, _ in row) * 1000, 4)}
    # quantiles needs two calls; the one call of a one-call list is its own p99
    p99 = statistics.quantiles(best, n=100, method="inclusive")[98] if best[1:] else max(best)
    return {"seed": seed, "cores": os.cpu_count(), "python": platform.python_version(),
            "calls": len(ops), "passes": passes, "cpu_ms": round(total * 1000, 3),
            "p99_ms": round(p99 * 1000, 4),
            "outputs_sha256": hashlib.sha256(json.dumps(outputs).encode()).hexdigest(),
            "classes": classes}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed", nargs="?", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(class_shares(args.seed)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
