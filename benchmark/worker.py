"""One pass of one workload, in a fresh interpreter.

    python3 benchmark/worker.py ROOT WORKLOAD SEED MODE SECONDS OUT

MODE is `setup` (import and build the op list, then stop), `run` or
`trace` (run ops with the tracer installed).  Ops run one after another,
single-threaded: grid_verify makes its one call, and the other workloads
run their whole op list, which SECONDS sizes.  Outside `trace` the host
probe (probe.py) runs throughout.  Results go to OUT + ".json": the
perf_counter interval of set-up and of every op, and the probe runs;
program output that the parent process checks goes next to it.
"""

import os
import sys
import time


def _timed_cli(cli, argv) -> tuple:
    """(exit code, stdout, [start, end]) of one in-process CLI call."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # a crash is an op outcome, not a harness error
            rc = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    return rc, out.getvalue(), [start, end]


def _run_grid(cli, workloads, ops, out: str) -> dict:
    (argv,) = ops
    rc, stdout, interval = _timed_cli(cli, argv)
    with open(out + ".stdout", "w") as f:
        f.write(stdout)
    return {"rc": rc, "intervals": [interval], "ops": workloads.GRID_REPORTS}


def _run_deep(lib, checks, ops) -> dict:
    """Both routes of one (a, b, n) are checked against each other once
    the second has run; a ValueError from the library is a refusal."""
    intervals: list[list[float]] = []
    outcomes: list[list[str]] = []
    pending: dict = {}
    for i, (route, a, b, n) in enumerate(ops):
        term = getattr(lib, f"term_{route}")
        start = time.perf_counter()
        try:
            value = term(lib.BiParams(a, b), n)
        except ValueError:
            value = None
        intervals.append([start, time.perf_counter()])
        value = checks.REFUSED if value is None else value.entries()
        outcomes.append([route, checks.OK])
        other = pending.pop((a, b, n), None)
        if other is None:
            pending[(a, b, n)] = (i, value)
            continue
        j, other_value = other
        if checks.REFUSED in (value, other_value):
            verdict = checks.REFUSED
        else:
            fast, binet = (value, other_value) if route == "fast" else (other_value, value)
            verdict = checks.check_deep(a, b, n, fast, binet)
        outcomes[i][1] = outcomes[j][1] = verdict
    return {"intervals": intervals, "outcomes": outcomes, "ops": len(intervals)}


def _run_mixed(cli, ops, out: str) -> dict:
    import json

    intervals: list[list[float]] = []
    with open(out + ".outputs.jsonl", "w") as f:
        for _, argv, _ in ops:
            rc, stdout, interval = _timed_cli(cli, argv)
            intervals.append(interval)
            f.write(json.dumps([rc, stdout]) + "\n")
    return {"intervals": intervals, "ops": len(intervals)}


def _measure(src: str, workload: str, seed: str, mode: str, seconds: str,
             out: str) -> dict | None:
    """Set-up and, unless MODE is `setup`, the ops; None if the program
    was imported from outside `src`."""
    start = time.perf_counter()
    sys.path.insert(0, src)
    import bijacobsthal
    from bijacobsthal import cli

    if not os.path.abspath(bijacobsthal.__file__).startswith(src + os.sep):
        print(f"bijacobsthal imported from outside {src}", file=sys.stderr)
        return None
    import workloads

    ops = workloads.OP_LISTS[workload](int(seed), float(seconds))
    result: dict = {"setup": [start, time.perf_counter()], "seed": int(seed)}

    if mode != "setup":
        import checks

        tracer = None
        if mode == "trace":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        if workload == workloads.GRID_VERIFY:
            result.update(_run_grid(cli, workloads, ops, out))
        elif workload == workloads.DEEP_TERMS:
            result.update(_run_deep(bijacobsthal, checks, ops))
        else:
            result.update(_run_mixed(cli, ops, out))
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            tracer.write(out + ".spans.csv.gz")
    return result


def main(argv: list[str]) -> int:
    root, workload, seed, mode, seconds, out = argv[1:7]
    src = os.path.join(os.path.abspath(root), "src")
    if mode == "trace":  # probes inside spans would count as program time
        result = _measure(src, workload, seed, mode, seconds, out)
    else:
        import probe  # before the set-up timer: it is not the program's cost

        host = probe.HostProbe()
        host.start()
        try:
            result = _measure(src, workload, seed, mode, seconds, out)
        finally:
            host.stop()
        if result is not None:
            result["probes"] = {name: sorted(runs) for name, runs in host.runs.items()}
    if result is None:
        return 2
    import json
    import resource

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["int_max_str_digits"] = getattr(sys, "get_int_max_str_digits", lambda: None)()
    with open(out + ".json", "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
