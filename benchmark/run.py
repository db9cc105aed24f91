"""Benchmark of the exact verifier: three workloads, measured from outside.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Every pass runs in a fresh interpreter (benchmark/worker.py) as a single
closed-loop client, so the memo starts cold and peak memory belongs to
that pass.  Times are scaled to a reference host speed (probe.py).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a separate traced pass.
A record with the run metadata and sample counts is written to
.bench_out/.  See benchmark/BENCHMARK.md.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import checks
import probe
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
# Untraced passes per run.  Each pass runs its own op list, so a run's
# figures pool two draws of the workload: on mixed_queries, two orders of
# the same calls, because the calls past p99 cost more or less by whether
# earlier calls left the memo warm.
PASSES = 2
# Set-up samples before, between and after the untraced passes.
SETUP_SAMPLES_PER_GAP = 3
DEADLINE_S = 170.0  # one run must end within 180 s


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def spawn(self, mode: str, part: int = 0) -> tuple[dict, str]:
        """Run one worker pass, in a fresh interpreter, over the op list of
        seed PASSES * seed + part that --seconds sizes; (its result, its
        output prefix).  A grid pass is one call."""
        self.count += 1
        out = os.path.join(OUT_DIR, f"{self.workload}-{self.count}")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), os.getcwd(),
               self.workload, str(PASSES * self.seed + part), mode, str(self.seconds), out]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("out of time before a worker pass")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"worker pass timed out: {' '.join(cmd[2:])}") from exc
        if proc.returncode != 0:
            raise HarnessError(f"worker pass failed ({proc.returncode}):\n{proc.stderr}")
        with open(out + ".json") as f:
            return json.load(f), out

    def setups(self) -> list[float]:
        return [op_times(self.workload, self.spawn("setup")[0], "setup")[0]
                for _ in range(SETUP_SAMPLES_PER_GAP)]

    def untraced(self) -> tuple[list[float], list]:
        """(set-up samples, untraced passes).  The host's speed drifts over
        a run, so the set-up samples are spread over all of it."""
        self.spawn("setup")  # unmeasured: compiles the bytecode caches
        setups, passes = self.setups(), []
        for part in range(PASSES):
            passes.append(self.spawn("run", part))
            setups += self.setups()
        return setups, passes


# --- correctness ---------------------------------------------------------

def outcomes_of(workload: str, seconds: int, passes) -> tuple[list[tuple[str, str]], bool]:
    """(op label, outcome) of every op over `passes`, and whether the grid's
    bytes matched the recorded digest (always True off the grid)."""
    outcomes: list[tuple[str, str]] = []
    digest_ok = True
    oracle = checks.Oracle()
    for result, out in passes:
        if workload == workloads.GRID_VERIFY:
            with open(out + ".stdout") as f:
                got, same = checks.check_grid(result["rc"], f.read())
            outcomes += [(w[0], o) for w, o in zip(checks.GRID_EXPECTED, got)]
            digest_ok &= same
        elif workload == workloads.DEEP_TERMS:
            outcomes += [tuple(pair) for pair in result["outcomes"]]
        else:
            ops = workloads.mixed_ops(result["seed"], seconds)
            with open(out + ".outputs.jsonl") as f:
                for (cls, _, spec), line in zip(ops, f):
                    rc, stdout = json.loads(line)
                    outcomes.append((cls, checks.check_mixed(oracle, cls, spec, rc, stdout)))
    return outcomes, digest_ok


# --- metrics -------------------------------------------------------------

def probe_weights(workload: str, part: str) -> dict[str, float]:
    """Probe-kernel weights for a pass's set-up (`part` "setup") or ops."""
    return workloads.SETUP_PROBE_WEIGHTS if part == "setup" else workloads.PROBE_WEIGHTS[workload]


def op_times(workload: str, result: dict, key: str = "intervals",
             scale: bool = True) -> list[float]:
    """Seconds of each interval of a worker pass (its set-up, or its ops),
    less the probe runs inside it, at the reference host speed unless
    `scale` is false.  A traced pass runs no probes."""
    intervals = [result[key]] if key == "setup" else result[key]
    if "probes" not in result:
        return [end - begin for begin, end in intervals]
    scaler = probe.Scaler(probe_weights(workload, key) if scale else {}, result["probes"])
    try:
        return [scaler.scaled(begin, end) for begin, end in intervals]
    except ValueError as exc:
        raise HarnessError(str(exc)) from exc


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  Where
    samples thin out, as past p99 on mixed_queries, it moves less with
    which few samples fall on either side of the rank than one order
    statistic does: over ten seeds of mixed_queries, op_p99_ms spread by
    0.085 with it and by 0.17 with linear interpolation."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def end_to_end(workload: str, setups: list[float], passes,
               scale: bool = True) -> tuple[dict, dict]:
    """(metrics, sample count behind each metric), over the ops of all
    passes, each scaled to the reference host speed.  A grid call's
    reports are not observable one by one from outside, so its per-op
    latency is the call's over its report count.
    """
    times = [op_times(workload, r, scale=scale) for r, _ in passes]
    ops = sum(r["ops"] for r, _ in passes)
    if workload == workloads.GRID_VERIFY:
        lat_ms = [1000 * t / r["ops"] for (r, _), (t,) in zip(passes, times)]
    else:
        lat_ms = [1000 * t for ts in times for t in ts]
    rss = [r["peak_rss_mb"] for r, _ in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / sum(map(sum, times)),
        "op_p50_ms": quantile(lat_ms, 0.50),
        "op_p99_ms": quantile(lat_ms, 0.99),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"setup_s": len(setups), "ops_per_s": ops, "op_p50_ms": len(lat_ms),
               "op_p99_ms": len(lat_ms), "peak_rss_mb": len(rss), "passes": len(passes)}
    return metrics, samples


def traced(runner: Runner) -> tuple[dict, list]:
    """PASSES untraced passes with one traced pass in their middle, so
    that drift in the host's speed falls on both sides, all over the op
    list of an untraced run's first pass.  The traced pass gives the
    per-layer metrics; its timed wall time minus the median of the
    untraced passes' is the tracing overhead."""
    modes = ["run"] * PASSES
    modes.insert(PASSES // 2, "trace")
    passes = [runner.spawn(mode) for mode in modes]
    walls = [sum(op_times(runner.workload, r, scale=False)) for r, _ in passes]
    traced_wall = walls.pop(PASSES // 2)
    layers = dict(passes[PASSES // 2][0]["layers"])
    layers["trace.overhead_s"] = traced_wall - statistics.median(walls)
    return layers, passes


# --- run metadata ----------------------------------------------------------

def metadata(seed: int, worker_result: dict) -> dict:
    commit = None
    if os.path.isdir(".git"):  # a benchmark checkout need not be a git repo
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join("src", "bijacobsthal")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "int_max_str_digits": worker_result.get("int_max_str_digits"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def declared_units(trace: bool) -> dict[str, str]:
    """{metric: unit} of the metrics BENCHMARK.json declares for the run."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join("src", "bijacobsthal", "__init__.py")):
        raise HarnessError("run from the root of a checkout: src/bijacobsthal is missing")
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in os.listdir(OUT_DIR):  # the previous run's worker files
        if name.startswith(workload + "-"):
            os.remove(os.path.join(OUT_DIR, name))
    units = declared_units(trace)
    runner = Runner(workload, seed, seconds)
    if trace:
        metrics, passes = traced(runner)
        samples, host = {}, {}
    else:
        setups, passes = runner.untraced()
        metrics, samples = end_to_end(workload, setups, passes)
        unscaled = end_to_end(workload, setups, passes, scale=False)[0]
        host = {"unscaled_metrics": {k: v for k, v in unscaled.items() if k != "setup_s"},
                "mean_probe_s": [{name: statistics.fmean(d for _, d in runs)
                                  for name, runs in r["probes"].items()} for r, _ in passes]}
    missing = sorted(units.keys() - metrics.keys())
    if missing:
        raise HarnessError(f"BENCHMARK.json declares metrics no run measures: {missing}")
    outcomes, digest_ok = outcomes_of(workload, seconds, passes)
    failures = collections.Counter(f"{label}: {o}" for label, o in outcomes if o != checks.OK)
    wrong = sum(o == checks.WRONG for _, o in outcomes)
    failed = sum(failures.values())
    record = {
        "workload": workload, "trace": int(trace), "seconds": seconds,
        "meta": metadata(seed, passes[0][0]),
        "samples": samples,
        "host_speed": host,
        "failed_ops_ratio": failed / len(outcomes),
        "failures": dict(sorted(failures.items())),
        "wrong_ops": wrong, "grid_digest_ok": digest_ok,
        "result": {
            "correct": wrong == 0 and digest_ok,
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }
    with open(os.path.join(OUT_DIR, f"record-{workload}-seed{seed}-trace{int(trace)}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(record["meta"]))
    print("samples " + json.dumps(record["samples"]))
    print(f"failed_ops_ratio {record['failed_ops_ratio']:.6f} "
          f"(wrong {record['wrong_ops']}, grid digest ok {record['grid_digest_ok']}) "
          + json.dumps(record["failures"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
