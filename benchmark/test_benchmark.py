"""Self-tests of the benchmark (not of the program).

    python3 -m pytest benchmark/test_benchmark.py

Run from the repository root.  The smoke tests at the end start the
benchmark itself and take about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bijacobsthal import cli  # noqa: E402

F = Fraction


# --- op lists ------------------------------------------------------------

@pytest.mark.parametrize("make", [workloads.deep_ops, workloads.mixed_ops])
def test_same_seed_same_ops_other_seed_other_ops(make):
    assert make(7, 10) == make(7, 10)
    assert make(7, 10) != make(8, 10)


def test_grid_ignores_the_seed():
    assert workloads.grid_ops(1) == workloads.grid_ops(2) == [workloads.GRID_ARGV]


def test_deep_is_a_latin_hypercube_over_log2_n():
    strata = workloads.deep_strata(12)
    ops = workloads.deep_ops(3, 12)
    size = len(workloads.DEEP_PAIRS) * len(workloads.DEEP_ROUTES)
    assert len(ops) == strata * size
    for a, b in workloads.DEEP_PAIRS:
        ns = sorted({n for route, x, y, n in ops if (x, y) == (a, b)})
        assert len(ns) == strata
        lo, hi = workloads.DEEP_LOG2_N
        cells = [int((math.log2(n) - lo) / (hi - lo) * strata) for n in ns]
        assert sorted(min(c, strata - 1) for c in cells) == list(range(strata))
    for r in range(strata):  # every round has each (a, b, n) on both routes
        chunk = ops[r * size:(r + 1) * size]
        assert [route for route, *_ in chunk].count("fast") == size // 2
        assert len({(a, b, n) for _, a, b, n in chunk}) == len(workloads.DEEP_PAIRS)


def test_mixed_contains_every_seed_defect_early():
    ops = workloads.mixed_ops(5, 15)
    first = ops[:300]
    assert any(cls == "matrix_fast" for cls, _, _ in first)
    assert any(cls == "sum_plain" and spec[0] * spec[1] == 1 for cls, _, spec in first)
    assert any(cls == "sum_x" and checks._t6_den(spec[0], spec[1], spec[3]) == 0
               for cls, _, spec in first)
    keys = {(spec[0], spec[1], spec[2]) for cls, _, spec in ops if cls == "term"}
    assert len(keys) > 64  # more (kind, a, b) series than the memo holds


# --- checkers reject wrong values ----------------------------------------

def test_oracle_matches_known_terms():
    o = checks.Oracle()
    assert [o.scalar("jhat", F(1), F(1), n) for n in range(9)] == [0, 1, 1, 3, 5, 11, 21, 43, 85]
    assert [o.scalar("jlucas", F(1), F(1), n) for n in range(6)] == [2, 1, 5, 7, 17, 31]
    assert o.scalar("jhat", F(2), F(1), 5) == 20
    assert o.matrix(F(2), F(1), 4) == (20, 12, 12, 8)
    assert o.matrix(F(1), F(1), 4100) == checks.Oracle().matrix(F(1), F(1), 4100)


def test_check_deep_rejects_wrong_values():
    a, b, n = F(1, 2), F(-3, 4), 11
    good = checks.Oracle().matrix(a, b, n)
    assert checks.check_deep(a, b, n, good, good) == checks.OK
    bad = (good[0] + 1,) + good[1:]
    assert checks.check_deep(a, b, n, good, bad) == checks.WRONG
    assert checks.check_deep(a, b, n, bad, bad) == checks.WRONG  # det gate
    assert checks.det_expected(F(2), F(1), 5) == -16


def _grid_stdout(rows) -> str:
    lines = []
    for ident, a, b, x, n_max, status in rows:
        d = {"identity": ident, "a": workloads.fmt(a), "b": workloads.fmt(b)}
        if x is not None:
            d["x"] = workloads.fmt(x)
        d.update(n_max=n_max, status=status)
        lines.append(json.dumps(d))
    return "\n".join(lines) + "\n"


def test_check_grid_rejects_wrong_status_count_bytes_and_exit():
    rows = checks.GRID_EXPECTED
    assert len(rows) == workloads.GRID_REPORTS
    outcomes, digest_ok = checks.check_grid(0, _grid_stdout(rows))
    assert outcomes == [checks.OK] * len(rows)
    assert not digest_ok  # same statuses, different bytes than the seed's
    flipped = list(rows)
    i = next(i for i, r in enumerate(rows) if r[5] == "PASS")
    flipped[i] = rows[i][:5] + ("FAIL",)
    outcomes, _ = checks.check_grid(0, _grid_stdout(flipped))
    assert outcomes.count(checks.WRONG) == 1
    outcomes, _ = checks.check_grid(0, _grid_stdout(rows[:-1]))
    assert outcomes[-1] == checks.WRONG
    assert set(checks.check_grid(2, "")[0]) == {checks.REFUSED}
    assert set(checks.check_grid(1, "")[0]) == {checks.WRONG}


def _cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def _bump(text: str, first: bool = False) -> str:
    """Change one digit of the output: the first one, or the last."""
    digits = [m.start() for m in re.finditer(r"\d", text)]
    i = digits[0] if first else digits[-1]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


CHECKED_CLASSES = ("term", "matrix_all", "series", "sum_plain", "sum_both", "sum_x",
                   "sum_x_both", "verify")


def test_check_mixed_accepts_program_output_and_rejects_corruption():
    """Every class in every format: the program's own output passes, and
    the same output with one digit or one status changed does not."""
    oracle = checks.Oracle()
    todo = {(c, f) for c in CHECKED_CLASSES for f in workloads.FORMATS}
    for cls, argv, spec in workloads.mixed_ops(0, 48):
        if (cls, argv[-1]) not in todo:
            continue
        rc, stdout = _cli(argv)
        outcome = checks.check_mixed(oracle, cls, spec, rc, stdout)
        if rc == 2:
            assert outcome in (checks.OK, checks.REFUSED), argv
            continue
        assert outcome == checks.OK, (argv, rc, stdout[:200])
        if cls == "verify":
            bad = stdout.replace("PASS", "FAIL", 1) if "PASS" in stdout \
                else stdout.replace("FAIL", "PASS", 1)
        else:
            bad = _bump(stdout, first=(cls == "sum_x_both"))
        assert checks.check_mixed(oracle, cls, spec, rc, bad) == checks.WRONG, argv
        todo.discard((cls, argv[-1]))
    assert not todo


def test_seed_defects_are_refusals():
    oracle = checks.Oracle()
    one = F(1)
    for cls, argv, spec in [
            ("sum_plain", ("sum", "--a", "1", "--b", "1", "--n", "5"), (one, one, 5, None, False, "plain")),
            ("sum_x", ("sum", "--a", "1", "--b", "1", "--n", "5", "--x", "4"), (one, one, 5, F(4), False, "plain")),
            ("matrix_fast", ("matrix", "--a", "1", "--b", "1", "--n", "14300", "--method", "fast"),
             (one, one, 14300, "plain"))]:
        rc, stdout = _cli(argv)
        assert checks.check_mixed(oracle, cls, spec, rc, stdout) == checks.REFUSED, argv


def test_check_mixed_exit_codes():
    oracle = checks.Oracle()
    spec = ("jhat", F(2), F(1), 5, "plain")
    assert checks.check_mixed(oracle, "term", spec, 0, "20\n") == checks.OK
    assert checks.check_mixed(oracle, "term", spec, 0, "21\n") == checks.WRONG
    assert checks.check_mixed(oracle, "term", spec, 0, "20/0\n") == checks.WRONG
    assert checks.check_mixed(oracle, "term", spec, 2, "") == checks.REFUSED
    assert checks.check_mixed(oracle, "term", spec, 1, "") == checks.WRONG
    assert checks.check_mixed(oracle, "term", spec, "ValueError: x", "") == checks.WRONG
    assert checks.check_mixed(oracle, "invalid", (), 2, "") == checks.OK
    assert checks.check_mixed(oracle, "invalid", (), 0, "1\n") == checks.WRONG


def test_parse_int_past_the_digit_limit():
    big = 7 ** 6000  # about 5070 digits
    text = "".join(str(big // 10 ** (4000 * k) % 10 ** 4000).zfill(4000)
                   for k in reversed(range(2))).lstrip("0")
    assert checks.parse_int(text) == big
    assert checks.parse_int("-" + text) == -big


# --- tracing ---------------------------------------------------------------

def test_self_time_on_a_synthetic_tree():
    #   0: [0, 10]  children 1 and 3;  1: [1, 4]  child 2;  2: [2, 3];  3: [5, 6]
    starts, ends, parents = [0, 1, 2, 5], [10, 4, 3, 6], [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [6, 2, 1, 1]
    # Overlapping children are covered once; a child past the parent's end
    # is clipped to it.
    assert spans.self_times([0, 1, 4], [10, 5, 12], [-1, 0, 0]) == [1, 4, 8]


def test_tracer_wraps_every_binding_and_restores_them():
    import bijacobsthal
    from bijacobsthal import exact, matrixseq, verifier

    originals = (bijacobsthal.term_fast, cli.METHODS["fast"], verifier.term_fast,
                 exact.Mat2.__dict__["__mul__"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.METHODS["fast"] is verifier.term_fast is bijacobsthal.term_fast
        assert cli.METHODS["fast"] is not originals[0]
        assert _cli(["matrix", "--a", "2", "--b", "1", "--n", "40", "--method", "all"])[0] == 0
    finally:
        tracer.uninstall()
    assert (bijacobsthal.term_fast, cli.METHODS["fast"], verifier.term_fast,
            exact.Mat2.__dict__["__mul__"]) == originals
    assert matrixseq.term_fast is originals[0]
    m = tracer.metrics()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {d["name"] for d in json.load(f)["per_layer"]}
    assert declared - set(m) == {"trace.overhead_s"}  # added by run.py
    assert m["cli.main.self_s"] > 0
    for route in ("recurrence", "closed", "fast", "binet"):
        assert m[f"matrixseq.term_{route}.calls"] == 1
    assert m["exact.Mat2.mul.calls"] > 0 and m["scalar.new_terms"] > 0
    assert m["matrixseq.max_term_bits"] > 0


# --- metrics -----------------------------------------------------------------

def test_quantile_is_harrell_davis():
    assert math.isclose(run.beta_cdf(2, 3, 0.4), 0.5248)  # 1 - 0.6^4 - 4(0.4)(0.6)^3
    assert math.isclose(run.beta_cdf(3713.0, 37.9, 0.99), 1 - run.beta_cdf(37.9, 3713.0, 0.01))
    assert run.quantile([3.0] * 9, 0.99) == pytest.approx(3.0)
    assert run.quantile([2.0, 1.0], 0.5) == pytest.approx(1.5)
    assert run.quantile(list(range(1, 102)), 0.5) == pytest.approx(51.0)
    # p99 of two samples leans to the larger; p50 of many tracks the median
    assert 1.99 < run.quantile([1.0, 2.0], 0.99) < 2.0
    xs = [float(i) for i in range(1000)]
    assert run.quantile(xs, 0.5) < run.quantile(xs, 0.99) == pytest.approx(989.5, abs=0.5)


# --- host-speed scaling ------------------------------------------------------

def test_scaler_removes_probe_time_and_scales_by_probe_speed():
    ref_small, ref_big = probe.KERNELS["small"][1], probe.KERNELS["big"][1]
    # small runs every 10 ms at half the reference speed, big every 50 ms
    # at the reference speed; [0.105, 0.195] holds 9 small runs and 1 big.
    runs = {"small": [(t / 100, 2 * ref_small) for t in range(100)],
            "big": [(t / 20, ref_big) for t in range(20)]}
    own = 0.09 - 9 * 2 * ref_small - ref_big
    assert math.isclose(probe.Scaler({}, runs).scaled(0.105, 0.195), own)
    assert math.isclose(probe.Scaler({"small": 1.0}, runs).scaled(0.105, 0.195), own / 2)
    assert math.isclose(probe.Scaler({"big": 1.0}, runs).scaled(0.105, 0.195), own)
    assert math.isclose(probe.Scaler({"small": 0.5, "big": 0.5}, runs).scaled(0.105, 0.195),
                        own / math.sqrt(2))
    far = {"small": [(5.0, ref_small)], "big": []}
    with pytest.raises(ValueError):
        probe.Scaler({"small": 1.0}, far).scaled(0.0, 1.0)


def test_host_probe_runs_each_kernel_on_its_own_schedule():
    host = probe.HostProbe()
    host.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        host.stop()
    assert 20 <= len(host.runs["small"]) <= 31
    assert 4 <= len(host.runs["big"]) <= 7
    assert all(length > 0 for _, length in host.runs["small"] + host.runs["big"])


# --- smoke runs --------------------------------------------------------------

def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "benchmark", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    (workloads.GRID_VERIFY, "0"), (workloads.DEEP_TERMS, "0"), (workloads.DEEP_TERMS, "1"),
    (workloads.MIXED_QUERIES, "0")])
def test_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if workload == workloads.MIXED_QUERIES:
        assert result["failed"] > 0  # the seed commit's CLI defects
    else:
        assert result["failed"] == 0


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmark"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _bench("--workload", workloads.DEEP_TERMS, "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
