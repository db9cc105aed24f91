"""The mixed_queries class table (tools/class_shares.py) on a short op list."""

import importlib.util
import json
import os
import platform
import sys
from collections import Counter
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "class_shares.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("class_shares", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_table_counts_each_class_of_the_first_calls():
    tool = _load_tool()
    table = json.loads(json.dumps(tool.class_shares(1, 40, 1)))
    ops = tool._workloads().mixed_ops(1, tool.RUN_SECONDS)[:40]
    classes = table["classes"]
    assert {cls: row["calls"] for cls, row in classes.items()} == Counter(op[0] for op in ops)
    assert (table["seed"], table["calls"], table["passes"]) == (1, 40, 1)
    assert (table["cores"], table["python"]) == (os.cpu_count(), platform.python_version())
    assert classes["invalid"]["exit_2"] == classes["invalid"]["calls"]
    spent = [row["cpu_ms"] for row in classes.values()]
    assert spent == sorted(spent, reverse=True)
    assert sum(spent) == pytest.approx(table["cpu_ms"], abs=0.01)
    assert sum(row["share"] for row in classes.values()) == pytest.approx(1, abs=0.01)
    assert 0 < table["p99_ms"] <= max(row["max_ms"] for row in classes.values())
    # each pass starts cold, so a second pass prints the same bytes
    assert tool.class_shares(1, 40, 2)["outputs_sha256"] == table["outputs_sha256"]


def test_the_table_gives_the_p99_call_and_each_class_slowest_call(monkeypatch):
    # Call i (from 0) takes i + 1 ms: the p99 of 1..40 ms, inclusive, is
    # 39 + 0.61 ms, and a class's slowest call is its last one.
    tool = _load_tool()
    ops = tool._workloads().mixed_ops(1, tool.RUN_SECONDS)[:40]
    clock = iter(range(1, 41))
    monkeypatch.setattr(tool, "_call", lambda main, argv: (next(clock) / 1000, (0, "", "")))
    table = tool.class_shares(1, 40, 1)
    assert table["p99_ms"] == pytest.approx(39.61)
    last = {op[0]: i + 1 for i, op in enumerate(ops)}
    assert {cls: row["max_ms"] for cls, row in table["classes"].items()} == pytest.approx(last)
    assert all(row["median_ms"] <= row["max_ms"] for row in table["classes"].values())


def test_main_prints_the_whole_table_for_the_seed_as_one_line(capsys, monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "class_shares", lambda seed: {"seed": seed})
    path = list(sys.path)
    assert tool.main(["7"]) == 0
    assert tool.main([]) == 0
    assert capsys.readouterr().out == '{"seed": 7}\n{"seed": 1}\n'
    assert sys.path == path
