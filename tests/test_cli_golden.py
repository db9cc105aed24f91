"""Golden-file pin of the CLI: stdout, stderr and exit code of every `term`
kind, every `matrix` method, `series`, every `sum` mode and `verify` (with
and without --expect-errata), each in every output format.

The verify grid `--a -1..2 --b 1,1/2 --n-max 8` is small but holds both
kinds of non-PASS outcome: the weighted-sum erratum FAILs at x != 1, and
the ab = 1 points (a = 1, b = 1 and a = 2, b = 1/2) are SKIPPED.

To regenerate the golden file after an intended output change, run

    PYTHONPATH=src python3 tests/test_cli_golden.py

and review the diff of tests/golden_cli.json.
"""

import json
import os

import pytest

from bijacobsthal.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
FORMATS = ("plain", "json", "csv")


def _commands() -> list[list[str]]:
    commands = []
    for kind in ("jhat", "jlucas", "fibonacci", "lucas"):
        commands.append(["term", "--kind", kind, "--a", "2/3", "--b", "-3", "--n", "9"])
    commands.append(["term", "--kind", "jhat", "--a", "2", "--b", "1", "--n", "-1"])
    for method in ("recurrence", "closed", "binet", "fast", "all"):
        commands.append(["matrix", "--a", "-1/2", "--b", "3", "--n", "7",
                         "--method", method])
    commands.append(["matrix", "--a", "2", "--b", "-4", "--n", "5", "--method", "all"])
    commands.append(["series", "--a", "2/3", "--b", "-3", "--count", "6"])
    for extra in ([], ["--both"], ["--x", "1/2"], ["--x", "1/2", "--both"]):
        commands.append(["sum", "--a", "2", "--b", "3", "--n", "6", *extra])
    for extra in ([], ["--expect-errata"]):
        commands.append(["verify", "--suite", "all", "--a", "-1..2", "--b", "1,1/2",
                         "--n-max", "8", *extra])
    return [[*argv, "--format", fmt] for argv in commands for fmt in FORMATS]


def _run(capsys, argv: list[str]) -> dict:
    code = main(argv)
    captured = capsys.readouterr()
    return {"argv": argv, "exit": code, "stdout": captured.out, "stderr": captured.err}


def _golden() -> dict[str, dict]:
    with open(GOLDEN, encoding="utf-8") as f:
        return {" ".join(case["argv"]): case for case in json.load(f)}


def test_golden_file_covers_every_command():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in _commands())


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_cli_output_matches_golden(capsys, argv):
    assert _run(capsys, argv) == _golden()[" ".join(argv)]


def _regenerate() -> None:
    import contextlib
    import io

    cases = []
    for argv in _commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        cases.append({"argv": argv, "exit": code,
                      "stdout": out.getvalue(), "stderr": err.getvalue()})
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(cases, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    _regenerate()
