"""The README's examples that show their output print that output.

Each example is found in README.md by its exact text, and the output
shown in its trailing `# ...` comment (or in the comment on the next line)
is compared with what the command or library call gives.
"""

import os
import shlex
import pytest

from bijacobsthal import (
    BiParams, SeqKind, build_ogf, det_closed, scalar_term, series_coeffs,
    term_recurrence,
)
from bijacobsthal.cli import main
from bijacobsthal.exact import Mat2

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

COMMANDS = [
    "bijacobsthal term --kind jhat --a 2 --b 1 --n 5",
    "bijacobsthal term --kind jhat --a 1 --b 1 --n 8",
    "bijacobsthal term --kind jhat --a 2 --b 1 --n -1",
    "bijacobsthal matrix --a 2 --b 1 --n 2 --format json",
    "bijacobsthal matrix --a 2 --b 1 --n 3 --method all",
]

LIBRARY_CALLS = [
    "scalar_term(SeqKind.BP_JACOBSTHAL, p, 5)",
    "scalar_term(SeqKind.BP_JACOBSTHAL, p, -1)",
    "term_recurrence(p, 4)",
    "det_closed(p, 5)",
    "series_coeffs(build_ogf(p), 3)[2]",
]


def _shown_output(example: str) -> str:
    """The output the README shows for the line that starts with `example`."""
    with open(README, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        text = line.strip()
        if text == example or text.startswith(example + " "):
            rest = text[len(example):].strip()
            if not rest:
                rest = lines[i + 1].strip()
            assert rest.startswith("# "), line
            return rest[2:].strip()
    raise AssertionError(f"README.md does not show {example!r}")


@pytest.mark.parametrize("command", COMMANDS)
def test_command_line_examples(capsys, command):
    shown = _shown_output(command)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.strip() == shown


@pytest.mark.parametrize("call", LIBRARY_CALLS)
def test_library_quick_start_examples(call):
    shown = _shown_output(call)
    with open(README, encoding="utf-8") as f:
        assert "\np = BiParams(2, 1)\n" in f.read()
    namespace = {
        "SeqKind": SeqKind, "scalar_term": scalar_term,
        "term_recurrence": term_recurrence, "det_closed": det_closed,
        "build_ogf": build_ogf, "series_coeffs": series_coeffs,
        "p": BiParams(2, 1),
    }
    value = eval(call, namespace)
    if isinstance(value, Mat2):
        assert f"Mat2 {value}" == shown
    else:
        assert repr(value) == shown
