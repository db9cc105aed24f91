"""Audit every value the library returns, while the tests run, for floats.

    python3 tools/audit_floats.py [pytest arguments]

Runs pytest in this process (on `tests/` unless arguments are given) with
a `sys.setprofile` hook, set for new threads too, that sees every return
of a function defined under `src/bijacobsthal`, a generator's yields
among them.  A return is flagged when it is a `float` or a `complex`, or
a `Mat2` or `QuadNum` with one as a field.  `==` cannot show a float,
since `Fraction(1, 2) == 0.5`.  Containers are not looked into, so
`bench`'s CPU times, floats by design, pass inside their (seconds,
value) tuples.  The CLI calls that the tests make in a subprocess are not
seen.

Prints pytest's own output, then one JSON line: the returns seen, the
floats found, the first few flagged returns (function, file:line, value)
and pytest's exit code.  Exits 1 on any float, 2 when pytest did not
pass, and 0 otherwise.  The hook makes the tests take about five times
as long.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = str(ROOT / "src" / "bijacobsthal") + os.sep
KEPT = 20  # flagged returns listed in the JSON line


class FloatAudit:
    """A profile hook that counts the returns of functions whose file lies
    under `prefix`, and records those that hold a float.  As a context
    manager it installs itself for this thread and for new ones, and
    puts back the hooks it found."""

    def __init__(self, prefix: str = PACKAGE) -> None:
        from bijacobsthal.exact import Mat2, QuadNum

        self.prefix, self.mat2, self.quad = prefix, Mat2, QuadNum
        self.returns = 0
        self.floats = 0
        self.flagged: list[list[str]] = []

    def holds_float(self, value) -> bool:
        """True for a float or complex, or a `Mat2` or `QuadNum` with one
        as a field."""
        if isinstance(value, self.mat2):
            parts = value.entries()
        elif isinstance(value, self.quad):
            parts = value.rat, value.coeff, value.disc
        else:
            parts = (value,)
        return any(isinstance(part, (float, complex)) for part in parts)

    def __call__(self, frame, event, arg) -> None:
        if event != "return" or not frame.f_code.co_filename.startswith(self.prefix):
            return
        self.returns += 1
        if self.holds_float(arg):
            self.floats += 1
            if len(self.flagged) < KEPT:
                code = frame.f_code
                self.flagged.append([getattr(code, "co_qualname", code.co_name),
                                     f"{code.co_filename}:{frame.f_lineno}", repr(arg)])

    def __enter__(self) -> FloatAudit:
        # The hooks in place are put back on exit, so an audit made inside
        # an audited run (the tool's own test) does not end the outer one.
        self.outer = sys.getprofile(), threading.getprofile()
        threading.setprofile(self)
        sys.setprofile(self)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self.outer[0])
        threading.setprofile(self.outer[1])


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    with FloatAudit() as audit:
        status = int(pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"]))
    print(json.dumps({"returns": audit.returns, "floats": audit.floats,
                      "flagged": audit.flagged, "pytest_exit": status}))
    if audit.floats:
        return 1
    return 0 if status == 0 else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
