"""The float audit's hook flags a planted float (tools/audit_floats.py).

The tool runs the whole suite under its hook, which is too slow for
Tier-1; this test runs the hook on toy functions only, without pytest.
"""

import importlib.util
import sys
from fractions import Fraction as F
from pathlib import Path

from bijacobsthal.exact import Mat2, QuadNum

TOOL = Path(__file__).resolve().parents[1] / "tools" / "audit_floats.py"
TOY = "/toy/bijacobsthal/"


def _load_tool():
    spec = importlib.util.spec_from_file_location("audit_floats", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _toys(filename: str) -> dict:
    source = ("def half(x):\n    return x / 2\n"
              "def matrix(x):\n    return Mat2(x, 0, 0, 1)\n"
              "def root(x):\n    return QuadNum(1, x, 5)\n")
    namespace = {"Mat2": Mat2, "QuadNum": QuadNum}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def test_the_hook_flags_a_planted_float_and_only_that():
    tool = _load_tool()
    toys, outside = _toys(TOY + "toy.py"), _toys("/elsewhere/toy.py")
    with tool.FloatAudit(TOY) as audit:
        toys["half"](F(3))  # 3/2
        toys["half"](3)  # 1.5, planted
        toys["matrix"](F(1, 2))
        toys["matrix"](0.5)  # planted, as a Mat2 entry
        toys["root"](F(1, 2))
        toys["root"](1j)  # planted, as a QuadNum field
        outside["half"](3)  # not a library function
    assert audit.returns == 6
    assert audit.floats == 3
    assert [name for name, _, _ in audit.flagged] == ["half", "matrix", "root"]
    assert audit.flagged[0][1:] == [TOY + "toy.py:2", "1.5"]


def test_an_audit_inside_an_audit_gives_the_outer_hook_back():
    tool = _load_tool()
    toys = _toys(TOY + "toy.py")
    before = sys.getprofile()
    with tool.FloatAudit(TOY) as outer:
        with tool.FloatAudit(TOY) as inner:
            toys["half"](3)
        assert sys.getprofile() is outer
        toys["half"](5)
    assert sys.getprofile() is before
    assert (inner.floats, outer.floats) == (1, 1)
