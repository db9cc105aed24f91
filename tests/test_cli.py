import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction as F

import pytest

from bijacobsthal import ALL_IDENTITIES, cli, matrixseq, report, scalar, verifier
from bijacobsthal.cli import main, parse_grid_values
from bijacobsthal.exact import Mat2, parse_rational
from bijacobsthal.scalar import BiParams

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_term_examples(capsys):
    code, out, _ = run_cli(capsys, "term", "--kind", "jhat", "--a", "2", "--b", "1", "--n", "5")
    assert (code, out.strip()) == (0, "20")
    code, out, _ = run_cli(capsys, "term", "--kind", "jhat", "--a", "1", "--b", "1", "--n", "8")
    assert (code, out.strip()) == (0, "85")
    code, out, _ = run_cli(capsys, "term", "--kind", "jhat", "--a", "2", "--b", "1", "--n=-1")
    assert (code, out.strip()) == (0, "1/2")


def test_term_other_kinds(capsys):
    code, out, _ = run_cli(capsys, "term", "--kind", "jlucas", "--a", "2", "--b", "1", "--n", "3")
    assert (code, out.strip()) == (0, "16")
    code, out, _ = run_cli(capsys, "term", "--kind", "fibonacci", "--a", "2", "--b", "3", "--n", "5")
    assert (code, out.strip()) == (0, "55")
    code, out, _ = run_cli(capsys, "term", "--kind", "lucas", "--a", "2", "--b", "3", "--n", "5")
    assert (code, out.strip()) == (0, "142")


def test_term_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "term", "--kind", "jhat", "--a", "-7/3", "--b", "2",
                           "--n", "9", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert parse_rational(data["a"]) == F(-7, 3)
    assert parse_rational(data["value"]) is not None


def test_term_domain_errors(capsys):
    code, _, err = run_cli(capsys, "term", "--kind", "jhat", "--a", "0", "--b", "1", "--n", "3")
    assert code == 2 and "nonzero" in err
    code, _, err = run_cli(capsys, "term", "--kind", "jhat", "--a", "2", "--b", "1", "--n=-2")
    assert code == 2 and "out of domain" in err
    code, _, err = run_cli(capsys, "term", "--kind", "jlucas", "--a", "2", "--b", "1", "--n=-1")
    assert code == 2
    code, _, err = run_cli(capsys, "term", "--kind", "jhat", "--a", "1.5", "--b", "1", "--n", "3")
    assert code == 2 and "rational" in err


@pytest.mark.parametrize("kind", ["jlucas", "fibonacci", "lucas"])
def test_term_index_minus_one_names_the_kind_as_typed(capsys, kind):
    code, out, err = run_cli(capsys, "term", "--kind", kind, "--a", "2", "--b", "1",
                             "--n", "-1")
    assert (code, out, err) == (2, "", "error: index -1 is only defined for jhat\n")


_TERM_PAIRS = [("2", "1"), ("1", "1"), ("-3", "2"), ("2", "-4"), ("5/7", "-7/9"),
               ("1/2", "-3/4"), ("-3/2", "1/3")]


def test_term_prints_what_rendering_scalar_term_prints(capsys, monkeypatch):
    # `term` reads the two-step power; with the prefix memo's
    # `scalar_term` in its place, every kind, format and index prints
    # the same bytes, ab = 1 and ab = -8 among the pairs
    rng = random.Random(41)
    indices = [0, 1, 2, *rng.sample(range(3, 4000), 5), 4095, 4096]
    argvs = [["term", "--kind", kind, f"--a={a}", f"--b={b}", f"--n={n}",
              "--format", fmt]
             for kind in ("jhat", "jlucas", "fibonacci", "lucas")
             for a, b in _TERM_PAIRS
             for n in ([-1] if kind == "jhat" else []) + indices
             for fmt in ("plain", "json", "csv")]
    got = [run_cli(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(cli, "scalar_term_fast", scalar.scalar_term)
    for argv, outcome in zip(argvs, got):
        assert outcome[0] == 0 and outcome[1], argv
        assert outcome == run_cli(capsys, *argv), argv


def test_term_fills_no_scalar_memo(capsys):
    # a term with n >= 0 is one power, and n = -1 is a constant, so no
    # `term` call steps or keeps a prefix on its point
    scalar.clear_caches()
    for kind in ("jhat", "jlucas", "fibonacci", "lucas"):
        for n, fmt in [("0", "plain"), ("7", "json"), ("300", "csv")]:
            code, out, err = run_cli(capsys, "term", "--kind", kind, "--a", "1/2",
                                     "--b=-3/4", "--n", n, "--format", fmt)
            assert (code, err) == (0, ""), (kind, n)
            assert out
    assert run_cli(capsys, "term", "--kind", "jhat", "--a", "2", "--b", "1",
                   "--n=-1") == (0, "1/2\n", "")
    assert run_cli(capsys, "term", "--kind", "jhat", "--a", "2", "--b", "1",
                   "--n=-2")[0] == 2
    assert len(scalar._points) == 2
    assert not any(p.series for p in scalar._points.values())


def test_matrix_json_exact_shape(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--a", "2", "--b", "1", "--n", "2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"e11": "4", "e12": "2", "e21": "2", "e22": "2"}


def test_matrix_plain_and_methods(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--a", "1", "--b", "1", "--n", "0")
    assert (code, out.strip()) == (0, "[[1,0],[0,1]]")
    code, out, _ = run_cli(capsys, "matrix", "--a", "2", "--b", "1", "--n", "3",
                           "--method", "all")
    assert (code, out.strip()) == (0, "[[6,4],[4,2]]")
    for method in ("recurrence", "closed", "binet", "fast"):
        code, out, _ = run_cli(capsys, "matrix", "--a", "2", "--b", "1", "--n", "3",
                               "--method", method)
        assert (code, out.strip()) == (0, "[[6,4],[4,2]]")


def test_matrix_method_all_on_sample_grid(capsys):
    for a in ("-2", "1", "3"):
        for b in ("-1", "2"):
            for n in ("0", "1", "7", "16"):
                code, _, _ = run_cli(capsys, "matrix", "--a", a, "--b", b,
                                     "--n", n, "--method", "all")
                assert code == 0


def test_matrix_degenerate_binet_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "matrix", "--a", "2", "--b=-4", "--n", "3",
                           "--method", "binet")
    assert code == 2 and "repeated" in err
    # --method all still works there, restricted to the other routes
    code, out, err = run_cli(capsys, "matrix", "--a", "2", "--b=-4", "--n", "3",
                             "--method", "all")
    assert code == 0 and "skipped" in err


@pytest.mark.parametrize("route", ["closed", "fast"])
@pytest.mark.parametrize("a, b, value, reference, note", [
    ("2", "1", "[[7,4],[4,3]]", "[[6,4],[4,2]]", ""),
    ("2", "-4", "[[17,24],[-6,-7]]", "[[16,24],[-6,-8]]",
     "note: ab = -8, root-based route skipped\n"),
])
def test_matrix_method_all_reports_a_route_mismatch(capsys, monkeypatch, route,
                                                    a, b, value, reference, note):
    fn = verifier.ROUTES[route]
    monkeypatch.setitem(verifier.ROUTES, route,
                        lambda params, n: fn(params, n) + Mat2.identity())
    code, out, err = run_cli(capsys, "matrix", "--a", a, f"--b={b}", "--n", "3",
                             "--method", "all")
    assert (code, out) == (1, "")
    assert err == (f"{note}method mismatch: {route} gave {value}, "
                   f"recurrence gave {reference}\n")


def _choices(command, dest):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def test_one_route_table_and_one_suite_table():
    assert cli.METHODS is verifier.ROUTES
    routes = ["recurrence", "closed", "binet", "fast"]
    assert list(verifier.ROUTES) == routes
    # binet is dropped exactly where ab = -8 (disc = 0), and nowhere else
    for a, b in [(2, -4), (-8, 1), (F(1, 2), -16)]:
        defined = verifier.defined_routes(BiParams(a, b))
        assert list(defined) == ["recurrence", "closed", "fast"]
        assert all(defined[name] is verifier.ROUTES[name] for name in defined)
    for a, b in [(1, 1), (F(1, 2), F(-3, 4)), (-4, -2)]:
        defined = verifier.defined_routes(BiParams(a, b))
        assert defined == verifier.ROUTES and list(defined) == routes
    suites = ("CASSINI", "DET", "DOUBLING", "LUCAS_RELATIONS", "SUM_T5",
              "WEIGHTED_SUM_T6", "ROOT_IDENTITIES", "SERIES_MATCH", "CROSS_METHOD")
    assert ALL_IDENTITIES == verifier.ALL_IDENTITIES == suites
    assert _choices("matrix", "method") == (*routes, "all")
    assert _choices("verify", "suite") == (*suites, "all")


def test_series_output(capsys):
    code, out, _ = run_cli(capsys, "series", "--a", "2", "--b", "1", "--count", "3")
    assert code == 0
    assert out.splitlines() == ["[[1,0],[0,1]]", "[[1,1],[1,0]]", "[[4,2],[2,2]]"]
    code, out, _ = run_cli(capsys, "series", "--a", "2", "--b", "1", "--count", "3",
                           "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "m,e11,e12,e21,e22"
    assert lines[3] == "2,4,2,2,2"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this Python")
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("argv, size", [
    (["series", "--a", "1", "--b", "1", "--count"], 2200),
    (["matrix", "--a", "1", "--b", "1", "--method", "fast", "--n"], 2200),
], ids=["series", "matrix"])
def test_a_result_past_the_digit_limit_prints_nothing(capsys, argv, size, fmt):
    # Under a 640-digit limit the last term has over 660 digits, so the call
    # exits 2 with nothing on stdout, though every earlier line renders; a
    # result under the limit prints in full.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        refused = run_cli(capsys, *argv, str(size), "--format", fmt)
        printed = run_cli(capsys, *argv, str(size // 2), "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert refused[:2] == (2, "") and "error: Exceeds the limit" in refused[2]
    assert printed[0] == 0 and printed[1].endswith("\n")
    if argv[0] == "series" and fmt != "json":
        assert len(printed[1].splitlines()) == size // 2 + (fmt == "csv")


def test_sum_weighted_mismatch(capsys):
    code, out, _ = run_cli(capsys, "sum", "--a", "2", "--b", "1", "--x", "2",
                           "--n", "2", "--both")
    assert code == 1
    assert "[[3/2,1/2],[1/2,1]]" in out
    assert "[[3,1],[1,2]]" in out
    assert "MISMATCH" in out


def test_sum_plain_match(capsys):
    code, out, _ = run_cli(capsys, "sum", "--a", "2", "--b", "1", "--n", "4", "--both")
    assert code == 0
    assert out.count("[[12,7],[7,5]]") == 2
    assert "MISMATCH" not in out
    code, out, _ = run_cli(capsys, "sum", "--a", "2", "--b", "1", "--n", "4")
    assert (code, out.strip()) == (0, "[[12,7],[7,5]]")


def test_sum_json(capsys):
    code, out, _ = run_cli(capsys, "sum", "--a", "2", "--b", "1", "--x", "2",
                           "--n", "2", "--both", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["direct"]["e11"] == "3/2"
    assert data["closed_form"]["e11"] == "3"
    assert data["match"] is False


def test_sum_fills_no_matrix_memo(capsys):
    # the direct sum is one power and the closed forms read J[n] and
    # J[n-1] by `term_fast`, so no `sum` call walks the recurrence memo
    scalar.clear_caches()
    point = ("sum", "--a", "1/2", "--b=-3/4", "--n", "40")
    for extra, exit_code in [((), 0), (("--both",), 0), (("--x=-2/3",), 0),
                             (("--x=-2/3", "--both"), 1)]:
        code, out, err = run_cli(capsys, *point, *extra)
        assert (code, err) == (exit_code, ""), extra
        assert out
    assert len(scalar._points) == 1
    assert not any(p.series for p in scalar._points.values())


def test_plain_sum_evaluates_no_closed_form(capsys, monkeypatch):
    """With the closed forms' entry points broken, plain `sum` and
    `sum --x` print their golden bytes in every format, and `--both`
    still reaches them."""
    with open(os.path.join(ROOT, "tests", "golden_cli.json"), encoding="utf-8") as f:
        golden = {" ".join(case["argv"]): case for case in json.load(f)}
    reached = []

    def broken(name):
        def closed_form(*args):
            reached.append(name)
            raise AssertionError(f"{name} evaluated for a plain sum")
        return closed_form

    for module, name in [(cli, "sum_closed_form"), (cli, "weighted_sum_printed_form"),
                         (verifier, "_build_printed")]:
        monkeypatch.setattr(module, name, broken(name))
    for extra in [(), ("--x", "1/2")]:
        for fmt in ("plain", "json", "csv"):
            argv = ["sum", "--a", "2", "--b", "3", "--n", "6", *extra, "--format", fmt]
            case = golden[" ".join(argv)]
            assert run_cli(capsys, *argv) == (case["exit"], case["stdout"], case["stderr"])
    assert reached == []
    for extra, name in [((), "sum_closed_form"), (("--x", "1/2"), "weighted_sum_printed_form")]:
        with pytest.raises(AssertionError):
            main(["sum", "--a", "2", "--b", "3", "--n", "6", *extra, "--both"])
        assert reached.pop() == name
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("extra, message", [
    ((), "closed form divides by 1 - ab"),
    (("--x", "4"), "x^2 - (ab+4)x + 4 vanishes at this x"),
])
def test_plain_sum_refuses_where_the_printed_form_is_undefined(capsys, fmt, extra, message):
    # The direct sum is defined at these calls; the refusal is the printed
    # form's pole, kept until the CLI prints what it computes.
    assert run_cli(capsys, "sum", "--a", "1", "--b", "1", "--n", "5", *extra,
                   "--format", fmt) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("both", [(), ("--both",)])
@pytest.mark.parametrize("extra, message", [
    (("--n", "0"), "partial sums are defined for n >= 1"),
    (("--n", "0", "--x", "4"), "partial sums are defined for n >= 1"),
    (("--n", "5", "--x", "0"), "weights divide by powers of x"),
])
def test_sum_refuses_for_the_direct_sum_before_the_closed_form(capsys, both, extra,
                                                               message):
    # at ab = 1 the closed form is undefined too, but the direct sum's own
    # refusal is checked first
    assert run_cli(capsys, "sum", "--a", "1", "--b", "1", *extra, *both) == (
        2, "", f"error: {message}\n")


def _raise(*args, **kwargs):
    raise AssertionError("rendered a format that is not printed")


@pytest.mark.parametrize("argv", [
    ["matrix", "--a", "-1/2", "--b", "3", "--n", "7", "--method", "all"],
    ["series", "--a", "2/3", "--b", "-3", "--count", "6"],
    ["sum", "--a", "2", "--b", "3", "--n", "6", "--both"],
    ["sum", "--a", "2", "--b", "3", "--n", "6", "--x", "1/2", "--both"],
], ids=" ".join)
def test_each_format_renders_only_what_it_prints(capsys, monkeypatch, argv):
    """With the plain encoder of a Mat2 broken, json and csv still print
    their golden bytes; with the JSON encoder broken, plain and csv do."""
    with open(os.path.join(ROOT, "tests", "golden_cli.json"), encoding="utf-8") as f:
        golden = {" ".join(case["argv"]): case for case in json.load(f)}

    def check(formats):
        for fmt in formats:
            full = [*argv, "--format", fmt]
            code, out, err = run_cli(capsys, *full)
            case = golden[" ".join(full)]
            assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])

    with monkeypatch.context() as m:
        m.setattr(Mat2, "__str__", _raise)
        check(("json", "csv"))
    with monkeypatch.context() as m:
        # The CLI calls the JSON encoder by the name it imported.
        m.setattr(report, "json_value", _raise, raising=False)
        m.setattr(cli, "json_value", _raise, raising=False)
        check(("plain", "csv"))


def test_grid_value_parsing():
    assert parse_grid_values("-3..3") == tuple(F(v) for v in (-3, -2, -1, 1, 2, 3))
    assert parse_grid_values("-1..1") == (F(-1), F(1))
    assert parse_grid_values("2,1/2,-7/3") == (F(2), F(1, 2), F(-7, 3))
    with pytest.raises(ValueError):
        parse_grid_values("0")
    with pytest.raises(ValueError):
        parse_grid_values("1,0,2")
    with pytest.raises(ValueError):
        parse_grid_values("3..1")
    with pytest.raises(ValueError):
        parse_grid_values("0..0")


@pytest.mark.parametrize("argv, message", [
    (("verify", "--suite", "all", "--a", "1..", "--b", "1"), "not an integer range: '1..'"),
    (("verify", "--suite", "all", "--a", "1", "--b", "1..x"), "not an integer range: '1..x'"),
    (("bench", "--ladder", "1,x"), "not a list of integer indices: '1,x'"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else "")
def test_malformed_integer_lists_quote_the_value_as_typed(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# `Fraction` takes underscores from Python 3.11 on and `int` always does;
# the CLI accepts ASCII digits only, on every version.
@pytest.mark.parametrize("argv, message", [
    (("term", "--kind", "jhat", "--a", "1_0", "--b", "1", "--n", "3"),
     "not an exact rational: '1_0'"),
    (("term", "--kind", "jhat", "--a", "1/2_0", "--b", "1", "--n", "3"),
     "not an exact rational: '1/2_0'"),
    (("verify", "--suite", "all", "--a", "1_0..2", "--b", "1"),
     "not an integer range: '1_0..2'"),
    (("verify", "--suite", "all", "--a", "١..2", "--b", "1"),
     "not an integer range: '١..2'"),
    (("term", "--kind", "jhat", "--a", "1", "--b", "1", "--n", "1_0"),
     "not an integer: '1_0'"),
    (("term", "--kind", "jhat", "--a", "1", "--b", "1", "--n", "١٠"),
     "not an integer: '١٠'"),
    (("series", "--a", "1", "--b", "1", "--count", "1_0"), "not an integer: '1_0'"),
    (("verify", "--suite", "DET", "--a", "1", "--b", "1", "--n-max", "1_0"),
     "not an integer: '1_0'"),
    (("bench", "--ladder", "1_6"), "not a list of integer indices: '1_6'"),
    (("bench", "--repeat", "1_0"), "not an integer: '1_0'"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else "")
def test_digits_are_ascii_without_underscores(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "DET", "--suite", "CASSINI",
                           "--a", "-2..2", "--b", "1,2", "--n-max", "16",
                           "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4 * 2 * 2
    for line in lines:
        data = json.loads(line)
        assert data["status"] == "PASS"
        assert parse_rational(data["a"]) is not None
        assert parse_rational(data["b"]) is not None


def test_verify_exit_codes(capsys):
    base = ["verify", "--suite", "WEIGHTED_SUM_T6", "--a", "2", "--b", "1",
            "--n-max", "8"]
    code, _, err = run_cli(capsys, *base)
    assert code == 1 and "unexpected" in err
    code, _, _ = run_cli(capsys, *base, "--expect-errata")
    assert code == 0
    # x = 1 failures would not be excused, but there are none
    code, _, _ = run_cli(capsys, *base, "--expect-errata", "--x", "1")
    assert code == 0


def test_verify_csv_header(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "DET", "--a", "1", "--b", "1",
                           "--n-max", "8", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == ("identity,a,b,x,n_max,status,first_failure,"
                                   "residual_e11,residual_e12,residual_e21,residual_e22")


@pytest.mark.parametrize("repeat", [
    ("--a", "2,2/1", "--b", "1", "--x", "1"),
    ("--a", "2", "--b", "1", "--x", "1", "--suite", "SUM_T5"),
    ("--a", "2", "--b", "1", "--x", "1,1"),
], ids=["a", "suite", "x"])
def test_verify_keeps_each_value_and_suite_once(capsys, repeat):
    # a value or suite given twice is one grid point, one suite or one
    # weight: each report is printed, and computed, once
    code, once, _ = run_cli(capsys, "verify", "--suite", "SUM_T5", "--suite",
                            "WEIGHTED_SUM_T6", "--a", "2", "--b", "1", "--x", "1",
                            "--n-max", "8")
    assert code == 0 and len(once.splitlines()) == 2
    calls = []

    def counted(name):
        real = getattr(verifier, name)
        return lambda *args: calls.append(name) or real(*args)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("verify_sum_t5", "verify_weighted_sum_t6"):
            mp.setattr(verifier, name, counted(name))
        code, out, _ = run_cli(capsys, "verify", "--suite", "SUM_T5", "--suite",
                               "WEIGHTED_SUM_T6", *repeat, "--n-max", "8")
    assert code == 0
    assert out == once
    assert sorted(calls) == ["verify_sum_t5", "verify_weighted_sum_t6"]


def test_verify_prints_each_point_before_the_next_runs(monkeypatch):
    # stdout length as each CASSINI run starts: the second point's first
    # suite starts after the first point's two reports are printed
    out = io.StringIO()
    seen = []
    real = verifier.verify_cassini

    def spy(params, n_max):
        seen.append((params.a, len(out.getvalue())))
        return real(params, n_max)

    monkeypatch.setattr(verifier, "verify_cassini", spy)
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "DET", "--suite", "CASSINI",
                     "--a", "2,1", "--b", "1", "--n-max", "4"])
    first_point = ("CASSINI a=1 b=1 n_max=4 PASS\n"
                   "DET a=1 b=1 n_max=4 PASS\n")
    assert code == 0 and out.getvalue().startswith(first_point)
    assert seen == [(1, 0), (2, len(first_point))]


def test_verify_negative_grid_split_tokens(capsys):
    # '--a -3..3' as two separate argv tokens must parse like '--a=-3..3'
    code, out, _ = run_cli(capsys, "verify", "--suite", "ROOT_IDENTITIES",
                           "--a", "-3..3", "--b", "-3..3", "--n-max", "8")
    assert code == 0
    assert len(out.strip().splitlines()) == 36


def test_negative_values_go_only_to_options_that_take_a_value(capsys):
    # argparse reads a token that starts with '-' and a digit as the value
    # of an exact option or of an abbreviation of one that takes a value,
    # as the one pass reads it after an exact option
    joined = _outcome(capsys, ["sum", "--a=-1/2", "--b=-3", "--n", "4", "--x=-2/3",
                               "--both"])
    assert joined[0] == 1 and joined[1].endswith("MISMATCH\n")
    assert _outcome(capsys, ["sum", "--a", "-1/2", "--b", "-3", "--n", "4", "--x", "-2/3",
                             "--bo"]) == joined
    grid = _outcome(capsys, ["verify", "--suite=DET", "--a=-3..-1", "--b=-1/2",
                             "--n-max=8"])
    assert grid[0] == 0 and grid[1].count(" PASS\n") == 3
    assert _outcome(capsys, ["verify", "--su", "DET", "--a", "-3..-1", "--b", "-1/2",
                             "--n-m", "8"]) == grid
    # never after a flag, an unknown option or '--': argparse names the
    # tokens as typed
    code, out, err = _outcome(capsys, ["sum", "--a", "2", "--b", "1", "--n", "4",
                                       "--both", "-3"])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: -3\n")
    code, out, err = _outcome(capsys, ["sum", "--a", "2", "--b", "1", "--n", "4",
                                       "--any", "-2..2", "--", "-4"])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --any -2..2 -- -4\n")
    # '-.5' is a value too, which the handler refuses as no exact rational
    assert _outcome(capsys, [*_TERM[:3], "--fo", "json", "--a", "-.5", "--b", "1",
                             "--n", "5"]) == (2, "", "error: not an exact rational: '-.5'\n")
    # a superscript digit is no digit to argparse: after an abbreviation,
    # '--a -\u00b2' is an option with its value missing
    code, out, err = _outcome(capsys, [*_TERM[:3], "--fo", "json", "--a", "-\u00b2",
                                       "--b", "1", "--n", "5"])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --a: expected one argument\n")


def _benchmark_workloads():
    """benchmark/workloads.py, loaded by path; it is only read here."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", os.path.join(ROOT, "benchmark", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_full_default_grid_with_errata_expected(capsys):
    # The benchmark's default-grid call: its stdout must stay byte-identical.
    workloads = _benchmark_workloads()
    code, out, _ = run_cli(capsys, *workloads.GRID_ARGV)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == workloads.GRID_STDOUT_SHA256
    lines = out.strip().splitlines()
    assert len(lines) == 36 * 12  # 8 single-report suites + 4 weights
    # the weighted-sum erratum fails at every point for each x != 1
    assert sum("FAIL" in line for line in lines) == 36 * 3
    # ab = 1 points skip the plain sum and the x = 1 weighted check
    assert sum("SKIPPED" in line for line in lines) == 4


def test_verify_rational_grid_with_errata_expected(capsys):
    # At rational pairs the cleared suites' factor F changes with the
    # point and the bound; the stdout must stay byte-identical.
    code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                           "--a", "-3/2,-2/3,-1/2,1/2,2/3,3/2",
                           "--b", "-5/4,-3/5,-1/3,1/3,3/5,5/4",
                           "--n-max", "128", "--expect-errata", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9068970361a0b862f6a51850bd206e15eaf6b12e01a33816030de18ab4a9a9b5")


def test_verify_usage_error_on_zero_grid(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "DET", "--a", "0",
                           "--b", "1", "--n-max", "8")
    assert code == 2 and "nonzero" in err


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "NOPE", "--a", "1", "--b", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def _exit_output(capsys, parse, argv):
    """(SystemExit code, stdout, stderr) of an argv that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# The help text is checked against a freshly built parser rather than pinned,
# because argparse's wording differs between Python versions.
@pytest.mark.parametrize("argv, code", [
    ([], 2),
    (["term", "--kind", "nope", "--a", "2", "--b", "1", "--n", "5"], 2),
    (["matrix", "--method", "nope", "--a", "2", "--b", "1", "--n", "3"], 2),
    (["verify", "--suite", "NOPE", "--a", "1..2", "--b", "1..2"], 2),
    *(([*command, "--help"], 0) for command in
      ([], ["term"], ["matrix"], ["series"], ["sum"], ["verify"], ["bench"])),
], ids=lambda v: (" ".join(v) or "no-subcommand") if isinstance(v, list) else None)
def test_error_and_help_paths_repeat_on_one_process(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    first = _exit_output(capsys, main, argv)
    assert run_cli(capsys, "term", "--kind", "jhat", "--a", "2", "--b", "1",
                   "--n", "5")[:2] == (0, "20\n")
    second = _exit_output(capsys, main, argv)
    # Also runs where build_parser is uncached and so has no __wrapped__.
    fresh_parser = getattr(cli.build_parser, "__wrapped__", cli.build_parser)()
    fresh = _exit_output(capsys, fresh_parser.parse_args, argv)
    assert first == second == fresh
    assert first[0] == code and (first[1] or first[2])


def test_main_runs_the_handler_bound_when_it_is_called(capsys, monkeypatch):
    term = ["term", "--kind", "jhat", "--a", "2", "--b", "1", "--n", "5"]
    assert run_cli(capsys, *term) == (0, "20\n", "")  # the parser now exists
    argvs = {
        "term": term,
        "matrix": ["matrix", "--a", "2", "--b", "1", "--n", "3"],
        "series": ["series", "--a", "2", "--b", "1", "--count", "2"],
        "sum": ["sum", "--a", "2", "--b", "1", "--n", "2"],
        "verify": ["verify", "--suite", "DET", "--a", "1", "--b", "1"],
        "bench": ["bench", "--ladder", "1"],
    }
    for code, command in enumerate(argvs, 10):
        monkeypatch.setattr(cli, f"cmd_{command}",
                            lambda args, code=code: print(args.command) or code)
    for code, (command, argv) in enumerate(argvs.items(), 10):
        assert run_cli(capsys, *argv) == (code, f"{command}\n", "")


def test_one_parser_per_process_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    grid = ("--a", "1..1", "--b", "1..1", "--n-max", "4", "--format", "json")
    run_cli(capsys, "verify", "--suite", "CASSINI", *grid)
    code, out, _ = run_cli(capsys, "verify", "--suite", "DET", *grid)
    assert code == 0
    assert [json.loads(line)["identity"] for line in out.splitlines()] == ["DET"]
    run_cli(capsys, "sum", "--a", "2", "--b", "1", "--n", "4", "--both")
    assert run_cli(capsys, "sum", "--a", "2", "--b", "1", "--n", "4") == (
        0, "[[12,7],[7,5]]\n", "")
    run_cli(capsys, "verify", "--suite", "WEIGHTED_SUM_T6", "--x", "3", *grid)
    args = cli.build_parser().parse_args(["verify", "--suite", "DET", *grid])
    assert args.x == ",".join(map(str, verifier.DEFAULT_X_VALUES))
    assert args.suite == ["DET"]


def test_shared_parser_parses_concurrent_argvs_apart():
    argvs = [
        ["term", "--kind", "jhat", "--a", "2", "--b", "1", "--n", "5"],
        ["matrix", "--a", "1/2", "--b", "3", "--n", "7", "--method", "fast"],
        ["verify", "--suite", "DET", "--suite", "CASSINI", "--a", "1..2",
         "--b", "1..3", "--n-max", "9", "--format", "csv"],
        ["sum", "--a", "2", "--b", "1", "--n", "4", "--x", "2", "--both"],
    ]
    fresh = cli.build_parser.__wrapped__()
    expected = [vars(fresh.parse_args(argv)) for argv in argvs]
    barrier = threading.Barrier(len(argvs), timeout=30)
    results: list = [None] * len(argvs)

    def parse_many(i):
        barrier.wait()
        results[i] = [vars(cli.build_parser().parse_args(argvs[i]))
                      for _ in range(200)]

    threads = [threading.Thread(target=parse_many, args=(i,)) for i in range(len(argvs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside parse_args
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, got in enumerate(results):
        assert got == [expected[i]] * 200, argvs[i]


_TERM = ["term", "--kind", "jhat", "--a", "2", "--b", "1", "--n", "5"]

# Argvs of every subcommand that `cli._parse_plain` takes, beside the golden
# file's and one mixed_queries op list's: `bench` with its defaults, both
# option forms, a negative rational both ways, '-.5' (a value to argparse,
# which the handler refuses), a repeated option, two `--suite`s and
# `--both` twice.
_PLAIN_ARGVS = [
    ["bench"],
    ["bench", "--a", "1/2", "--b=-3/4", "--ladder", "0,1", "--repeat", "2"],
    ["term", "--kind=lucas", "--a=2", "--b", "1", "--n=7", "--format=csv"],
    ["term", "--kind", "jhat", "--a", "-3/4", "--b", "1", "--n", "5"],
    ["term", "--kind", "jhat", "--a=-3/4", "--b", "1", "--n", "5"],
    ["term", "--kind", "jhat", "--a", "-.5", "--b", "1", "--n", "5"],
    [*_TERM, "--n", "8", "--format", "json", "--format", "plain"],
    ["matrix", "--n", "-2", "--a", "1", "--b", "1", "--method", "fast",
     "--method", "closed"],
    ["matrix", "--a", "1", "--b", "1", "--n", "3"],
    ["series", "--count", "4", "--a", "2/3", "--b", "-3"],
    ["sum", "--a", "2", "--b", "1", "--n", "4", "--both", "--both", "--x", "-1/2"],
    ["sum", "--a", "2", "--b", "1", "--n", "4"],
    ["verify", "--suite", "DET", "--suite", "CASSINI", "--a", "-3..3",
     "--b=1,2", "--expect-errata"],
    ["verify", "--suite=all", "--a", "1", "--b", "1", "--n-max", "8",
     "--x", "1,-2/3", "--format", "json"],
]


def test_the_one_pass_gives_the_namespace_argparse_gives():
    with open(os.path.join(ROOT, "tests", "golden_cli.json"), encoding="utf-8") as f:
        golden = [case["argv"] for case in json.load(f)]
    mixed = [list(op[1]) for op in _benchmark_workloads().mixed_ops(1, 0)]
    fresh = cli.build_parser.__wrapped__()
    tables = cli.build_parser().option_tables
    for argv in [*golden, *mixed, *_PLAIN_ARGVS]:
        args = cli._parse_plain(tables, argv)
        assert args is not None, argv
        expected = fresh.parse_args(argv)
        assert vars(args) == vars(expected), argv


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of `main(argv)`, returned or raised."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["term", "-h"], ["nope"],
    [*_TERM, "--form", "json"],  # an abbreviation, which argparse accepts
    [*_TERM, "extra"],
    [*_TERM, "--bogus", "1"],
    [*_TERM, "--"],
    [*_TERM[:-2], "--", "--n", "5"],
    ["sum", "--a", "2", "--b", "1", "--n", "4", "--both=1"],
    ["term", "--kind", "jhat", "--a", "--b", "1", "--n", "5"],
    [*_TERM[:-1], "-x"],
    [*_TERM, "--format"],
    ["term", "--kind", "nope", *_TERM[3:]],
    _TERM[:1] + _TERM[3:],
    ["verify", "--suite", "DET", "--a", "1", "--b", "1", "--n-max", "-", "4"],
], ids=lambda argv: " ".join(argv) or "no-subcommand")
def test_argvs_the_pass_refuses_print_what_argparse_prints(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._parse_plain(cli.build_parser().option_tables, argv) is None
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    monkeypatch.setattr(cli, "_parse_plain", lambda tables, argv: None)
    assert got == _outcome(capsys, argv)
    assert got[1] or got[2]


def test_the_common_forms_never_reach_argparse(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain call")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert run_cli(capsys, *_TERM) == (0, "20\n", "")
    assert run_cli(capsys, "matrix", "--a", "2", "--b", "1", "--n", "3") == (
        0, "[[6,4],[4,2]]\n", "")
    assert run_cli(capsys, "series", "--a", "2", "--b", "1", "--count", "2") == (
        0, "[[1,0],[0,1]]\n[[1,1],[1,0]]\n", "")
    assert run_cli(capsys, "sum", "--a", "2", "--b", "1", "--n", "4") == (
        0, "[[12,7],[7,5]]\n", "")
    assert run_cli(capsys, "verify", "--suite", "DET", "--a", "1", "--b", "1",
                   "--n-max", "4") == (0, "DET a=1 b=1 n_max=4 PASS\n", "")
    code, out, err = run_cli(capsys, "bench", "--ladder", "4", "--repeat", "1")
    assert (code, out.splitlines()[0], err) == (0, "method,n,cpu_ms,term_bits", "")


def test_bench_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "bench", "--ladder", "64,256", "--repeat", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,n,cpu_ms,term_bits"
    assert len(lines) == 5
    naive64 = lines[1].split(",")
    fast64 = lines[2].split(",")
    assert naive64[0] == "recurrence" and fast64[0] == "fast"
    assert naive64[3] == fast64[3] == "64"  # bits of jhat grows like n at (1,1)


def test_bench_negative_ladder_entry_is_refused_before_either_route(capsys, monkeypatch):
    monkeypatch.setattr(cli, "term_fast", None)
    code, out, err = run_cli(capsys, "bench", "--ladder", "-4")
    assert (code, out, err) == (2, "", "error: matrix terms are defined for n >= 0\n")


def test_bench_self_test_failure_exits_1_with_the_index(capsys, monkeypatch):
    naive = cli.term_naive
    monkeypatch.setattr(cli, "term_naive",
                        lambda params, n: naive(params, n) + Mat2(1, 0, 0, 0))
    code, out, err = run_cli(capsys, "bench", "--ladder", "3", "--repeat", "1")
    assert (code, out, err) == (1, "", "bench self-test failed at n=3\n")


def test_bench_times_each_fast_call_on_a_new_point(capsys, monkeypatch):
    # a point keeps its last power, so a repeat on one point would time a
    # lookup in place of the power
    kept = []

    def spy(params, n):
        kept.append(dict(params.last_powers))
        return matrixseq.term_fast(params, n)

    monkeypatch.setattr(cli, "term_fast", spy)
    code, out, err = run_cli(capsys, "bench", "--ladder", "64", "--repeat", "3")
    assert (code, err) == (0, "")
    assert kept == [{}, {}, {}]


def test_bench_at_a_rational_pair(capsys):
    code, out, _ = run_cli(capsys, "bench", "--a", "5/7", "--b", "-7/9",
                           "--ladder", "0,1,2,257", "--repeat", "1")
    assert code == 0
    assert [line.split(",")[:2] for line in out.strip().splitlines()[1:]] == [
        [method, n] for n in ("0", "1", "2", "257") for method in ("recurrence", "fast")]


# Each call exits 1 if a log-time route disagrees with the plain Fraction
# recurrence; at n = 2049 and 4097 the routes' final division by M^(n//2)
# (`exact.div_power`) runs on large numerators.  Their half-indices 1024
# and 2048 are powers of two, so the power loop only squares; at n = 4095
# and 8191 every bit of the half-index is set, and each square is followed
# by a product of a large power with the base.
@pytest.mark.parametrize("argv", [
    *(("bench", "--a", "1/2", "--b=-3/4", "--ladder", ladder, "--repeat", "1")
      for ladder in ("1,2,4097", "8191")),
    *(("matrix", f"--a={a}", f"--b={b}", "--n", n, "--method", "all")
      for n in ("2049", "4095")
      for a, b in [("5/7", "-7/9"), ("2", "-3"), ("1/2", "-3/4")]),
], ids=" ".join)
def test_log_time_routes_agree_with_the_recurrence(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_bench_repeat_below_one_is_usage_error(capsys, repeat):
    code, out, err = run_cli(capsys, "bench", "--ladder", "64", "--repeat", repeat)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--repeat" in err


def test_console_entry_point_subprocess():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "bijacobsthal", "term", "--kind", "jhat",
         "--a", "2", "--b", "1", "--n", "5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "20"


# Each option's values, (taken, odd): the odd ones are zero, a zero
# denominator, a decimal, a negative denominator, hex, an underscore,
# non-ASCII digits, an empty string, a bare sign and malformed ranges.
# 40-digit values are taken where a value is a rational, and an index
# stays small or negative, so no call takes long.
_RATIONALS = (["2", "1", "-1/2", "5/7", "-3", "+2", "9" * 40, "-1/" + "7" * 40],
              ["0", "1/0", "1.5", "3/-4", "0x10", "1_0", "٣", "", "-", " 2", "1e3"])
_INDICES = (["0", "1", "5", "12", "-1"],
            ["-2", "1_0", "0x10", "1.5", "3/-4", "١٢", "", "-", "+3", "-" + "9" * 40])
_VALUES = {
    "--kind": (["jhat", "jlucas", "fibonacci", "lucas"], ["nope", ""]),
    "--method": (["all", "fast", "binet", "closed", "recurrence"], ["nope"]),
    "--a": _RATIONALS, "--b": _RATIONALS, "--x": _RATIONALS,
    "--n": _INDICES, "--count": _INDICES,
    "--suite": (["DET", "CASSINI", "SUM_T5", "all"], ["NOPE", "", "det"]),
    "--n-max": (["4", "8"], ["0", "1", "-3", "", "x", "1_0"]),
    "--ladder": (["0,1,4", "16"], ["-4", "", "1,,2", "8,x", "1_0", "٣"]),
    "--repeat": (["1", "2"], ["0", "-1", "", "1.5"]),
    "--bogus": (["1"], []),
}
_GRIDS = (["1..2", "-2..-1", "2,1/2", "-1/2", "9" * 40],
          ["3..-3", "0..0", "1..", "..2", "a..b", "1..2..3", "0", "1/0", "", "1.5", "١..2"])
_VERIFY_VALUES = dict(_VALUES, **{"--a": _GRIDS, "--b": _GRIDS, "--x": (
    ["1", "2,1/2", "-2/3"], ["0", "1/0", "", ",", "1.5"])})
_OPTIONS = {
    "term": ["--kind", "--a", "--b", "--n"],
    "matrix": ["--a", "--b", "--n", "--method"],
    "series": ["--a", "--b", "--count"],
    "sum": ["--a", "--b", "--n", "--x"],
    "verify": ["--suite", "--a", "--b", "--n-max", "--x"],
    "bench": ["--a", "--b", "--ladder", "--repeat"],
}


def _odd_argv(rng: random.Random) -> list[str]:
    """A seeded call of one subcommand: each option's value taken or odd,
    now and then an option left out (never `--ladder` or `--n-max`, whose
    defaults run long) or an unknown one added, and each option as one
    token or two."""
    command = rng.choice(list(_OPTIONS))
    values = _VERIFY_VALUES if command == "verify" else _VALUES
    options = list(_OPTIONS[command])
    if rng.random() < 0.2:
        options.remove(rng.choice([o for o in options if o not in ("--ladder", "--n-max")]))
    if rng.random() < 0.1:
        options.append("--bogus")
    argv = [command]
    for option in options:
        taken, odd = values[option]
        value = rng.choice(taken if rng.random() < 0.75 or not odd else odd)
        argv += [f"{option}={value}"] if rng.random() < 0.5 else [option, value]
    if command != "bench" and rng.random() < 0.3:
        argv += ["--format", rng.choice(["plain", "json", "csv", "xml"])]
    if command == "sum" and rng.random() < 0.5:
        argv.append("--both")
    return argv


def test_odd_inputs_exit_0_1_or_2_and_each_refusal_says_why(capsys):
    rng = random.Random(4101)
    codes = []
    for _ in range(300):
        argv = _odd_argv(rng)
        code, out, err = _outcome(capsys, argv)
        assert code in (0, 1, 2), argv
        assert code != 2 or err.strip(), argv
        codes.append(code)
    assert codes.count(0) > 30 and codes.count(2) > 30


def test_calls_at_equal_pairs_build_the_two_step_base_once(capsys, monkeypatch):
    # `--a 1/2` and `--a 2/4` name one pair, so the second call reads the
    # table's point, with the base the first call built on it
    built = []
    real = scalar.SeqKind._two_step_base
    monkeypatch.setattr(scalar.SeqKind, "_two_step_base",
                        lambda kind, p: built.append(kind) or real(kind, p))
    scalar.clear_caches()
    for a, n in (("1/2", "40"), ("2/4", "41"), ("1/2", "7")):
        code, _, err = run_cli(capsys, "term", "--kind", "jhat", "--a", a, "--b=-3/4",
                               "--n", n)
        assert (code, err) == (0, "")
    assert built == [scalar.SeqKind.BP_JACOBSTHAL]
    scalar.clear_caches()


def test_calls_at_equal_pairs_share_one_series(capsys, monkeypatch):
    # `--a 1/2` and `--a 2/4` name one table point, so the second call
    # reads the J series the first one stepped, and steps none of its own
    steps, started = scalar._steps, []
    monkeypatch.setattr(scalar, "_steps", lambda *args: started.append(args[1]) or steps(*args))
    scalar.clear_caches()
    outputs = []
    for a in ("1/2", "2/4"):
        code, out, err = run_cli(capsys, "matrix", "--a", a, "--b=-3/4", "--n", "30",
                                 "--method", "recurrence")
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert started == [2] * 4  # one run per lane of J's one series
    assert list(scalar.point(F(1, 2), F(-3, 4)).series) == [matrixseq._J]
    scalar.clear_caches()


# Half-indices 20, 20, 20, 19, 3, 4, 1023, 1022, 0, 0: each log-time base
# is read at its kept exponent, one above it, one below it and far off.
_SWEEP_ORDER = ("40", "41", "41", "39", "7", "9", "2047", "2045", "0", "1")


def _sweep_calls(a: str, b: str, fmt: str):
    point = ("--a", a, f"--b={b}")
    for n in _SWEEP_ORDER:
        at = (*point, "--n", n, "--format", fmt)
        for kind in ("jhat", "jlucas", "fibonacci", "lucas"):
            yield ("term", "--kind", kind, *at)
        for method in ("all", "fast", "binet"):
            yield ("matrix", *at, "--method", method)
        yield ("sum", *at)
        yield ("sum", *at, "--x", "3")


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("a, b", [("2", "-3"), ("1/2", "-3/4")])
def test_a_sweep_on_one_table_point_prints_what_cold_calls_print(capsys, a, b, fmt):
    # Every call of the sweep reads the point the calls before it left in
    # the table (its constants and kept powers), with n stepping up,
    # repeating, going back and jumping; each must print what it prints
    # on an empty table.
    calls = list(_sweep_calls(a, b, fmt))
    scalar.clear_caches()
    warm = [run_cli(capsys, *argv) for argv in calls]
    for argv, got in zip(calls, warm):
        scalar.clear_caches()
        assert got == run_cli(capsys, *argv), argv
    refused = [argv for argv, (code, _, _) in zip(calls, warm) if code]
    assert refused == [argv for argv in calls if argv[0] == "sum" and argv[5] == "0"]
    scalar.clear_caches()


def test_huge_grid_range_is_refused_at_once(capsys):
    start = time.process_time()
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--a", "1..10000000000000",
                             "--b", "1")
    assert time.process_time() - start < 0.1
    assert (code, out) == (2, "")
    assert err == ("error: range '1..10000000000000' has more than "
                   f"{cli.MAX_GRID_RANGE} values\n")
    with pytest.raises(ValueError, match="more than 1000 values"):
        parse_grid_values("-500..500")


def test_a_grid_range_at_the_bound_still_parses():
    assert cli.MAX_GRID_RANGE == 1000  # README's `verify` bullet names it
    assert parse_grid_values("1..1000") == tuple(F(v) for v in range(1, 1001))
    assert len(parse_grid_values("-500..499")) == 999  # zero is dropped
