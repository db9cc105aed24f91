"""Command-line front end.

Subcommands: term, matrix, series, sum, verify, bench.  `main` runs the
subcommand's handler `cmd_<name>`, looked up by name at each call; the
parser, built once per process, names no handler.  `term`, `matrix`,
`series` and `sum` take their point (`--a`, `--b` and the index option)
from one helper in `build_parser`.  The options are declared once, in
`build_parser`, and that one option table has two readers:
`_parse_plain` reads a call made of its subcommand's exact options in one
pass, and argparse reads every other call, so help, usage errors and the
forms only argparse accepts (an abbreviated option, `--`) print and parse
as argparse has them.  Every rational on
the wire is the exact string "p/q" (or "p" when the denominator is 1);
no floating point is ever printed except `bench`'s CPU times.  `_emit`
prints term, matrix, series and sum through the one encoder of each format:
`report.json_value`, `report.csv_fields` and `exact.format_rational`.

Exit codes: 0 all checks passed (modulo declared errata when
--expect-errata is given), 1 a counterexample or mismatch was found,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import verifier
from .exact import Mat2, format_rational, parse_rational
from .genfunc import build_ogf, series_coeffs
from .matrixseq import term_fast, term_naive
from .report import (CSV_HEADER, WEIGHTED_SUM_T6, IdentityReport, csv_fields,
                     json_value)
from .scalar import BiParams, SeqKind, point, scalar_term, scalar_term_fast
from .verifier import (
    GridSpec,
    expected_failure,
    run_grid,
    sum_closed_form,
    sum_direct,
    weighted_sum_direct,
    weighted_sum_printed_form,
)

OK = 0
MISMATCH = 1
USAGE = 2

METHODS = verifier.ROUTES  # the same dict: one route set for the CLI and verifier

DEFAULT_BENCH_LADDER = (2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16, 2 ** 17)

MAX_GRID_RANGE = 1000  # the most integers a `verify` range 'lo..hi' may span

_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """An integer option's value: ASCII digits with an optional sign, since
    `int()` alone also takes '1_0' and non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_grid_values(text: str) -> tuple[Fraction, ...]:
    """Parse 'lo..hi' (integers, zeros auto-excluded) or 'r1,r2,...'.

    A range of more than `MAX_GRID_RANGE` integers is refused before any
    value is built, so a huge range exits 2 at once instead of hanging."""
    if ".." in text:
        bounds = text.split("..", 1)
        try:
            lo, hi = (_integer(s.strip()) for s in bounds)
        except ValueError:
            raise ValueError(f"not an integer range: {text!r}") from None
        if lo > hi:
            raise ValueError(f"empty range {text!r}")
        if hi - lo >= MAX_GRID_RANGE:
            raise ValueError(f"range {text!r} has more than {MAX_GRID_RANGE} values")
        values = tuple(Fraction(v) for v in range(lo, hi + 1) if v != 0)
        if not values:
            raise ValueError(f"range {text!r} contains only zero")
        return values
    values = tuple(parse_rational(part) for part in text.split(","))
    if any(v == 0 for v in values):
        raise ValueError("grid values must be nonzero")
    return values


def _emit(fmt: str, as_json, header: str, rows, plain) -> None:
    """Print one result in `fmt`, rendering only that format: `as_json` by
    `json.dumps` with `json_value`, or `header` and then each row's values
    spread into `csv_fields`, or each `plain` line's values through
    `format_rational`, space-separated.  The whole result is rendered
    before anything is written, so a value that cannot be rendered (an int
    past the interpreter's digit limit for str) leaves stdout empty."""
    if fmt == "json":
        lines = [json.dumps(as_json, default=json_value)]
    elif fmt == "csv":
        lines = [header, *(",".join(cell for value in row for cell in csv_fields(value))
                           for row in rows)]
    else:
        lines = [" ".join(map(format_rational, line)) for line in plain]
    for line in lines:
        print(line)


def _params(args: argparse.Namespace) -> BiParams:
    """The call's point, from the table of points (`scalar.point`), so a
    call at a pair an earlier call used reads that point's constants and
    kept powers."""
    return point(parse_rational(args.a), parse_rational(args.b))


def cmd_term(args: argparse.Namespace) -> int:
    """One scalar term, from the log-time two-step power
    (`scalar_term_fast`), so a call steps and keeps no prefix.  A negative
    n goes to `scalar_term`, which gives jhat[-1] = 1/2 and refuses the
    rest."""
    params = _params(args)
    kind = SeqKind(args.kind)
    n = _integer(args.n)
    value = (scalar_term_fast if n >= 0 else scalar_term)(kind, params, n)
    fields = {"kind": kind.value, "a": params.a, "b": params.b, "n": n,
              "value": value}
    _emit(args.format, fields, ",".join(fields), [fields.values()], [[value]])
    return OK


def cmd_matrix(args: argparse.Namespace) -> int:
    params = _params(args)
    n = _integer(args.n)
    if args.method == "all":
        routes = verifier.defined_routes(params)
        if "binet" not in routes:
            print("note: ab = -8, root-based route skipped", file=sys.stderr)
        for name, value, reference in verifier.route_values(routes, params, n):
            if value != reference:
                print(f"method mismatch: {name} gave {value}, "
                      f"recurrence gave {reference}", file=sys.stderr)
                return MISMATCH
        value = reference
    else:
        value = METHODS[args.method](params, n)
    _emit(args.format, value, "e11,e12,e21,e22", [[value]], [[value]])
    return OK


def cmd_series(args: argparse.Namespace) -> int:
    params = _params(args)
    coeffs = series_coeffs(build_ogf(params), _integer(args.count))
    _emit(args.format, coeffs, "m,e11,e12,e21,e22", enumerate(coeffs),
          [[coeff] for coeff in coeffs])
    return OK


def cmd_sum(args: argparse.Namespace) -> int:
    """The direct partial sum; `--both` adds the printed closed form and
    MATCH or MISMATCH.  A plain call evaluates no closed form, but still
    refuses where the printed form is undefined (the direct sum runs first,
    so its own refusals win)."""
    params = _params(args)
    n = _integer(args.n)
    x = None if args.x is None else parse_rational(args.x)
    direct = sum_direct(params, n) if x is None else weighted_sum_direct(params, x, n)
    if not args.both:
        verifier.printed_denominator(params, x)
        _emit(args.format, direct, "e11,e12,e21,e22", [[direct]], [[direct]])
        return OK
    closed = (sum_closed_form(params, n) if x is None
              else weighted_sum_printed_form(params, x, n))
    match = direct == closed
    _emit(args.format,
          {"direct": direct, "closed_form": closed, "match": match},
          "side,e11,e12,e21,e22",
          [["direct", direct], ["closed_form", closed]],
          [["direct     ", direct], ["closed-form", closed],
           ["MATCH" if match else "MISMATCH"]])
    return OK if match else MISMATCH


def cmd_verify(args: argparse.Namespace) -> int:
    suites = verifier.ALL_IDENTITIES if "all" in args.suite else tuple(args.suite)
    grid = GridSpec(
        a_values=parse_grid_values(args.a),
        b_values=parse_grid_values(args.b),
        n_max=_integer(args.n_max),
        suites=suites,
        x_values=tuple(parse_rational(p) for p in args.x.split(",")),
    )
    render = {"json": IdentityReport.to_json, "csv": IdentityReport.to_csv_row,
              "plain": IdentityReport.to_plain}[args.format]
    if args.format == "csv":
        print(CSV_HEADER)
    unexpected = 0
    for report in run_grid(grid):
        print(render(report))
        unexpected += (report.status == "FAIL"
                       and not (args.expect_errata and expected_failure(report)))
    if unexpected:
        print(f"{unexpected} unexpected failing report(s)", file=sys.stderr)
        return MISMATCH
    return OK


def _timed_min(fn, repeat: int) -> tuple[float, Mat2]:
    """(seconds, value): the least CPU time of `repeat` calls of `fn`, by
    `time.process_time`, which other processes are not charged to."""
    best = float("inf")
    value = None
    for _ in range(repeat):
        start = time.process_time()
        value = fn()
        best = min(best, time.process_time() - start)
    return best, value


def bench_rows(params: BiParams, ladder: Sequence[int],
               repeat: int) -> list[tuple[str, int, float, int]]:
    """CPU-time rows (method, n, seconds, term_bits); min over `repeat` runs.

    The naive route is `matrixseq.term_naive`, the recurrence run freshly
    each time, and the fast route runs on a new point each time, which
    has no power of its own kept (`BiParams.last_powers`), so neither
    side benefits from caches.  Outputs of the two routes are checked
    equal; a mismatch raises.
    """
    rows = []
    for n in ladder:
        naive_t, naive_value = _timed_min(lambda: term_naive(params, n), repeat)
        fast_t, fast_value = _timed_min(
            lambda: term_fast(BiParams(params.a, params.b), n), repeat)
        if naive_value != fast_value:
            raise AssertionError(f"bench self-test failed at n={n}")
        bits = max(e.numerator.bit_length() for e in naive_value.entries())
        rows.append(("recurrence", n, naive_t, bits))
        rows.append(("fast", n, fast_t, bits))
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    repeat = _integer(args.repeat)
    if repeat < 1:
        raise ValueError("--repeat must be at least 1")
    params = _params(args)
    try:
        ladder = [_integer(part) for part in args.ladder.split(",")]
    except ValueError:
        raise ValueError(f"not a list of integer indices: {args.ladder!r}") from None
    try:
        rows = bench_rows(params, ladder, repeat)
    except AssertionError as exc:
        print(str(exc), file=sys.stderr)
        return MISMATCH
    _emit("csv", None, "method,n,cpu_ms,term_bits",
          [(method, n, f"{seconds * 1000:.3f}", bits)
           for method, n, seconds, bits in rows], None)
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process on first use.

    Every `main` call in a process shares it, so a short query does not
    rebuild the argparse tree, which costs more than the query itself; a
    one-shot `python -m bijacobsthal` still builds it once.  It holds no
    handler: `main` finds `cmd_<command>` by name at each call.
    `build_parser.__wrapped__()` builds a fresh one.

    The options declared here are the one option table, and it has two
    readers.  `option_tables` holds, per subcommand, the `Action`s that
    `add_argument` returned, as `_parse_plain` reads them in one pass;
    argparse reads the same actions for every call that pass refuses.
    """
    parser = argparse.ArgumentParser(
        prog="bijacobsthal",
        description="Exact bi-periodic Jacobsthal sequence terms, matrix "
                    "terms by four routes, series expansion, identity "
                    "verification, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain")

    def add_point(p: argparse.ArgumentParser, index: str = "--n") -> None:
        for option in ("--a", "--b", index):
            p.add_argument(option, required=True)

    p_term = sub.add_parser("term", help="one scalar sequence term")
    p_term.add_argument("--kind", required=True,
                        choices=[k.value for k in SeqKind])
    add_point(p_term)
    add_common(p_term)

    p_matrix = sub.add_parser("matrix", help="one matrix term")
    add_point(p_matrix)
    p_matrix.add_argument("--method", default="all",
                          choices=(*METHODS.keys(), "all"))
    add_common(p_matrix)

    p_series = sub.add_parser("series", help="generating-function expansion")
    add_point(p_series, "--count")
    add_common(p_series)

    p_sum = sub.add_parser("sum", help="partial sums, oracle vs closed form")
    add_point(p_sum)
    p_sum.add_argument("--x", default=None,
                       help="weight 1/x^k per term (omit for the plain sum)")
    p_sum.add_argument("--both", action="store_true",
                       help="print the closed form next to the oracle and "
                            "flag MATCH/MISMATCH")
    add_common(p_sum)

    p_verify = sub.add_parser("verify", help="identity suites over a grid")
    p_verify.add_argument("--suite", action="append", required=True,
                          choices=(*verifier.ALL_IDENTITIES, "all"),
                          help="repeatable; 'all' runs every suite")
    p_verify.add_argument("--a", required=True,
                          help="grid: 'lo..hi' integers or 'r1,r2,...'")
    p_verify.add_argument("--b", required=True)
    p_verify.add_argument("--n-max", default=str(verifier.DEFAULT_N_MAX))
    default_x = ",".join(map(format_rational, verifier.DEFAULT_X_VALUES))
    p_verify.add_argument("--x", default=default_x,
                          help="weights for the weighted-sum suite")
    p_verify.add_argument("--expect-errata", action="store_true",
                          help="tolerate the documented expected failures "
                               f"({WEIGHTED_SUM_T6} with x != 1)")
    add_common(p_verify)

    p_bench = sub.add_parser("bench", help="naive vs fast CPU time (CSV)")
    p_bench.add_argument("--a", default="1")
    p_bench.add_argument("--b", default="1")
    p_bench.add_argument("--ladder",
                         default=",".join(str(n) for n in DEFAULT_BENCH_LADDER))
    p_bench.add_argument("--repeat", default="1",
                         help="timed runs per point; the minimum is kept")

    # A token that starts with '-' and a digit (a negative rational or
    # grid range) is a value, not an option name, to each subcommand.
    negative = re.compile(r"-\d|-\d*\.\d+$")
    for p in sub.choices.values():
        p._negative_number_matcher = negative
    parser.option_tables = {name: _option_table(p) for name, p in sub.choices.items()}
    return parser


# The action types `_parse_plain` reads; an option of any other type (the
# help action among them) is left to argparse.
_PLAIN_ACTIONS = (argparse._StoreAction, argparse._StoreTrueAction,
                  argparse._AppendAction)


def _option_table(parser: argparse.ArgumentParser) -> tuple[dict, list]:
    """A subcommand's options as `_parse_plain` reads them: each option
    string of a store, store_true or append action mapped to its action,
    and the actions whose dest a parse fills (every one but help's)."""
    actions = [a for a in parser._actions if a.default is not argparse.SUPPRESS]
    options = {option: action for action in actions
               if type(action) in _PLAIN_ACTIONS
               for option in action.option_strings}
    return options, actions


def _parse_plain(tables: dict, argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse gives `argv`, read in one pass over its
    subcommand's option table, or None for an argv this pass does not take.

    It takes a subcommand name, then exact option strings, each as
    `--opt value` or `--opt=value` and a flag alone, with every value in
    its choices and every required option given.  As in argparse, the last
    value of a repeated option wins and an append option collects them.  A
    value token that starts with '-' is taken only when a digit follows,
    as each subcommand's parser reads a negative number.  Any other argv
    (help, an abbreviation, '--', a positional token, and every usage
    error) gets None, and `main` hands it to argparse, which prints what
    it prints.
    """
    table = tables.get(argv[0]) if argv else None
    if table is None:
        return None
    options, actions = table
    given: dict = {}
    tokens = iter(argv[1:])
    for token in tokens:
        option, equals, value = token.partition("=")
        action = options.get(option)
        if action is None:
            return None
        if action.nargs == 0:
            if equals:
                return None
            value = action.const
        else:
            if not equals:
                value = next(tokens, None)
                if value is None or (value[:1] == "-" and not value[1:2].isdigit()):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        if type(action) is argparse._AppendAction:
            given.setdefault(action, []).append(value)
        else:
            given[action] = value
    values = {"command": argv[0]}
    for action in actions:
        if action in given:
            values[action.dest] = given[action]
        elif action.required:
            return None
        else:
            values[action.dest] = action.default
    return argparse.Namespace(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = _parse_plain(parser.option_tables, argv) or parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, ZeroDivisionError) as exc:  # includes DegenerateDiscriminantError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def run() -> None:  # console-script entry point
    sys.exit(main())
