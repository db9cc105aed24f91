"""Correctness gates: an independent plain-`Fraction` oracle, parsers for
every output format, and the expected exit code and value of each op.

Nothing here imports the program.  Each check returns one of three
outcomes:

* OK       - exit code and value are what the README promises;
* REFUSED  - the program exited 2 with a message where the README promises
             a result: a failed op, but no wrong value was printed;
* WRONG    - a wrong value, a wrong status, an invalid input accepted, or a
             crash: the run is not correct.

Both REFUSED and WRONG count as failed ops.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from workloads import GRID_STDOUT_SHA256, SUITES

OK = "ok"
REFUSED = "refused"
WRONG = "wrong"

Mat = tuple  # (e11, e12, e21, e22) of Fractions


# --- oracle --------------------------------------------------------------

# kind -> (t0, t1 given a, multiplier at even n is a?, lag coefficient)
_KIND_TABLE = {
    "jhat": (lambda a: (Fraction(0), Fraction(1)), True, 2),
    "jlucas": (lambda a: (Fraction(2), a), False, 2),
    "fibonacci": (lambda a: (Fraction(0), Fraction(1)), True, 1),
    "lucas": (lambda a: (Fraction(2), a), False, 1),
}
# Longer matrix prefixes are walked, not stored: J[14000] alone is ~60 kB.
_STORE_MAX = 4096


class Oracle:
    """Terms by the definitional recurrences, with plain `Fraction`s."""

    def __init__(self) -> None:
        self._scalar: dict = {}
        self._matrix: dict = {}
        self._sums: dict = {}

    def scalar(self, kind: str, a: Fraction, b: Fraction, n: int) -> Fraction:
        if n == -1 and kind == "jhat":
            return Fraction(1, 2)
        initial, even_a, lag = _KIND_TABLE[kind]
        terms = self._scalar.setdefault((kind, a, b), list(initial(a)))
        while len(terms) <= n:
            k = len(terms)
            mult = a if (k % 2 == 0) == even_a else b
            terms.append(mult * terms[-1] + lag * terms[-2])
        return terms[n]

    def matrix(self, a: Fraction, b: Fraction, n: int) -> Mat:
        if n >= _STORE_MAX:
            prev, cur = _identity(), _generator(a, b)
            for k in range(2, n + 1):
                prev, cur = cur, _step(a if k % 2 == 0 else b, cur, prev)
            return cur if n else prev
        terms = self._matrix.get((a, b))
        if terms is None:
            terms = self._matrix[(a, b)] = [_identity(), _generator(a, b)]
        while len(terms) <= n:
            k = len(terms)
            terms.append(_step(a if k % 2 == 0 else b, terms[-1], terms[-2]))
        return terms[n]

    def weighted_sum(self, a: Fraction, b: Fraction, n: int, x) -> Mat:
        """sum_{k<n} J[k] / x^k, term by term; x = None is the plain sum."""
        sums = self._sums.setdefault((a, b, x), [(Fraction(0),) * 4])
        while len(sums) <= n:
            k = len(sums) - 1
            weight = Fraction(1) if x is None else Fraction(1) / x ** k
            sums.append(tuple(t + weight * e for t, e in zip(sums[-1], self.matrix(a, b, k))))
        return sums[n]


def _identity() -> Mat:
    return (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def _generator(a: Fraction, b: Fraction) -> Mat:
    return (b, 2 * b / a, Fraction(1), Fraction(0))


def _step(mult: Fraction, cur: Mat, prev: Mat) -> Mat:
    return tuple(mult * c + 2 * p for c, p in zip(cur, prev))


def det_expected(a: Fraction, b: Fraction, n: int) -> Fraction:
    """det J[n] = 2^n (-b/a)^e with e = n mod 2, evaluated independently."""
    return Fraction(2 ** n) * (Fraction(-b) / a) ** (n % 2)


# --- parsing -------------------------------------------------------------

_CHUNK = 4000  # below the interpreter's default int/str conversion limit


def parse_int(text: str) -> int:
    """Decimal string to int at any length, without touching the
    interpreter's int/str digit limit (the benchmark never raises it)."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    if not digits or not digits.isdigit():
        raise ValueError(f"not an integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i:i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def parse_q(text: str) -> Fraction:
    num, _, den = text.strip().partition("/")
    return Fraction(parse_int(num), parse_int(den) if den else 1)


def parse_plain_matrix(text: str) -> Mat:
    body = text.strip()
    if not (body.startswith("[[") and body.endswith("]]")):
        raise ValueError(f"not a matrix: {body[:40]!r}")
    rows = body[2:-2].split("],[")
    entries = [e for row in rows for e in row.split(",")]
    if len(rows) != 2 or len(entries) != 4:
        raise ValueError(f"not a 2x2 matrix: {body[:40]!r}")
    return tuple(parse_q(e) for e in entries)


def _json_matrix(d: dict) -> Mat:
    if sorted(d) != ["e11", "e12", "e21", "e22"]:
        raise ValueError(f"bad matrix keys {sorted(d)}")
    return tuple(parse_q(d[k]) for k in ("e11", "e12", "e21", "e22"))


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad csv header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def parse_matrix(text: str, form: str) -> Mat:
    if form == "json":
        return _json_matrix(json.loads(text))
    if form == "csv":
        (row,) = _csv_rows(text, "e11,e12,e21,e22")
        return tuple(parse_q(e) for e in row)
    return parse_plain_matrix(text)


def parse_series(text: str, form: str) -> list[Mat]:
    if form == "json":
        return [_json_matrix(d) for d in json.loads(text)]
    if form == "csv":
        rows = _csv_rows(text, "m,e11,e12,e21,e22")
        if [int(r[0]) for r in rows] != list(range(len(rows))):
            raise ValueError("series rows out of order")
        return [tuple(parse_q(e) for e in r[1:]) for r in rows]
    return [parse_plain_matrix(line) for line in text.splitlines()]


def parse_sum_both(text: str, form: str) -> tuple[Mat, Mat, bool | None]:
    """(direct, closed_form, match flag); csv prints no flag."""
    if form == "json":
        d = json.loads(text)
        return _json_matrix(d["direct"]), _json_matrix(d["closed_form"]), d["match"]
    if form == "csv":
        (d, c) = _csv_rows(text, "side,e11,e12,e21,e22")
        if (d[0], c[0]) != ("direct", "closed_form"):
            raise ValueError("bad sum rows")
        return tuple(map(parse_q, d[1:])), tuple(map(parse_q, c[1:])), None
    direct, closed, flag = text.splitlines()
    if not (direct.startswith("direct ") and closed.startswith("closed-form ")
            and flag in ("MATCH", "MISMATCH")):
        raise ValueError("bad sum lines")
    return (parse_plain_matrix(direct.split(None, 1)[1]),
            parse_plain_matrix(closed.split(None, 1)[1]), flag == "MATCH")


CSV_REPORT_HEADER = ("identity,a,b,x,n_max,status,first_failure,"
                     "residual_e11,residual_e12,residual_e21,residual_e22")


_PLAIN_REPORT = re.compile(
    r"(\S+) a=(\S+) b=(\S+)(?: x=(\S+))? n_max=(\d+) (SKIPPED\(.*\)|\S+)")


def parse_reports(text: str, form: str) -> list[tuple]:
    """[(identity, a, b, x or None, n_max, status label)] per report."""
    rows = []
    if form == "json":
        for line in text.splitlines():
            d = json.loads(line)
            rows.append((d["identity"], d["a"], d["b"], d.get("x"), d["n_max"],
                         d["status"]))
    elif form == "csv":
        rows = [(r[0], r[1], r[2], r[3] or None, int(r[4]), r[5])
                for r in _csv_rows(text, CSV_REPORT_HEADER)]
    else:
        for line in text.splitlines():
            m = _PLAIN_REPORT.match(line.split("  [")[0])
            if m is None:
                raise ValueError(f"bad report line {line[:60]!r}")
            ident, a, b, x, n_max, status = m.groups()
            rows.append((ident, a, b, x, int(n_max), status))
    return [(i, parse_q(a), parse_q(b), None if x is None else parse_q(x), n, st)
            for i, a, b, x, n, st in rows]


# --- expectations --------------------------------------------------------

def _t6_den(a: Fraction, b: Fraction, x: Fraction) -> Fraction:
    return x * x - (a * b + 4) * x + 4


def expected_status(suite: str, a: Fraction, b: Fraction, x) -> str:
    """PASS, FAIL or SKIPPED, from the README's suite table."""
    if suite == "SUM_T5" and a * b == 1:
        return "SKIPPED"
    if suite == "WEIGHTED_SUM_T6":
        if x == 0 or _t6_den(a, b, x) == 0:
            return "SKIPPED"
        return "PASS" if x == 1 else "FAIL"
    return "PASS"


def expected_reports(suites, a_values, b_values, n_max: int, xs) -> list[tuple]:
    """[(identity, a, b, x, n_max, status)] in the verifier's sort order."""
    rows = []
    for a in a_values:
        for b in b_values:
            for suite in suites:
                for x in (xs if suite == "WEIGHTED_SUM_T6" else (None,)):
                    reported_n = {"DOUBLING": max(2, n_max // 2),
                                  "ROOT_IDENTITIES": 0}.get(suite, n_max)
                    rows.append((suite, a, b, x, reported_n,
                                 expected_status(suite, a, b, x)))
    rows.sort(key=lambda r: (r[1], r[2], r[0], r[3] if r[3] is not None else 0))
    return rows


def report_outcomes(got: list[tuple], want: list[tuple]) -> list[str]:
    """Per expected report: OK, or WRONG when it is missing or differs.
    Reports beyond the expected ones make the last outcome WRONG."""
    out = [OK if i < len(got) and got[i][:5] == w[:5]
           and got[i][5].split("(")[0] == w[5] else WRONG
           for i, w in enumerate(want)]
    if len(got) > len(want):
        out[-1] = WRONG
    return out


_GRID_VALUES = tuple(Fraction(v) for v in (-3, -2, -1, 1, 2, 3))
GRID_EXPECTED = expected_reports(
    SUITES, _GRID_VALUES, _GRID_VALUES, 128,
    (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)))
_PARSE_ERRORS = (ValueError, KeyError, TypeError, IndexError, AttributeError,
                 ZeroDivisionError)


def check_grid(rc, stdout: str) -> tuple[list[str], bool]:
    """Per-report outcomes of the grid call, and whether its stdout bytes
    match the digest recorded from the seed commit."""
    if rc != 0:
        return [REFUSED if rc == 2 else WRONG] * len(GRID_EXPECTED), False
    try:
        outcomes = report_outcomes(parse_reports(stdout, "json"), GRID_EXPECTED)
    except _PARSE_ERRORS:
        return [WRONG] * len(GRID_EXPECTED), False
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    return outcomes, digest == GRID_STDOUT_SHA256


def check_deep(a: Fraction, b: Fraction, n: int, fast: Mat, binet: Mat) -> str:
    """Both routes agree and det J[n] matches 2^n (-b/a)^e."""
    if fast != binet:
        return WRONG
    e11, e12, e21, e22 = fast
    return OK if e11 * e22 - e12 * e21 == det_expected(a, b, n) else WRONG


def _closed_form_undefined(a: Fraction, b: Fraction, x) -> bool:
    return a * b == 1 if x is None else _t6_den(a, b, x) == 0


def _expected_rcs(cls: str, spec: tuple) -> tuple:
    if cls == "invalid":
        return (2,)
    if cls.startswith("sum") and cls.endswith("both"):
        a, b, _, x, _, _ = spec
        if _closed_form_undefined(a, b, x):
            return (2,)
        # The printed weighted form is the erratum under test: either code,
        # as long as it agrees with the printed values (see _value_ok).
        return (0, 1) if x is not None else (0,)
    if cls == "verify":
        suite, a, b, n_max, xs, errata, _ = spec
        fails = any(expected_status(suite, a, b, x) == "FAIL"
                    for x in (xs if suite == "WEIGHTED_SUM_T6" else (None,)))
        return (1,) if fails and not errata else (0,)
    return (0,)


def _value_ok(oracle: Oracle, cls: str, spec: tuple, rc, out: str) -> bool:
    if cls == "term":
        kind, a, b, n, form = spec
        value = oracle.scalar(kind, a, b, n)
        if form == "plain":
            return parse_q(out) == value
        if form == "json":
            d = json.loads(out)
            row = [d["kind"], d["a"], d["b"], str(d["n"]), d["value"]]
        else:
            (row,) = _csv_rows(out, "kind,a,b,n,value")
        echo = (row[0], parse_q(row[1]), parse_q(row[2]), int(row[3]))
        return echo == (kind, a, b, n) and parse_q(row[4]) == value
    if cls in ("matrix_all", "matrix_fast"):
        a, b, n, form = spec
        return parse_matrix(out, form) == oracle.matrix(a, b, n)
    if cls == "series":
        a, b, count, form = spec
        return parse_series(out, form) == [oracle.matrix(a, b, m) for m in range(count)]
    if cls == "verify":
        suite, a, b, n_max, xs, _, form = spec
        want = expected_reports((suite,), (a,), (b,), n_max, xs)
        return all(o == OK for o in report_outcomes(parse_reports(out, form), want))
    a, b, n, x, both, form = spec
    direct = oracle.weighted_sum(a, b, n, x)
    if not both:
        return parse_matrix(out, form) == direct
    got, closed, flag = parse_sum_both(out, form)
    if x is None:
        return got == direct and closed == direct  # the plain form is a theorem
    match = closed == got
    return got == direct and flag in (None, match) and rc == (0 if match else 1)


def check_mixed(oracle: Oracle, cls: str, spec: tuple, rc, stdout: str) -> str:
    if rc not in _expected_rcs(cls, spec):
        return REFUSED if rc == 2 else WRONG
    if rc == 2:
        return OK
    try:
        return OK if _value_ok(oracle, cls, spec, rc, stdout) else WRONG
    except _PARSE_ERRORS:
        return WRONG
