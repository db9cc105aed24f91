"""Seeded op lists for the three workloads.

Everything here is a pure function of the seed: the program only ever sees
the inputs built here.  An op list is a plain list of tuples so that two
lists compare with `==`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction

GRID_VERIFY = "grid_verify"
DEEP_TERMS = "deep_terms"
MIXED_QUERIES = "mixed_queries"
WORKLOADS = (GRID_VERIFY, DEEP_TERMS, MIXED_QUERIES)
# The weights of the host-probe kernels (probe.py) for each workload's
# ops, by the kind of work they spend their time on: grid_verify's small
# operands, deep_terms's huge ones, and mixed_queries's short calls on
# small operands beside long sums on large ones.  Each weight is the one
# that left the least spread in repeated passes of the same ops on the
# sizing box.  Set-up (imports and op lists) is interpreter-bound on every
# workload.  Every pass runs both kernels, so the record shows both, and
# the probe time of both is taken out of every interval.
PROBE_WEIGHTS = {
    GRID_VERIFY: {"small": 0.75, "big": 0.25},
    DEEP_TERMS: {"big": 1.0},
    MIXED_QUERIES: {"small": 0.5, "big": 0.5},
}
SETUP_PROBE_WEIGHTS = {"small": 1.0}

# --- grid_verify ---------------------------------------------------------

GRID_ARGV = ("verify", "--suite", "all", "--a", "-3..3", "--b", "-3..3",
             "--n-max", "128", "--expect-errata", "--format", "json")
GRID_REPORTS = 432
# SHA-256 of the grid's stdout, recorded from the seed commit: any change
# to the bytes `verify` prints breaks the byte-identical output contract.
GRID_STDOUT_SHA256 = (
    "fdf4a95017ca7f23f5c1866d47672362a6fc4dbd24c9ad7e817180f6291415f4"
)


def grid_ops(seed: int, seconds: float = 0.0) -> list[tuple]:
    """The grid is fixed, so the seed is unused."""
    return [GRID_ARGV]


# --- deep_terms ----------------------------------------------------------

# Integer pairs stay cheap and favour the root-based route; rational pairs
# are gcd-bound and favour the fast route, so the route ranking flips.
DEEP_PAIRS = (
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(-3)),
    (Fraction(-1), Fraction(3)),
    (Fraction(1, 2), Fraction(-3, 4)),
    (Fraction(-3, 2), Fraction(1, 3)),
)
DEEP_ROUTES = ("fast", "binet")
DEEP_LOG2_N = (12.0, 16.0)
# The op list holds one round (every pair once, on both routes) per this
# many seconds of --seconds.  A round took about 1 s at the seed commit on
# a 2-core box, and each of the two passes runs the whole list.
DEEP_SECONDS_PER_ROUND = 2.0
# Each n lies in the middle DEEP_JITTER of its stratum of log2 n.
DEEP_JITTER = 0.2


def deep_strata(seconds: float) -> int:
    return max(2, round(seconds / DEEP_SECONDS_PER_ROUND))


def deep_ops(seed: int, seconds: float) -> list[tuple]:
    """Rounds of (route, a, b, n): each round issues every pair once, on
    both routes, in a seeded order.

    n is log-uniform on [2^12, 2^16], drawn as a Latin hypercube: the range
    of log2 n is cut into one stratum per round, and each pair takes every
    stratum once, at a seeded point near its middle, in a seeded order.
    Cost grows about as n^1.7, so the top stratum's n carry most of the
    run's time; stratifying keeps their share, and keeping each point near
    its stratum's middle keeps their size, and with it ops_per_s, steady
    from seed to seed.
    """
    rng = random.Random(f"{DEEP_TERMS}:{seed}")
    strata = deep_strata(seconds)
    lo, hi = DEEP_LOG2_N
    orders = [rng.sample(range(strata), strata) for _ in DEEP_PAIRS]
    ops: list[tuple] = []
    for r in range(strata):
        round_ops = []
        for (a, b), order in zip(DEEP_PAIRS, orders):
            cell = order[r] + 0.5 + DEEP_JITTER * (rng.random() - 0.5)
            n = round(2 ** (lo + (hi - lo) * cell / strata))
            round_ops.extend((route, a, b, n) for route in DEEP_ROUTES)
        rng.shuffle(round_ops)
        ops.extend(round_ops)
    return ops


# --- mixed_queries -------------------------------------------------------

KINDS = ("jhat", "jlucas", "fibonacci", "lucas")
FORMATS = ("plain", "json", "csv")
SUITES = ("CASSINI", "DET", "DOUBLING", "LUCAS_RELATIONS", "SUM_T5",
          "WEIGHTED_SUM_T6", "ROOT_IDENTITIES", "SERIES_MATCH", "CROSS_METHOD")
# The op list holds one call per this many seconds of --seconds, and at
# least MIXED_MIN_OPS calls.  A call took about 8 ms on average at the seed
# commit on a 2-core box, and each of the two passes runs the whole list.
MIXED_SECONDS_PER_CALL = 0.016
MIXED_MIN_OPS = 1000
MIXED_LOG2_N_MAX = 11
SERIES_LOG2_COUNT_MAX = 8
VERIFY_LOG2_N_MAX = 6
# Steps of the two low-discrepancy sequences: the fractional parts of the
# golden ratio and of sqrt(2), which are rationally independent.
_GOLDEN = (math.sqrt(5) - 1) / 2
_SQRT2 = math.sqrt(2) - 1
# The shifts of those sequences, and the offsets of the format, kind,
# suite and weight cycles, are the same for every seed: every seed makes
# the same k-th call of each class, up to the seeded draws inside it, and
# the seed sets the order of the calls.  The calls past p99 are the
# largest sums, whose cost turns on size, pair and weight together; with
# seeded shifts and offsets they changed from seed to seed, and op_p99_ms
# spread by 20% to 28% over seeds.
MIXED_SHIFTS_SEED = "shifts"
X_VALUES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3),
            Fraction(-1), Fraction(4))

_PARAM_VALUES = (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2),
                 Fraction(3, 2), Fraction(-2, 3))
# Every (a, b) over the values above: 100 pairs, so the (kind, a, b) keys
# the scalar memo sees far exceed the 64 series it holds.  The popularity
# ranking is fixed (only the draws depend on the seed), so that the hot
# set, and with it the cost mix, is the same from seed to seed.
MIXED_PAIRS = tuple(
    (Fraction(a), Fraction(b)) for a in _PARAM_VALUES for b in _PARAM_VALUES
)
MIXED_PAIRS = tuple(random.Random("popularity").sample(MIXED_PAIRS, len(MIXED_PAIRS)))
_ZIPF_S = 1.1
_PAIR_CUM_WEIGHTS = tuple(itertools.accumulate(
    1 / (rank + 1) ** _ZIPF_S for rank in range(len(MIXED_PAIRS))))

# (command class, calls per block of 100).  The last four classes are
# invalid on purpose (expected exit 2); the three `defect_*` classes are
# calls the README says succeed but the seed commit refuses (BENCHMARK.md).
_MIX = (
    ("term", 34),
    ("matrix_all", 14),
    ("series", 7),
    ("sum_plain", 9),
    ("sum_both", 7),
    ("sum_x", 5),
    ("sum_x_both", 5),
    ("verify", 8),
    ("defect_sum_ab1", 1),
    ("defect_sum_x_den0", 1),
    ("defect_matrix_digits", 1),
    ("bad_zero", 2),
    ("bad_float", 2),
    ("bad_index", 2),
    ("bad_binet_degenerate", 2),
)
_BLOCK = tuple(name for name, calls in _MIX for _ in range(calls))

# ab = 1 pairs (plain-sum denominator), ab = -8 pairs (repeated root), and
# (a, b, x) triples where the printed weighted form's x^2-(ab+4)x+4 is 0.
_AB_ONE = ((1, 1), (-1, -1), (2, Fraction(1, 2)), (Fraction(-3, 2), Fraction(-2, 3)))
_AB_MINUS_EIGHT = ((2, -4), (-2, 4), (4, -2), (-8, 1))
_T6_DEN_ZERO = ((1, 1, 4), (1, 1, 1), (2, Fraction(1, 2), 4), (3, Fraction(3, 2), Fraction(1, 2)))
# J[n] at (1, 1) has more than 4300 decimal digits from n = 14286 on.
DIGITS_N = (14300, 14700)


def fmt(r) -> str:
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def _log_uniform(u: float, lo: int, log2_hi: float) -> int:
    """Integer in [lo, 2^log2_hi - 1], log-uniform in n + 1 for uniform u."""
    return max(lo, round(2 ** (u * log2_hi)) - 1)


_PAIR_ARGV = {(a, b): ("--a", fmt(a), "--b", fmt(b)) for a, b in MIXED_PAIRS}


def _mixed_op(rng: random.Random, cls: str, u_n: float, u_pair: float, turn: int) -> tuple:
    """One call of class `cls`: u_n places its size, u_pair its (a, b), and
    `turn` cycles its format, kind, suite and weight through every value."""
    a, b = pair = MIXED_PAIRS[bisect.bisect(_PAIR_CUM_WEIGHTS, u_pair * _PAIR_CUM_WEIGHTS[-1])]

    def pick(values):
        return values[turn % len(values)]

    form = pick(FORMATS)
    n = _log_uniform(u_n, 0, MIXED_LOG2_N_MAX)
    ab = _PAIR_ARGV[pair]
    tail = ("--format", form)
    if cls == "term":
        kind = pick(KINDS)
        if kind == "jhat" and rng.random() < 0.02:
            n = -1
        return cls, ("term", "--kind", kind, *ab, "--n", str(n), *tail), (kind, a, b, n, form)
    if cls == "matrix_all":
        return cls, ("matrix", *ab, "--n", str(n), "--method", "all", *tail), (a, b, n, form)
    if cls == "series":
        count = _log_uniform(u_n, 1, SERIES_LOG2_COUNT_MAX)
        return cls, ("series", *ab, "--count", str(count), *tail), (a, b, count, form)
    if cls in ("sum_plain", "sum_both", "sum_x", "sum_x_both"):
        n = max(1, n)
        x = pick(X_VALUES) if cls in ("sum_x", "sum_x_both") else None
        argv = ("sum", *ab, "--n", str(n))
        if x is not None:
            argv += ("--x", fmt(x))
        if cls.endswith("both"):
            argv += ("--both",)
        return cls, argv + tail, (a, b, n, x, cls.endswith("both"), form)
    if cls == "verify":
        suite = pick(SUITES)
        n_max = _log_uniform(u_n, 4, VERIFY_LOG2_N_MAX)
        xs = tuple(sorted(set(rng.sample(X_VALUES, rng.randint(1, 3)))))
        errata = turn % 2 == 0
        argv = ("verify", "--suite", suite, *ab, "--n-max", str(n_max),
                "--x", ",".join(fmt(x) for x in xs))
        if errata:
            argv += ("--expect-errata",)
        return cls, argv + tail, (suite, a, b, n_max, xs, errata, form)
    if cls == "defect_sum_ab1":
        a, b = map(Fraction, rng.choice(_AB_ONE))
        n = max(1, n)
        argv = ("sum", "--a", fmt(a), "--b", fmt(b), "--n", str(n), *tail)
        return "sum_plain", argv, (a, b, n, None, False, form)
    if cls == "defect_sum_x_den0":
        a, b, x = map(Fraction, rng.choice(_T6_DEN_ZERO))
        n = max(1, n)
        argv = ("sum", "--a", fmt(a), "--b", fmt(b), "--n", str(n), "--x", fmt(x), *tail)
        return "sum_x", argv, (a, b, n, x, False, form)
    if cls == "defect_matrix_digits":
        n = rng.randint(*DIGITS_N)
        one = Fraction(1)
        argv = ("matrix", "--a", "1", "--b", "1", "--n", str(n), "--method", "fast", *tail)
        return "matrix_fast", argv, (one, one, n, form)
    # Invalid on purpose: every one of these must exit 2.
    if cls == "bad_zero":
        argv = ("term", "--kind", rng.choice(KINDS), "--a", "0", "--b", fmt(b), "--n", str(n))
    elif cls == "bad_float":
        argv = ("matrix", "--a", fmt(a), "--b", f"{rng.randint(1, 9)}.5", "--n", str(n))
    elif cls == "bad_index":
        argv = ("term", "--kind", rng.choice(KINDS), *ab, "--n", str(-rng.randint(2, 50)))
    else:
        a, b = map(Fraction, rng.choice(_AB_MINUS_EIGHT))
        argv = ("matrix", "--a", fmt(a), "--b", fmt(b), "--n", str(n), "--method", "binet")
    return "invalid", argv + tail, ()


def mixed_ops(seed: int, seconds: float) -> list[tuple]:
    """Ops of (class, argv, spec), as many as `seconds` sizes; `spec` is
    what the checker needs to know the expected exit code and value of the
    call.

    Every block of 100 calls holds each class its fixed number of times,
    in a seeded order.  Within a class, the k-th call's size and (a, b)
    come from shifted golden-ratio and sqrt(2) sequences, and its format,
    kind, suite and weight from cycles (the shifts and the cycles' offsets
    are fixed, see MIXED_SHIFTS_SEED): each input is uniform on its own,
    and the list covers all of them evenly.
    """
    rng = random.Random(f"{MIXED_QUERIES}:{seed}")
    count = max(MIXED_MIN_OPS, round(seconds / MIXED_SECONDS_PER_CALL))
    classes: list[str] = []
    while len(classes) < count:
        block = list(_BLOCK)
        rng.shuffle(block)
        classes += block
    fixed = random.Random(MIXED_SHIFTS_SEED)
    shifts = {name: (fixed.random(), fixed.random(), fixed.randrange(360))
              for name in dict.fromkeys(_BLOCK)}
    seen = dict.fromkeys(shifts, 0)
    ops = []
    for cls in classes[:count]:
        k = seen[cls]
        seen[cls] += 1
        s_n, s_pair, s_turn = shifts[cls]
        ops.append(_mixed_op(rng, cls, (s_n + k * _GOLDEN) % 1.0,
                             (s_pair + k * _SQRT2) % 1.0, s_turn + k))
    return ops


OP_LISTS = {GRID_VERIFY: grid_ops, DEEP_TERMS: deep_ops, MIXED_QUERIES: mixed_ops}
