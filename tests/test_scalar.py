import enum
import gc
import random
import weakref
from collections import Counter
from fractions import Fraction as F
from functools import partial
from itertools import islice
from math import gcd, lcm

import pytest

from bijacobsthal.exact import Mat2, _plain
from bijacobsthal.scalar import (
    BiParams,
    SeqKind,
    classical_jacobsthal,
    classical_jacobsthal_lucas,
    scalar_term,
    scalar_term_fast,
    verify_lucas_relations,
)
from bijacobsthal.matrixseq import iter_terms, term_fast, term_recurrence
import bijacobsthal.matrixseq as matrixseq_mod
import bijacobsthal.scalar as scalar_mod

JHAT = SeqKind.BP_JACOBSTHAL
JLUCAS = SeqKind.BP_JACOBSTHAL_LUCAS
FIB = SeqKind.BP_FIBONACCI
LUCAS = SeqKind.BP_LUCAS

PARAM_POINTS = [BiParams(1, 1), BiParams(2, 1), BiParams(-2, 3), BiParams(3, 5)]


def test_biparams_validation_and_derived():
    with pytest.raises(ValueError):
        BiParams(0, 1)
    with pytest.raises(ValueError):
        BiParams(1, 0)
    p = BiParams(F(2, 3), -5)
    assert p.ab == p.a * p.b == F(-10, 3)
    assert p.disc == p.ab * (p.ab + 8) == F(-10, 3) * F(14, 3)


# First six terms of each kind as polynomials in (a, b); these pin which of
# a/b multiplies at even vs odd indices, the easiest thing to get wrong.
def _first_six(kind, a, b):
    if kind is JHAT:
        return [0, 1, a, a * b + 2, a * a * b + 4 * a,
                a * a * b * b + 6 * a * b + 4]
    if kind is JLUCAS:
        return [2, a, a * b + 4, a * a * b + 6 * a,
                a * a * b * b + 8 * a * b + 8,
                a ** 3 * b ** 2 + 10 * a * a * b + 20 * a]
    if kind is FIB:
        return [0, 1, a, a * b + 1, a * a * b + 2 * a,
                a * a * b * b + 3 * a * b + 1]
    if kind is LUCAS:
        return [2, a, a * b + 2, a * a * b + 3 * a,
                a * a * b * b + 4 * a * b + 2,
                a ** 3 * b ** 2 + 5 * a * a * b + 5 * a]
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", list(SeqKind))
@pytest.mark.parametrize("a,b", [(2, 1), (3, 5), (-2, 3), (F(1, 2), F(-3, 4))])
def test_first_six_terms(kind, a, b):
    params = BiParams(a, b)
    expected = _first_six(kind, F(a), F(b))
    got = [scalar_term(kind, params, n) for n in range(6)]
    assert got == expected


def test_jhat_anchor_values():
    p = BiParams(2, 1)
    assert scalar_term(JHAT, p, 2) == 2  # equals a
    assert scalar_term(JHAT, p, 5) == 20
    assert scalar_term(JHAT, p, -1) == F(1, 2)
    assert scalar_term(JLUCAS, p, 3) == 16


def test_negative_index_domain():
    p = BiParams(2, 1)
    with pytest.raises(ValueError):
        scalar_term(JHAT, p, -2)
    for kind in (JLUCAS, FIB, LUCAS):
        with pytest.raises(ValueError):
            scalar_term(kind, p, -1)
    with pytest.raises(ValueError):
        scalar_term_fast(JHAT, p, -1)


def test_backward_extension_consistency():
    # recomputing forward from {jhat[-1] = 1/2, jhat[0] = 0} gives jhat[1] = 1
    for p in PARAM_POINTS:
        jm1 = scalar_term(JHAT, p, -1)
        j0 = scalar_term(JHAT, p, 0)
        assert p.b * j0 + 2 * jm1 == scalar_term(JHAT, p, 1) == 1


def test_classical_sequences():
    assert [classical_jacobsthal(n) for n in range(9)] == [0, 1, 1, 3, 5, 11, 21, 43, 85]
    assert [classical_jacobsthal_lucas(n) for n in range(7)] == [2, 1, 5, 7, 17, 31, 65]
    assert classical_jacobsthal(5) == 11
    assert classical_jacobsthal(8) == 85
    with pytest.raises(ValueError):
        classical_jacobsthal(-1)
    # classical values agree with the a = b = 1 specialization
    unit = BiParams(1, 1)
    for n in range(32):
        assert classical_jacobsthal(n) == scalar_term(JHAT, unit, n)
        assert classical_jacobsthal_lucas(n) == scalar_term(JLUCAS, unit, n)


def test_unit_params_binet_closed_form():
    # at a = b = 1 the roots are 2 and -1: jhat[n] = (2^n - (-1)^n) / 3
    unit = BiParams(1, 1)
    for n in range(65):
        assert scalar_term(JHAT, unit, n) == F(2 ** n - (-1) ** n, 3)


def test_fast_examples():
    assert scalar_term_fast(JHAT, BiParams(2, 1), 6) == 64
    assert scalar_term_fast(JHAT, BiParams(1, 1), 12) == 1365
    for kind in SeqKind:
        for p in PARAM_POINTS:
            assert scalar_term_fast(kind, p, 0) == kind.initial_terms(p)[0]


@pytest.mark.parametrize("kind", list(SeqKind))
@pytest.mark.parametrize("params", [BiParams(1, 1), BiParams(2, 1)], ids=str)
def test_fast_equals_slow_dense(kind, params):
    for n in range(4097):
        assert scalar_term_fast(kind, params, n) == scalar_term(kind, params, n)


@pytest.mark.parametrize("kind", list(SeqKind))
@pytest.mark.parametrize("params", [BiParams(-2, 3), BiParams(3, 5),
                                    BiParams(F(1, 2), F(-3, 4))], ids=str)
def test_fast_equals_slow_sampled(kind, params):
    for n in range(1025):
        assert scalar_term_fast(kind, params, n) == scalar_term(kind, params, n)
    for n in (2048, 4095, 4096):
        assert scalar_term_fast(kind, params, n) == scalar_term(kind, params, n)


def test_series_live_on_the_table_points_it_bounds():
    bound = scalar_mod.MAX_POINTS
    assert bound == 64
    for key, lookup in (
        (JHAT, lambda p: scalar_term(JHAT, p, 4)),
        (matrixseq_mod._J, lambda p: term_recurrence(p, 4)),
    ):
        scalar_mod.clear_caches()
        keys = []
        for a in range(1, 200):
            lookup(scalar_mod.point(F(a), F(1)))
            keys.append(list(scalar_mod._points)[-1])  # the pair just inserted
            if a == bound + 1:
                # the 65th point evicts exactly the oldest-inserted one
                assert list(scalar_mod._points) == keys[1:]
            assert len(scalar_mod._points) <= bound
        assert list(scalar_mod._points) == keys[-bound:]
        assert all(list(p.series) == [key] for p in scalar_mod._points.values())
        scalar_mod.clear_caches()


def test_scalar_and_matrix_series_stay_apart():
    # The scalar jhat series and the matrix one share one step rule, but
    # each route fills only its own key on the point.
    assert matrixseq_mod._J != JHAT
    p = BiParams(F(2, 3), -5)
    term_recurrence(p, 12)
    assert list(p.series) == [matrixseq_mod._J]
    assert isinstance(p.series[matrixseq_mod._J].term(12), Mat2)
    scalar_term(JHAT, p, 12)
    assert list(p.series) == [matrixseq_mod._J, JHAT]
    assert p.series[JHAT].term(12) == term_recurrence(p, 12).e21


def test_evicting_a_point_drops_its_series():
    # A table point's series are its own: once the table evicts the point,
    # nothing else holds it, and it goes with every series it filled.
    scalar_mod.clear_caches()
    p = scalar_mod.point(F(5, 7), F(-3, 4))
    for kind in SeqKind:
        scalar_term(kind, p, 200)
    term_recurrence(p, 200)
    assert len(p.series) == len(SeqKind) + 1
    evicted = weakref.ref(p)
    del p
    for a in range(1, scalar_mod.MAX_POINTS + 1):
        scalar_term(JHAT, scalar_mod.point(F(a), F(1)), 4)
    gc.collect()
    assert evicted() is None
    scalar_mod.clear_caches()


def test_the_classical_point_is_the_tables():
    # The classical sequences read the table's (1, 1), so its series go
    # with the table, not with a module-level point.
    scalar_mod.clear_caches()
    assert classical_jacobsthal(5000) == (2 ** 5000 - (-1) ** 5000) // 3
    p = scalar_mod.point(1, 1)
    assert list(p.series) == [JHAT]
    assert classical_jacobsthal_lucas(7) == 2 ** 7 + (-1) ** 7
    assert list(p.series) == [JHAT, JLUCAS]
    freed = weakref.ref(p)
    del p
    scalar_mod.clear_caches()
    gc.collect()
    assert freed() is None


class _StepFails(Exception):
    pass


# Each series key with its route, the log-time route it must agree with,
# and the kind whose rule it steps by.
MEMO_ROUTES = pytest.mark.parametrize("key, route, fast, kind", [
    (JLUCAS, partial(scalar_term, JLUCAS), partial(scalar_term_fast, JLUCAS), JLUCAS),
    (matrixseq_mod._J, term_recurrence, term_fast, JHAT),
], ids=["scalar_term", "term_recurrence"])


@MEMO_ROUTES
def test_memo_survives_a_failing_step(monkeypatch, key, route, fast, kind):
    # The memo holds t[0..k-1]; a run of steps that raises once, at index k,
    # leaves it holding exactly that, and the next call resumes there and
    # returns the right value.
    p, k = BiParams(F(5, 7), F(-3, 4)), 9
    steps = scalar_mod._steps
    failed = []

    def failing_steps(rule, start, prev, cur):
        for n, term in enumerate(steps(rule, start, prev, cur), start):
            if n == k and not failed:
                failed.append(n)
                raise _StepFails
            yield term

    monkeypatch.setattr(scalar_mod, "_steps", failing_steps)
    route(p, k - 1)
    with pytest.raises(_StepFails):
        route(p, 20)
    series = p.series[key]
    assert series.rule == kind._integer_rule(p)[0]
    assert len(series.terms) == k
    assert [series.term(n) for n in range(k)] == [fast(p, n) for n in range(k)]
    assert len(series.terms) == k
    assert route(p, 20) == fast(p, 20)
    assert len(series.terms) == 21


@MEMO_ROUTES
def test_memo_survives_a_failing_division(monkeypatch, key, route, fast, kind):
    # A division that raises once, on the first read of index n, leaves the
    # series stepped through n with t[n] still to divide; the next read
    # divides it, and the series steps on from there.
    p, n = BiParams(F(5, 7), F(-3, 4)), 20
    divide = scalar_mod._divide
    failed = []

    def failing_divide(*args):
        if not failed:
            failed.append(args)
            raise _StepFails
        return divide(*args)

    monkeypatch.setattr(scalar_mod, "_divide", failing_divide)
    with pytest.raises(_StepFails):
        route(p, n)
    series = p.series[key]
    assert len(series.terms) == n + 1
    value = route(p, n)
    assert value == fast(p, n)
    assert route(p, n) is value
    assert route(p, n + 5) == fast(p, n + 5)
    assert len(failed) == 1


# Each series with its route, the log-time route it must agree with, and
# a lane of it: J's four lanes, and jhat's one.
EVERY_LANE = pytest.mark.parametrize("key, route, fast, lane", [
    *((matrixseq_mod._J, term_recurrence, term_fast, lane) for lane in range(4)),
    (JHAT, partial(scalar_term, JHAT), partial(scalar_term_fast, JHAT), 0),
], ids=["J-lane0", "J-lane1", "J-lane2", "J-lane3", "jhat-lane0"])


@EVERY_LANE
@pytest.mark.parametrize("pair", [(2, -3), (F(5, 7), F(-3, 4))], ids=["integer", "rational"])
def test_memo_survives_a_step_failing_in_any_lane(monkeypatch, key, route, fast, lane, pair):
    # A series steps one lane per entry of its terms, each from a `_steps`
    # run of its own.  From t[0..k-1], the step at index k in the given
    # lane raises: every lane and the read cache still hold exactly
    # t[0..k-1], and the next read steps on from there.
    p, k = BiParams(*pair), 9
    route(p, k - 1)
    series = p.series[key]
    held = [entries[:] for entries in series.lanes]
    steps, runs = scalar_mod._steps, []

    def failing_steps(rule, start, prev, cur):
        runs.append(start)
        failing = len(runs) == lane + 1
        for n, term in enumerate(steps(rule, start, prev, cur), start):
            if failing and n == k:
                raise _StepFails
            yield term

    monkeypatch.setattr(scalar_mod, "_steps", failing_steps)
    with pytest.raises(_StepFails):
        route(p, 20)
    assert len(series.terms) == k and series.lanes == held
    assert [len(entries) for entries in series.lanes] == [k] * len(held)
    assert [series.term(n) for n in range(k)] == [fast(p, n) for n in range(k)]
    assert route(p, 20) == fast(p, 20)
    assert [len(entries) for entries in series.lanes] == [21] * len(held)
    assert p.series[key] is series


def _single_steps(rule, start, prev, cur, count):
    """t[start..start+count-1], one index at a time, by the parity rule
    stated here: the even multiplier at even indices."""
    run = []
    for n in range(start, start + count):
        prev, cur = cur, (rule[1] if n & 1 else rule[0]) * cur + rule[2] * prev
        run.append(cur)
    return run


@pytest.mark.parametrize("ring", ["int", "fraction", "sympy"])
def test_steps_equal_single_steps(ring):
    # The first terms of a `_steps` run equal the rule stepped one index at
    # a time, from either parity of its first index, for runs of no step,
    # one, two, an odd and an even number, over ints, Fractions and sympy
    # symbols.
    same = lambda x, y: type(x) is type(y) and x == y
    if ring == "sympy":
        sp = pytest.importorskip("sympy")
        even, odd, prev, cur = sp.symbols("e o p q")
        rule, same = (even, odd, 2), lambda x, y: sp.expand(x - y) == 0
    elif ring == "fraction":
        rule, prev, cur = (F(5, 7), F(-7, 9), 2), F(1, 3), F(-2, 5)
    else:
        rule, prev, cur = (3, -2, 4), 5, -7
    for start in (2, 3, 10, 11):
        for count in (0, 1, 2, 7, 8):
            got = list(islice(scalar_mod._steps(rule, start, prev, cur), count))
            want = _single_steps(rule, start, prev, cur, count)
            assert len(got) == count, (start, count)
            assert all(same(g, w) for g, w in zip(got, want)), (start, count)


@pytest.mark.parametrize("params", [BiParams(1, 1), BiParams(F(5, 7), F(-7, 9))], ids=str)
def test_matrix_memo_grows_by_odd_and_even_runs(monkeypatch, params):
    # Reads that take the series from an even length or an odd one, by a
    # run of one, two, three or four steps, keep every term equal to the
    # log-time route's, and the four lanes as long as the read cache.
    # Each extension starts one `_steps` run per lane, at the series'
    # length.
    steps, started = scalar_mod._steps, []

    def counting_steps(*args):
        started.append(args[1])
        return steps(*args)

    monkeypatch.setattr(scalar_mod, "_steps", counting_steps)
    params.series.clear()
    length = 2
    for n in (2, 5, 6, 9, 12, 13, 14, 17, 21, 22, 24):
        started.clear()
        assert term_recurrence(params, n) == term_fast(params, n), n
        assert started == [length] * 4, n
        series = params.series[matrixseq_mod._J]
        assert [len(lane) for lane in series.lanes] == [n + 1] * 4
        assert [series.term(i) for i in range(n + 1)] == [
            term_fast(params, i) for i in range(n + 1)], n
        length = len(series.terms)
    params.series.clear()


@MEMO_ROUTES
def test_memo_reads_below_its_length_without_stepping(monkeypatch, key, route, fast,
                                                      kind):
    # An index that was stepped past but never read is divided from the
    # lanes on its first read; no lane is stepped again.
    p = BiParams(F(5, 7), F(-3, 4))
    route(p, 40)

    def no_steps(*args):
        raise AssertionError("a read below the stepped length stepped a lane")

    monkeypatch.setattr(scalar_mod, "_steps", no_steps)
    series = p.series[key]
    assert series.terms[17] is None
    value = route(p, 17)
    assert value == fast(p, 17) and series.terms[17] is value
    assert len(series.terms) == 41


def test_symbolic_matrix_memo_matches_iter_terms():
    # Over the Q(a, b) ring of tests/test_ring.py (skipped without sympy)
    # the matrix memo steps one lane per entry of J, with no division, and
    # builds the terms that `iter_terms`' Mat2 steps build.
    from test_ring import SYM
    SYM.series.clear()
    expected = list(islice(iter_terms(SYM), 41))
    term_recurrence(SYM, 40)
    assert [term_recurrence(SYM, n) for n in range(41)] == expected
    SYM.series.clear()


def test_evicted_series_restarts_from_its_start_terms():
    pair = F(5, 7), F(-3, 4)
    for route, fast in (
        (partial(scalar_term, FIB), partial(scalar_term_fast, FIB)),
        (term_recurrence, term_fast),
    ):
        scalar_mod.clear_caches()
        assert route(scalar_mod.point(*pair), 10) == fast(BiParams(*pair), 10)
        for a in range(1, scalar_mod.MAX_POINTS + 1):
            route(scalar_mod.point(F(a), F(1)), 4)
        assert all(p != BiParams(*pair) for p in scalar_mod._points.values())
        p = scalar_mod.point(*pair)
        assert not p.series
        assert route(p, 50) == fast(p, 50)
        scalar_mod.clear_caches()


# Pairs where the integer rule divides out g_e = gcd(pe, qo) or
# g_o = gcd(po, qe) > 1 for some kind (pe/qe and po/qo the even and odd
# multipliers), an integer pair and an ab = -8 pair.
INTEGER_RULE_PAIRS = [BiParams(F(5, 7), F(-7, 9)), BiParams(F(6, 35), F(10, 21)),
                      BiParams(F(-4, 9), F(3, 8)), BiParams(3, -2), BiParams(F(1, 2), -16)]


def _fraction_walk(even, odd, lag, t0, t1, count):
    """t[0..count-1] by the plain-Fraction recurrence, stated here."""
    terms = [F(t0), F(t1)]
    while len(terms) < count:
        terms.append((odd if len(terms) % 2 else even) * terms[-1] + lag * terms[-2])
    return terms


def _reference(kind, p, count):
    # The kind table restated: even multiplier, odd one, lag, t0, t1.
    a, b = p.a, p.b
    row = {JHAT: (a, b, 2, 0, 1), JLUCAS: (b, a, 2, 2, a),
           FIB: (a, b, 1, 0, 1), LUCAS: (b, a, 1, 2, a)}[kind]
    return _fraction_walk(*row, count)


def _in_lowest_terms(value):
    return (type(value) is F and value.denominator > 0
            and gcd(value.numerator, value.denominator) == 1)


def test_integer_rule_examples():
    # (rule, (w0, w1), M) with g_e and g_o > 1, and M the denominator of ab.
    assert JHAT._integer_rule(BiParams(F(5, 7), F(-7, 9))) == ((5, -1, 18), (7, 9), 9)
    assert JLUCAS._integer_rule(BiParams(F(5, 7), F(-7, 9))) == ((-1, 5, 18), (1, 7), 9)
    assert JHAT._integer_rule(BiParams(F(6, 35), F(10, 21))) == ((2, 2, 98), (5, 21), 49)
    assert FIB._integer_rule(BiParams(F(-4, 9), F(3, 8))) == ((-1, 1, 6), (3, 8), 6)


@pytest.mark.parametrize("params", INTEGER_RULE_PAIRS, ids=str)
def test_integer_rule_clears_each_term_by_its_weight(params):
    for kind in SeqKind:
        rule, (w0, w1), den = kind._integer_rule(params)
        assert den == params.ab.denominator
        assert all(type(x) is int for x in (*rule, w0, w1, den))
        t = _reference(kind, params, 60)
        s = [(w1 if k & 1 else w0) * den ** (k // 2) * t[k] for k in range(60)]
        c = lcm(s[0].denominator, s[1].denominator)
        assert all((c * x).denominator == 1 for x in s), kind
        for k in range(2, 60):
            assert s[k] == rule[k & 1] * s[k - 1] + rule[2] * s[k - 2], (kind, k)


@pytest.mark.parametrize("params", INTEGER_RULE_PAIRS, ids=str)
def test_memos_step_on_integers_and_return_lowest_fractions(monkeypatch, params):
    # Every kind and the matrix memo equal a plain-Fraction recurrence at
    # n = 0..600 and 2001, every value a Fraction in lowest terms, and at a
    # BiParams key `_steps` sees and makes only ints: the matrix memo steps
    # one lane per entry, so no Mat2 reaches it.
    run_steps, steps = scalar_mod._steps, []

    def int_steps(rule, start, prev, cur):
        assert all(type(x) is int for x in (*rule, prev, cur)), (rule, start)
        for n, term in enumerate(run_steps(rule, start, prev, cur), start):
            assert type(term) is int, (rule, n)
            steps.append(n)
            yield term

    monkeypatch.setattr(scalar_mod, "_steps", int_steps)
    params.series.clear()
    indices = [*range(601), 2001]
    for kind in SeqKind:
        expected = _reference(kind, params, 2002)
        for n in indices:
            value = scalar_term(kind, params, n)
            assert value == expected[n] and _in_lowest_terms(value), (kind, n)
    a, b = params.a, params.b
    walks = [_fraction_walk(a, b, 2, t0, t1, 2002)  # J[1] = [[b, 2b/a], [1, 0]]
             for t0, t1 in ((1, b), (0, 2 * b / a), (0, 1), (1, 0))]
    for n in indices:
        value = term_recurrence(params, n)
        assert value == Mat2(*(walk[n] for walk in walks)), n
        assert all(_in_lowest_terms(e) for e in value.entries()), n
    # Each index 2..2001 is stepped once per lane, (4 + 4) * 2000 steps: one
    # lane for each of the four scalar kinds and four for the matrix series.
    assert Counter(steps) == dict.fromkeys(range(2, 2002), 4 + 4)
    params.series.clear()


# Pairs with g_e or g_o > 1, one whose M = 8 shares a factor with the
# start terms' clearing factor, an integer pair and an ab = -8 pair.
OUT_OF_ORDER_PAIRS = [BiParams(F(5, 7), F(-7, 9)), BiParams(F(6, 35), F(10, 21)),
                      BiParams(F(1, 2), F(-3, 4)), BiParams(3, -2), BiParams(F(1, 2), -16)]


@pytest.mark.parametrize("params", OUT_OF_ORDER_PAIRS, ids=str)
def test_memo_reads_out_of_order(params):
    # Read n = 600, then n - 7, then 0..n, from every kind and the matrix
    # memo: each read equals a plain-Fraction recurrence and is in lowest
    # terms, and a repeated read returns the object the first one did.
    n = 600
    params.series.clear()
    a, b = params.a, params.b
    walks = [_fraction_walk(a, b, 2, t0, t1, n + 1)  # J[1] = [[b, 2b/a], [1, 0]]
             for t0, t1 in ((1, b), (0, 2 * b / a), (0, 1), (1, 0))]
    series = [(partial(scalar_term, kind, params), _reference(kind, params, n + 1))
              for kind in SeqKind]
    series.append((partial(term_recurrence, params),
                   [Mat2(*(walk[i] for walk in walks)) for i in range(n + 1)]))
    for read, expected in series:
        first = {}
        for i in (n, n - 7, *range(n + 1)):
            value = read(i)
            assert value == expected[i], i
            entries = value.entries() if isinstance(value, Mat2) else (value,)
            assert all(_in_lowest_terms(e) for e in entries), i
            assert first.setdefault(i, value) is value, i
    params.series.clear()


def test_lucas_relations_samples():
    assert verify_lucas_relations(BiParams(2, 1), 64).status == "PASS"
    assert verify_lucas_relations(BiParams(3, 5), 64).status == "PASS"
    # the n = 1 instance reduces to ab + 8 = 4 + (ab + 4)
    p = BiParams(F(7, 3), F(-9, 2))
    lhs = (p.ab + 8) * scalar_term(JHAT, p, 1)
    rhs = 2 * scalar_term(JLUCAS, p, 0) + scalar_term(JLUCAS, p, 2)
    assert lhs == rhs == p.ab + 8
    with pytest.raises(ValueError):
        verify_lucas_relations(BiParams(2, 1), 0)


def test_lucas_relations_report_on_rational_params():
    report = verify_lucas_relations(BiParams(F(1, 2), F(-3, 4)), 128)
    assert report.status == "PASS"
    assert report.n_max == 128


def test_j1_row_is_its_definition_computed_once():
    # J[1]'s first row (b, 2b/a), through `_plain`, at integer and seeded
    # rational pairs; a second read returns the same object.
    rng = random.Random(20261020)
    draw = lambda: F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 12))
    pairs = [BiParams(2, 1), BiParams(3, 2), BiParams(F(1, 2), F(-3, 4))]
    pairs += [BiParams(draw(), draw()) for _ in range(40)]
    for p in pairs:
        row = _plain(p.b), _plain(2 * p.b / p.a)
        assert p.j1_row == row and list(map(type, p.j1_row)) == list(map(type, row))
        assert p.j1_row is p.j1_row
        # Its cleared form (c, c*b, c*2b/a) on ints, c the least that clears.
        c = lcm(F(p.b).denominator, F(2 * p.b / p.a).denominator)
        cleared = (c, c * p.b, c * 2 * p.b / p.a)
        assert p.j1_cleared == cleared and all(type(e) is int for e in p.j1_cleared)
        assert p.j1_cleared is p.j1_cleared
        assert p.ratio == p.b / p.a and p.ratio is p.ratio


@pytest.mark.parametrize("a, b", [(1, 1), (2, -3), (F(1, 2), F(-3, 4)), (F(5, 7), F(-7, 9))],
                         ids=str)
def test_log_time_bases_are_built_once_with_their_roots(a, b):
    # Each kind's two-step base carries the root cM of det K, c the lag,
    # and `_two_step` builds it on the point's first call with that kind
    # and reads it on every later one; the doubled root 2Mg carries 2M.
    params = BiParams(a, b)
    bases, den = params.two_step_bases, params.ab.denominator
    assert bases is params.two_step_bases and not bases
    for kind in SeqKind:
        first = scalar_term_fast(kind, params, 9)
        entry = bases[kind]
        assert scalar_term_fast(kind, params, 9) == first and bases[kind] is entry
    assert list(bases) == list(SeqKind)
    for kind, (k, base, even, e) in bases.items():
        assert k == kind._two_step_matrix(params) and (base.s, base.t) == (1, 0)
        assert base.root == kind._lag * den and base.root ** 2 == k.det()
        assert base.ring[:2] == (k.e11 + k.e22, k.det())
        assert even == kind.rule(params)[0] and e == _plain(even) and type(e) is type(_plain(even))
    num, root = params.ab.numerator, params.binet_constants[2]
    assert (root.rat, root.coeff, root.root) == (num + 4 * den, 1, 2 * den)


def test_memo_reads_make_no_enum_hash_call(monkeypatch):
    # A kind is a point's series key, so a read hashes it; Enum's own
    # __hash__ is a Python call, and a kind hashes by identity instead.
    def refuse(self):
        raise AssertionError("a kind was hashed through Enum.__hash__")

    monkeypatch.setattr(enum.Enum, "__hash__", refuse)
    p = BiParams(F(5, 7), F(-3, 4))
    for kind in SeqKind:
        assert [scalar_term(kind, p, n) for n in range(12)] == \
            [scalar_term_fast(kind, p, n) for n in range(12)]
    assert {kind: kind.value for kind in SeqKind}[JLUCAS] == "jlucas"


def test_biparams_hash_agrees_with_equality():
    for a, b in ((-1, 3), (F(-1, 2), 2), (-2, -1), (5, F(7, 3))):
        same = [BiParams(a, b), BiParams(F(a), F(b)), BiParams(str(a), str(b))]
        assert len({hash(p) for p in same}) == 1
        assert all(p == same[0] for p in same)


@pytest.mark.parametrize("a, b", [(1, 1), (2, 1), (-3, 2), (3, -2), (2, -4)], ids=str)
def test_two_step_coordinates_are_ints_at_integer_pairs(a, b):
    params = BiParams(a, b)
    for n in range(41):
        u, v, den, m = scalar_mod._two_step(SeqKind.BP_JACOBSTHAL, params, n)
        assert (type(u), type(v), den, m) == (int, int, 1, n // 2), n
        fast = term_fast(params, n)
        assert fast == term_recurrence(params, n), n
        assert all(type(e) is F for e in fast.entries()), n


def _two_step_by_mat2_power(kind, params, n):
    # The read-out of `_two_step` from the plain Mat2 power K ** m.
    even, m, den = kind.rule(params)[0], n // 2, params.ab.denominator
    p = kind._two_step_matrix(params) ** m
    if n & 1:
        return _plain(p.e11), _plain(p.e21 / even), den, m
    return _plain(even * p.e12), _plain(p.e22), den, m


def _two_step_pairs():
    # ab = 1, ab = -8 and a = 1/2 and -1/2 first, then seeded rational pairs.
    rng = random.Random(11)
    fixed = [BiParams(F(1, 2), 2), BiParams(-4, 2), BiParams(F(1, 2), F(-3, 4)),
             BiParams(F(-1, 2), F(5, 3))]
    return fixed + [BiParams(F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12)),
                             F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12)))
                    for _ in range(4)]


@pytest.mark.parametrize("kind", list(SeqKind))
def test_two_step_matches_the_mat2_power_read_out(kind):
    for params in _two_step_pairs():
        for n in (*range(81), 4095, 4096, 4097):
            got = scalar_mod._two_step(kind, params, n)
            expected = _two_step_by_mat2_power(kind, params, n)
            assert got == expected, (params, n)
            assert [type(x) for x in got] == [type(x) for x in expected], (params, n)


def test_the_table_gives_one_point_per_pair_by_value():
    scalar_mod.clear_caches()
    p = scalar_mod.point(F(1, 2), F(-3, 4))
    assert scalar_mod.point(F(2, 4), F(-6, 8)) is p
    assert p == BiParams(F(1, 2), F(-3, 4))
    assert scalar_mod.point(1, F(2)) is scalar_mod.point(F(1), 2)
    assert scalar_mod.point(F(1, 2), F(3, 4)) is not p
    with pytest.raises(ValueError, match="nonzero"):
        scalar_mod.point(F(0), F(1))
    assert len(scalar_mod._points) == 3  # a refused pair is not kept
    scalar_mod.clear_caches()
    assert not scalar_mod._points
    assert scalar_mod.point(F(1, 2), F(-3, 4)) is not p


def test_the_table_keeps_its_bound_and_evicts_the_least_recently_used():
    scalar_mod.clear_caches()
    bound = scalar_mod.MAX_POINTS
    points = [scalar_mod.point(F(a), F(1)) for a in range(1, bound + 1)]
    assert len(scalar_mod._points) == bound
    assert scalar_mod.point(F(1), F(1)) is points[0]  # now the most recently used
    evicted = weakref.ref(points[1])
    del points
    scalar_mod.point(F(bound + 1), F(1))  # evicts (2, 1), the least recently used
    assert len(scalar_mod._points) == bound
    gc.collect()
    assert evicted() is None
    assert [key[0] for key in scalar_mod._points] == [*range(3, bound + 1), 1, bound + 1]
    for a in range(bound + 2, 3 * bound):
        scalar_mod.point(F(a), F(1))
        assert len(scalar_mod._points) <= bound
    scalar_mod.clear_caches()
