"""Threads that extend the same memoized series must not corrupt it.

Four threads extend the scalar jhat series and four extend the matrix
series of one fresh parameter point at the same time, with the
interpreter's thread switch interval cut to 1 us so that they interleave
inside the memo's extension loop.  Every memoized index is then compared
with a plain-Fraction recurrence written here and with `iter_terms`.

The log-time routes keep their last power on the point, so four threads
that sweep one point in different orders read and step the same stored
powers; every value they get is compared with the same references.
Threads that ask the table of points for one pair, written two ways,
all get the one object, and eight threads that make their first read of a
series at one point build that series once.  Eight threads that mix
prefix reads and point reads of one fresh point's J and jhat series
build each series once and all get the same term objects.
"""

import random
import sys
import threading
from collections import Counter
from fractions import Fraction as F
from itertools import islice

from bijacobsthal import scalar
from bijacobsthal import matrixseq
from bijacobsthal.matrixseq import (iter_terms, recurrence_prefix, term_binet, term_fast,
                                    term_recurrence)
from bijacobsthal.scalar import BiParams, SeqKind, scalar_prefix, scalar_term, scalar_term_fast

JHAT = SeqKind.BP_JACOBSTHAL
N = 300
TRIALS = 4
THREADS_PER_SERIES = 4


def _jhat_reference(a: F, b: F, count: int) -> list[F]:
    terms = [F(0), F(1)]
    while len(terms) < count:
        mult = a if len(terms) % 2 == 0 else b
        terms.append(mult * terms[-1] + 2 * terms[-2])
    return terms


def _race(params: BiParams) -> list[Exception]:
    barrier = threading.Barrier(2 * THREADS_PER_SERIES)
    errors: list[Exception] = []

    def extend(fn, *args) -> None:
        try:
            barrier.wait(timeout=10)
            fn(*args)
        except Exception as exc:  # reported by the test, not lost
            errors.append(exc)

    threads = [threading.Thread(target=extend, args=(scalar_term, JHAT, params, N))
               for _ in range(THREADS_PER_SERIES)]
    threads += [threading.Thread(target=extend, args=(term_recurrence, params, N))
                for _ in range(THREADS_PER_SERIES)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    return errors


def test_concurrent_extension_of_one_series_matches_fresh_recurrences():
    interval = sys.getswitchinterval()
    try:
        for trial in range(TRIALS):
            params = BiParams(F(5, 7 + trial), F(-3, 11))
            sys.setswitchinterval(1e-6)
            errors = _race(params)
            sys.setswitchinterval(interval)
            assert errors == []
            expected = _jhat_reference(params.a, params.b, N + 1)
            matrices = list(islice(iter_terms(params), N + 1))
            for n in range(N + 1):
                assert scalar_term(JHAT, params, n) == expected[n], (trial, n)
                assert term_recurrence(params, n) == matrices[n], (trial, n)
                assert matrices[n].e21 == expected[n]
    finally:
        sys.setswitchinterval(interval)


def _sweep_orders(count: int) -> list[list[int]]:
    """Four orders of 0..count-1 that interleave differently: ascending,
    descending, evens then odds, and a seeded shuffle."""
    shuffled = list(range(count))
    random.Random(39).shuffle(shuffled)
    return [list(range(count)), list(range(count - 1, -1, -1)),
            [*range(0, count, 2), *range(1, count, 2)], shuffled]


def test_concurrent_sweeps_of_one_point_step_its_powers_correctly():
    interval = sys.getswitchinterval()
    try:
        for trial in range(TRIALS):
            params = BiParams(F(5, 7 + trial), F(-3, 11))
            orders = _sweep_orders(N + 1)
            barrier = threading.Barrier(len(orders))
            results: list[list] = [[] for _ in orders]
            errors: list[Exception] = []

            def sweep(order, out) -> None:
                try:
                    barrier.wait(timeout=10)
                    for n in order:
                        out.append((n, term_fast(params, n), term_binet(params, n),
                                    scalar_term_fast(JHAT, params, n)))
                except Exception as exc:  # reported by the test, not lost
                    errors.append(exc)

            threads = [threading.Thread(target=sweep, args=args)
                       for args in zip(orders, results)]
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            sys.setswitchinterval(interval)
            assert errors == []
            expected = _jhat_reference(params.a, params.b, N + 1)
            matrices = list(islice(iter_terms(params), N + 1))
            for order, out in zip(orders, results):
                assert [n for n, *_ in out] == order
                for n, fast, binet, jhat in out:
                    assert fast == binet == matrices[n], (trial, n)
                    assert jhat == expected[n] == matrices[n].e21, (trial, n)
    finally:
        sys.setswitchinterval(interval)


def test_threads_acquiring_one_pair_get_one_object():
    interval = sys.getswitchinterval()
    try:
        for trial in range(TRIALS):
            scalar.clear_caches()
            barrier = threading.Barrier(8)
            got: list = []

            def acquire(a, b) -> None:
                barrier.wait(timeout=10)
                got.append(scalar.point(a, b))

            # Equal pairs, written four ways.
            pairs = [(F(5, 7 + trial), F(-3, 11)), (F(10, 14 + 2 * trial), F(-6, 22))] * 4
            threads = [threading.Thread(target=acquire, args=pair) for pair in pairs]
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            sys.setswitchinterval(interval)
            assert len(got) == len(pairs) and all(p is got[0] for p in got)
    finally:
        sys.setswitchinterval(interval)
        scalar.clear_caches()


def test_threads_first_reading_one_point_build_one_series(monkeypatch):
    # Eight threads read jhat at one table point that has no series yet:
    # one of them builds the series, with one `_steps` run for its one
    # lane, and every thread gets the one term object it divided.
    steps, started = scalar._steps, []

    def counting_steps(*args):
        started.append(args[1])
        return steps(*args)

    monkeypatch.setattr(scalar, "_steps", counting_steps)
    interval = sys.getswitchinterval()
    try:
        for trial in range(TRIALS):
            scalar.clear_caches()
            started.clear()
            params = scalar.point(F(5, 7 + trial), F(-3, 11))
            barrier = threading.Barrier(8)
            got: list = []

            def read() -> None:
                barrier.wait(timeout=10)
                got.append(scalar_term(JHAT, params, N))

            threads = [threading.Thread(target=read) for _ in range(8)]
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            sys.setswitchinterval(interval)
            assert started == [2]
            assert list(params.series) == [JHAT]
            assert len(got) == 8 and all(value is got[0] for value in got)
            assert got[0] == _jhat_reference(params.a, params.b, N + 1)[N]
    finally:
        sys.setswitchinterval(interval)
        scalar.clear_caches()


def test_threads_mixing_prefix_and_point_reads_share_each_term(monkeypatch):
    # At one fresh point, two threads per reader: a prefix read and a
    # sweep of point reads, each of jhat and of J.  Each series is built
    # once, each index of each of its lanes (one for jhat, four for J) is
    # stepped once, and every thread gets the very term objects the
    # others got.
    steps, extend = scalar._steps, scalar._Series.extend
    stepped: Counter = Counter()
    # the series being extended and its runs so far; one extension runs
    # at a time, under the memo's lock, and starts its runs in lane order
    extending: list = []

    def counting_extend(series, n):
        extending[:] = [series, 0]
        extend(series, n)

    def counting_steps(rule, k, prev, cur):
        series, lane = extending
        extending[1] += 1
        for i, term in enumerate(steps(rule, k, prev, cur), k):
            stepped[series, lane, i] += 1
            yield term

    monkeypatch.setattr(scalar._Series, "extend", counting_extend)
    monkeypatch.setattr(scalar, "_steps", counting_steps)
    readers = [
        lambda p: scalar_prefix(JHAT, p, N),
        lambda p: [scalar_term(JHAT, p, n) for n in range(N + 1)],
        lambda p: recurrence_prefix(p, N),
        lambda p: [term_recurrence(p, n) for n in range(N + 1)],
    ] * 2
    interval = sys.getswitchinterval()
    try:
        for trial in range(TRIALS):
            stepped.clear()
            params = BiParams(F(5, 7 + trial), F(-3, 11))
            barrier = threading.Barrier(len(readers))
            got: list = [None] * len(readers)
            errors: list[Exception] = []

            def read(i) -> None:
                try:
                    barrier.wait(timeout=10)
                    got[i] = readers[i](params)
                except Exception as exc:  # reported by the test, not lost
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(len(readers))]
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            sys.setswitchinterval(interval)
            assert errors == []
            assert set(params.series) == {JHAT, matrixseq._J}
            # a series built twice would have stepped lanes that the point
            # does not hold
            assert set(stepped) == {(series, lane, i) for series in params.series.values()
                                    for lane in range(len(series.lanes))
                                    for i in range(2, N + 1)}, trial
            assert set(stepped.values()) == {1}, trial
            expected = _jhat_reference(params.a, params.b, N + 1)
            matrices = list(islice(iter_terms(params), N + 1))
            jhats, js = got[0::4] + got[1::4], got[2::4] + got[3::4]
            for series, reference in ((jhats, expected), (js, matrices)):
                assert series[0] == reference, trial
                for terms in series[1:]:
                    assert len(terms) == N + 1, trial
                    assert all(x is y for x, y in zip(terms, series[0])), trial
    finally:
        sys.setswitchinterval(interval)
