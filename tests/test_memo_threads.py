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
all get the one object.
"""

import random
import sys
import threading
from fractions import Fraction as F
from itertools import islice

from bijacobsthal import matrixseq, scalar
from bijacobsthal.matrixseq import iter_terms, term_binet, term_fast, term_recurrence
from bijacobsthal.scalar import BiParams, SeqKind, scalar_term, scalar_term_fast

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
            scalar.clear_caches()
            matrixseq.clear_caches()
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
        scalar.clear_caches()
        matrixseq.clear_caches()


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
