"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and enforces its
runtime bound where one is stated.  All value comparisons are exact.
"""

import time
from fractions import Fraction as F

from bijacobsthal.cli import bench_rows
from bijacobsthal.exact import Mat2
from bijacobsthal.genfunc import build_ogf, component_form, series_coeffs
from bijacobsthal.matrixseq import (
    char_roots,
    det_closed,
    term_binet,
    term_closed,
    term_fast,
    term_recurrence,
)
from bijacobsthal.scalar import BiParams, verify_lucas_relations
from bijacobsthal.verifier import (
    run_grid,
    GridSpec,
    sum_direct,
    verify_cassini,
    verify_det,
    verify_root_identities,
    verify_sum_t5,
    verify_weighted_sum_t6,
    root_claim_beta_shift_holds,
    weighted_sum_direct,
    weighted_sum_printed_form,
)
from bijacobsthal.report import WEIGHTED_SUM_T6

GRID_VALUES = tuple(F(v) for v in (-3, -2, -1, 1, 2, 3))
GRID = [BiParams(a, b) for a in GRID_VALUES for b in GRID_VALUES]


def _criterion(number, description, limit_seconds, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if limit_seconds is not None and elapsed >= limit_seconds:
        print(f"[FAIL] criterion {number}: {description} "
              f"(took {elapsed:.2f}s, limit {limit_seconds}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {limit_seconds}s budget "
            f"({elapsed:.2f}s)"
        )
    print(f"[PASS] criterion {number} ({elapsed:.2f}s): {description}")


def test_criterion_1_anchor_matrices_and_dets():
    def check():
        p = BiParams(2, 1)
        expected = {
            2: Mat2(4, 2, 2, 2),
            3: Mat2(6, 4, 4, 2),
            4: Mat2(20, 12, 12, 8),
            5: Mat2(32, 20, 20, 12),
            6: Mat2(104, 64, 64, 40),
        }
        for n, matrix in expected.items():
            assert term_recurrence(p, n) == matrix
        dets = [term_recurrence(p, n).det() for n in range(7)]
        assert dets == [1, -1, 4, -4, 16, -16, 64]
        assert dets == [det_closed(p, n) for n in range(7)]

    _criterion(1, "low-index matrices and determinants at (2,1)", 1.0, check)


def test_criterion_2_classical_ladder():
    def check():
        p = BiParams(1, 1)
        lower_left = [term_recurrence(p, n).e21 for n in range(9)]
        assert lower_left == [0, 1, 1, 3, 5, 11, 21, 43, 85]

    _criterion(2, "classical Jacobsthal ladder in the lower-left entry", 1.0, check)


def test_criterion_3_four_way_agreement():
    def check():
        for params in GRID:
            assert params.disc != 0  # no repeated-root points on this grid
            for n in range(257):
                reference = term_recurrence(params, n)
                assert term_closed(params, n) == reference
                assert term_binet(params, n) == reference
                assert term_fast(params, n) == reference

    _criterion(3, "four-way method agreement, full grid, n <= 256", 120.0, check)


def test_criterion_4_cassini_and_det_suites():
    def check():
        for params in GRID:
            assert verify_cassini(params, 512).status == "PASS"
            assert verify_det(params, 512).status == "PASS"

    _criterion(4, "Cassini and determinant suites, full grid, n <= 512",
               120.0, check)


def test_criterion_5_generating_function():
    def check():
        for params in GRID:
            coeffs = series_coeffs(build_ogf(params), 128)
            for m, coeff in enumerate(coeffs):
                assert coeff == term_recurrence(params, m)
            ogf = build_ogf(params)
            rows = component_form(params)
            getters = ((lambda m: m.e11, lambda m: m.e12),
                       (lambda m: m.e21, lambda m: m.e22))
            for i in (0, 1):
                for j in (0, 1):
                    entries = [getters[i][j](ogf.numerator[k])
                               for k in range(4)]
                    while entries and entries[-1] == 0:
                        entries.pop()
                    assert tuple(entries) == rows[i][j]

    _criterion(5, "series expansion matches terms; component polynomials agree",
               60.0, check)


def test_criterion_6_summation_closed_form():
    def check():
        assert sum_direct(BiParams(2, 1), 4) == Mat2(12, 7, 7, 5)
        for params in GRID:
            report = verify_sum_t5(params, 256)
            if params.ab == 1:
                assert report.status == "SKIPPED"
            else:
                assert report.status == "PASS"

    _criterion(6, "partial-sum closed form, full grid, n <= 256", 60.0, check)


def test_criterion_7_weighted_sum_erratum():
    def check():
        p = BiParams(2, 1)
        # recompute the oracle side inline, independent of the library sum
        manual = term_recurrence(p, 0) + term_recurrence(p, 1) * F(1, 2)
        assert manual == Mat2(F(3, 2), F(1, 2), F(1, 2), F(1))
        assert weighted_sum_direct(p, F(2), 2) == manual
        printed = weighted_sum_printed_form(p, F(2), 2)
        assert printed == Mat2(3, 1, 1, 2)
        assert printed != manual
        # the failure is reported, not hidden
        report = verify_weighted_sum_t6(p, F(2), 16)
        assert report.status == "FAIL" and report.residual is not None
        grid_reports = list(run_grid(GridSpec((F(2),), (F(1),), n_max=16,
                                              suites=(WEIGHTED_SUM_T6,),
                                              x_values=(F(2),))))
        assert [r.status for r in grid_reports] == ["FAIL"]
        # at x = 1 the printed form passes exactly where the plain sum does
        for params in GRID:
            t6 = verify_weighted_sum_t6(params, F(1), 128)
            t5 = verify_sum_t5(params, 128)
            assert t6.status == t5.status, (str(params.a), str(params.b))

    _criterion(7, "weighted-sum closed form: erratum reproduced at x != 1, "
                  "reduction verified at x = 1", None, check)


def test_criterion_8_root_identities():
    def check():
        for params in GRID:
            report = verify_root_identities(params)
            assert report.status == "PASS"
            assert root_claim_beta_shift_holds(params) is False
        unit = BiParams(1, 1)
        alpha, beta = char_roots(unit)
        collapse = lambda q: q.rat + q.coeff * 3  # sqrt(9) = 3 numerically
        assert collapse(beta + 2) == 1
        assert collapse(-beta) == F(1, 2) * collapse(alpha)

    _criterion(8, "root identities pass; printed beta-shift claim flagged false",
               None, check)


def test_criterion_9_lucas_relations():
    def check():
        for params in GRID:
            assert verify_lucas_relations(params, 256).status == "PASS"

    _criterion(9, "Jacobsthal/Jacobsthal-Lucas cross relations, full grid, "
                  "n <= 256", None, check)


def test_criterion_10_fast_route_performance():
    def check():
        for params in (BiParams(1, 1), BiParams(2, 3)):
            assert term_fast(params, 4096) == term_recurrence(params, 4096)
        ladder = (2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16, 2 ** 17)
        ratios = []
        for attempt in range(3):  # timing, not exactness: rerun to de-noise
            rows = bench_rows(BiParams(1, 1), ladder, repeat=1)
            ratios = []
            for i in range(len(ladder)):
                naive_seconds = rows[2 * i][2]
                fast_seconds = rows[2 * i + 1][2]
                ratios.append(fast_seconds / naive_seconds)
            if all(late < early for early, late in zip(ratios, ratios[1:])):
                break
        else:
            raise AssertionError(
                f"fast/naive ratio not strictly decreasing: {ratios}"
            )

    _criterion(10, "fast route agrees at n = 4096 and its CPU-time ratio "
                   "to the naive route shrinks up the ladder", None, check)
