import random
from collections import Counter
from fractions import Fraction as F
from itertools import islice
from math import lcm

import pytest

from bijacobsthal import exact as exact_mod, matrixseq as matrixseq_mod, scalar as scalar_mod
from bijacobsthal import verifier as verifier_mod
from bijacobsthal.cli import main
from bijacobsthal.exact import Mat2, QuadNum
from bijacobsthal.genfunc import build_ogf, series_coeffs
from bijacobsthal.matrixseq import iter_terms, term_fast, term_recurrence
from bijacobsthal.report import (
    CASSINI,
    CROSS_METHOD,
    DET,
    DOUBLING,
    LUCAS_RELATIONS,
    SERIES_MATCH,
    SUM_T5,
    WEIGHTED_SUM_T6,
    first_mismatch,
    skipped,
)
from bijacobsthal.scalar import (
    BiParams,
    SeqKind,
    scalar_term,
    scalar_term_fast,
    verify_lucas_relations,
)
from bijacobsthal.verifier import (
    ALL_IDENTITIES,
    GridSpec,
    expected_failure,
    run_grid,
    sum_closed_form,
    sum_direct,
    verify_cassini,
    verify_cross_method,
    verify_det,
    verify_doubling,
    verify_root_identities,
    verify_series_match,
    verify_sum_t5,
    verify_weighted_sum_t6,
    root_claim_beta_shift_holds,
    weighted_sum_corrected_form,
    weighted_sum_direct,
    weighted_sum_printed_form,
)

GRID_VALUES = tuple(F(v) for v in (-3, -2, -1, 1, 2, 3))
GRID = [BiParams(a, b) for a in GRID_VALUES for b in GRID_VALUES]


def _walk_sums(params, x, n_max):
    """[sum_{k<n} J[k] / x^k for n = 1, ..., n_max], added term by term
    over `iter_terms` in Fractions: the tests' own reference for the direct
    sums, so no test checks the log-time `weighted_sum_direct` against
    itself."""
    total, weight, sums = Mat2.zero(), F(1), []
    for term in islice(iter_terms(params), n_max):
        total = total + term * weight
        weight /= x
        sums.append(total)
    return sums


def test_cassini_hand_values():
    p = BiParams(2, 1)
    jhat = lambda n: scalar_term(SeqKind.BP_JACOBSTHAL, p, n)
    # n = 2: jhat1*jhat3 - (b/a)*jhat2^2 = 4 - 2 = 2 = 2^1
    assert jhat(1) * jhat(3) - F(1, 2) * jhat(2) ** 2 == 2
    # n = 1 forces the value: -(jhat1)^2 = -1 = (-1)^1 * 2^0
    assert p.b / p.a * jhat(0) * jhat(2) - jhat(1) ** 2 == -1
    assert verify_cassini(p, 256).status == "PASS"
    assert verify_cassini(BiParams(3, 5), 256).status == "PASS"


def test_det_suite():
    p = BiParams(2, 1)
    assert term_recurrence(p, 3).det() == -8 * p.b / p.a == -4
    assert verify_det(p, 128).status == "PASS"
    assert verify_det(BiParams(-2, 3), 128).status == "PASS"


def test_doubling_hand_values():
    p = BiParams(2, 1)
    assert term_recurrence(p, 4) == 6 * term_recurrence(p, 2) - 4 * Mat2.identity()
    q = BiParams(1, 1)
    assert term_recurrence(q, 5) == \
        5 * term_recurrence(q, 3) - 4 * term_recurrence(q, 1)
    assert verify_doubling(p, 64).status == "PASS"
    with pytest.raises(ValueError):
        verify_doubling(p, 1)


def test_sum_t5_values():
    p = BiParams(2, 1)
    expected = Mat2(12, 7, 7, 5)
    assert sum_direct(p, 4) == expected
    assert sum_closed_form(p, 4) == expected
    assert sum_closed_form(p, 4) == \
        2 * term_recurrence(p, 3) - term_recurrence(p, 1) + Mat2.identity()
    # n = 2 closed form collapses to J0 + J1
    assert sum_closed_form(p, 2) == Mat2.identity() + term_recurrence(p, 1)
    assert verify_sum_t5(p, 128).status == "PASS"


def test_sum_t5_degenerate_skips():
    report = verify_sum_t5(BiParams(1, 1), 64)
    assert report.status == "SKIPPED"
    assert report.skip_reason == "denominator 1-ab vanishes"
    report = verify_sum_t5(BiParams(F(-1, 2), -2), 64)
    assert report.status == "SKIPPED"
    with pytest.raises(ZeroDivisionError):
        sum_closed_form(BiParams(1, 1), 4)


def test_weighted_sum_direct_values():
    p = BiParams(2, 1)
    assert weighted_sum_direct(p, F(2), 2) == Mat2(F(3, 2), F(1, 2), F(1, 2), 1)
    assert weighted_sum_direct(p, F(1), 4) == sum_direct(p, 4)
    with pytest.raises(ZeroDivisionError):
        weighted_sum_direct(p, F(0), 2)


@pytest.mark.parametrize("x", [F(-1), F(-1, 2)], ids=str)
@pytest.mark.parametrize("params", [BiParams(2, 1), BiParams(F(1, 2), F(-3, 4))], ids=str)
def test_weighted_sum_direct_at_negative_weights(params, x):
    # the weight 1/x^k alternates in sign, so it is 1 only at every other k
    for n, expected in enumerate(_walk_sums(params, x, 11), 1):
        assert weighted_sum_direct(params, x, n) == expected


def test_weighted_sum_printed_form_refuted_for_x_not_1():
    p = BiParams(2, 1)
    assert weighted_sum_printed_form(p, F(2), 2) == Mat2(3, 1, 1, 2)
    report = verify_weighted_sum_t6(p, F(2), 16)
    assert report.status == "FAIL"
    assert report.first_failure == 1
    assert report.x == 2
    # x = 3 at n = 2 fails with a residual that is not a scalar multiple of
    # the identity (a genuinely structural mismatch)
    direct = weighted_sum_direct(p, F(3), 2)
    printed = weighted_sum_printed_form(p, F(3), 2)
    residual = printed - direct
    assert residual != Mat2.zero()
    assert residual.e11 * residual.e22 != residual.e12 * residual.e21 or \
        residual.e12 != 0


def _printed_t5(params, n):
    """The paper's printed plain sum at n, written here from the
    recurrence's terms, so no test checks the library's T5 (built as the
    printed weighted form at x = 1) against itself:

    [J[n]*(1 - a^e*b^(1-e)) + 2*J[n-1]*(1 - a^(1-e)*b^e)
     + J[1]*(a-1) + J[0]*(2b-ab-1)] / (1-ab),   e = parity(n)."""
    a, b, e = params.a, params.b, n & 1
    J = lambda k: term_recurrence(params, k)
    return (J(n) * (1 - a ** e * b ** (1 - e)) + J(n - 1) * (2 * (1 - a ** (1 - e) * b ** e))
            + J(1) * (a - 1) + J(0) * (2 * b - a * b - 1)) / (1 - a * b)


def test_weighted_sum_printed_form_matches_plain_sum_at_x_1():
    for params in (BiParams(2, 1), BiParams(-3, 2), BiParams(3, 5),
                   BiParams(F(1, 2), F(-3, 4))):
        for n in range(1, 33):
            printed = _printed_t5(params, n)
            assert sum_closed_form(params, n) == printed
            assert weighted_sum_printed_form(params, F(1), n) == printed
        assert verify_weighted_sum_t6(params, F(1), 64).status == "PASS"


def _fraction_reference(params, x, n_max):
    """A sum suite's report on Fractions, index by index: the public closed
    form against the in-test sum `_walk_sums` (at x = 1 when x is None)."""
    if x is None:
        if params.ab == 1:
            return skipped(SUM_T5, params, n_max, "denominator 1-ab vanishes")
        sums = enumerate(_walk_sums(params, F(1), n_max), 1)
        cases = ((n, sum_closed_form(params, n), direct, None) for n, direct in sums)
        return first_mismatch(SUM_T5, params, n_max, cases)
    if x * x - (params.ab + 4) * x + 4 == 0:
        return skipped(WEIGHTED_SUM_T6, params, n_max,
                       "denominator x^2-(ab+4)x+4 vanishes", x=x)
    sums = enumerate(_walk_sums(params, x, n_max), 1)
    cases = ((n, weighted_sum_printed_form(params, x, n), direct, None)
             for n, direct in sums)
    return first_mismatch(WEIGHTED_SUM_T6, params, n_max, cases, x=x)


# ab = 1 (both sums' denominators at x = 1, and at x = 4), ab = -8 (the
# repeated root), a = +-1/2, and the ab where the printed form's
# denominator vanishes at x = -1, 1/2, 3 and -2/3: -9, 9/2, 1/3, -32/3
_SWEEP_FIXED = ((F(1, 2), F(2)), (F(-1, 2), F(-2)), (F(2), F(-4)),
                (F(1, 2), F(-16)), (F(-1, 2), F(3, 5)), (F(3), F(-3)),
                (F(3, 2), F(3)), (F(1, 3), F(1)), (F(-2, 3), F(16)))


def _sweep_pairs(count=40, seed=19):
    rng = random.Random(seed)
    pairs = list(_SWEEP_FIXED)
    while len(pairs) < count:
        a, b = (F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
                for _ in range(2))
        pairs.append((a, b))
    return [BiParams(a, b) for a, b in pairs]


def test_cleared_sum_suites_match_the_fraction_reference():
    statuses = set()
    for params in _sweep_pairs():
        for n_max in (1, 2, 7, 64):
            for x in (None, F(1), F(2), F(1, 2), F(3), F(-1), F(4), F(-2, 3)):
                report = (verify_sum_t5(params, n_max) if x is None
                          else verify_weighted_sum_t6(params, x, n_max))
                expected = _fraction_reference(params, x, n_max)
                assert report == expected, (params, x, n_max)
                assert report.to_json() == expected.to_json()
                statuses.add((report.status, x is None or x == 1))
    # PASS and SKIPPED on both sides of x = 1, and a FAIL residual wherever
    # x != 1 is not skipped
    assert statuses == {("PASS", True), ("SKIPPED", True), ("FAIL", False),
                        ("SKIPPED", False)}


@pytest.mark.parametrize("x", [F(1), F(1, 3), F(3), F(-2, 3)], ids=str)
def test_log_time_sums_match_the_walk_to_300(x):
    # seeded pairs with ab = 1, ab = -8 and a = +-1/2 among them; every n
    # to 300, so both parities, at weights 1, 1/k, an integer and a
    # negative rational
    pairs = _sweep_pairs(count=16)
    assert {1, -8} <= {p.ab for p in pairs}
    assert {F(1, 2), F(-1, 2)} <= {p.a for p in pairs}
    for params in pairs:
        for n, expected in enumerate(_walk_sums(params, x, 300), 1):
            total = weighted_sum_direct(params, x, n)
            assert total == expected, (params, n)
            assert all(type(e) is F for e in total.entries()), (params, n)
            if x == 1:
                assert sum_direct(params, n) == expected, (params, n)


@pytest.mark.parametrize("params, x", [
    (BiParams(F(1, 2), F(-3, 4)), F(3, 2)),
    (BiParams(F(1, 2), F(-3, 4)), F(1, 2)),
    (BiParams(2, 3), F(2)),
    (BiParams(2, 3), F(2, 3)),
], ids=str)
def test_log_time_sums_divide_in_few_rounds(monkeypatch, params, x):
    # The sum's numerators share many factors with its denominator D^m,
    # D = p^2 M for x = p/q and ab = N/M: about n of them at these points.
    # Stripped by their valuation, the gcd calls stay a small multiple of
    # log n, where one gcd per factor took some 16,000 to 22,000.
    for n, expected in enumerate(_walk_sums(params, x, 300), 1):
        assert weighted_sum_direct(params, x, n) == expected, n
    real, calls = exact_mod.gcd, []
    monkeypatch.setattr(exact_mod, "gcd", lambda *args: calls.append(args) or real(*args))
    for n in (2 ** 14, 2 ** 14 + 1):
        calls.clear()
        weighted_sum_direct(params, x, n)
        assert len(calls) <= 4 * n.bit_length(), n


@pytest.mark.parametrize("params", [BiParams(F(1, 2), F(-3, 4)), BiParams(3, 2)], ids=str)
def test_log_time_terms_and_sums_raise_the_one_two_step_matrix(monkeypatch, params):
    # Doubling the integer two-step matrix where it is built makes every
    # log-time term refuse it (det 2K = 4(cM)^2 has not the root cM that
    # `_two_step` raises K with) and moves every sum that reads it (n >= 3)
    # off the walk, so no route builds a two-step matrix of its own.
    x = F(-2, 3)
    sums = _walk_sums(params, x, 16)
    real = SeqKind._two_step_matrix
    monkeypatch.setattr(SeqKind, "_two_step_matrix", lambda kind, p: real(kind, p) * 2)
    refused = pytest.raises(ValueError, match="is not a square root of the determinant")
    for n in range(2, 16):
        with refused:
            term_fast(params, n)
        for kind in SeqKind:
            with refused:
                scalar_term_fast(kind, params, n)
        if n >= 3:
            assert weighted_sum_direct(params, x, n) != sums[n - 1], n


def _count_powers(monkeypatch):
    """exact._power wrapped: the list it returns gets (base type, k) per call."""
    calls, real = [], exact_mod._power

    def counting(base, k, one, what):
        calls.append((type(base).__name__, k))
        return real(base, k, one, what)

    monkeypatch.setattr(exact_mod, "_power", counting)
    return calls


@pytest.mark.parametrize("n", [64, 65, 4000, 4001])
def test_closed_sum_forms_raise_the_two_step_matrix_once(monkeypatch, n):
    # A form reads J[0] and J[1] (half-index 0), then J[n-1] and J[n]:
    # at odd n both at half-index n // 2, at even n at n//2 - 1 and n//2.
    # So K is raised at 0 and once more, and J[n] steps from J[n-1]'s power.
    calls = _count_powers(monkeypatch)
    for form in (sum_closed_form, lambda p, n: weighted_sum_printed_form(p, F(3, 2), n),
                 lambda p, n: weighted_sum_corrected_form(p, F(3, 2), n)):
        params = BiParams(F(1, 2), F(-3, 4))
        calls.clear()
        value = form(params, n)
        assert calls == [("_MatrixPoly", 0), ("_MatrixPoly", (n - 1) // 2)]
        assert value == form(BiParams(F(1, 2), F(-3, 4)), n)
    scalar_mod.clear_caches()  # the CLI's point is new, with no power kept
    calls.clear()
    main(["sum", "--a", "1/2", "--b=-3/4", "--n", str(n), "--both"])
    assert sorted(calls) == [("_Bordered", n // 2), ("_MatrixPoly", 0),
                             ("_MatrixPoly", (n - 1) // 2)]


def test_default_grid_raises_each_log_time_base_about_once_per_point(monkeypatch):
    # CROSS_METHOD reads n = 0..128 in order at each of the 36 points, so
    # term_fast and term_binet step their powers; a few raises more come
    # from the original-units forms that confirm a WEIGHTED_SUM_T6 FAIL.
    calls = _count_powers(monkeypatch)
    assert len(list(run_grid(verifier_mod.default_grid()))) == 432
    kinds = [kind for kind, _ in calls]
    assert kinds.count("_MatrixPoly") <= 72 and kinds.count("_DoubledQuadNum") <= 36
    assert len(kinds) == kinds.count("_MatrixPoly") + kinds.count("_DoubledQuadNum")


@pytest.mark.parametrize("x", [F(1), F(3)], ids=str)
def test_a_sum_suite_builds_its_form_once_and_the_point_form_only_to_confirm(
        monkeypatch, x):
    # Each build is recorded with its point: one on the cleared point per
    # report, and one on the point itself only where a cleared mismatch (the
    # printed form's FAIL at x = 3) needs confirming.
    built = []
    real = verifier_mod._build_printed
    monkeypatch.setattr(verifier_mod, "_build_printed",
                        lambda *args: built.append(type(args[0])) or real(*args))
    cleared = verifier_mod._Cleared
    assert verify_sum_t5(_Q, 16).status == "PASS" and built == [cleared]
    built.clear()
    report = verify_weighted_sum_t6(_Q, x, 16)
    assert report.status == ("PASS" if x == 1 else "FAIL")
    assert built == [cleared] + [BiParams] * (x != 1)


def test_cleared_series_match_matches_the_fraction_reference():
    for params in _sweep_pairs():
        for count in (1, 2, 8, 65):
            report = verify_series_match(params, count)
            coeffs = series_coeffs(build_ogf(params), count)
            expected = first_mismatch(
                SERIES_MATCH, params, count - 1,
                ((m, coeff, term_recurrence(params, m), None)
                 for m, coeff in enumerate(coeffs)))
            assert report == expected, (params, count)
            assert report.to_json() == expected.to_json()
            assert report.status == "PASS"


@pytest.mark.parametrize("params", [BiParams(2, 1), BiParams(-3, 2),
                                    BiParams(F(1, 2), F(-3, 4)),
                                    BiParams(F(5, 7), F(-7, 9)),
                                    BiParams(F(6, 35), F(10, 21)),
                                    BiParams(F(-4, 9), F(3, 8)),
                                    BiParams(F(1, 2), -16),
                                    BiParams(F(-3, 2), F(1, 3))], ids=str)
def test_cleared_terms_are_the_factor_times_the_recurrence(params):
    # F is one fixed multiple of the lcm L of the entry denominators of
    # J[0..bound], whatever the bound: the weights grow no faster than
    # the terms' own denominators
    quotients = set()
    for n_max in (2, 10, 40, 400):
        point = verifier_mod._Cleared(params, n_max)
        true = lcm(*(e.denominator for k in range(point.bound + 1)
                     for e in term_recurrence(params, k).entries()))
        assert point.factor % true == 0, n_max
        quotients.add(point.factor // true)
    assert len(quotients) == 1, quotients
    cleared = verifier_mod._Cleared(params, 40)
    assert cleared.factor != 0
    for k in (40, *range(40)):  # read out of order, as the closed forms do
        term = cleared.term(k)
        assert all(type(e) is int for e in term.entries())
        assert term == cleared.factor * term_recurrence(params, k)
    # a point cleared for n_max = 0 still serves J[1], which every formula
    # reads, so a one-coefficient series reads a true J[1]
    zero = verifier_mod._Cleared(params, 0)
    for k in (0, 1):
        assert zero.term(k) == zero.factor * term_recurrence(params, k), k
    assert verify_series_match(params, 1).status == "PASS"
    # the one formula code, fed the cleared terms, gives F times its value,
    # on plain ints at an integer pair
    for n in range(1, 41):
        closed = sum_closed_form(cleared, n)
        assert closed == cleared.factor * sum_closed_form(params, n)
        if params.a.denominator == params.b.denominator == 1:
            assert all(type(e) is int for e in closed.entries())
    # so do both weighted forms, reading J[n] and J[n-1] from the cleared
    # point and never through the Fraction memo; the printed form at x = 1
    # is the plain sum, so at an integer pair it stays on ints (an integral
    # x is made an int before the denominator is taken)
    for form in (weighted_sum_printed_form, weighted_sum_corrected_form):
        for x in (F(1), F(2), F(-1, 3)):
            for n in range(1, 41):
                try:
                    value = form(params, x, n)
                except ZeroDivisionError:  # the form's denominator vanishes
                    continue
                weighted = form(cleared, x, n)
                assert weighted == cleared.factor * value, (form.__name__, x, n)
                assert not any(type(e) is float for e in weighted.entries())
                if (form is weighted_sum_printed_form and x == 1
                        and params.a.denominator == params.b.denominator == 1):
                    assert all(type(e) is int for e in weighted.entries()), n
    assert not hasattr(cleared, "series")  # a memo read of it would raise
    # and the generating function, fed the cleared point, expands to F*J[m]
    series = verifier_mod._Cleared(params, 40)
    for m, coeff in enumerate(series_coeffs(build_ogf(series), 41)):
        assert coeff == series.factor * term_recurrence(params, m)
        if params.a.denominator == params.b.denominator == 1:
            assert all(type(e) is int for e in coeff.entries())


@pytest.mark.parametrize("x", [F(1), F(1, 2), F(-1, 3)], ids=str)
def test_partial_sums_of_a_cleared_integer_pair_are_int_matrices(x):
    # 1/x is an int here, so every weight is an int and no term leaves the ints
    params = BiParams(-3, 2)
    cleared = verifier_mod._Cleared(params, 24)
    reference = _walk_sums(params, x, 24)
    for n, total in enumerate(verifier_mod._partial_sums(cleared, x, 24), 1):
        assert all(type(e) is int for e in total.entries()), n
        assert total == cleared.factor * reference[n - 1], n


_N_RULE = (ValueError, "partial sums are defined for n >= 1")
_CLEARED_TO_4 = (ValueError, "cleared terms are defined for 0 <= k <= 4")


# Each refusal of the sum functions, the suites' index bounds and a cleared
# point's bound (past it the rescaling would floor), with its exact
# message; where two checks would refuse, the first one listed in the
# function wins (the n rule before 1 - ab, before x = 0, before a vanishing
# denominator).
@pytest.mark.parametrize("call, refusal", [
    (lambda: sum_closed_form(BiParams(2, 1), 0), _N_RULE),
    (lambda: sum_closed_form(BiParams(1, 1), 0), _N_RULE),
    (lambda: sum_closed_form(BiParams(1, 1), 4),
     (ZeroDivisionError, "closed form divides by 1 - ab")),
    (lambda: weighted_sum_direct(BiParams(2, 1), F(2), 0), _N_RULE),
    (lambda: weighted_sum_direct(BiParams(2, 1), F(0), 0), _N_RULE),
    (lambda: weighted_sum_direct(BiParams(2, 1), F(0), 2),
     (ZeroDivisionError, "weights divide by powers of x")),
    (lambda: weighted_sum_printed_form(BiParams(2, 1), F(2), 0), _N_RULE),
    (lambda: weighted_sum_printed_form(BiParams(1, 1), F(1), 0), _N_RULE),
    (lambda: weighted_sum_printed_form(BiParams(2, 1), F(0), 0), _N_RULE),
    (lambda: weighted_sum_printed_form(BiParams(2, 1), F(0), 3),
     (ZeroDivisionError, "weights divide by powers of x")),
    (lambda: weighted_sum_printed_form(BiParams(1, 1), F(1), 3),
     (ZeroDivisionError, "x^2 - (ab+4)x + 4 vanishes at this x")),
    (lambda: weighted_sum_corrected_form(BiParams(2, 1), F(2), 0), _N_RULE),
    (lambda: weighted_sum_corrected_form(BiParams(2, 1), F(0), 0), _N_RULE),
    (lambda: weighted_sum_corrected_form(BiParams(1, 1), F(0), 3),
     (ZeroDivisionError, "weights divide by powers of x")),
    (lambda: weighted_sum_corrected_form(BiParams(1, 1), F(1), 3),
     (ZeroDivisionError, "x^4 - (ab+4)x^2 + 4 vanishes at this x")),
    (lambda: verify_cassini(BiParams(2, 1), 0),
     (ValueError, "n_max must be at least 1")),
    (lambda: verify_det(BiParams(2, 1), -1),
     (ValueError, "n_max must be at least 0")),
    (lambda: verify_sum_t5(BiParams(1, 1), 0),
     (ValueError, "n_max must be at least 1")),
    (lambda: verify_weighted_sum_t6(BiParams(2, 1), F(0), 0),
     (ValueError, "n_max must be at least 1")),
    (lambda: verify_cross_method(BiParams(2, 1), -1),
     (ValueError, "n_max must be at least 0")),
    *((lambda k=k: verifier_mod._Cleared(BiParams(F(1, 2), F(-3, 4)), 4).term(k),
       _CLEARED_TO_4) for k in (-1, 5, 8, 12)),
])
def test_sum_and_suite_refusals(call, refusal):
    kind, message = refusal
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


def test_weighted_sum_skips():
    assert verify_weighted_sum_t6(BiParams(2, 1), F(0), 8).skip_reason == "x = 0"
    report = verify_weighted_sum_t6(BiParams(1, 1), F(1), 8)
    assert report.status == "SKIPPED"
    assert report.skip_reason == "denominator x^2-(ab+4)x+4 vanishes"


@pytest.mark.parametrize("params", GRID, ids=str)
def test_weighted_sum_corrected_form_matches_oracle(params):
    for x in (F(1), F(2), F(1, 2), F(3), F(-4, 3)):
        if x ** 4 - (params.ab + 4) * x ** 2 + 4 == 0:
            continue
        for n, direct in enumerate(_walk_sums(params, x, 32), 1):
            assert weighted_sum_corrected_form(params, x, n) == direct


def test_root_identities_suite():
    for params in GRID + [BiParams(2, -4), BiParams(F(1, 3), F(5, 7))]:
        report = verify_root_identities(params)
        assert report.status == "PASS"
        assert "holds: False" in report.note
        assert root_claim_beta_shift_holds(params) is False


def test_root_claim_numeric_values_at_1_1():
    # at a = b = 1 the roots are 2 and -1: beta + 2 = 1 while -beta/alpha = 1/2,
    # that is -beta = alpha/2
    from bijacobsthal.matrixseq import char_roots
    alpha, beta = char_roots(BiParams(1, 1))
    collapse = lambda q: q.rat + q.coeff * 3  # sqrt(9) = 3 numerically
    assert collapse(alpha) == 2
    assert collapse(beta) == -1
    assert collapse(beta + 2) == 1
    assert collapse(-beta) == F(1, 2) * collapse(alpha)


def test_root_claim_beta_shift_can_hold(monkeypatch):
    # No admissible (a, b) satisfies the printed relation, so substitute
    # roots that do: alpha = 1, beta = -1 give beta + 2 = 1 = -beta/alpha.
    disc = F(5)
    roots = (QuadNum.from_rational(1, disc), QuadNum.from_rational(-1, disc))
    monkeypatch.setattr(verifier_mod, "char_roots", lambda params: roots)
    assert root_claim_beta_shift_holds(BiParams(1, 1)) is True


def test_series_and_cross_method_suites():
    assert verify_series_match(BiParams(2, 1), 64).status == "PASS"
    assert verify_cross_method(BiParams(1, 1), 128).status == "PASS"
    report = verify_cross_method(BiParams(2, -4), 64)
    assert report.status == "PASS"
    assert "ab = -8" in report.note


def test_run_grid_ordering_and_skips():
    grid = GridSpec(
        a_values=(F(2), F(1), F(-1)),
        b_values=(F(1), F(-1)),
        n_max=16,
        suites=(SUM_T5, WEIGHTED_SUM_T6, CROSS_METHOD),
        x_values=(F(1), F(2)),
    )
    reports = list(run_grid(grid))
    # sorted by (a, b, identity, x), pure function of the grid spec
    keys = [(r.params.a, r.params.b, r.identity, r.x or F(0)) for r in reports]
    assert keys == sorted(keys)
    shuffled = GridSpec(
        a_values=(F(1), F(-1), F(2)),
        b_values=(F(-1), F(1)),
        n_max=16,
        suites=(CROSS_METHOD, SUM_T5, WEIGHTED_SUM_T6),
        x_values=(F(1), F(2)),
    )
    assert list(run_grid(shuffled)) == reports
    by_key = {(str(r.params.a), str(r.params.b), r.identity, str(r.x)): r
              for r in reports}
    assert by_key[("1", "1", SUM_T5, "None")].status == "SKIPPED"
    assert by_key[("-1", "-1", SUM_T5, "None")].status == "SKIPPED"
    assert by_key[("1", "1", WEIGHTED_SUM_T6, "1")].status == "SKIPPED"
    assert by_key[("1", "1", WEIGHTED_SUM_T6, "2")].status == "FAIL"
    assert by_key[("2", "1", SUM_T5, "None")].status == "PASS"
    # a grid keeps its values sorted and once, so order and repeats vanish
    assert GridSpec(
        a_values=(F(1), F(-1), F(2), F(4, 2), F(1)),
        b_values=(F(-1), F(1), F(-1)),
        n_max=16,
        suites=(CROSS_METHOD, SUM_T5, WEIGHTED_SUM_T6, SUM_T5),
        x_values=(F(2), F(1), F(2)),
    ) == grid
    # the grid given out of order: the reports come with strictly
    # increasing (a, b, identity, x) keys, with no sort after the fact
    roadmap = GridSpec(a_values=(F(3), F(-1, 2), F(1)), b_values=(F(2), F(-3)),
                       n_max=12, x_values=(F(3), F(1, 2), F(1), F(-2)))
    keys = [(r.params.a, r.params.b, r.identity, r.x or F(0))
            for r in run_grid(roadmap)]
    assert len(keys) == 3 * 2 * (len(ALL_IDENTITIES) - 1 + 4)
    assert all(left < right for left, right in zip(keys, keys[1:]))


def test_run_grid_yields_each_report_as_it_is_made(monkeypatch):
    # the first report is yielded before the second point's suites run
    calls = []
    real = verifier_mod.verify_cassini
    monkeypatch.setattr(verifier_mod, "verify_cassini",
                        lambda p, n_max: calls.append(p) or real(p, n_max))
    grid = GridSpec((F(2), F(1)), (F(1),), n_max=8, suites=(DET, CASSINI))
    reports = run_grid(grid)
    first = next(reports)
    assert (first.identity, first.params) == (CASSINI, BiParams(1, 1))
    assert calls == [BiParams(1, 1)]
    assert [(r.identity, r.params.a) for r in reports] == [
        (DET, 1), (CASSINI, 2), (DET, 2)]
    assert calls == [BiParams(1, 1), BiParams(2, 1)]


def test_run_grid_determinism_and_residual_recheck():
    grid = GridSpec((F(2),), (F(1),), n_max=12,
                    suites=(WEIGHTED_SUM_T6,), x_values=(F(2),))
    first = list(run_grid(grid))
    second = list(run_grid(grid))
    assert first == second
    (report,) = first
    assert report.status == "FAIL"
    n = report.first_failure
    recomputed = weighted_sum_printed_form(report.params, report.x, n) - \
        weighted_sum_direct(report.params, report.x, n)
    assert recomputed == report.residual
    assert recomputed != Mat2.zero()


def test_expected_failure_classifier():
    p = BiParams(2, 1)
    t6_fail = verify_weighted_sum_t6(p, F(2), 8)
    assert expected_failure(t6_fail)
    t6_pass = verify_weighted_sum_t6(p, F(1), 8)
    assert not expected_failure(t6_pass)
    assert not expected_failure(verify_sum_t5(p, 8))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((F(0),), (F(1),))
    with pytest.raises(ValueError):
        GridSpec((F(1),), ())
    with pytest.raises(ValueError):
        GridSpec((F(1),), (F(2),), suites=("NOT_A_SUITE",))
    with pytest.raises(ValueError):
        GridSpec((F(1),), (F(2),), n_max=2)


def test_floats_refused_where_values_enter():
    p = BiParams(2, 1)
    with pytest.raises(TypeError):
        BiParams(0.5, 1)
    with pytest.raises(TypeError):
        GridSpec((0.5,), (1,))
    with pytest.raises(TypeError):
        weighted_sum_direct(p, 0.5, 2)
    with pytest.raises(TypeError):
        verify_weighted_sum_t6(p, 0.5, 4)


def test_default_grid_all_suites_small():
    grid = GridSpec(GRID_VALUES, GRID_VALUES, n_max=16, suites=ALL_IDENTITIES)
    reports = list(run_grid(grid))
    assert len(reports) == 36 * (len(ALL_IDENTITIES) - 1 + 4)
    for report in reports:
        if report.status == "FAIL":
            assert expected_failure(report), report.to_plain()


def test_the_default_grid_hashes_no_point(monkeypatch, capsys):
    # Each point keeps its own series, and the table of points is keyed on
    # a pair's four ints, so no read looks a point up by its hash.
    hashed = []
    real = BiParams.__hash__
    monkeypatch.setattr(BiParams, "__hash__", lambda p: hashed.append(p) or real(p))
    scalar_mod.clear_caches()
    assert main(["verify", "--suite", "all", "--a=-3..3", "--b=-3..3",
                 "--expect-errata"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 432
    assert hashed == []
    scalar_mod.clear_caches()


_JHAT, _JLUCAS = SeqKind.BP_JACOBSTHAL, SeqKind.BP_JACOBSTHAL_LUCAS


_BOTH, _LANE = ("read cache", "lane"), ("lane",)

# memo, kind -> (suite, bound, the first failure when index 10 is wrong,
# where the suite reads it): each suite checks identities among the memo's
# own terms, and its first case that reads index 10 fails.  The cleared
# suites read J's lanes, not its read cache.
_MEMO_READERS = {
    (matrixseq_mod, _JHAT): [
        (verify_det, 16, 10, _BOTH), (verify_doubling, 8, 5, _BOTH),
        (verify_sum_t5, 16, 11, _LANE),
        (lambda p, n: verify_weighted_sum_t6(p, F(1), n), 16, 11, _LANE),
        (verify_series_match, 17, 10, _LANE)],
    (scalar_mod, _JHAT): [(verify_cassini, 16, 9, _BOTH),
                          (verify_lucas_relations, 16, 9, _BOTH)],
    (scalar_mod, _JLUCAS): [(verify_lucas_relations, 16, 9, _BOTH)],
}


@pytest.mark.parametrize("where", ["read cache", "lane"])
@pytest.mark.parametrize("module, kind", list(_MEMO_READERS),
                         ids=lambda v: getattr(v, "value", getattr(v, "__name__", v)))
def test_a_corrupted_memo_shows_in_the_suites_that_read_it(module, kind, where):
    # At an integer pair, index 10 goes wrong after its first read (its
    # cached value doubled), or before it (one lane int moved by 1, so the
    # read divides the wrong int, and the cleared terms scale it); the
    # suites read the memo, so they FAIL.
    params, c = BiParams(1, 2), 10
    if module is matrixseq_mod:
        key, read = matrixseq_mod._J, term_recurrence
    else:
        key, read = kind, lambda p, n: scalar_term(kind, p, n)
    read(params, c if where == "read cache" else c + 5)
    series = params.series[key]
    if where == "read cache":
        series.terms[c] = series.terms[c] * 2
    else:
        assert series.terms[c] is None
        series.lanes[0][c] += 1
    for suite, bound, first, wheres in _MEMO_READERS[(module, kind)]:
        if where not in wheres:
            continue
        report = suite(params, bound)
        assert (report.status, report.first_failure) == ("FAIL", first), suite
        residual = report.residual
        entries = residual.entries() if isinstance(residual, Mat2) else (residual,)
        assert all(type(e) is F for e in entries), suite


def test_each_sweep_extends_each_series_it_reads_once(monkeypatch):
    # One point's suites in the grid's order, counting the extensions of
    # each series and the `_steps` runs started.  Each report reads each
    # of its series with one extension; only CROSS_METHOD's closed route,
    # a route under test, reads jhat one index at a time.  Once J holds
    # the bound, the cleared suites start no step run.
    extended, started = Counter(), []
    extend, steps = scalar_mod._Series.extend, scalar_mod._steps
    monkeypatch.setattr(scalar_mod._Series, "extend",
                        lambda series, n: extended.update([id(series)]) or extend(series, n))
    monkeypatch.setattr(scalar_mod, "_steps", lambda *args: started.append(args) or steps(*args))
    params = BiParams(F(1, 2), F(-3, 4))
    grid = GridSpec((params.a,), (params.b,), n_max=40)
    for suite in grid.suites:
        extended.clear()
        started.clear()
        reports = verifier_mod._SUITES[suite](params, grid)
        counts = {key: extended[id(series)] for key, series in params.series.items()
                  if (suite, key) != (CROSS_METHOD, _JHAT)}
        assert 0 < sum(counts.values()) or suite == "ROOT_IDENTITIES", suite
        assert max(counts.values()) <= len(reports), (suite, counts)
        if suite in (SERIES_MATCH, SUM_T5, WEIGHTED_SUM_T6):
            assert started == [], suite
    assert set(params.series) == {matrixseq_mod._J, _JHAT, _JLUCAS}
    matrixseq_mod._Cleared(params, 41).term(41)
    assert started == []


@pytest.mark.parametrize("suite, bound, products", [
    (verify_cassini, 128, 256),
    (verify_doubling, 64, 1134),
    (verify_lucas_relations, 128, 384),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_memo_suites_take_int_products_at_an_integer_pair(
        monkeypatch, suite, bound, products):
    # At (1, 2), b/a, ab + 4 and ab + 8 are integral and so is every term:
    # with warm memos these suites take no Fraction product, where reading
    # the terms as Fractions took `products` of them.
    params = BiParams(1, 2)
    assert suite(params, bound).status == "PASS"
    calls = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(F, name)
        monkeypatch.setattr(F, name, lambda *args, real=real: calls.append(args) or real(*args))
    assert suite(params, bound).status == "PASS"
    assert len(calls) == 0, f"{len(calls)} Fraction products, {products} as Fractions"


def _bump(fn, hit):
    """fn with 1 (or the identity matrix) added to its value where hit(*args)."""
    def bumped(*args):
        value = fn(*args)
        if not hit(*args):
            return value
        return value + (Mat2.identity() if isinstance(value, Mat2) else 1)
    return bumped


def _bump_prefix(fn, hit):
    """fn, a prefix read of terms 0..n, with each term i bumped as `_bump`
    bumps a point read of index i: hit sees the read's arguments with i
    in place of n."""
    def bumped(*args):
        return [_bump(lambda *point: term, hit)(*args[:-1], i)
                for i, term in enumerate(fn(*args))]
    return bumped


def _at(n):
    return lambda *args: args[-1] == n


def _bump_form(n):
    """Patch for a closed-form builder: every form it builds is bumped at n."""
    return lambda build: lambda *point: _bump(build(*point), _at(n))


def _kind_at(kind, n):
    return lambda k, params, i: k is kind and i == n


def _shift_roots(rat, coeff, beta_sign):
    """Patch for char_roots: alpha moved by d = rat + coeff*sqrt(D), and
    beta by beta_sign * d."""
    def patch(char_roots):
        def shifted(params):
            alpha, beta = char_roots(params)
            d = QuadNum(F(rat), F(coeff), params.disc)
            return alpha + d, beta + beta_sign * d
        return shifted
    return patch


def _root_fail(params, shift, residual, check, diff, a, b):
    note = (f"{check} failed with difference {diff}; "
            "printed claim beta+2 = -beta/alpha holds: False")
    return (
        verifier_mod, "char_roots", _shift_roots(*shift),
        lambda: verifier_mod.verify_root_identities(params), 0, residual, note, None,
        f'{{"identity": "ROOT_IDENTITIES", "a": "{a}", "b": "{b}", "n_max": 0, '
        f'"status": "FAIL", "first_failure": 0, "residual": "{residual}"}}',
        f"ROOT_IDENTITIES,{a},{b},,0,FAIL,0,{residual},,,",
        f"ROOT_IDENTITIES a={a} b={b} n_max=0 FAIL first_failure=0 residual={residual}"
        f"  [{note}]")


def _bump_coeff(m):
    def patch(series_coeffs):
        def bumped(ogf, count):
            out = series_coeffs(ogf, count)
            out[m] = out[m] + Mat2.identity()
            return out
        return bumped
    return patch


_P = BiParams(2, 1)
_Q = BiParams(F(1, 2), F(-3, 4))
_R = BiParams(3, 2)  # J[1] = [[2, 4/3], [1, 0]] mixes ints and Fractions
_I = Mat2.identity()
_I_JSON = '{"e11": "1", "e12": "0", "e21": "0", "e22": "1"}'
_I_CSV = "1,0,0,1"
_I_PLAIN = "[[1,0],[0,1]]"

# case -> (identity, module, attribute, patch, suite, bound, first_failure,
# note): the forced cases of the four suites that read the memos, as at _P
_MEMO_SUITES = {
    "cassini": (CASSINI, verifier_mod, "scalar_prefix", lambda f: _bump_prefix(f, _at(4)),
                verifier_mod.verify_cassini, 8, 3, None),
    "det": (DET, verifier_mod, "det_closed", lambda f: _bump(f, _at(3)),
            verifier_mod.verify_det, 8, 3, None),
    "doubling-even": (DOUBLING, verifier_mod, "recurrence_prefix",
                      lambda f: _bump_prefix(f, _at(8)),
                      verifier_mod.verify_doubling, 6, 4, "even-index doubling failed"),
    "doubling-odd": (DOUBLING, verifier_mod, "recurrence_prefix",
                     lambda f: _bump_prefix(f, _at(9)),
                     verifier_mod.verify_doubling, 6, 4, "odd-index doubling failed"),
    "lucas-first": (LUCAS_RELATIONS, scalar_mod, "scalar_prefix",
                    lambda f: _bump_prefix(f, _kind_at(SeqKind.BP_JACOBSTHAL, 4)),
                    scalar_mod.verify_lucas_relations, 8, 3,
                    "C[n] = 2*jhat[n-1] + jhat[n+1] failed"),
    "lucas-second": (LUCAS_RELATIONS, scalar_mod, "scalar_prefix",
                     lambda f: _bump_prefix(f, _kind_at(SeqKind.BP_JACOBSTHAL_LUCAS, 4)),
                     scalar_mod.verify_lucas_relations, 8, 3,
                     "(ab+8)*jhat[n] = 2*C[n-1] + C[n+1] failed"),
}


def _memo_fail(case, params, residual):
    """The forced case `case` of `_MEMO_SUITES` at `params`, with its
    residual there (a Fraction, or I) and the line each serializer prints."""
    identity, module, attr, patch, suite, bound, first, note = _MEMO_SUITES[case]
    a, b = params.a, params.b
    if isinstance(residual, Mat2):
        as_json, as_csv, as_plain = _I_JSON, _I_CSV, _I_PLAIN
    else:
        as_json, as_csv, as_plain = f'"{residual}"', f"{residual},,,", f"{residual}"
    return (
        module, attr, patch, lambda: suite(params, bound), first, residual, note, None,
        f'{{"identity": "{identity}", "a": "{a}", "b": "{b}", "n_max": {bound}, '
        f'"status": "FAIL", "first_failure": {first}, "residual": {as_json}}}',
        f"{identity},{a},{b},,{bound},FAIL,{first},{as_csv}",
        f"{identity} a={a} b={b} n_max={bound} FAIL first_failure={first} residual={as_plain}"
        + (f"  [{note}]" if note else ""))


# (module or dict, attribute or key, patch, suite call, first_failure,
#  residual, note, x, the line each serializer prints).  Each patch moves one side of one
# identity by 1 (or I) at one index, so the first mismatch and its residual
# lhs - rhs are known in advance.
_FORCED_FAILS = {
    "cassini": (
        verifier_mod, "scalar_prefix", lambda f: _bump_prefix(f, _at(4)),
        lambda: verifier_mod.verify_cassini(_P, 8), 3, F(1), None, None,
        '{"identity": "CASSINI", "a": "2", "b": "1", "n_max": 8, "status": "FAIL", '
        '"first_failure": 3, "residual": "1"}',
        "CASSINI,2,1,,8,FAIL,3,1,,,",
        "CASSINI a=2 b=1 n_max=8 FAIL first_failure=3 residual=1"),
    "det": (
        verifier_mod, "det_closed", lambda f: _bump(f, _at(3)),
        lambda: verifier_mod.verify_det(_P, 8), 3, F(-1), None, None,
        '{"identity": "DET", "a": "2", "b": "1", "n_max": 8, "status": "FAIL", '
        '"first_failure": 3, "residual": "-1"}',
        "DET,2,1,,8,FAIL,3,-1,,,",
        "DET a=2 b=1 n_max=8 FAIL first_failure=3 residual=-1"),
    "doubling-even": (
        verifier_mod, "recurrence_prefix", lambda f: _bump_prefix(f, _at(8)),
        lambda: verifier_mod.verify_doubling(_P, 6), 4, _I,
        "even-index doubling failed", None,
        '{"identity": "DOUBLING", "a": "2", "b": "1", "n_max": 6, "status": "FAIL", '
        f'"first_failure": 4, "residual": {_I_JSON}}}',
        f"DOUBLING,2,1,,6,FAIL,4,{_I_CSV}",
        f"DOUBLING a=2 b=1 n_max=6 FAIL first_failure=4 residual={_I_PLAIN}"
        "  [even-index doubling failed]"),
    "doubling-odd": (
        verifier_mod, "recurrence_prefix", lambda f: _bump_prefix(f, _at(9)),
        lambda: verifier_mod.verify_doubling(_P, 6), 4, _I,
        "odd-index doubling failed", None,
        '{"identity": "DOUBLING", "a": "2", "b": "1", "n_max": 6, "status": "FAIL", '
        f'"first_failure": 4, "residual": {_I_JSON}}}',
        f"DOUBLING,2,1,,6,FAIL,4,{_I_CSV}",
        f"DOUBLING a=2 b=1 n_max=6 FAIL first_failure=4 residual={_I_PLAIN}"
        "  [odd-index doubling failed]"),
    "lucas-first": (
        scalar_mod, "scalar_prefix",
        lambda f: _bump_prefix(f, _kind_at(SeqKind.BP_JACOBSTHAL, 4)),
        lambda: scalar_mod.verify_lucas_relations(_P, 8), 3, F(-1),
        "C[n] = 2*jhat[n-1] + jhat[n+1] failed", None,
        '{"identity": "LUCAS_RELATIONS", "a": "2", "b": "1", "n_max": 8, '
        '"status": "FAIL", "first_failure": 3, "residual": "-1"}',
        "LUCAS_RELATIONS,2,1,,8,FAIL,3,-1,,,",
        "LUCAS_RELATIONS a=2 b=1 n_max=8 FAIL first_failure=3 residual=-1"
        "  [C[n] = 2*jhat[n-1] + jhat[n+1] failed]"),
    "lucas-second": (
        scalar_mod, "scalar_prefix",
        lambda f: _bump_prefix(f, _kind_at(SeqKind.BP_JACOBSTHAL_LUCAS, 4)),
        lambda: scalar_mod.verify_lucas_relations(_P, 8), 3, F(-1),
        "(ab+8)*jhat[n] = 2*C[n-1] + C[n+1] failed", None,
        '{"identity": "LUCAS_RELATIONS", "a": "2", "b": "1", "n_max": 8, '
        '"status": "FAIL", "first_failure": 3, "residual": "-1"}',
        "LUCAS_RELATIONS,2,1,,8,FAIL,3,-1,,,",
        "LUCAS_RELATIONS a=2 b=1 n_max=8 FAIL first_failure=3 residual=-1"
        "  [(ab+8)*jhat[n] = 2*C[n-1] + C[n+1] failed]"),
    "sum-t5": (
        verifier_mod, "_build_printed", _bump_form(3),
        lambda: verifier_mod.verify_sum_t5(_P, 8), 3, _I, None, None,
        '{"identity": "SUM_T5", "a": "2", "b": "1", "n_max": 8, "status": "FAIL", '
        f'"first_failure": 3, "residual": {_I_JSON}}}',
        f"SUM_T5,2,1,,8,FAIL,3,{_I_CSV}",
        f"SUM_T5 a=2 b=1 n_max=8 FAIL first_failure=3 residual={_I_PLAIN}"),
    "weighted-sum-t6": (
        verifier_mod, "_build_printed", _bump_form(3),
        lambda: verifier_mod.verify_weighted_sum_t6(_P, F(1), 8), 3, _I, None, F(1),
        '{"identity": "WEIGHTED_SUM_T6", "a": "2", "b": "1", "x": "1", "n_max": 8, '
        f'"status": "FAIL", "first_failure": 3, "residual": {_I_JSON}}}',
        f"WEIGHTED_SUM_T6,2,1,1,8,FAIL,3,{_I_CSV}",
        "WEIGHTED_SUM_T6 a=2 b=1 x=1 n_max=8 FAIL first_failure=3"
        f" residual={_I_PLAIN}"),
    # at a rational pair the suites compare cleared terms F*J[k]; the bump
    # still reads as I, so the FAIL's residual is in the original units
    "sum-t5-rational": (
        verifier_mod, "_build_printed", _bump_form(3),
        lambda: verifier_mod.verify_sum_t5(_Q, 8), 3, _I, None, None,
        '{"identity": "SUM_T5", "a": "1/2", "b": "-3/4", "n_max": 8, '
        f'"status": "FAIL", "first_failure": 3, "residual": {_I_JSON}}}',
        f"SUM_T5,1/2,-3/4,,8,FAIL,3,{_I_CSV}",
        f"SUM_T5 a=1/2 b=-3/4 n_max=8 FAIL first_failure=3 residual={_I_PLAIN}"),
    "weighted-sum-t6-rational": (
        verifier_mod, "_build_printed", _bump_form(3),
        lambda: verifier_mod.verify_weighted_sum_t6(_Q, F(1), 8), 3, _I, None, F(1),
        '{"identity": "WEIGHTED_SUM_T6", "a": "1/2", "b": "-3/4", "x": "1", '
        f'"n_max": 8, "status": "FAIL", "first_failure": 3, "residual": {_I_JSON}}}',
        f"WEIGHTED_SUM_T6,1/2,-3/4,1,8,FAIL,3,{_I_CSV}",
        "WEIGHTED_SUM_T6 a=1/2 b=-3/4 x=1 n_max=8 FAIL first_failure=3"
        f" residual={_I_PLAIN}"),
    "series-match": (
        verifier_mod, "series_coeffs", _bump_coeff(5),
        lambda: verifier_mod.verify_series_match(_P, 8), 5, _I, None, None,
        '{"identity": "SERIES_MATCH", "a": "2", "b": "1", "n_max": 7, '
        f'"status": "FAIL", "first_failure": 5, "residual": {_I_JSON}}}',
        f"SERIES_MATCH,2,1,,7,FAIL,5,{_I_CSV}",
        f"SERIES_MATCH a=2 b=1 n_max=7 FAIL first_failure=5 residual={_I_PLAIN}"),
    "series-match-rational": (
        verifier_mod, "series_coeffs", _bump_coeff(5),
        lambda: verifier_mod.verify_series_match(_Q, 8), 5, _I, None, None,
        '{"identity": "SERIES_MATCH", "a": "1/2", "b": "-3/4", "n_max": 7, '
        f'"status": "FAIL", "first_failure": 5, "residual": {_I_JSON}}}',
        f"SERIES_MATCH,1/2,-3/4,,7,FAIL,5,{_I_CSV}",
        f"SERIES_MATCH a=1/2 b=-3/4 n_max=7 FAIL first_failure=5 residual={_I_PLAIN}"),
    **{
        f"cross-{route}": (
            verifier_mod.ROUTES, route, lambda f: _bump(f, _at(5)),
            lambda: verifier_mod.verify_cross_method(_P, 8), 5, _I,
            f"{route} route disagrees with recurrence", None,
            '{"identity": "CROSS_METHOD", "a": "2", "b": "1", "n_max": 8, '
            f'"status": "FAIL", "first_failure": 5, "residual": {_I_JSON}}}',
            f"CROSS_METHOD,2,1,,8,FAIL,5,{_I_CSV}",
            f"CROSS_METHOD a=2 b=1 n_max=8 FAIL first_failure=5 residual={_I_PLAIN}"
            f"  [{route} route disagrees with recurrence]")
        for route in ("closed", "fast", "binet")
    },
    # the four memo-reading suites off (2, 1): a FAIL's residual is a
    # Fraction (or a Mat2 of them) wherever the terms are ints
    **{
        f"{case}-{label}": _memo_fail(case, params, residual)
        for label, params, residuals in (
            ("rational", _Q, {"cassini": F(-3, 4), "det": F(-1), "doubling-even": _I,
                              "doubling-odd": _I, "lucas-first": F(-1),
                              "lucas-second": F(-1)}),
            ("3-2", _R, {"cassini": F(2), "det": F(-1), "doubling-even": _I,
                         "doubling-odd": _I, "lucas-first": F(-1), "lucas-second": F(-1)}),
        )
        for case, residual in residuals.items()
    },
    # the residual is the rational part of the first failing check, or its
    # sqrt(D) part when the rational part is zero
    "root-rational": _root_fail(_P, (1, 0, 0), F(1), "alpha+beta = ab",
                                "1 + 0*sqrt(20)", "2", "1"),
    "root-sqrt": _root_fail(BiParams(F(1, 2), F(-3, 4)), (0, 1, 0), F(1),
                            "alpha+beta = ab", "0 + 1*sqrt(-183/64)", "1/2", "-3/4"),
    "root-sqrt-3": _root_fail(_P, (0, 3, 0), F(3), "alpha+beta = ab",
                              "0 + 3*sqrt(20)", "2", "1"),
    "root-both": _root_fail(BiParams(F(1, 2), F(-3, 4)), (2, 3, 0), F(2),
                            "alpha+beta = ab", "2 + 3*sqrt(-183/64)", "1/2", "-3/4"),
    # alpha + 1 and beta - 1 keep the sum, so the product is the first to fail
    "root-product": _root_fail(_P, (1, 0, -1), F(-1), "alpha*beta = -2ab",
                               "-1 - 1*sqrt(20)", "2", "1"),
}


@pytest.mark.parametrize("case", sorted(_FORCED_FAILS))
def test_forced_mismatch_reports_first_failure(monkeypatch, case):
    (module, attr, patch, run, first_failure, residual, note, x,
     as_json, as_csv, as_plain) = _FORCED_FAILS[case]
    if isinstance(module, dict):
        monkeypatch.setitem(module, attr, patch(module[attr]))
    else:
        monkeypatch.setattr(module, attr, patch(getattr(module, attr)))
    report = run()
    assert report.status == "FAIL"
    assert report.first_failure == first_failure
    assert report.residual == residual
    assert type(report.residual) is type(residual)
    assert report.note == note
    assert report.x == x
    assert report.to_json() == as_json
    assert report.to_csv_row() == as_csv
    assert report.to_plain() == as_plain


def test_a_cleared_mismatch_the_fraction_side_does_not_confirm_ends_nothing(
        monkeypatch):
    # Each patch errs at 2 on the cleared point only, and at 5 on both: the
    # check goes on past 2 and fails at 5, in the original units.
    real_series = verifier_mod.series_coeffs
    real_build = verifier_mod._build_printed

    def series(ogf, count):
        out = real_series(ogf, count)
        for m in (2, 5) if type(ogf.numerator[0].e11) is int else (5,):
            out[m] = out[m] + _I
        return out

    def build(point, x):
        form = real_build(point, x)
        cleared = isinstance(point, verifier_mod._Cleared)

        def closed(n):
            value = form(n)
            return value + _I if n == 5 or (n == 2 and cleared) else value
        return closed

    monkeypatch.setattr(verifier_mod, "series_coeffs", series)
    monkeypatch.setattr(verifier_mod, "_build_printed", build)
    for report in (verify_series_match(_P, 8), verify_sum_t5(_P, 8)):
        assert (report.status, report.first_failure, report.residual) == \
            ("FAIL", 5, _I)


def test_run_grid_hands_each_point_out_once(monkeypatch):
    # one table lookup per (a, b), and every suite at it reads that object
    asked, seen = [], {}
    real = verifier_mod.point
    monkeypatch.setattr(verifier_mod, "point", lambda a, b: asked.append((a, b)) or real(a, b))
    for suite, check in list(verifier_mod._SUITES.items()):
        monkeypatch.setitem(verifier_mod._SUITES, suite,
                            lambda p, grid, check=check: seen.setdefault(
                                (p.a, p.b), set()).add(id(p)) or check(p, grid))
    grid = GridSpec((F(1, 2), 2, -1), (3, F(-3, 4)), n_max=6)
    reports = list(run_grid(grid))
    assert asked == [(a, b) for a in grid.a_values for b in grid.b_values]
    assert sorted(seen) == sorted(asked)
    assert all(len(ids) == 1 for ids in seen.values())
    assert reports == list(run_grid(grid))
