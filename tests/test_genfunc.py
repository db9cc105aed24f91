from fractions import Fraction as F
from math import gcd

import pytest

from bijacobsthal import genfunc
from bijacobsthal.exact import Mat2
from bijacobsthal.genfunc import (
    RationalOGF,
    build_ogf,
    component_form,
    series_coeffs,
)
from bijacobsthal.matrixseq import _Cleared, generator_matrix, term_recurrence
from bijacobsthal.scalar import BiParams
from bijacobsthal.verifier import verify_series_match

GRID = [BiParams(a, b)
        for a in (-3, -2, -1, 1, 2, 3)
        for b in (-3, -2, -1, 1, 2, 3)]


def test_ogf_denominator_must_be_monic_in_x0():
    with pytest.raises(ValueError):
        RationalOGF((Mat2.identity(),), (F(2), F(0)))


def test_numerator_structure():
    p = BiParams(2, 1)
    ogf = build_ogf(p)
    j0, j1 = Mat2.identity(), generator_matrix(p)
    assert ogf.numerator[0] == j0
    assert ogf.numerator[1] == j1
    assert ogf.numerator[2] == Mat2(-2, 2, 2, -4)
    assert ogf.numerator[2] == p.a * j1 - (p.ab + 2) * j0
    assert ogf.numerator[3] == 2 * p.b * j0 - 2 * j1
    assert ogf.denominator == (1, 0, -6, 0, 4)


def test_denominator_generic():
    for params in (BiParams(3, 5), BiParams(-2, 3), BiParams(F(1, 2), F(4, 3))):
        den = build_ogf(params).denominator
        assert den == (1, 0, -(params.ab + 4), 0, 4)


def test_component_form_entries():
    p = BiParams(2, 1)
    (p11, p12), (p21, p22) = component_form(p)
    assert p21 == (0, 1, p.a, -2)
    assert p22 == (1, 0, -(p.ab + 2), 2 * p.b)
    assert component_form(BiParams(1, 1))[0][0] == (1, 1, -2)
    assert p11 == (1, p.b, -2)
    assert p12 == (0, 2 * p.b / p.a, 2 * p.b, -4 * p.b / p.a)


@pytest.mark.parametrize("params", GRID, ids=str)
def test_component_form_matches_numerator(params):
    ogf = build_ogf(params)
    rows = component_form(params)
    getters = ((lambda m: m.e11, lambda m: m.e12),
               (lambda m: m.e21, lambda m: m.e22))
    for i in (0, 1):
        for j in (0, 1):
            poly = rows[i][j]
            entries = [getters[i][j](ogf.numerator[k]) for k in range(4)]
            while entries and entries[-1] == 0:
                entries.pop()
            assert tuple(entries) == poly


def test_series_low_coefficients():
    p = BiParams(2, 1)
    coeffs = series_coeffs(build_ogf(p), 3)
    assert coeffs[0] == Mat2.identity()
    assert coeffs[1] == generator_matrix(p)
    assert coeffs[2] == Mat2(4, 2, 2, 2)
    for call in (lambda: series_coeffs(build_ogf(p), 0),
                 lambda: verify_series_match(p, 0)):
        with pytest.raises(ValueError, match="count must be at least 1"):
            call()


@pytest.mark.parametrize("params", GRID, ids=str)
def test_series_matches_recurrence(params):
    coeffs = series_coeffs(build_ogf(params), 128)
    for m, coeff in enumerate(coeffs):
        assert coeff == term_recurrence(params, m)


@pytest.mark.parametrize("params", [BiParams(2, 1), BiParams(-3, -2), BiParams(1, 3)],
                         ids=str)
def test_series_times_denominator_reproduces_numerator(params):
    # exact convolution: (sum c_m x^m) * d(x) must equal the numerator in
    # every degree the truncated series can still witness
    ogf = build_ogf(params)
    coeffs = series_coeffs(ogf, 128)
    den = ogf.denominator
    for m in range(125):
        acc = Mat2.zero()
        for i in range(min(m, len(den) - 1) + 1):
            acc = acc + den[i] * coeffs[m - i]
        if m < len(ogf.numerator):
            assert acc == ogf.numerator[m]
        else:
            assert acc == Mat2.zero()


def _long_division(ogf, count):
    """The textbook long division, every denominator coefficient taken."""
    num, den = ogf.numerator, ogf.denominator
    out = []
    for m in range(count):
        acc = num[m] if m < len(num) else Mat2.zero()
        for i in range(1, min(m, len(den) - 1) + 1):
            acc = acc - den[i] * out[m - i]
        out.append(acc)
    return out


def test_series_skips_only_zero_denominator_coefficients():
    # 1/(1 - x - x^2): the odd coefficient is nonzero, so the Fibonacci
    # numbers appear only if the skip of zeros is not tied to positions
    fib = series_coeffs(RationalOGF((Mat2.identity(),), (1, -1, -1)), 12)
    assert [c.e11 for c in fib] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    assert all(c == c.e11 * Mat2.identity() for c in fib)
    p = BiParams(F(1, 2), F(-3, 4))
    ogfs = [
        RationalOGF((Mat2(1, 2, 3, 4), Mat2(0, 1, 0, 0)), (F(1), F(0), F(-2), F(3))),
        RationalOGF((Mat2(1, 0, 0, 1),), (F(1), F(1, 2), F(0), F(0), F(-1, 3))),
        RationalOGF((Mat2(2, 1, 1, 0),), (F(1),)),
        build_ogf(p),
    ]
    for ogf in ogfs:
        assert series_coeffs(ogf, 40) == _long_division(ogf, 40)


def test_series_stays_in_the_numerator_ring():
    # an int numerator gives int coefficients past the numerator too, and
    # a pair's denominator keeps its Fraction constants
    ints = series_coeffs(RationalOGF((Mat2(1, 0, 0, 1), Mat2(2, 0, 1, 0)),
                                     (1, 0, -6, 0, 4)), 20)
    assert all(type(e) is int for c in ints for e in c.entries())
    for params in (BiParams(2, 1), BiParams(F(1, 2), F(-3, 4))):
        assert all(type(d) is F for d in build_ogf(params).denominator)


# Pairs whose ab has a denominator M > 1 that shares a factor with the
# numerator's clearing factor F: at (1/2, -3/4), M = 8 and F = 8.
INTEGER_EXPANSION_PAIRS = [BiParams(F(1, 2), F(-3, 4)), BiParams(F(5, 7), F(-7, 9)),
                           BiParams(F(6, 35), F(10, 21))]


@pytest.mark.parametrize("params", INTEGER_EXPANSION_PAIRS, ids=str)
def test_integer_expansion_matches_the_long_division(params):
    # The integer expansion gives the Fractions of the textbook division,
    # each in lowest terms, at the pair and at a cleared point, whose
    # coefficients F*J[m] are integral.
    for ogf in (build_ogf(params), build_ogf(_Cleared(params, 600))):
        coeffs = series_coeffs(ogf, 601)
        assert coeffs == _long_division(ogf, 601)
        for coeff in coeffs[2:]:
            assert all(type(e) is F and gcd(e.numerator, e.denominator) == 1
                       for e in coeff.entries())


@pytest.mark.parametrize("params", INTEGER_EXPANSION_PAIRS, ids=str)
def test_integer_expansion_weight_exponents(params, monkeypatch):
    # Each coefficient m is divided back by L^t[m].  At the pair t[m] is at
    # most m//2: the denominator's nonzero coefficients are d[2] and d[4],
    # so the weight grows by L every two steps at most.  At a cleared
    # point, whose coefficients F*J[m] are integral, every factor L comes
    # off as it is put on, so t[m] is 0.
    calls, divide = [], genfunc._divide

    def spy(x, den, base, power, k):
        calls.append((base, power, k))
        return divide(x, den, base, power, k)

    def exponents(ogf):
        calls.clear()
        series_coeffs(ogf, 601)
        assert len(calls) == 4 * 601
        assert all(power == base ** k for base, power, k in calls)
        ks = [k for _, _, k in calls]
        assert ks[::4] == ks[1::4] == ks[2::4] == ks[3::4]
        return ks[::4]

    monkeypatch.setattr(genfunc, "_divide", spy)
    at_pair = exponents(build_ogf(params))
    assert all(t <= m // 2 for m, t in enumerate(at_pair)) and at_pair[-1] > 0
    assert exponents(build_ogf(_Cleared(params, 600))) == [0] * 601


def test_integer_expansion_with_odd_denominator_coefficients():
    # A fractional odd-degree coefficient, alone and beside even ones,
    # with numerators that are ints, Fractions and both: the weight grows
    # by L at every step, not every two.
    ogfs = [
        RationalOGF((Mat2(1, 0, 0, 1),), (F(1), F(1, 2), F(0), F(0), F(-1, 3))),
        RationalOGF((Mat2(F(1, 6), 2, F(-5, 4), 0), Mat2(0, F(3, 10), 1, F(7, 9))),
                    (F(1), F(-2, 3), F(5, 4), F(1, 6))),
        RationalOGF((Mat2(3, 1, 4, 1),), (1, F(-3, 5))),
    ]
    for ogf in ogfs:
        assert series_coeffs(ogf, 601) == _long_division(ogf, 601)
