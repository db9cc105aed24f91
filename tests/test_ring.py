"""The recurrence and the closed forms evaluated over the field Q(a, b).

`Mat2` scales by any operand that is not a `Mat2`, so the library's own
term, sum, determinant and series code runs with `a` and `b` as sympy
symbols, unchanged.  sympy is the test-only oracle: every closed form must
equal the symbolic recurrence as a rational function of `a` and `b`, and
every symbolic value must specialize to the rational route's value at one
point.
"""

from dataclasses import dataclass, field
from fractions import Fraction as F
from itertools import accumulate, islice

import pytest

sp = pytest.importorskip("sympy")

from bijacobsthal import scalar  # noqa: E402
from bijacobsthal.exact import Mat2  # noqa: E402
from bijacobsthal.genfunc import build_ogf, series_coeffs  # noqa: E402
from bijacobsthal.matrixseq import (  # noqa: E402
    det_closed,
    iter_terms,
    term_closed,
    term_recurrence,
)
from bijacobsthal.scalar import BiParams, SeqKind, scalar_term  # noqa: E402
from bijacobsthal.verifier import (  # noqa: E402
    sum_closed_form,
    weighted_sum_corrected_form,
)

A, B = sp.symbols("a b")
POINT = BiParams(F(2, 3), F(-5, 7))
N = 8


@dataclass(frozen=True)
class SymParams:
    """(a, b) as sympy symbols, with the `ab` the term code reads and the
    `series` that the recurrence memoizes on."""

    a: object
    b: object
    series: dict = field(default_factory=dict, compare=False)

    @property
    def ab(self):
        return self.a * self.b


SYM = SymParams(A, B)


@pytest.fixture(autouse=True)
def _cold_memos():
    yield
    SYM.series.clear()
    POINT.series.clear()
    scalar.clear_caches()


@pytest.fixture(scope="module")
def terms():
    """J[0..N] over Q(a, b) by the recurrence."""
    return list(islice(iter_terms(SYM), N + 1))


def _same(x, y) -> bool:
    return sp.cancel(x - y) == 0


def _at_point(x) -> F:
    value = sp.sympify(x).subs({A: POINT.a, B: POINT.b})
    return F(int(value.p), int(value.q))


def _check(sym_value, symbolic_oracle, rational_value):
    """sym_value equals the oracle over Q(a, b) and specializes to the
    rational route's value at POINT; scalars or Mat2s alike."""
    if hasattr(sym_value, "entries"):
        for got, want, rat in zip(sym_value.entries(), symbolic_oracle.entries(),
                                  rational_value.entries()):
            _check(got, want, rat)
        return
    assert _same(sym_value, symbolic_oracle)
    assert _at_point(sym_value) == rational_value


def test_terms_over_q_ab(terms):
    for n in range(N + 1):
        _check(terms[n], terms[n], term_recurrence(POINT, n))
        _check(term_recurrence(SYM, n), terms[n], term_recurrence(POINT, n))
        _check(term_closed(SYM, n), terms[n], term_closed(POINT, n))
        _check(scalar_term(SeqKind.BP_JACOBSTHAL, SYM, n), terms[n].e21,
               scalar_term(SeqKind.BP_JACOBSTHAL, POINT, n))
        _check(det_closed(SYM, n), terms[n].det(), det_closed(POINT, n))


def test_sum_closed_form_over_q_ab(terms):
    direct = list(accumulate(terms))  # direct[n - 1] = sum_{k<n} J[k]
    for n in range(1, N + 1):
        _check(sum_closed_form(SYM, n), direct[n - 1], sum_closed_form(POINT, n))


@pytest.mark.parametrize("x", [F(2), F(1, 2), F(-3)], ids=str)
def test_weighted_sum_corrected_form_over_q_ab(terms, x):
    direct = list(accumulate(term * x ** -k for k, term in enumerate(terms)))
    for n in range(1, N + 1):
        _check(weighted_sum_corrected_form(SYM, x, n), direct[n - 1],
               weighted_sum_corrected_form(POINT, x, n))


def test_series_over_q_ab(terms):
    coeffs = series_coeffs(build_ogf(SYM), N + 1)
    rational = series_coeffs(build_ogf(POINT), N + 1)
    for coeff, term, rat in zip(coeffs, terms, rational, strict=True):
        _check(coeff, term, rat)



def test_mat2_renders_entries_of_any_ring():
    # str() renders each entry with its own ring's str, so a Mat2 over
    # Q(a, b) prints (and an error message built from one does not raise).
    assert str(Mat2(A, B / A, A * B + 2, 0)) == "[[a,b/a],[a*b + 2,0]]"
    assert str(term_recurrence(SYM, 2)) == "[[a*b + 2,2*b],[a,2]]"
