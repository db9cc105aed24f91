"""Rational generating function of the matrix sequence.

The ordinary generating function sum_m J[m] x^m equals

    J0 + J1*x + [a*J1 - (ab+2)*J0]*x^2 + [2b*J0 - 2*J1]*x^3
    -----------------------------------------------------------
                  1 - (ab+4)*x^2 + 4*x^4

as a formal power series (no convergence is modeled).  `series_coeffs`
expands it by plain polynomial long division against the denominator
coefficients, so the expansion is an independent witness for the term
recurrence rather than a restatement of it.

`build_ogf` reads J[0], J[1], a, b and ab through `matrixseq._term_source`,
as the verifier's sum forms do, so it takes a `BiParams` or a cleared
point (`matrixseq._Cleared`).  The numerator is linear in the terms, so a
cleared point's F*J[k] give F times the numerator, and at integer (a, b)
every coefficient is a plain int.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Mat2
from .matrixseq import _term_source
from .scalar import BiParams


@dataclass(frozen=True)
class RationalOGF:
    """Matrix-valued numerator over a scalar denominator polynomial, each
    a coefficient tuple, lowest power of x first."""

    numerator: tuple[Mat2, ...]
    denominator: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.denominator or self.denominator[0] != 1:
            raise ValueError(
                "denominator constant term must be 1 for the series expansion"
            )


def build_ogf(params: BiParams) -> RationalOGF:
    """The generating function at `params`, a `BiParams` or a cleared point;
    the denominator's constants are in ab's own ring (ab ** 0 is its 1)."""
    term = _term_source(params)
    j0, j1 = term(0), term(1)
    ab = params.ab
    numerator = (
        j0,
        j1,
        params.a * j1 - (ab + 2) * j0,
        2 * params.b * j0 - 2 * j1,
    )
    one = ab ** 0
    denominator = (one, 0 * one, -(ab + 4), 0 * one, 4 * one)
    return RationalOGF(numerator, denominator)


def component_form(params: BiParams) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Entrywise scalar polynomials of the numerator, lowest power first.

    Returns ((p11, p12), (p21, p22)), each a coefficient tuple.  These must
    agree coefficient-by-coefficient with the entries of build_ogf's
    numerator; the test suite checks the polynomial identity.
    """
    a, b, ab = params.a, params.b, params.ab
    one, zero = Fraction(1), Fraction(0)
    r = b / a
    p11 = (one, b, Fraction(-2))
    p12 = (zero, 2 * r, 2 * b, -4 * r)
    p21 = (zero, one, a, Fraction(-2))
    p22 = (one, zero, -(ab + 2), 2 * b)
    return ((p11, p12), (p21, p22))


def series_coeffs(ogf: RationalOGF, count: int) -> list[Mat2]:
    """First `count` coefficients of the formal power series.

    Plain long division: with denominator d0 + d1*x + ... (d0 = 1) and
    numerator N, coefficient c[m] = N[m] - sum_{i>=1} d[i] * c[m-i].
    A zero d[i] contributes nothing, so the sum runs over the nonzero
    d[i] alone, wherever they are (the Jacobsthal denominator's odd ones
    are zero); each is negated once, up front.  Past the numerator, a
    coefficient starts from the zero of the numerator's own ring, so an
    int numerator gives int coefficients.  Nothing here knows about the
    matrix recurrence; coefficient m equaling J[m] is the claim under
    test elsewhere.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    num = ogf.numerator
    zero = 0 * num[0] if num else Mat2.zero()
    steps = [(i, -d) for i, d in enumerate(ogf.denominator) if i and d]
    out: list[Mat2] = []
    for m in range(count):
        acc = num[m] if m < len(num) else zero
        for i, d in steps:
            if i > m:
                break
            acc = acc + d * out[m - i]
        out.append(acc)
    return out
