"""Rational generating function of the matrix sequence.

The ordinary generating function sum_m J[m] x^m equals

    J0 + J1*x + [a*J1 - (ab+2)*J0]*x^2 + [2b*J0 - 2*J1]*x^3
    -----------------------------------------------------------
                  1 - (ab+4)*x^2 + 4*x^4

as a formal power series (no convergence is modeled).  `series_coeffs`
expands it by plain polynomial long division against the denominator
coefficients, so the expansion is an independent witness for the term
recurrence rather than a restatement of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Mat2
from .matrixseq import generator_matrix
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
    j0 = Mat2.identity()
    j1 = generator_matrix(params)
    ab = params.ab
    numerator = (
        j0,
        j1,
        params.a * j1 - (ab + 2) * j0,
        2 * params.b * j0 - 2 * j1,
    )
    denominator = (Fraction(1), Fraction(0), -(ab + 4), Fraction(0), Fraction(4))
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
    Nothing here knows about the matrix recurrence; coefficient m equaling
    J[m] is the claim under test elsewhere.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    num, den = ogf.numerator, ogf.denominator
    out: list[Mat2] = []
    for m in range(count):
        acc = num[m] if m < len(num) else Mat2.zero()
        for i in range(1, min(m, len(den) - 1) + 1):
            acc = acc - den[i] * out[m - i]
        out.append(acc)
    return out
