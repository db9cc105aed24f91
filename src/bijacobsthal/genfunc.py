"""Rational generating function of the matrix sequence.

The ordinary generating function sum_m J[m] x^m equals

    J0 + J1*x + [a*J1 - (ab+2)*J0]*x^2 + [2b*J0 - 2*J1]*x^3
    -----------------------------------------------------------
                  1 - (ab+4)*x^2 + 4*x^4

as a formal power series (no convergence is modeled).  `series_coeffs`
expands it by polynomial long division against the denominator
coefficients, so the expansion is an independent witness for the term
recurrence rather than a restatement of it.  It reads only the generating
function, never a term route.  Over the rationals the division runs on
plain ints, entry by entry, each coefficient times a power of one base L,
the lcm of the denominator coefficients' denominators.  Here L is the
denominator of ab and the only nonzero coefficients have even degree, so
the power grows every two steps at most.  Each coefficient is divided
back once, in linear time (`exact._divide`).

`build_ogf` reads J[0], J[1], a, b and ab through `matrixseq._term_source`,
as the verifier's sum forms do, so it takes a `BiParams` or a cleared
point (`matrixseq._Cleared`).  The numerator is linear in the terms, so a
cleared point's F*J[k], with F = c * lcm(w[bound-1], w[bound]) and w the
weights of `SeqKind._integer_rule`, give F times the numerator, and at
integer (a, b) every coefficient is a plain int.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exact import Mat2, _divide
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

    Long division: with denominator d0 + d1*x + ... (d0 = 1) and numerator
    N, coefficient c[m] = N[m] - sum_{i>=1} d[i] * c[m-i].  A zero d[i]
    contributes nothing, so the sum runs over the nonzero d[i] alone,
    wherever they are (the Jacobsthal denominator's odd ones are zero).
    Nothing here knows about the matrix recurrence; coefficient m equaling
    J[m] is the claim under test elsewhere.

    Over the rationals the division runs on plain ints, on one base: F
    clears the numerator's entries and L is the lcm of the denominators of
    the nonzero d[i], so every L * d[i] is an int.  The loop keeps
    C[m] = F * L^t[m] * c[m] for the last few m, each as a list of its
    four int entries: the division scales and adds entry by entry, so it
    builds a `Mat2` only for each coefficient it returns.  t[m] is one
    more than the largest t[m-i] over the nonzero d[i] with i <= m (0
    where there is none, and everywhere when L = 1), so that C[m-i] enters
    with the int multiplier L * d[i] times L^(t[m] - 1 - t[m-i]), never a
    negative power of L.  Each factor L that divides all four entries of
    C[m] is then taken off.  Where none comes off, t[m] counts the most
    steps i with nonzero d[i] that fit in m: m when d[1] is nonzero, and
    m//2 for the Jacobsthal denominator, whose nonzero d[i] are d[2] and
    d[4] alone, so there the weight grows by L every two steps and L is
    the denominator of ab (d[4] = 4).  That is also what a schedule with
    a second base for the odd-degree denominators gives there: with no
    odd-degree coefficient that base is 1, and t[m], the multipliers and
    the ints are the same.  Where the coefficients are integral, as a
    cleared point's F*J[m] are, the factor comes off at once, and the ints
    stay the size of the coefficients.  Each c[m] is read back with one
    `exact._divide` by F and L^t[m], a power kept as t moves, so it is a
    `Fraction` in lowest terms.  Where every entry and coefficient is an
    int already, nothing is divided, so an int numerator gives int
    coefficients.  Over any other ring the same loop runs with L = 1.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    num = [c.entries() for c in ogf.numerator]
    zero = [0 * e for e in num[0]] if num else [Fraction(0)] * 4
    steps = [(i, -d) for i, d in enumerate(ogf.denominator) if i and d]
    entries = [e for c in (*num, zero) for e in c]
    scalars = [*entries, *(d for _, d in steps)]
    divide, clear, base = False, 1, 1
    if all(type(x) in (int, Fraction) for x in scalars):
        divide = any(type(x) is Fraction for x in scalars)
        clear = lcm(*(e.denominator for e in entries))
        base = lcm(*(d.denominator for _, d in steps))
        num = [[(clear * e).numerator for e in c] for c in num]
        zero = [0] * 4
        steps = [(i, (base * d).numerator) for i, d in steps]
    power, raised = 1, 0
    depth = steps[-1][0] if steps else 1
    cleared: deque = deque(maxlen=depth)  # the last C[m], and their t[m]
    shifts: deque = deque(maxlen=depth)
    out: list[Mat2] = []
    for m in range(count):
        t = 0 if base == 1 else 1 + max(
            [shifts[-i] for i, _ in steps if i <= m], default=-1)
        acc = [base ** t * e for e in num[m]] if m < len(num) else zero
        for i, d in steps:
            if i > m:
                break
            # t is 0 here only where L = 1, and 1 ** -1 would be a float
            f = d * base ** (t - 1 - shifts[-i]) if t else d
            acc = [e + f * c for e, c in zip(acc, cleared[-i])]
        while t and not any(e % base for e in acc):
            acc, t = [e // base for e in acc], t - 1
        cleared.append(acc)
        shifts.append(t)
        if divide:
            if t != raised:
                power, raised = power * base if t == raised + 1 else base ** t, t
            acc = [_divide(e, clear, base, power, t) for e in acc]
        out.append(Mat2(*acc))
    return out
