"""The bi-periodic Jacobsthal matrix sequence, by four independent methods.

The sequence of 2x2 matrices is

    J[0] = I,   J[1] = [[b, 2b/a], [1, 0]],
    J[n] = a * J[n-1] + 2 * J[n-2]   (n even)
    J[n] = b * J[n-1] + 2 * J[n-2]   (n odd)

with a on the even step.  (A variant statement with a and b swapped is in
circulation; it contradicts the explicit low-index matrices and the scalar
closed form, see ERRATA.md.)  Each term packages three consecutive scalar
terms:

    J[n] = [[(b/a)^e * jhat[n+1],  2(b/a) * jhat[n]],
            [jhat[n],              2(b/a)^e * jhat[n-1]]],   e = parity(n)

which is the `term_closed` route.  `term_binet` evaluates the closed form
over the formal extension Q(sqrt(D)), D = ab(ab+8).  `term_fast` reads
J[n] off a single binary power of the two-step map, whose characteristic
polynomial x^2 - (ab+4)x + 4 is the index-doubling recurrence: J is the
jhat recurrence started at J[0] = I and J[1], so it runs the same
`scalar._two_step` as `scalar_term_fast`.

The two log-time routes raise integers, not rationals: `term_fast` an
integer two-step matrix and, with ab = N/M in lowest terms, `term_binet`
the algebraic integer M*(alpha+2) = (N+4M + sqrt(N(N+8M)))/2, held
doubled so that both of its fields are plain ints (each product is halved
exactly, see `exact._DoubledQuadNum`).  Every term is then an integer
combination over M^(n//2), a denominator known from n alone, so no
Fraction and no gcd of large numbers enters the power loop, and
each output entry is divided once, at the end, by `exact.div_power`,
which strips only the factors of M and so takes linear time.  The
closed route stays on plain Fraction arithmetic.

No route here states the step rule.  J is the jhat recurrence, so the
recurrence memo and `iter_terms` step with `scalar._step` on the
(even, odd, lag) that `SeqKind.BP_JACOBSTHAL.rule` reads off the kind
table in `scalar`, and `term_fast` raises the two-step matrix that
`scalar._two_step` builds from the same rule.  The four routes are
separate computations and cross-check one another.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Callable, Iterator

from .exact import Mat2, QuadNum, _DoubledQuadNum, div_power, parity
from .scalar import BiParams, SeqKind, _PrefixMemo, _step, _two_step, scalar_term


class DegenerateDiscriminantError(ValueError):
    """Raised when ab = -8 makes the characteristic roots coincide.

    The printed closed-form coefficients divide by alpha - beta = sqrt(D),
    so they are undefined there.  Only the root-based route refuses; the
    recurrence, closed-form, and fast routes all still work at ab = -8.
    """


def _check_index(n: int) -> None:
    """Refuse an index below 0, the one domain rule of every matrix route."""
    if n < 0:
        raise ValueError("matrix terms are defined for n >= 0")


def generator_matrix(params: BiParams) -> Mat2:
    """J[1] = [[b, 2b/a], [1, 0]]."""
    return Mat2(params.b, 2 * params.b / params.a, Fraction(1), Fraction(0))


def iter_terms(params: BiParams) -> Iterator[Mat2]:
    """Yield J[0], J[1], J[2], ... freshly (no cache), by the jhat step rule."""
    return _walk(SeqKind.BP_JACOBSTHAL.rule(params),
                 Mat2.identity(), generator_matrix(params))


def _walk(rule: tuple, prev, cur) -> Iterator:
    """Yield prev, cur and every later term of `rule`'s recurrence."""
    yield prev
    for n in count(2):
        yield cur
        prev, cur = cur, _step(rule, n, prev, cur)


def _cleared_rule(params: BiParams) -> tuple[tuple, Callable[[int], int]]:
    """(rule, d): the jhat rule on integer numerators, and its denominators.

    Write the multipliers in lowest terms as p_even/q_even and p_odd/q_odd,
    and let d[0] = 1 and d[k] = q[k]*d[k-1], q[k] being the denominator of
    the k-th multiplier, so d[k] = q_odd^((k+1)//2) * q_even^(k//2).  If t
    follows the jhat rule, d*t follows `rule` = (p_even, p_odd,
    lag*q_even*q_odd) for every k >= 2, so a recurrence started on integers
    stays on them.  `d` maps k to d[k].
    """
    even, odd, lag = SeqKind.BP_JACOBSTHAL.rule(params)
    q_even, q_odd = even.denominator, odd.denominator
    rule = even.numerator, odd.numerator, lag * q_even * q_odd
    return rule, lambda k: q_odd ** ((k + 1) // 2) * q_even ** (k // 2)


# A table of its own: its keys are the scalar memo's jhat keys, so a shared
# table would hand scalars to the matrix route and matrices to the scalar one.
_memo = _PrefixMemo(lambda key: [Mat2.identity(), generator_matrix(key[1])])


def clear_caches() -> None:
    _memo.clear()


def term_recurrence(params: BiParams, n: int) -> Mat2:
    """J[n] by the definitional recurrence (memoized per params)."""
    _check_index(n)
    return _memo.term((SeqKind.BP_JACOBSTHAL, params), n)


def term_closed(params: BiParams, n: int) -> Mat2:
    """J[n] assembled from scalar terms (n = 0 consumes jhat[-1] = 1/2)."""
    _check_index(n)
    jhat = SeqKind.BP_JACOBSTHAL
    jm1, jn, jp1 = (scalar_term(jhat, params, i) for i in (n - 1, n, n + 1))
    ratio = params.b / params.a
    rpow = ratio if parity(n) else Fraction(1)
    return Mat2(rpow * jp1, 2 * ratio * jn, jn, 2 * rpow * jm1)


def term_fast(params: BiParams, n: int) -> Mat2:
    """J[n] in O(log n) integer ring operations and one division per entry.

    J is the jhat recurrence started at J[0] = I and J[1], so with
    `scalar._two_step`, J[n] = (u*J[1] + v*I) / M^m.  v is added to the
    diagonal of u*J[1], and each entry is divided once, by M^m, with
    `div_power`.
    """
    _check_index(n)
    u, v, den, m = _two_step(SeqKind.BP_JACOBSTHAL, params, n)
    gen = u * generator_matrix(params)
    return _div_entries((gen.e11 + v, gen.e12, gen.e21, gen.e22 + v), den, m)


def _div_entries(entries, base: int, k: int) -> Mat2:
    """The matrix of the given entries, each divided by base**k."""
    return Mat2(*(div_power(e, base, k) for e in entries))


def det_closed(params: BiParams, n: int) -> Fraction:
    """det J[n] = 2^n * (-b/a)^parity(n), exactly."""
    _check_index(n)
    value = Fraction(2) ** n
    if parity(n):
        value *= -params.b / params.a
    return value


def char_roots(params: BiParams) -> tuple[QuadNum, QuadNum]:
    """Roots alpha, beta of x^2 - ab*x - 2ab = 0 in Q(sqrt(D)).

    alpha = (ab + sqrt(D))/2 and beta = (ab - sqrt(D))/2 with
    D = ab(ab+8); sqrt(D) stays formal, so negative and perfect-square D
    flow through the same code path.
    """
    half_ab = params.ab / 2
    half = Fraction(1, 2)
    return (
        QuadNum(half_ab, half, params.disc),
        QuadNum(half_ab, -half, params.disc),
    )


def term_binet(params: BiParams, n: int) -> Mat2:
    """J[n] via powers of the characteristic roots in Q(sqrt(D)).

    The closed form used here is

        J[n] = X / (ab)^h * u(n) + b^e / (ab)^(h+1) * I * u(2h + 2),

    with h = floor(n/2), e = parity(n) and u(k) = (alpha^k - beta^k) /
    (alpha - beta), which is always rational.  The numerator matrix X is
    [[0, 2b/a], [1, -b]] for odd n (that is J[1] - b*J[0]) and
    [[-2, 2b], [a, -2-ab]] for even n (that is a*J[1] - 2*J[0] - ab*J[0]).

    Requires disc != 0 (ab != -8); raises DegenerateDiscriminantError
    otherwise.  The sqrt(D) parts cancel exactly and the result is a
    rational matrix equal to the recurrence value.

    beta is conj(alpha), so alpha^k - beta^k is twice the sqrt(D) component
    of alpha^k times sqrt(D); dividing by alpha - beta = sqrt(D) leaves
    u(k) = twice that component.  No division by a quadratic number is
    needed.

    The powers are taken of the doubling root g = alpha + 2, not of alpha.
    alpha^2 = ab*(alpha + 2), so alpha^n / (ab)^h = alpha^e * g^h, and both
    terms need only powers of g:

        u(n) / (ab)^h = 2 * [sqrt(D) part of alpha^e * g^h],
        u(2h+2) / (ab)^(h+1) = 2 * [sqrt(D) part of g^(h+1)].

    With ab = N/M in lowest terms, M*g = (N+4M + sqrt(N(N+8M)))/2 is an
    algebraic integer, a root of y^2 - (N+4M)*y + 4M^2.  Its powers lie in
    the ring Z[M*g], and each z there is held doubled, as 2z: an
    `exact._DoubledQuadNum` with plain int fields.  The power loop raises
    2*M*g = (N+4M) + sqrt(N(N+8M)) with the halving product (2z)(2w) =
    4zw, shifted right by 1 to 2zw; the shift is exact, because 2zw has
    int fields, so no Fraction and no large gcd enters the loop.  With 2*Y1
    the sqrt(N(N+8M)) part of 2*(M*alpha)^e (M*g)^h, taken with
    2*M*alpha = N + sqrt(N(N+8M)), 2*Y2 that of 2*(M*g)^(h+1), and
    sqrt(N(N+8M)) = M*sqrt(D),

        J[n] = (2 * Y1 * M^(1-e) * X + b^e * 2 * Y2 * I) / M^h,

    and each entry is divided once, by M^h, with `div_power`.  2*(M*g)^h
    is raised once; 2*Y1 and 2*Y2 each take one more product.  At integer
    ab, M = 1 and nothing is divided.
    """
    _check_index(n)
    if params.disc == 0:
        raise DegenerateDiscriminantError(
            "ab = -8 gives a repeated characteristic root; the root-based "
            "closed form is undefined there"
        )
    num, den = params.ab.numerator, params.ab.denominator
    disc = num * (num + 8 * den)
    root = _DoubledQuadNum(num + 4 * den, 1, disc)  # 2*M*g
    h = n // 2
    power = root ** h
    if parity(n):
        numerator = generator_matrix(params) - params.b * Mat2.identity()
        b_e = params.b
        two_y1 = (power * _DoubledQuadNum(num, 1, disc)).coeff  # 2*M*alpha
    else:
        numerator = (
            params.a * generator_matrix(params)
            - (2 + params.ab) * Mat2.identity()
        )
        b_e = 1
        two_y1 = den * power.coeff  # M^(1-e) = M
    total = numerator * two_y1 + (b_e * (power * root).coeff) * Mat2.identity()
    return _div_entries(total.entries(), den, h)
