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
over the formal extension Q(sqrt(D)), D = ab(ab+8).  `term_fast` composes
two steps of the recurrence into one fixed matrix,

    (J[2m+1], J[2m]) = (J[1], J[0]) * T^m,   T = [[ab+2, a], [2b, 2]],

and reads J[n] off a single binary power of T; the characteristic
polynomial of T is x^2 - (ab+4)x + 4, the index-doubling recurrence.

The two log-time routes raise integers, not rationals.  With ab = N/M in
lowest terms, `term_fast` raises the integer matrix [[N+2M, M], [2N, 2M]]
(T conjugated by diag(1, 1/a), times M) and `term_binet` raises the
algebraic integer M*(alpha+2) = (N+4M + sqrt(N(N+8M)))/2.  Every term is
then an integer combination over M^(n//2), a denominator known from n
alone, so no gcd of large numbers is taken inside the power loop, and
each output entry is divided once, at the end, by `exact.div_power`,
which strips only the factors of M and so takes linear time.  The
recurrence and closed routes stay on plain Fraction arithmetic.  The four
routes are mutually independent implementations and cross-check one
another.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .exact import Mat2, QuadNum, div_power, parity
from .scalar import BiParams, SeqKind, _PrefixMemo, _two_step_power, scalar_term


class DegenerateDiscriminantError(ValueError):
    """Raised when ab = -8 makes the characteristic roots coincide.

    The printed closed-form coefficients divide by alpha - beta = sqrt(D),
    so they are undefined there.  Only the root-based route refuses; the
    recurrence, closed-form, and fast routes all still work at ab = -8.
    """


def generator_matrix(params: BiParams) -> Mat2:
    """J[1] = [[b, 2b/a], [1, 0]]."""
    return Mat2(params.b, 2 * params.b / params.a, Fraction(1), Fraction(0))


def iter_terms(params: BiParams) -> Iterator[Mat2]:
    """Yield J[0], J[1], J[2], ... freshly (no cache), by the recurrence."""
    prev = Mat2.identity()
    cur = generator_matrix(params)
    yield prev
    yield cur
    n = 2
    while True:
        mult = params.a if n % 2 == 0 else params.b
        prev, cur = cur, mult * cur + 2 * prev
        yield cur
        n += 1


def _next_term(params: BiParams, terms: list[Mat2]) -> Mat2:
    mult = params.a if len(terms) % 2 == 0 else params.b
    return mult * terms[-1] + 2 * terms[-2]


# Memo per params, separate from the scalar one so the routes stay independent.
_memo = _PrefixMemo(lambda params: [Mat2.identity(), generator_matrix(params)],
                    _next_term)


def clear_caches() -> None:
    _memo.clear()


def term_recurrence(params: BiParams, n: int) -> Mat2:
    """J[n] by the definitional recurrence (memoized per params)."""
    if n < 0:
        raise ValueError("matrix terms are defined for n >= 0")
    return _memo.term(params, n)


def term_closed(params: BiParams, n: int) -> Mat2:
    """J[n] assembled from scalar terms (n = 0 consumes jhat[-1] = 1/2)."""
    if n < 0:
        raise ValueError("matrix terms are defined for n >= 0")
    jhat = SeqKind.BP_JACOBSTHAL
    jm1, jn, jp1 = (scalar_term(jhat, params, i) for i in (n - 1, n, n + 1))
    ratio = params.b / params.a
    rpow = ratio if parity(n) else Fraction(1)
    return Mat2(rpow * jp1, 2 * ratio * jn, jn, 2 * rpow * jm1)


def term_fast(params: BiParams, n: int) -> Mat2:
    """J[n] in O(log n) integer ring operations and one division per entry.

    With ab = N/M in lowest terms and m = n // 2, conjugating the two-step
    map T = [[ab+2, a], [2b, 2]] by diag(1, 1/a) gives [[ab+2, 1], [2ab, 2]],
    which is K/M with the integer matrix K = [[N+2M, M], [2N, 2M]].  So
    T^m = diag(1, 1/a) K^m diag(1, a) / M^m, and with P = K^m

        J[n] = (P11 * J[1] + (P21/a) * I) / M^m        (n odd)
        J[n] = (a * P12 * J[1] + P22 * I) / M^m        (n even).

    The power runs on plain ints.  Each entry is divided once, by M^m,
    with `div_power`, which cancels only factors of M and so takes time
    linear in the entry's size.
    """
    if n < 0:
        raise ValueError("matrix terms are defined for n >= 0")
    p, den, m = _two_step_power(params, 2, n)
    if parity(n):
        gen, diag = p.e11 * generator_matrix(params), p.e21 / params.a
    else:
        gen, diag = p.e12 * (params.a * generator_matrix(params)), p.e22
    return _div_entries((gen.e11 + diag, gen.e12, gen.e21, gen.e22 + diag), den, m)


def _div_entries(entries, base: int, k: int) -> Mat2:
    """The matrix of the given entries, each divided by base**k."""
    return Mat2(*(div_power(e, base, k) for e in entries))


def det_closed(params: BiParams, n: int) -> Fraction:
    """det J[n] = 2^n * (-b/a)^parity(n), exactly."""
    if n < 0:
        raise ValueError("matrix terms are defined for n >= 0")
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
    algebraic integer, a root of y^2 - (N+4M)*y + 4M^2, so the parts of
    its powers have denominator at most 2 and no large gcd is taken inside
    the power loop.  With Y1 the sqrt(N(N+8M)) part of (M*alpha)^e (M*g)^h
    and Y2 that of (M*g)^(h+1), and sqrt(N(N+8M)) = M*sqrt(D),

        J[n] = (2 * Y1 * M^(1-e) * X + b^e * 2 * Y2 * I) / M^h,

    and each entry is divided once, by M^h, with `div_power`.  (M*g)^h is
    raised once; Y1 and Y2 each take one more product.  At integer ab,
    M = 1 and nothing is divided.
    """
    if n < 0:
        raise ValueError("matrix terms are defined for n >= 0")
    if params.disc == 0:
        raise DegenerateDiscriminantError(
            "ab = -8 gives a repeated characteristic root; the root-based "
            "closed form is undefined there"
        )
    num, den = params.ab.numerator, params.ab.denominator
    root = QuadNum(Fraction(num + 4 * den, 2), Fraction(1, 2), num * (num + 8 * den))
    h = n // 2
    power = root ** h
    if parity(n):
        numerator = generator_matrix(params) - params.b * Mat2.identity()
        b_e = params.b
        y1 = (power * (root - 2 * den)).coeff  # root - 2M = M*alpha
    else:
        numerator = (
            params.a * generator_matrix(params)
            - (2 + params.ab) * Mat2.identity()
        )
        b_e = 1
        y1 = den * power.coeff  # M^(1-e) = M
    total = numerator * (2 * y1) + (b_e * 2 * (power * root).coeff) * Mat2.identity()
    return _div_entries(total.entries(), den, h)
