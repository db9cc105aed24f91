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
Fraction and no gcd of large numbers enters the power loop.  Each
output entry is assembled directly from the power's int parts, as a
small rational times one or two of them, with no matrix of Fractions
built on the way, and divided once, at the end, by `exact.div_power`,
which strips only the factors of M and so takes linear time.  The
closed route stays on plain Fraction arithmetic.

No route here states the step rule.  J is the jhat recurrence, so the
recurrence memo and `iter_terms` step with `scalar._step` on the
(even, odd, lag) that `SeqKind.BP_JACOBSTHAL.rule` reads off the kind
table in `scalar`, and `term_fast` raises the two-step matrix that
`scalar._two_step` builds from the same rule.  The four routes are
separate computations and cross-check one another.

`_term_source` is the one way the verifier's sum forms and
`genfunc.build_ogf` read terms: the recurrence at a `BiParams`, or the
integer terms F*J[k] of a `_Cleared` point, which steps `_cleared_rule`.
It lives here because `genfunc` cannot import from `verifier`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import lcm
from typing import Callable, Iterator

from .exact import Mat2, QuadNum, _DoubledQuadNum, _plain, div_power, parity
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


class _Cleared:
    """A parameter point whose terms are cleared of denominators.

    `term(k)` is F*J[k] with plain int entries, for 0 <= k <= n_max, and
    F = c * m * d[n_max]:

    * c clears the denominators of J[1] (at integer (a, b) it divides a),
      so c*J[0] = c*I and c*J[1] are integral;
    * m is the numerator of `den`, the denominator of the formula that
      reads the terms (1 when it has none), so that at integer (a, b) and
      x a sum form's quotient is integral too;
    * d[k] is `_cleared_rule`'s running denominator, so d[k]*c*m*J[k]
      follows the integer rule from c*m*I and d[1]*c*m*J[1]; d[k] divides
      d[n_max], and each term is rescaled by their quotient when that
      is not 1 (it is 1 at every k when (a, b) is an integer pair).

    Terms are stepped only as far as they are read.  `a`, `b` and `ab` are
    the point's own values through `exact._plain`, so the sum forms and
    `genfunc.build_ogf` read them as they read a `BiParams`.
    """

    def __init__(self, params: BiParams, den: Fraction | int,
                 n_max: int) -> None:
        rule, d = _cleared_rule(params)
        j1 = generator_matrix(params).entries()
        scale = lcm(*(e.denominator for e in j1)) * den.numerator
        top = d(n_max)
        self.params, self.factor = params, scale * top
        self.a, self.b, self.ab = _plain(params.a), _plain(params.b), _plain(params.ab)
        lift = scale * d(1)  # a multiple of every denominator in J[1]
        start = (Mat2(scale, 0, 0, scale),
                 Mat2(*(e.numerator * (lift // e.denominator) for e in j1)))
        self._terms: list[Mat2] = []
        self._more = (t if d(k) == top else t * (top // d(k))
                      for k, t in enumerate(_walk(rule, *start)))

    def term(self, k: int) -> Mat2:
        while len(self._terms) <= k:
            self._terms.append(next(self._more))
        return self._terms[k]


def _term_source(params) -> Callable[[int], Mat2]:
    """J[k] as a function of k, the one way the sum forms and the
    generating function read terms: a cleared point's own F*J[k], or the
    recurrence at any other point."""
    if isinstance(params, _Cleared):
        return params.term
    return lambda k: term_recurrence(params, k)


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
    `scalar._two_step`, J[n] = (u*J[1] + v*I) / M^m.  With J[1]'s entries
    as `generator_matrix` states them, [[b, 2b/a], [1, 0]], that folds to

        J[n] = [[b*u + v, (2b/a)*u], [u, v]] / M^m,

    so the products by J[1]'s entries 1 and 0 are not taken.  Each entry
    is divided once, by M^m, with `div_power`.
    """
    _check_index(n)
    u, v, den, m = _two_step(SeqKind.BP_JACOBSTHAL, params, n)
    b = _plain(params.b)
    entries = (b * u + v, _plain(2 * b / params.a) * u, u, v)
    return _div_entries(entries, den, m)


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

        J[n] = (2 * Y1 * M^(1-e) * X + b^e * 2 * Y2 * I) / M^h.

    No matrix is built for X or I: with J[1]'s entries as
    `generator_matrix` states them, [[b, 2b/a], [1, 0]], and M*ab = N, each
    entry folds to a small rational times 2*Y1 plus one times 2*Y2,

        n odd:   [[b*2Y2, (2b/a)*2Y1], [2Y1, b*(2Y2 - 2Y1)]] / M^h,
        n even:  [[2Y2 - 2M*2Y1, 2bM*2Y1], [aM*2Y1, 2Y2 - (2M+N)*2Y1]] / M^h,

    where the even index's 2*Y1 is the sqrt(N(N+8M)) part of 2*(M*g)^h
    itself.  Each entry is divided once, by M^h, with `div_power`.
    2*(M*g)^h is raised once; 2*Y1 and 2*Y2 each take at most one more
    product.  At integer (a, b), M = 1, every factor is a plain int and
    nothing is divided.
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
    two_y2 = (power * root).coeff
    b = _plain(params.b)
    if parity(n):
        two_y1 = (power * _DoubledQuadNum(num, 1, disc)).coeff  # 2*M*alpha
        entries = (b * two_y2, _plain(2 * b / params.a) * two_y1,
                   two_y1, b * (two_y2 - two_y1))
    else:
        two_y1 = power.coeff
        entries = (two_y2 - 2 * den * two_y1, _plain(2 * b * den) * two_y1,
                   _plain(params.a * den) * two_y1,
                   two_y2 - (2 * den + num) * two_y1)
    return _div_entries(entries, den, h)
