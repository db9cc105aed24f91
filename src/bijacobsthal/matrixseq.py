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
J[n] off one power of the two-step map, whose characteristic polynomial
x^2 - (ab+4)x + 4 is the index-doubling recurrence: J is the jhat
recurrence started at J[0] = I and J[1], so it runs the same
`scalar._two_step` as `scalar_term_fast`.  J[2m] and J[2m+1] read the
same power K^m (`term_binet` the same power of its doubled root), so
both routes step their last power on the point (`scalar._stepped_power`).

Every integer or log-time computation here reads J[n] through its
coordinates in the basis {J[1], I}: J is the jhat recurrence started at
J[0] = I and J[1], so J[n] = u[n]*J[1] + v[n]*I, where u and v follow the
same rule from (0, 1) and (1, 0).  That is stated once, as two pieces:

* the walk, `_cleared_walk`: a generator of the cleared pairs
  (U[k], V[k]) = w[k]*(u[k], v[k]), stepped by the integer rule of
  `SeqKind._integer_rule`, w its weights.  `_Cleared`, which clears by
  F = c * lcm(w[bound-1], w[bound]), and the `bench` naive route
  `term_naive` read it;
* the fold, `_fold`: the entries of u*(c*J[1]) + v*(c*I), with the
  products by J[1]'s entries 1 and 0 not taken, on J[1]'s cleared row
  (c, c*b, c*2b/a), which a `BiParams` keeps as ints
  (`BiParams.j1_cleared`), so J[1] is cleared in one place.  `_Cleared`
  calls it, and so does `_over_power`, the one finish of `term_fast`,
  `term_binet` and the log-time partial sum `_weighted_sum`.

The two log-time routes raise integers, not rationals: `term_fast` an
integer two-step matrix K, in the ring Z[K] as s*K + t*I (see
`exact._MatrixPoly`), and, with ab = N/M in lowest terms, `term_binet`
the algebraic integer M*(alpha+2) = (N+4M + sqrt(N(N+8M)))/2, held
doubled so that both of its fields are plain ints (each product is
halved exactly, see `exact._DoubledQuadNum`).  Both bases have a norm
with an integer root, det K = (cM)^2 for the lag c and 4M^2 for
M*(alpha+2), and each power carries that root to its own power, so a
square takes two big squares and the root's square, with no general
product of two big operands.  Each reduces its power to one
(u, v) over M^(n//2), a denominator known from n alone, so no Fraction
and no gcd of large numbers enters the power loop.  Both end in
`_over_power`: u and v over one denominator d, the fold on J[1]'s
cleared row, each entry divided once, by c*d*M^(n//2), with
`exact._divide`, which strips only the factors of c*d and of M (raised
once for the four entries) and so takes linear time.  At an integer pair
no `Fraction` operation runs from the power to the division.  The
recurrence memo and the closed route never touch the walk, the fold, the
cleared row, K or the doubled roots: they read the point's memoized
series (`BiParams.series`), which step the rational recurrence on plain
ints by `SeqKind._integer_rule`, one int lane per entry of J (the step scales
and adds entry by entry), and on a term's first read divide each of its
entries once, back to the `Fraction`s that rational arithmetic gives,
and build its one `Mat2`.  So a bad fold still shows as a route
disagreement.  `_weighted_sum`, behind
the public direct sums of `verifier`, raises the same integer two-step
matrix bordered by an accumulator column, and ends in `_over_power` too.

No route here states the step rule.  J is the jhat recurrence, so the
recurrence memo, `iter_terms` and the walk step with `scalar._steps` on
the (even, odd, lag) that `SeqKind.BP_JACOBSTHAL.rule` reads off the kind
table in `scalar` (the memo and the walk on the integer rule that
`SeqKind._integer_rule` derives from it, the one place the sequence is
cleared to ints), and `term_fast` (through `scalar._two_step`) and
`_weighted_sum` raise the one integer two-step matrix, which
`SeqKind._two_step_matrix` builds from the same rule.  The four routes
are separate computations and cross-check one another.

`_term_source` is the one way the verifier's sum forms and
`genfunc.build_ogf` read terms: `term_fast` at a `BiParams`, so the
`sum` subcommand's closed forms read J[n] and J[n-1] in O(log n) and
fill no series; the integer terms F*J[k] of a `_Cleared` point; or the
recurrence at a point over any other ring, which `term_fast` cannot
clear.  It lives here because `genfunc` cannot import from `verifier`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Callable, Iterator

from .exact import Mat2, QuadNum, _Bordered, _divide, _plain, parity
from .scalar import (BiParams, SeqKind, _memo_term, _steps, _stepped_power, _two_step,
                     scalar_term)


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
    """Yield prev, cur and every later term of `rule`'s recurrence, by
    `scalar._steps`, each stepped only when it is read."""
    yield prev
    yield cur
    yield from _steps(rule, 2, prev, cur)


def _cleared_walk(params: BiParams) -> tuple[Iterator[tuple[int, int]],
                                              Callable[[int], int]]:
    """(walk, w): the cleared pairs (U[k], V[k]) = w[k]*(u[k], v[k]) for
    k = 0, 1, 2, ..., with J[k] = u[k]*J[1] + v[k]*I, and their weights.

    `SeqKind._integer_rule` gives the rule on plain ints that w[k]*t[k]
    follows for any t on the jhat rule, with the weights
    w[k] = (w0, w1)[k & 1] * M^(k//2).  So U and V, started at (0, w1)
    and (w0, 0), stay on integers.  Each is stepped by `_walk` only as far
    as it is read.  `w` maps k to w[k].
    """
    rule, (w0, w1), den = SeqKind.BP_JACOBSTHAL._integer_rule(params)
    w = lambda k: (w0, w1)[k & 1] * den ** (k // 2)
    return zip(_walk(rule, 0, w1), _walk(rule, w0, 0)), w


def _fold(cleared: tuple, u, v) -> tuple:
    """The entries of u*(c*J[1]) + v*(c*I), with `cleared` = (c, row0, row1)
    and (row0, row1) the first row of c*J[1] (`BiParams.j1_cleared`).
    J[1]'s second row is (1, 0), so that is

        [[row0*u + c*v, row1*u], [c*u, c*v]],

    and the products by J[1]'s entries 1 and 0 are not taken.
    """
    c, row0, row1 = cleared
    return row0 * u + c * v, row1 * u, c * u, c * v


def _over_power(params: BiParams, u, v, den: int, m: int) -> Mat2:
    """(u*J[1] + v*I) / den^m for rationals u and v, the one finish of the
    log-time routes and of the log-time partial sum, on ints.  With
    d = lcm of u's and v's denominators, it folds the ints d*u and d*v
    with J[1]'s cleared row (c, c*b, c*2b/a) and divides each entry once,
    with `exact._divide`, by c*d times den^m, raised once for all four."""
    du, dv, power = u.denominator, v.denominator, den ** m
    d = lcm(du, dv)
    u, v = u.numerator * (d // du), v.numerator * (d // dv)
    cleared = params.j1_cleared
    whole = cleared[0] * d
    return Mat2(*[_divide(e, whole, den, power, m) for e in _fold(cleared, u, v)])


def _weighted_sum(params: BiParams, x: Fraction, n: int) -> Mat2:
    """S[n] = sum_{k<n} J[k]/x^k for n >= 1 and x != 0, in O(log n)
    integer ring operations and one division per entry.

    The doubling of `term_fast` carries an accumulator (Fiduccia, SIAM J.
    Comput. 14, 1985).  With w = 1/x, e the jhat rule's even multiplier
    and K the jhat kind's `_two_step_matrix`, the row
    (w^(2m) J[2m+1], w^(2m) J[2m]/e, S[2m]) steps to m + 1 by
    [[w^2 K/M, (w, e)], [0, 1]], since S[2m+2] = S[2m] + w^(2m) J[2m] +
    w^(2m+1) J[2m+1].  With x = p/q and e = en/ed in lowest terms and
    D = p^2 M, that map times D, with its third coordinate scaled by ed,
    is the `exact._Bordered`

        [[q^2 K, (pqM*ed, D*en)], [0, D]]

    on plain ints.  From the row (J[1], I/e, 0), its m-th power
    (m = n // 2), with column (c0, c1) and block P, gives
    ed*D^m*S[2m] = c0*J[1] + c1*I/e in the third place, and at odd n
    S[2m+1] adds w^(2m) J[2m] = (e*P12*J[1] + P22*I)/D^m, `_two_step`'s
    even read-out.  So

        S[n] = ((c0 + [n odd]*en*P12)/ed * J[1]
                + (c1 + [n odd]*en*P22)/en * I) / D^m,

    which `_over_power` finishes as it finishes `term_fast`.
    """
    jhat, m = SeqKind.BP_JACOBSTHAL, n // 2
    even, den = jhat.rule(params)[0], params.ab.denominator
    p, q, en, ed = x.numerator, x.denominator, even.numerator, even.denominator
    corner = p * p * den
    block = jhat._two_step_matrix(params).scale(q * q)
    power = _Bordered(block, (p * q * den * ed, corner * en), corner) ** m
    u, v = power.column
    if n & 1:
        u, v = u + en * power.block.e12, v + en * power.block.e22
    return _over_power(params, Fraction(u, ed), Fraction(v, en), corner, m)


# J's key in a point's `series`.  J steps by the jhat rule, but a string
# equals no `SeqKind`, so the matrix series never meets the scalar jhat one.
_J = "J"


def _matrix_start(params: BiParams) -> tuple[Mat2, Mat2]:
    return Mat2.identity(), generator_matrix(params)


def term_recurrence(params: BiParams, n: int) -> Mat2:
    """J[n] by the definitional recurrence (memoized on the point)."""
    _check_index(n)
    return _memo_term(params, _J, SeqKind.BP_JACOBSTHAL, _matrix_start, n)


class _Cleared:
    """A parameter point whose terms are cleared of denominators.

    `term(k)` is F*J[k] with plain int entries, for 0 <= k <= bound, where
    bound = max(n_max, 1) because every formula reads J[0] and J[1], and
    F = c * lcm(w[bound-1], w[bound]), w the weights of
    `SeqKind._integer_rule`, one factor for every formula that reads the
    terms:

    * c clears the denominators of J[1] (at integer (a, b) it divides a),
      so c*J[0] = c*I and c*J[1] are integral; it is the first field of
      `BiParams.j1_cleared`, the row `_over_power` folds with too;
    * w[k]*c*J[k] is the fold of the cleared pair (U[k], V[k]) of
      `_cleared_walk` with c*J[1].  w[k] = (w0, w1)[k & 1] * M^(k//2)
      divides w[bound-1] or w[bound], the last weight of its parity, so
      each term is rescaled by lcm(w[bound-1], w[bound]) // w[k] (1 at
      every k when (a, b) is an integer pair).  Past the bound w[k] need
      not divide that lcm, so `term` refuses any k outside 0..bound.

    The formulas are linear in the terms, so fed F*J[k] they give F times
    their value for any nonzero F.  On a PASS at an integer pair that is
    the direct side's plain int matrix; a form that fails there may divide
    to a Fraction, which compares the same.

    Terms are stepped only as far as they are read.  `a`, `b` and `ab` are
    the point's own values through `exact._plain`, so the sum forms and
    `genfunc.build_ogf` read them as they read a `BiParams`.
    """

    def __init__(self, params: BiParams, n_max: int) -> None:
        walk, w = _cleared_walk(params)
        cleared = params.j1_cleared
        self.bound = max(n_max, 1)
        top = lcm(w(self.bound - 1), w(self.bound))
        self.factor = cleared[0] * top
        self.a, self.b, self.ab = _plain(params.a), _plain(params.b), _plain(params.ab)
        self._terms: list[Mat2] = []
        self._more = (Mat2(*_fold(cleared, u, v)).scale(top // w(k))
                      for k, (u, v) in enumerate(walk))

    def term(self, k: int) -> Mat2:
        if not 0 <= k <= self.bound:
            raise ValueError(f"cleared terms are defined for 0 <= k <= {self.bound}")
        while len(self._terms) <= k:
            self._terms.append(next(self._more))
        return self._terms[k]


def _term_source(params) -> Callable[[int], Mat2]:
    """J[k] as a function of k, the one way the sum forms and the
    generating function read terms: a cleared point's own F*J[k],
    `term_fast` at a `BiParams`, so a closed form reads J[n] in O(log n)
    and fills no series, or the recurrence at any other point (a point over
    a symbolic ring, which `term_fast` cannot clear)."""
    if isinstance(params, _Cleared):
        return params.term
    if isinstance(params, BiParams):
        return lambda k: term_fast(params, k)
    return lambda k: term_recurrence(params, k)


def term_closed(params: BiParams, n: int) -> Mat2:
    """J[n] assembled from scalar terms (n = 0 consumes jhat[-1] = 1/2).

    b/a and 2b/a are read off a `BiParams` (its `ratio` and J[1]'s corner)
    and computed at a point over any other ring, which keeps only a, b
    and ab.
    """
    _check_index(n)
    jhat = SeqKind.BP_JACOBSTHAL
    jm1, jn, jp1 = (scalar_term(jhat, params, i) for i in (n - 1, n, n + 1))
    if isinstance(params, BiParams):
        ratio, twice = params.ratio, params.j1_row[1]
    else:
        ratio = params.b / params.a
        twice = 2 * ratio
    if parity(n):
        return Mat2(ratio * jp1, twice * jn, jn, twice * jm1)
    return Mat2(jp1, twice * jn, jn, 2 * jm1)


def term_fast(params: BiParams, n: int) -> Mat2:
    """J[n] in O(log n) integer ring operations and one division per entry.

    J is the jhat recurrence started at J[0] = I and J[1], so
    `scalar._two_step` gives J[n] = (u*J[1] + v*I) / M^m, and
    `_over_power` finishes it.
    """
    _check_index(n)
    return _over_power(params, *_two_step(SeqKind.BP_JACOBSTHAL, params, n))


def term_naive(params: BiParams, n: int) -> Mat2:
    """J[n] by the definitional recurrence, freshly: `bench`'s naive route.

    The cleared walk is read at n, and J[n] is assembled as
    (U*J[1] + V*I) / w[n], w the weights of `SeqKind._integer_rule`, with
    `Mat2` ops, not with the fold, so `bench`'s self-test compares two
    different assemblies.  No memo is read.  An index below 0 is refused
    as every matrix route refuses it.
    """
    _check_index(n)
    walk, w = _cleared_walk(params)
    u, v = next(islice(walk, n, None))
    return (u * generator_matrix(params) + v * Mat2.identity()) / w(n)


def det_closed(params: BiParams, n: int) -> Fraction:
    """det J[n] = 2^n * (-b/a)^parity(n), exactly.  At odd n that is
    -2^(n-1) * 2b/a, built at a `BiParams` from J[1]'s corner 2b/a as one
    `Fraction`, with no `Fraction` arithmetic."""
    _check_index(n)
    if not parity(n):
        return Fraction(1 << n)
    if not isinstance(params, BiParams):  # a point over another ring
        return -(1 << n) * params.b / params.a
    p, q = params.j1_row[1].as_integer_ratio()
    return Fraction(-(p << (n - 1)), q)


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
    [[-2, 2b], [a, -2-ab]] for even n (that is a*J[1] - (2 + ab)*J[0]).

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
    int fields, so no Fraction and no large gcd enters the loop.  M*g has
    norm 4M^2, so 2*M*g carries the root 2M, and each square reads the
    rational field's square off the power's root (2M)^k: two big squares
    and the root's square.  With 2*Y1
    the sqrt(N(N+8M)) part of 2*(M*alpha)^e (M*g)^h, taken with
    2*M*alpha = N + sqrt(N(N+8M)), 2*Y2 that of 2*(M*g)^(h+1), and
    sqrt(N(N+8M)) = M*sqrt(D),

        J[n] = (2 * Y1 * M^(1-e) * X + b^e * 2 * Y2 * I) / M^h.

    No matrix is built for X or I: each parity reduces to one (u, v) with
    J[n] = (u*J[1] + v*I) / M^h, and M*ab = N,

        n odd:   u = 2Y1,         v = b*(2Y2 - 2Y1),
        n even:  u = aM*2Y1,      v = 2Y2 - (2M+N)*2Y1,

    where the even index's 2*Y1 is the sqrt(N(N+8M)) part of 2*(M*g)^h
    itself.  `_over_power` finishes J[n] from (u, v) and M^h, as it does
    for `term_fast`.  2*(M*g)^h = X + Y*sqrt(N(N+8M)) is taken once, by
    `scalar._stepped_power`, from the point's last power of 2*M*g.
    The other factor of 2*Y2 and of the odd index's 2*Y1 is a doubled
    root c + sqrt(N(N+8M)), c = N+4M or N, and the halving product's
    sqrt part is (X + c*Y)/2, so each is that, in linear time, with no
    product built: 2*M*alpha, whose norm -8NM is not a square, is never
    raised.  N, M, the doubled root 2*M*g, b and aM are the point's
    constants, computed once (`BiParams.binet_constants`).  At integer
    (a, b), M = 1, every factor is a plain int, and no `Fraction`
    operation runs.
    """
    _check_index(n)
    num, den, root, b, a_den = params.binet_constants
    if not root.disc:
        raise DegenerateDiscriminantError(
            "ab = -8 gives a repeated characteristic root; the root-based "
            "closed form is undefined there"
        )
    h = n // 2
    power = _stepped_power(params, root, h)
    x, y = power.rat, power.coeff
    two_y2 = (x + root.rat * y) >> 1
    if parity(n):
        two_y1 = (x + num * y) >> 1
        u, v = two_y1, b * (two_y2 - two_y1)
    else:
        two_y1 = y
        u, v = a_den * two_y1, two_y2 - (2 * den + num) * two_y1
    return _over_power(params, u, v, den, h)
