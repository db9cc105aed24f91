"""Scalar bi-periodic sequences.

A bi-periodic sequence is a second-order linear recurrence whose multiplier
alternates between two nonzero constants a and b with the parity of the
index:

    t[n] = even * t[n-1] + lag * t[n-2]   (n even)
    t[n] = odd  * t[n-1] + lag * t[n-2]   (n odd)

Four kinds are provided.  Which of a/b applies at even indices is a
classic foot-gun, so each kind's rule is stated once, in the member table
of `SeqKind`: the parameter on the even step (the other one takes the odd
step), the lag coefficient, and the start terms t0 and t1.  The table is
unit-tested.  `SeqKind.rule` turns it into (even, odd, lag) once per
series, and `_step` is the one forward step: both prefix memos (scalar
terms here, matrix terms in `matrixseq`) and `matrixseq._walk` call it;
the walk is behind `iter_terms` and `matrixseq._cleared_walk`, which the
verifier's cleared terms and `bench`'s naive route read.
`_two_step` raises the integer two-step matrix that
`SeqKind._two_step_matrix` builds from the same (even, odd, lag), in the
ring it spans with I.

At a `BiParams` point the prefix memos and `matrixseq._cleared_walk`
step on plain ints: `SeqKind._integer_rule`, derived from the same
(even, odd, lag), is the rule that each term times a weight follows, the
one place a sequence is cleared to ints.  Scaling and adding act
entry by entry, so each entry of a matrix term follows that rule by
itself: a memo steps one int lane per entry (one for a scalar series,
four for a `Mat2` one) and builds no `Mat2` per step.  It keeps the
integers undivided until the term is first read, and then divides each
entry once by its weight, in linear time (`exact._divide`).  So a memo
read returns the same `Fraction` the rational recurrence gives, without
a `Fraction` operation, and its gcd, per step, and a term that is
stepped past but never read is never divided.

A pair's derived state (ab, the two-step bases, the Binet constants,
J[1]'s cleared row and the kept log-time powers) lives on its `BiParams`.
The table of points, `point`, hands out one `BiParams` per pair, by
value, so every CLI call and `verify` grid point at an equal pair reads
the state that earlier ones built; the log-time routes compute on
whatever point they are handed, and the prefix memos stay keyed by
`(kind, params)`, by value.

Setting a = b = 1 specializes BP_JACOBSTHAL to the classical Jacobsthal
numbers 0, 1, 1, 3, 5, 11, 21, 43, 85, ... and BP_JACOBSTHAL_LUCAS to the
classical Jacobsthal-Lucas numbers 2, 1, 5, 7, 17, 31, ...

The only negative index supported is n = -1 for BP_JACOBSTHAL, whose
backward extension jhat(-1) = 1/2 is forced by the recurrence at n = 1 and
is needed by the matrix closed form at n = 0.  No other negative-index
extension is defined here.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .exact import Mat2, _DoubledQuadNum, _MatrixPoly, _divide, _plain, as_rational, div_power
from .report import IdentityReport, LUCAS_RELATIONS, first_mismatch


@dataclass(frozen=True)
class BiParams:
    """Validated parameter pair (a, b), both nonzero exact rationals.

    `ab`, `ratio` = b/a, `disc` = ab*(ab+8), `j1_row`, `j1_cleared`,
    `two_step_bases` and `binet_constants` are derived; disc is the
    discriminant of the characteristic equation x^2 - ab*x - 2ab = 0
    shared by the Jacobsthal-kind sequences.  A pair is a memo key on
    every term read, so its hash is computed once, when it is made, and
    each derived value once, when first read.  The hash reads the doubled
    numerators and the denominators: CPython hashes -1 as it hashes -2,
    so hashing a and b themselves put (-1, b) and (-2, b) in one bucket,
    and a doubled numerator is even, never -1.

    Equal pairs compare equal and hash alike, but each object builds its
    derived values for itself.  `point` hands out one object per pair
    (the CLI's and the grid's), so those are built once per pair while it
    stays in the table; a `BiParams` made directly starts with none.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        if self.a == 0 or self.b == 0:
            raise ValueError("bi-periodic parameters a and b must both be nonzero")
        a, b = self.a, self.b
        object.__setattr__(self, "_hash", hash(
            (2 * a.numerator, a.denominator, 2 * b.numerator, b.denominator)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def ab(self) -> Fraction:
        return self.a * self.b

    @cached_property
    def disc(self) -> Fraction:
        return self.ab * (self.ab + 8)

    @cached_property
    def ratio(self) -> Fraction:
        return self.b / self.a

    @cached_property
    def j1_row(self) -> tuple[Fraction | int, Fraction | int]:
        """(b, 2b/a), each through `exact._plain`: the first row of the
        matrix sequence's J[1], whose other row is (1, 0)."""
        return _plain(self.b), _plain(2 * self.b / self.a)

    @cached_property
    def j1_cleared(self) -> tuple[int, int, int]:
        """(c, c*b, c*2b/a) as ints, with c the lcm of the denominators of
        `j1_row`: c, then c times J[1]'s first row.  J[1] is cleared here
        only; `matrixseq._fold` reads it."""
        (b, corner), c = self.j1_row, lcm(*(e.denominator for e in self.j1_row))
        return c, b.numerator * (c // b.denominator), corner.numerator * (c // corner.denominator)

    @cached_property
    def two_step_bases(self) -> dict:
        """kind -> `SeqKind._two_step_base` at this point: `_two_step`
        builds a kind's entry on its first call with that kind, and reads
        it on every later one."""
        return {}

    @cached_property
    def last_powers(self) -> dict:
        """base -> (k, base**k): the last power that `_stepped_power` took
        of each of this point's log-time bases (a `two_step_bases` base,
        or the doubled root of `binet_constants`), with its exponent."""
        return {}

    @cached_property
    def binet_constants(self) -> tuple:
        """(N, M, 2*M*g, b, a*M), the constants that `matrixseq.term_binet`
        reads on every call: ab = N/M in lowest terms, the doubled root
        2*M*g = (N+4M) + sqrt(N(N+8M)), an `exact._DoubledQuadNum`, and b
        and a*M through `exact._plain`.  M*g has norm 4M^2, so 2*M*g
        carries the root 2M, checked here once, which its powers square
        with."""
        num, den = self.ab.numerator, self.ab.denominator
        disc = num * (num + 8 * den)
        return (num, den, _DoubledQuadNum.with_root(num + 4 * den, 1, disc, 2 * den),
                _plain(self.b), _plain(self.a * den))


class SeqKind(enum.Enum):
    """A sequence kind and its step rule, one row per member: the value,
    the parameter on the even step (the other one takes the odd step), the
    lag coefficient, and the start terms t0 and t1 ("a" is the parameter)."""

    BP_JACOBSTHAL = "jhat", "a", 2, 0, 1
    BP_JACOBSTHAL_LUCAS = "jlucas", "b", 2, 2, "a"
    BP_FIBONACCI = "fibonacci", "a", 1, 0, 1
    BP_LUCAS = "lucas", "b", 1, 2, "a"

    # A kind is a memo key on every term read; Enum hashes by name, in Python.
    __hash__ = object.__hash__

    def __new__(cls, value: str, even: str, lag: int, t0: int, t1):
        kind = object.__new__(cls)
        kind._value_ = value
        kind._even, kind._lag, kind._start = even, lag, (t0, t1)
        return kind

    def rule(self, params: BiParams) -> tuple[Fraction, Fraction, int]:
        """(even, odd, lag): the multipliers at even and odd indices and the
        coefficient of t[n-2], the form `_step` reads."""
        a, b = params.a, params.b
        return (a, b, self._lag) if self._even == "a" else (b, a, self._lag)

    def initial_terms(self, params: BiParams) -> tuple[Fraction, Fraction]:
        t0, t1 = self._start
        return Fraction(t0), params.a if t1 == "a" else Fraction(t1)

    def _two_step_matrix(self, params: BiParams) -> Mat2:
        """K = [[N + cM, M], [cN, cM]], the integer two-step matrix, with c
        the lag coefficient and eo = ab = N/M in lowest terms (e and o the
        multipliers at even and odd indices).  Its determinant is (cM)^2,
        so it has the integer root cM that `_two_step` raises it with.

        Two steps compose into one matrix: (t[2m+1], t[2m]) steps to m + 1
        by T = [[eo + c, e], [co, c]], acting on the right of the row.
        Conjugating T by diag(1, 1/e) gives [[ab + c, 1], [c*ab, c]], which
        is K/M, so the row (t[2m+1], t[2m]/e) steps by K/M.  This is the one
        place K is built: `_two_step` raises it for every log-time term
        route, and `matrixseq._weighted_sum` borders it for the partial
        sums.
        """
        num, den, c = params.ab.numerator, params.ab.denominator, self._lag
        return Mat2(num + c * den, den, c * num, c * den)

    def _two_step_base(self, params: BiParams) -> tuple:
        """(K, base, even, e): the two-step matrix K, the base that raises
        it in Z[K] (`exact._MatrixPoly.generator`, which checks K's root
        cM against det K, c the lag coefficient, and computes the square's
        constants), and the even multiplier, as it is and through
        `exact._plain`.  `_two_step` reads it, built once per point."""
        k, even = self._two_step_matrix(params), self.rule(params)[0]
        base = _MatrixPoly.generator(k.e11 + k.e22, k.det(), self._lag * params.ab.denominator)
        return k, base, even, _plain(even)

    def _integer_rule(self, params: BiParams) -> tuple[tuple[int, int, int],
                                                       tuple[int, int], int]:
        """(rule, (w0, w1), M): a rule on plain ints that w[k]*t[k] follows,
        with w[2j] = w0*M^j and w[2j+1] = w1*M^j.

        Write the even and odd multipliers in lowest terms as pe/qe and
        po/qo, and let g_e = gcd(pe, qo) and g_o = gcd(po, qe).  Then
        M = qe*qo/(g_e*g_o) is the denominator of ab, and with w0 = g_o and
        w1 = qo,

            w[2j]*t[2j]     = (pe/g_e)*w[2j-1]*t[2j-1] + lag*M*w[2j-2]*t[2j-2]
            w[2j+1]*t[2j+1] = (po/g_o)*w[2j]*t[2j]     + lag*M*w[2j-1]*t[2j-1],

        so the rule is (pe/g_e, po/g_o, lag*M), which `_step` reads as it
        reads `rule`.  The weights grow by M every two steps, not by the
        qe*qo that clearing each multiplier's own denominator would take.
        It has two readers: the prefix memo's `_Series`, and
        `matrixseq._cleared_walk`, behind the verifier's cleared terms
        (F = c * lcm(w[bound-1], w[bound])) and `bench`'s naive route.
        The log-time routes do not read it, so a wrong rule here still
        shows as a route disagreement.
        """
        even, odd, lag = self.rule(params)
        g_even = gcd(even.numerator, odd.denominator)
        g_odd = gcd(odd.numerator, even.denominator)
        den = params.ab.denominator
        rule = even.numerator // g_even, odd.numerator // g_odd, lag * den
        return rule, (g_odd, odd.denominator), den


def _step(rule: tuple, n: int, prev, cur):
    """t[n] from t[n-2] = prev and t[n-1] = cur (scalars or `Mat2`s), by a
    `SeqKind.rule`; the one place a multiplier is chosen by parity."""
    return rule[n & 1] * cur + rule[2] * prev


class _Series:
    """One memoized series: one lane per entry of its terms, and a read
    cache.

    A scalar series has one lane and a `Mat2` series four, one per entry:
    scaling and adding act entry by entry, so each entry follows the
    scalar rule by itself.  The lanes are stepped with `_step` on
    entries, index by index, and no `Mat2` is built per step.
    At a `BiParams` point lane j holds s[i] = c*w[i]*t[i] (entry j) on
    plain ints, stepped by `SeqKind._integer_rule`, with c the least
    integer that clears w[0]*t[0] and w[1]*t[1].  `terms` is the read
    cache, as long as the lanes: an index that was stepped but not read
    holds None.  On its first read a term is divided, entry by entry, by
    c*w[0] or c*w[1] times M^(i//2), with `exact._divide`, in time linear
    in its size; the `Fraction` (or the one `Mat2` of them) is stored
    there, so a second read is one list index and returns the same
    object.  A term that is never read is never divided.  At a point over
    any other ring (a symbolic one) the lanes step t itself by
    `SeqKind.rule` in the same loop, and a read builds the term with no
    division.
    """

    __slots__ = ("rule", "terms", "lanes", "scales", "base")

    def __init__(self, kind: SeqKind, params, t0, t1) -> None:
        starts = [t.entries() if isinstance(t, Mat2) else (t,) for t in (t0, t1)]
        if not isinstance(params, BiParams):
            self.rule, self.scales, self.base = kind.rule(params), None, 1
        else:
            self.rule, weights, self.base = kind._integer_rule(params)
            starts = [[w * e for e in t] for w, t in zip(weights, starts)]
            c = lcm(*(e.denominator for t in starts for e in t))
            self.scales = tuple(c * w for w in weights)
            starts = [[(c * e).numerator for e in t] for t in starts]
        self.lanes = [list(lane) for lane in zip(*starts)]
        self.terms = [None, None]

    def term(self, n: int):
        terms, lanes = self.terms, self.lanes
        if len(terms) <= n:
            # Every lane's entry of index k is computed before any lane takes
            # it, so a step that raises leaves the lanes as long as `terms`.
            # The loop is written out for the two widths, one lane and four.
            step, rule = _step, self.rule
            if len(lanes) == 1:
                (lane,) = lanes
                for k in range(len(terms), n + 1):
                    lane.append(step(rule, k, lane[-2], lane[-1]))
                    terms.append(None)
            else:
                e11, e12, e21, e22 = lanes
                for k in range(len(terms), n + 1):
                    s11 = step(rule, k, e11[-2], e11[-1])
                    s12 = step(rule, k, e12[-2], e12[-1])
                    s21 = step(rule, k, e21[-2], e21[-1])
                    s22 = step(rule, k, e22[-2], e22[-1])
                    e11.append(s11)
                    e12.append(s12)
                    e21.append(s21)
                    e22.append(s22)
                    terms.append(None)
        value = terms[n]
        if value is not None:
            return value
        if self.scales is None:
            entries = [lane[n] for lane in lanes]
        else:
            den, base, m = self.scales[n & 1], self.base, n >> 1
            power = base ** m
            if len(lanes) == 1:  # a scalar read, the most frequent, builds no list
                value = terms[n] = _divide(lanes[0][n], den, base, power, m)
                return value
            entries = [_divide(lane[n], den, base, power, m) for lane in lanes]
        value = terms[n] = Mat2(*entries) if len(entries) > 1 else entries[0]
        return value


class _PrefixMemo:
    """Bounded memo of sequence prefixes, one `_Series` per (kind, params)
    key.

    `start(key)` gives the first two terms of a series; its integer rule
    (or, over another ring, its rule) is resolved once, when the series is
    created, and `_step` extends each lane.  Every lane's entry of a term
    is computed before any lane appends it, so a step that raises at
    index k, in any lane, leaves every lane and the read cache holding
    exactly t[0..k-1], and the next call resumes from there.  A term's
    division on its first read is stored only once it has succeeded, so a
    division that raises leaves the term unread, to divide on the next
    read.  One lock is held across lookup,
    eviction, extension and that division, so threads sharing a series
    never append the same index twice or divide one term twice.  At most
    `max_keys` series are kept; the oldest-inserted one is evicted first.
    """

    max_keys = 64

    def __init__(self, start) -> None:
        self._start = start
        self._series: dict = {}
        self._lock = threading.Lock()

    def term(self, key, n: int):
        with self._lock:
            series = self._series.get(key)
            if series is None:
                while len(self._series) >= self.max_keys:
                    del self._series[next(iter(self._series))]
                series = self._series[key] = _Series(*key, *self._start(key))
            return series.term(n)

    def clear(self) -> None:
        with self._lock:
            self._series.clear()


_memo = _PrefixMemo(lambda key: key[0].initial_terms(key[1]))

MAX_POINTS = 128
_points: dict = {}
_points_lock = threading.Lock()


def point(a: Fraction, b: Fraction) -> BiParams:
    """The table's one `BiParams` for the pair (a, b), `Fraction`s or ints,
    made on the first call with an equal pair; the CLI and `run_grid` take
    their points here, so equal pairs share one object, with its derived
    constants and kept powers, and memo keys compare by identity.  The
    table is keyed on the four ints of a and b, which hash in C, and keeps
    at most `MAX_POINTS` points, evicting the least recently used first.
    One lock guards it, so threads asking for one pair get one object.
    """
    key = a.numerator, a.denominator, b.numerator, b.denominator
    with _points_lock:
        params = _points[key] = _points.pop(key, None) or BiParams(a, b)
        if len(_points) > MAX_POINTS:
            del _points[next(iter(_points))]
        return params


def clear_caches() -> None:
    """Drop all memoized sequence prefixes and the table of points (the
    tests start cold with it)."""
    _memo.clear()
    with _points_lock:
        _points.clear()


def scalar_term(kind: SeqKind, params: BiParams, n: int) -> Fraction:
    """Exact nth term by the forward recurrence (memoized per kind/params).

    n = -1 is accepted only for BP_JACOBSTHAL and returns 1/2.
    """
    if n == -1:
        if kind is SeqKind.BP_JACOBSTHAL:
            return Fraction(1, 2)
        raise ValueError(f"index -1 is only defined for {SeqKind.BP_JACOBSTHAL.value}")
    if n < -1:
        raise ValueError(f"index {n} is out of domain (minimum is -1)")
    return _memo.term((kind, params), n)


def _stepped_power(params: BiParams, base, k: int):
    """base**k for one of the point's log-time bases, stepped from the
    last power of it kept there (`BiParams.last_powers`): at the kept
    exponent the kept power, at one above it the kept power times the
    base (one product by a small base, linear time), and at any other k
    a power by `exact._power`.  A sweep over n reads each half-index
    n // 2 twice, then the next, so it raises a base once.  The pair is
    stored as one tuple in one assignment, so a thread that reads a pair
    another thread wrote gets a power that matches its exponent.
    """
    powers = params.last_powers
    last = powers.get(base)
    if last is not None and last[0] == k:
        return last[1]
    power = last[1] * base if last is not None and last[0] + 1 == k else base ** k
    powers[base] = k, power
    return power


def _two_step(kind: SeqKind, params: BiParams,
              n: int) -> tuple[Fraction | int, Fraction | int, int, int]:
    """(u, v, M, m) with t[n] = (u*t[1] + v*t[0]) / M^m and m = n // 2.

    The row (t[2m+1], t[2m]/e), e the even multiplier, steps to m + 1 by
    K/M, with K the kind's `_two_step_matrix`.  With P = K^m,

        u = P11,      v = P21/e        (n odd)
        u = e * P12,  v = P22          (n even).

    K^m is raised as s*K + t*I in the ring Z[K] (`exact._MatrixPoly`, on
    K's trace and determinant), so the power runs on plain ints.  det K
    is (cM)^2, c the lag coefficient, so the power carries the root
    (cM)^m, and each square takes two big squares and that root's
    square.  K, its base in Z[K] (with the root checked against det K)
    and e are built once per point and kind (`SeqKind._two_step_base`),
    and kept on the point (`BiParams.two_step_bases`), and K^m is
    stepped from the point's last power of K (`_stepped_power`).
    P is read back as the `Mat2` K*s, with t added to the diagonal
    entries that u and v read, on ints.  u and v are
    returned as ints wherever they are integral, which is at every
    integer pair (P21 is a multiple of N = ab there): P21/e is an int
    division when e is an int that divides P21.  No starting
    terms are read here: the caller applies (u, v) to its own,
    `scalar_term_fast` to the kind's t[0] and t[1] and `matrixseq.term_fast`
    to J[0] = I and J[1], and divides once, by M^m, with `exact._divide`
    (through `div_power` here), which cancels only factors of M in linear
    time.
    """
    bases = params.two_step_bases
    entry = bases.get(kind)
    if entry is None:
        entry = bases[kind] = kind._two_step_base(params)
    k, base, even, e = entry
    m, den = n // 2, params.ab.denominator
    power = _stepped_power(params, base, m)
    p, t = k * power.s, power.t
    if n & 1:
        v = p.e21 // e if type(e) is int and not p.e21 % e else _plain(p.e21 / even)
        return p.e11 + t, v, den, m
    return _plain(e * p.e12), p.e22 + t, den, m


def scalar_term_fast(kind: SeqKind, params: BiParams, n: int) -> Fraction:
    """Exact nth term in O(log n) integer ring operations and one division,
    from the two-step power of `_two_step`."""
    if n < 0:
        raise ValueError(f"index {n} is out of domain (minimum is 0)")
    t0, t1 = kind.initial_terms(params)
    u, v, den, m = _two_step(kind, params, n)
    return div_power(u * t1 + v * t0, den, m)


_CLASSICAL = BiParams(Fraction(1), Fraction(1))


def classical_jacobsthal(n: int) -> Fraction:
    """Classical Jacobsthal number: 0, 1, 1, 3, 5, 11, 21, 43, 85, ..."""
    if n < 0:
        raise ValueError("classical sequences are defined for n >= 0")
    return scalar_term(SeqKind.BP_JACOBSTHAL, _CLASSICAL, n)


def classical_jacobsthal_lucas(n: int) -> Fraction:
    """Classical Jacobsthal-Lucas number: 2, 1, 5, 7, 17, 31, ..."""
    if n < 0:
        raise ValueError("classical sequences are defined for n >= 0")
    return scalar_term(SeqKind.BP_JACOBSTHAL_LUCAS, _CLASSICAL, n)


def verify_lucas_relations(params: BiParams, n_max: int) -> IdentityReport:
    """Check both cross-relations between jhat and its Lucas companion.

    For 1 <= n <= n_max, exactly:

        C[n] = 2*jhat[n-1] + jhat[n+1]
        (ab + 8) * jhat[n] = 2*C[n-1] + C[n+1]

    A failing index is reported with the exact residual, not raised.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    jhat, cluc = ([_plain(scalar_term(kind, params, i)) for i in range(n_max + 2)]
                  for kind in (SeqKind.BP_JACOBSTHAL, SeqKind.BP_JACOBSTHAL_LUCAS))
    shift = _plain(params.ab + 8)

    def cases():
        # Only a mismatch is yielded, its left side as a Fraction, so that
        # the residual is one at an integer pair too.
        for n in range(1, n_max + 1):
            lhs, rhs = cluc[n], 2 * jhat[n - 1] + jhat[n + 1]
            if lhs != rhs:
                yield n, Fraction(lhs), rhs, "C[n] = 2*jhat[n-1] + jhat[n+1] failed"
            lhs, rhs = shift * jhat[n], 2 * cluc[n - 1] + cluc[n + 1]
            if lhs != rhs:
                yield n, Fraction(lhs), rhs, "(ab+8)*jhat[n] = 2*C[n-1] + C[n+1] failed"
    return first_mismatch(LUCAS_RELATIONS, params, n_max, cases())
