"""Exact arithmetic substrate: rationals, 2x2 rational matrices, and the
formal quadratic extension Q(sqrt(D)).

All values are immutable and all operations are pure functions, so they can
be shared and sent across threads without synchronization.  No floating
point appears anywhere.  sqrt(D) is a formal symbol: D may be negative or
even a perfect square and the ring arithmetic stays valid, nothing ever
takes a numeric square root.

`Mat2` and `QuadNum` are frozen dataclasses with slots: they compare and
hash by value, refuse assignment, and hold no `__dict__`.  Each has a
hand-written `__init__` that stores its fields through the slots' own
setters, which the module takes once, after the class is made.  The
`__init__` that a frozen dataclass generates calls `object.__setattr__`
once per field, by name, and the small-operand work of a verify grid
builds a value for about every two `Fraction` products, so that fixed
cost was as large as the arithmetic; the setters take a little over
half of it.

`_DoubledQuadNum` holds 2z in place of z, for z in a ring Z[w] with
w = (t + sqrt(D))/2 an algebraic integer, so its fields are plain ints
although z may have halves.  Its product halves (2z)(2z') = 4zz' exactly:
zz' is in Z[w], so 2zz' has int fields and both fields of 4zz' = 2(2zz')
are even.

`_MatrixPoly` holds s*K + t*I, an element of the commutative ring Z[K]
of a 2x2 matrix K, by its two coordinates.  By Cayley-Hamilton a power
of K stays in that ring, so it is raised there, with three big products
per square in place of `Mat2`'s five.

Exactness is checked once, where values enter from outside the program:
`as_rational` refuses floats and parses 'p/q' strings for the parameters,
the grid values and the sum weights.  `Mat2` and `QuadNum` take their
entries as given and do not convert or re-check them.  The library itself
feeds them only Fraction and int, but `Mat2` entries and scalars may come
from any commutative ring (a symbolic one, say), so the recurrence and the
closed forms built on it can be evaluated over that ring unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_rational(value: Fraction | int | str) -> Fraction:
    """Coerce an int, a Fraction, or a 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (optionally signed) into an exact Fraction.

    Floating-point literals are rejected: exactness is the whole contract.
    The syntax is ASCII digits only, on every Python version: `Fraction`
    alone would take underscores from 3.11 on, and non-ASCII digits.
    """
    s = text.strip()
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


def format_rational(r: Fraction) -> str:
    """Render a Fraction as 'p/q', or just 'p' when the denominator is 1;
    `str` does that, and renders an entry of any other ring, a `Mat2` or a
    text label too, so it is the one plain-text encoder."""
    return str(r)


def parity(n: int) -> int:
    """0 for even n, 1 for odd n."""
    return n & 1


def _plain(value: Fraction) -> Fraction | int:
    """value as an int when it is integral, so that products with integer
    terms stay plain ints."""
    return value.numerator if value.denominator == 1 else value


def _divide(x: int, den: int, base: int, power: int, k: int) -> Fraction:
    """x / (den * power) in lowest terms, for ints x, den >= 1 and
    power = base**k, base >= 1, with den small and power given, so that a
    caller stepping k keeps the power and never recomputes it.

    Zero is 0/1 at once.  Otherwise only factors of den and of base can
    cancel from x, in rounds.  The first takes g = gcd(x, den*base) (den
    alone at k = 0): its part own = gcd(g, den) is gcd(x, den), and the
    rest, g/own, is gcd(x/own, base).  A later round takes
    g = gcd(x, base) and strips g^t, t as large as divides x and as the
    rounds left allow, in O(log t) divisions (`_strip`): the t rounds that
    stripping g once each would take, since g stays gcd(x, base) while
    g^2 divides x.  Each gcd is with a small number, so it takes time
    linear in the size of x, and most terms take one round.  After a
    round, some prime of g divides x fewer times than g, so at most as
    many rounds run as base has prime factors, with multiplicity.  They
    stop at the first that strips no factor of base, or after k.  Every
    prime of base is then gone from x or from the denominator, and x is
    coprime to the rest of den, so the result is built directly, without
    the quadratic-time gcd that Fraction(x, d) takes.  This is the only
    code that sets Fraction's private fields, which are the same from
    Python 3.10 to 3.13.
    """
    if not x:
        return Fraction(0)
    g = gcd(x, den * base if k else den)
    if g != 1:
        own = gcd(g, den)
        x, den, cancelled = x // g, den // own, g // own
        rounds = k - 1 if cancelled != 1 else 0
        while rounds:
            g = gcd(x, base)
            if g == 1:
                break
            x, t = _strip(x, g, rounds)
            rounds -= t
            cancelled *= g ** t
        if cancelled != 1:
            power //= cancelled
    result = object.__new__(Fraction)
    result._numerator = x
    result._denominator = power if den == 1 else den * power
    return result


def _strip(x: int, g: int, cap: int) -> tuple[int, int]:
    """(x / g**t, t) for the largest t <= cap with g**t dividing x, for
    g > 1 dividing x and cap >= 1, in O(log t) divisions.  With t = 1
    after the first, x is divided by g**t while that divides and fits
    under the cap, t doubling each time, then by the same powers, falling,
    each that still divides and fits.  A power of 2 is read off x's
    trailing zeros instead."""
    if not g & (g - 1):
        shift = g.bit_length() - 1
        t = min(((x & -x).bit_length() - 1) // shift, cap)
        return x >> (shift * t), t
    x, t, taken = x // g, 1, []
    while 2 * t <= cap:
        q, r = divmod(x, g)
        if r:
            break
        taken.append((g, t))
        x, t, g = q, 2 * t, g * g
    for g, step in reversed(taken):
        if t + step <= cap:
            q, r = divmod(x, g)
            if not r:
                x, t = q, t + step
    return x, t


def div_power(q: Fraction | int, base: int, k: int) -> Fraction:
    """q / base**k in lowest terms, for q in lowest terms and base >= 1:
    `_divide` of q's numerator by its denominator times base**k."""
    return _divide(q.numerator, q.denominator, base, base ** k, k)


def _power(base, k: int, one, what: str):
    """base**k by left-to-right binary exponentiation.

    The result starts as `base`.  For each bit of k after the leading one
    it is squared, then multiplied by `base` if the bit is set (Knuth,
    TAOCP vol. 2, section 4.6.3).  That is bit_length(k) - 1 squares and
    popcount(k) - 1 other products, and each other product is by the
    original base.  The library raises bases with small entries (the
    integer two-step matrix K as s*K + t*I with (s, t) = (1, 0), the
    doubled root 2*M*g, and q^2 K bordered by the partial sum's column),
    so that product takes time linear in the size of the result; only the
    squares, which `__mul__` computes with fewer big products, multiply
    big by big.
    Every product keeps the base's entry type (an int base stays int).
    `one` makes the unit, and is called only for k = 0, so no other power
    builds one.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"{what} powers require a non-negative integer exponent")
    if not k:
        return one()
    result = base
    for bit in bin(k)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


@dataclass(frozen=True, slots=True)
class Mat2:
    """2x2 matrix, row-major: [[e11, e12], [e21, e22]].

    Entries are exact rationals wherever the library builds a Mat2, but
    any commutative ring works: `*` is the matrix product for Mat2
    operands and scaling for every other operand; `+`/`-` are entrywise;
    `/` divides every entry exactly, keeping an int matrix int when the
    int divisor divides each entry; `**` is binary exponentiation.  A
    square (`m * m`, the same object on both sides) takes 5 entry
    products, not 8: with bc = b*c and t = a + d it is
    [[a*a + bc, b*t], [c*t, d*d + bc]].
    """

    e11: Fraction
    e12: Fraction
    e21: Fraction
    e22: Fraction

    def __init__(self, e11, e12, e21, e22) -> None:
        _set_e11(self, e11)
        _set_e12(self, e12)
        _set_e21(self, e21)
        _set_e22(self, e22)

    @classmethod
    def identity(cls) -> Mat2:
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    @classmethod
    def zero(cls) -> Mat2:
        return cls(Fraction(0), Fraction(0), Fraction(0), Fraction(0))

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.e11, self.e12, self.e21, self.e22)

    def det(self) -> Fraction:
        return self.e11 * self.e22 - self.e12 * self.e21

    def __add__(self, other: Mat2) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.e11 + other.e11,
            self.e12 + other.e12,
            self.e21 + other.e21,
            self.e22 + other.e22,
        )

    def __sub__(self, other: Mat2) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.e11 - other.e11, self.e12 - other.e12,
                    self.e21 - other.e21, self.e22 - other.e22)

    def __neg__(self) -> Mat2:
        return Mat2(-self.e11, -self.e12, -self.e21, -self.e22)

    def __mul__(self, other) -> Mat2:
        """Matrix product with a Mat2, else scaling by `other`."""
        if other is self:
            a, b, c, d = self.e11, self.e12, self.e21, self.e22
            bc = b * c
            t = a + d
            return Mat2(a * a + bc, b * t, c * t, d * d + bc)
        if isinstance(other, Mat2):
            return Mat2(
                self.e11 * other.e11 + self.e12 * other.e21,
                self.e11 * other.e12 + self.e12 * other.e22,
                self.e21 * other.e11 + self.e22 * other.e21,
                self.e21 * other.e12 + self.e22 * other.e22,
            )
        return self.scale(other)

    def __rmul__(self, other) -> Mat2:
        return self.scale(other)

    def scale(self, c) -> Mat2:
        """c times every entry; c is any scalar of the entries' ring.  A
        Mat2 is immutable, so scaling by 1 returns the matrix itself."""
        if c == 1:
            return self
        return Mat2(c * self.e11, c * self.e12, c * self.e21, c * self.e22)

    def __truediv__(self, other) -> Mat2:
        """Every entry divided by `other`, exactly: an int matrix stays int
        when an int `other` divides each entry, else the quotient is taken
        over the rationals (or over the entries' own field)."""
        entries = self.entries()
        if type(other) is int and all(type(e) is int and not e % other for e in entries):
            return Mat2(*(e // other for e in entries))
        return self.scale(Fraction(1) / other)

    def __pow__(self, k: int) -> Mat2:
        return _power(self, k, Mat2.identity, "matrix")

    def __str__(self) -> str:
        f = format_rational
        return f"[[{f(self.e11)},{f(self.e12)}],[{f(self.e21)},{f(self.e22)}]]"


_set_e11, _set_e12, _set_e21, _set_e22 = (getattr(Mat2, f.name).__set__ for f in fields(Mat2))


class _Bordered:
    """The 3x3 matrix [[K, c], [0, s]]: a `Mat2` K bordered on the right by
    a column c = (c1, c2) and below by a corner s, with zeros left of the
    corner.  It acts on the right of a row (r1, r2, r3): K maps (r1, r2)
    as a `Mat2` does, and the third place becomes r1*c1 + r2*c2 + s*r3.
    Products keep that shape,

        [[K, c], [0, s]] * [[K', c'], [0, s']] = [[K*K', K*c' + s'*c], [0, s*s']],

    so 3 of the 9 entries are never computed, and a square squares K with
    `Mat2`'s 5-product square.  `**` is `_power`, as for `Mat2`.  It is
    only raised, never compared or hashed, so it is a plain class: a
    dataclass would cost every import its generated methods.
    """

    __slots__ = ("block", "column", "corner")

    def __init__(self, block: Mat2, column: tuple, corner: int) -> None:
        self.block, self.column, self.corner = block, column, corner

    def __mul__(self, other: _Bordered) -> _Bordered:
        k = self.block
        (c1, c2), (o1, o2), s = self.column, other.column, other.corner
        return _Bordered(k * other.block,
                         (k.e11 * o1 + k.e12 * o2 + s * c1,
                          k.e21 * o1 + k.e22 * o2 + s * c2),
                         self.corner * s)

    def __pow__(self, k: int) -> _Bordered:
        return _power(self, k, lambda: _Bordered(Mat2(1, 0, 0, 1), (0, 0), 1), "bordered")


class _MatrixPoly:
    """s*K + t*I for a 2x2 matrix K of trace tau and determinant delta.

    K^2 = tau*K - delta*I (Cayley-Hamilton), so these elements form a
    commutative ring, and

        (sK + tI)(s'K + t'I) = (tau*s*s' + s*t' + t*s')K + (t*t' - delta*s*s')I.

    A square (`x * x`, the same object on both sides) is
    (tau*s^2 + 2st)K + (t^2 - delta*s^2)I: three products of two big
    operands, s*s, s*t and t*t.  The products by tau and delta, and by the
    base K = (1, 0) that `_power` multiplies by, take linear time.  `**`
    is `_power`; like `_Bordered` it is only raised, so it is a plain
    class.
    """

    __slots__ = ("s", "t", "trace", "det")

    def __init__(self, s, t, trace, det) -> None:
        self.s, self.t, self.trace, self.det = s, t, trace, det

    def __mul__(self, other: _MatrixPoly) -> _MatrixPoly:
        s, t, tau, delta = self.s, self.t, self.trace, self.det
        if other is self:
            ss = s * s
            return _MatrixPoly(tau * ss + 2 * (s * t), t * t - delta * ss, tau, delta)
        ss = s * other.s
        return _MatrixPoly(tau * ss + s * other.t + t * other.s,
                           t * other.t - delta * ss, tau, delta)

    def __pow__(self, k: int) -> _MatrixPoly:
        return _power(self, k, lambda: _MatrixPoly(0, 1, self.trace, self.det),
                      "matrix polynomial")


@dataclass(frozen=True, slots=True)
class QuadNum:
    """Element x + y*sqrt(D) of the formal quadratic extension Q(sqrt(D)).

    Arithmetic is only defined between operands sharing the same D; mixing
    discriminants is a usage bug and raises ValueError.  Multiplication is
    (x + y*sqrt(D)) * (u + v*sqrt(D)) = (xu + yvD) + (xv + yu)*sqrt(D),
    exactly.  A square (`z * z`, the same object on both sides) takes 3
    field products, not 4: (x*x + y*y*D) + 2*(x*y)*sqrt(D).  Rationals
    embed as x + 0*sqrt(D).
    """

    rat: Fraction
    coeff: Fraction
    disc: Fraction

    def __init__(self, rat, coeff, disc) -> None:
        _set_rat(self, rat)
        _set_coeff(self, coeff)
        _set_disc(self, disc)

    @classmethod
    def from_rational(cls, value: Fraction | int, disc: Fraction | int) -> QuadNum:
        return cls(value, Fraction(0), disc)

    def _coerce(self, other: QuadNum | Fraction | int) -> QuadNum | None:
        if isinstance(other, QuadNum):
            if other.disc != self.disc:
                raise ValueError(
                    f"mismatched discriminants: sqrt({self.disc}) vs sqrt({other.disc})"
                )
            return other
        if isinstance(other, (Fraction, int)):
            return type(self).from_rational(other, self.disc)
        return None

    def __add__(self, other: QuadNum | Fraction | int) -> QuadNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadNum(self.rat + o.rat, self.coeff + o.coeff, self.disc)

    def __sub__(self, other: QuadNum | Fraction | int) -> QuadNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadNum(self.rat - o.rat, self.coeff - o.coeff, self.disc)

    def __neg__(self) -> QuadNum:
        return QuadNum(-self.rat, -self.coeff, self.disc)

    def __mul__(self, other: QuadNum | Fraction | int) -> QuadNum:
        if other is self:
            x, y = self.rat, self.coeff
            return QuadNum(x * x + y * y * self.disc, 2 * (x * y), self.disc)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadNum(
            self.rat * o.rat + self.coeff * o.coeff * self.disc,
            self.rat * o.coeff + self.coeff * o.rat,
            self.disc,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> QuadNum:
        return _power(self, k, lambda: self.from_rational(1, self.disc), "quadratic")

    def is_zero(self) -> bool:
        return self.rat == 0 and self.coeff == 0

    def __str__(self) -> str:
        f = format_rational
        sign = "+" if self.coeff >= 0 else "-"
        return f"{f(self.rat)} {sign} {f(abs(self.coeff))}*sqrt({f(self.disc)})"


_set_rat, _set_coeff, _set_disc = (getattr(QuadNum, f.name).__set__ for f in fields(QuadNum))


class _DoubledQuadNum(QuadNum):
    """2z with plain int fields, for z in Z[(t + sqrt(D))/2] (see the module
    docstring).  A product takes the fields of 4zz' on the two operands'
    int fields, as `QuadNum.__mul__` does (a square with 3 products), and
    shifts each right by 1 to those of 2zz'; the square's sqrt(D) field,
    2*(x*y), is x*y at once.  An int k scales each field by k.  A rational
    r is held as 2r, so the `1` that `__pow__` starts from is 2.
    """

    __slots__ = ()

    @classmethod
    def from_rational(cls, value: int, disc: int) -> _DoubledQuadNum:
        return cls(2 * value, 0, disc)

    def __mul__(self, other: _DoubledQuadNum | int) -> _DoubledQuadNum:
        x, y, disc = self.rat, self.coeff, self.disc
        if other is self:
            return _DoubledQuadNum((x * x + y * y * disc) >> 1, x * y, disc)
        if type(other) is int:
            return _DoubledQuadNum(x * other, y * other, disc)
        if other.disc != disc:
            raise ValueError(f"mismatched discriminants: sqrt({disc}) vs sqrt({other.disc})")
        u, v = other.rat, other.coeff
        return _DoubledQuadNum((x * u + y * v * disc) >> 1, (x * v + y * u) >> 1, disc)

    __rmul__ = __mul__
