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
of K stays in that ring, so it is raised there.

Both are raised from a base whose norm (det K for `_MatrixPoly`) is
r^2 for an int r, checked once, where the base is built, and a k-th
power carries q = r^k, whose square is its own norm.  That ties the
three values a square reads, so a square takes two big squares and q^2
in place of two squares and a general product.

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
    squares, which `__mul__` computes with fewer big products (for
    `_MatrixPoly` and `_DoubledQuadNum`, no general one), multiply big by
    big.
    Every product keeps the base's entry type (an int base stays int).
    `one` makes the unit, and is called only for k = 0, so no other power
    builds one.  The log-time term routes reach it through
    `scalar._stepped_power`, only where they cannot step a kept power.
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

    `==` is written by hand.  A matrix whose e11 is an int compares its
    entries as one tuple, which runs in C.  Otherwise two `Fraction`
    entries compare by numerator and denominator, and any other pair with
    `==`: `Fraction.__eq__` takes an abc `isinstance` check per entry, and
    the cross-checks compare four entries per index.  Hashing is the
    dataclass's, by value.
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        if type(self.e11) is int:
            return ((self.e11, self.e12, self.e21, self.e22)
                    == (other.e11, other.e12, other.e21, other.e22))
        for x, y in ((self.e11, other.e11), (self.e12, other.e12),
                     (self.e21, other.e21), (self.e22, other.e22)):
            if type(x) is Fraction and type(y) is Fraction:
                if x._numerator != y._numerator or x._denominator != y._denominator:
                    return False
            elif not x == y:
                return False
        return True

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
    """s*K + t*I for a 2x2 int matrix K of trace tau and determinant
    delta = r^2, with its root q: an int with q^2 = det(s*K + t*I).

    K^2 = tau*K - delta*I (Cayley-Hamilton), so these elements form a
    commutative ring, and

        (sK + tI)(s'K + t'I) = (tau*s*s' + s*t' + t*s')K + (t*t' - delta*s*s')I.

    det is multiplicative, so K^k has the root q = r^k: the product takes
    q*q'.  A square (`x * x`, the same object on both sides) is
    (tau*s^2 + 2st)K + (t^2 - delta*s^2)I, and its inputs s^2, st and t^2
    are tied by nu = q^2 = det(sK + tI) = t^2 + tau*st + delta*s^2.  With
    sigma = 1 for tau <= 0 and -1 for tau > 0,

        (s + sigma*t)^2 = (1 - delta)*s^2 + (2*sigma - tau)*st + nu,

    so st is an exact division by 2*sigma - tau, whose size is 2 + |tau|,
    never 0, and the square is

        s' = tau*s^2 + 2st,   t' = nu - tau*st - 2*delta*s^2,   q' = nu:

    two squares of big operands, s^2 and (s + sigma*t)^2, and q^2, in
    place of s*s, s*t and t*t.  q has at most the size of s and t, and
    less where K's eigenvalues differ in size.  The products by the
    constants, and by the base K = (1, 0) that `_power` multiplies by,
    take linear time.  `ring` holds the constants (tau, delta, 1 - delta,
    whether sigma is 1, 2*sigma - tau, 2*delta), computed once, on the
    base (`generator`), and shared by every power of it.  `**` is `_power`;
    like `_Bordered` it is only raised, so it is a plain class.
    """

    __slots__ = ("s", "t", "root", "ring")

    def __init__(self, s, t, root, ring) -> None:
        self.s, self.t, self.root, self.ring = s, t, root, ring

    @classmethod
    def generator(cls, trace: int, det: int, root: int) -> _MatrixPoly:
        """K itself, (s, t) = (1, 0), with root r, for K of the given trace
        and determinant; a ValueError unless r*r == det.  The square's
        constants are computed here, once for all the powers of K."""
        if root * root != det:
            raise ValueError(f"{root} is not a square root of the determinant {det}")
        plus = trace <= 0
        return cls(1, 0, root, (trace, det, 1 - det, plus, (2 if plus else -2) - trace, 2 * det))

    def __mul__(self, other: _MatrixPoly) -> _MatrixPoly:
        s, t, q, ring = self.s, self.t, self.root, self.ring
        if other is self:
            tau, _, spare, plus, divisor, twice = ring
            ss, nu = s * s, q * q
            u = s + t if plus else s - t
            st = (u * u - spare * ss - nu) // divisor
            return _MatrixPoly(tau * ss + 2 * st, nu - tau * st - twice * ss, nu, ring)
        tau, delta = ring[0], ring[1]
        ss = s * other.s
        return _MatrixPoly(tau * ss + s * other.t + t * other.s,
                           t * other.t - delta * ss, q * other.root, ring)

    def __pow__(self, k: int) -> _MatrixPoly:
        return _power(self, k, lambda: _MatrixPoly(0, 1, 1, self.ring), "matrix polynomial")


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
    """2z = X + Y*sqrt(D) with plain int fields, for z in
    Z[(t + sqrt(D))/2] (see the module docstring), and its root q: an int
    with q^2 the norm of z, X^2 - D*Y^2 = 4*q^2, or None where none is
    known.  The root is not a field: values compare and hash by X, Y and
    D alone.

    A product takes the fields of 4zz' on the two operands' int fields,
    as `QuadNum.__mul__` does, and shifts each right by 1 to those of
    2zz', with root q*q'.  A square (`z * z`, the same object on both
    sides) reads X^2 off the root, X^2 = D*Y^2 + 4q^2, so

        X' = D*Y^2 + 2q^2,   Y' = ((X + Y)^2 - 4q^2 - D*Y^2 - Y^2)/2 = X*Y,
        q' = q^2:

    two squares of big operands, Y^2 and (X + Y)^2, and q^2, in place of
    X*X, Y*Y and X*Y.  It needs the root; a value without one is only
    ever multiplied.  An int k scales each field, and the root, by k.  A
    rational r is held as 2r with root r, so the `1` that `__pow__`
    starts from is 2.
    """

    __slots__ = ("root",)

    def __init__(self, rat, coeff, disc, root=None) -> None:
        _set_rat(self, rat)
        _set_coeff(self, coeff)
        _set_disc(self, disc)
        _set_root(self, root)

    @classmethod
    def with_root(cls, rat: int, coeff: int, disc: int, root: int) -> _DoubledQuadNum:
        """The value with its root; a ValueError unless
        rat^2 - disc*coeff^2 == 4*root^2."""
        if rat * rat - disc * coeff * coeff != 4 * root * root:
            raise ValueError(f"{root} is not a square root of the norm of "
                             f"({rat} + {coeff}*sqrt({disc}))/2")
        return cls(rat, coeff, disc, root)

    @classmethod
    def from_rational(cls, value: int, disc: int) -> _DoubledQuadNum:
        return cls(2 * value, 0, disc, value)

    def __mul__(self, other: _DoubledQuadNum | int) -> _DoubledQuadNum:
        x, y, disc, q = self.rat, self.coeff, self.disc, self.root
        if other is self:
            yy, qq = y * y, q * q
            dyy, twice = disc * yy, qq << 1
            x2, w = dyy + twice, x + y
            return _DoubledQuadNum(x2, (w * w - x2 - twice - yy) >> 1, disc, qq)
        if type(other) is int:
            return _DoubledQuadNum(x * other, y * other, disc, None if q is None else q * other)
        if other.disc != disc:
            raise ValueError(f"mismatched discriminants: sqrt({disc}) vs sqrt({other.disc})")
        u, v, p = other.rat, other.coeff, other.root
        return _DoubledQuadNum((x * u + y * v * disc) >> 1, (x * v + y * u) >> 1, disc,
                               None if q is None or p is None else q * p)

    __rmul__ = __mul__


_set_root = _DoubledQuadNum.root.__set__
