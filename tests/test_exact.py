import dataclasses
import random
from fractions import Fraction as F

import pytest

from bijacobsthal.exact import (
    Mat2,
    QuadNum,
    _Bordered,
    _DoubledQuadNum,
    _MatrixPoly,
    _divide,
    div_power,
    format_rational,
    parity,
    parse_rational,
)
from bijacobsthal.scalar import BiParams, SeqKind


def test_parity():
    assert parity(0) == 0
    assert parity(1) == 1
    assert parity(8) == 0
    assert parity(7) == 1


def test_parse_and_format_rational():
    assert parse_rational("20") == F(20)
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("-3/9") == F(-1, 3)
    assert format_rational(F(4)) == "4"
    assert format_rational(F(-1, 2)) == "-1/2"
    for text in ("", "1.5", "1e3", "a/b", "1/0", "1 / 2", "1_0", "1/2_0", "\u0661"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_rational_canonical_after_ops():
    # fractions.Fraction normalizes eagerly; pin the contract we rely on
    assert F(1, 2) + F(1, 3) == F(5, 6)
    rng = random.Random(20240811)
    for _ in range(200):
        a = F(rng.randint(-50, 50), rng.randint(1, 50))
        b = F(rng.randint(-50, 50), rng.randint(1, 50))
        for value in (a + b, a - b, a * b):
            import math
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1
    zero = F(3, 7) - F(3, 7)
    assert (zero.numerator, zero.denominator) == (0, 1)


def test_mat2_det_examples():
    assert Mat2.identity().det() == 1
    assert Mat2(1, 1, 1, 0).det() == -1
    assert Mat2(4, 2, 2, 2).det() == 4


def test_mat2_ops():
    assert 2 * Mat2.identity() == Mat2(2, 0, 0, 2)
    j1 = Mat2(1, 1, 1, 0)
    assert j1 * j1 == Mat2(2, 1, 1, 1)
    assert j1 + j1 == 2 * j1
    assert j1 - j1 == Mat2.zero()
    assert (-j1) == j1 * -1
    assert j1 / 2 == Mat2(F(1, 2), F(1, 2), F(1, 2), 0)
    # An int matrix that an int divides stays int; rationals stay Fraction.
    assert all(type(e) is int for e in (Mat2(4, -6, 0, 2) / -2).entries())
    assert Mat2(4, -6, 0, 2) / -2 == Mat2(-2, 3, 0, -1)
    assert all(type(e) is F for e in (Mat2(F(4), 2, 0, 2) / 2).entries())
    assert j1 ** 0 == Mat2.identity()
    assert j1 ** 5 == j1 * j1 * j1 * j1 * j1
    # An int base keeps int entries: the identity only answers k = 0.
    assert all(type(e) is int for k in (1, 2, 5, 8) for e in (j1 ** k).entries())
    with pytest.raises(ValueError):
        j1 ** -1


def test_mat2_scaling_by_one_is_the_matrix_itself():
    # A Mat2 is immutable, so a unit scaling builds no new matrix.
    for m in (Mat2(F(1, 2), -3, 0, F(7, 5)), Mat2(4, -6, 0, 2)):
        assert m.scale(1) is m
        assert m * F(1) is m
        assert F(1) * m is m


def test_mat2_subtracts_entry_by_entry(monkeypatch):
    # One matrix is built, with no negation and no addition on the way.
    def refuse(*args):
        raise AssertionError("subtraction went through another operator")

    monkeypatch.setattr(Mat2, "__neg__", refuse)
    monkeypatch.setattr(Mat2, "__add__", refuse)
    assert Mat2(F(1, 2), 3, -4, F(5, 7)) - Mat2(2, F(-1, 3), 0, F(5, 7)) == \
        Mat2(F(-3, 2), F(10, 3), -4, 0)
    assert all(type(e) is int for e in (Mat2(4, -6, 0, 2) - Mat2(1, 1, 1, 1)).entries())


# Each value class with its field names, in their order.
VALUE_CLASSES = pytest.mark.parametrize("cls, names", [
    (Mat2, ("e11", "e12", "e21", "e22")),
    (QuadNum, ("rat", "coeff", "disc")),
    (_DoubledQuadNum, ("rat", "coeff", "disc")),
], ids=lambda c: getattr(c, "__name__", ""))


@VALUE_CLASSES
def test_value_objects_are_frozen_and_compare_by_value(cls, names):
    # The hand-written __init__ sets the slots directly; the class is still
    # a frozen dataclass with its fields in their order, and no __dict__.
    fields = (F(1, 2), -3, F(7, 5), 2)[:len(names)]
    value, twin = cls(*fields), cls(**dict(zip(names, fields)))
    assert tuple(f.name for f in dataclasses.fields(value)) == names
    assert dataclasses.astuple(value) == fields
    assert tuple(getattr(value, name) for name in names) == fields
    assert not hasattr(value, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0)
    assert getattr(value, names[0]) == fields[0]
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert len({value, twin, cls(*fields)}) == 1
    changed = dataclasses.replace(value, **{names[0]: 11})
    assert type(changed) is cls and changed != value
    assert dataclasses.astuple(changed) == (11, *fields[1:])


def test_mat2_equality_reads_fraction_fields_and_hashes_by_value(monkeypatch):
    # Two Fraction entries compare by numerator and denominator, with no
    # Fraction.__eq__ call; any other pair compares with ==, so an int and
    # an equal Fraction are equal entries.  The hash is the entries' tuple's.
    entries = (F(1, 2), F(-3), F(0), F(7, 5))
    value = Mat2(*entries)

    def refuse(self, other):
        raise AssertionError("Fraction.__eq__ was called")

    monkeypatch.setattr(F, "__eq__", refuse)
    assert value == Mat2(*(F(e.numerator, e.denominator) for e in entries))
    for i in range(4):
        changed = list(entries)
        changed[i] += F(1, 3)
        assert value != Mat2(*changed) and not value == Mat2(*changed)
    monkeypatch.undo()
    assert value == Mat2(F(1, 2), -3, 0, F(7, 5)) == value
    assert Mat2(1, 2, 3, 4) == Mat2(1, F(2), 3, 4) and Mat2(1, 2, 3, 4) != Mat2(1, 2, 3, 5)
    # An int e11 compares the entries as one tuple, whatever the others are.
    assert Mat2(1, F(1, 2), 3, 4) == Mat2(F(1), F(1, 2), 3, F(4)) == Mat2(1, F(1, 2), 3, 4)
    assert Mat2(1, F(1, 2), 3, 4) != Mat2(1, F(1, 3), 3, 4) and Mat2(1, 2, 3, 4) != Mat2(1, 2, 3, 4.5)
    assert Mat2.__eq__(Mat2(1, 2, 3, 4), (1, 2, 3, 4)) is NotImplemented
    assert Mat2.__eq__(value, entries) is NotImplemented
    assert value != entries and not value == entries and value != 1
    assert hash(value) == hash(entries) == hash(Mat2(F(1, 2), -3, 0, F(7, 5)))
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")
    assert Mat2(a, 1, 0, a * a) == Mat2(a, 1, 0, a * a) != Mat2(a, 1, 0, a)


def _assert_same_fraction(got, expected):
    assert type(got) is F
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
    assert hash(got) == hash(expected)
    assert str(got) == str(expected)
    assert got == expected and expected == got


@pytest.mark.parametrize("q, base, k", [
    (F(-45, 7), 3, 2),           # negative, partly cancels
    (F(-7, 5), 6, 4),            # negative, nothing cancels
    (F(0), 8, 5),                # zero
    (0, 2, 3),                   # int zero
    (96, 2, 3),                  # int, cancels fully: 12/1
    (-2 ** 40, 2, 50),           # int, cancels its whole numerator
    (F(3 ** 7, 5 * 7), 6, 3),    # denominator shares no prime with base
    (F(2 ** 30 * 3, 11), 12, 20),
    (F(-9, 4), 1, 7),            # base 1
    (F(-9, 4), 6, 0),            # k = 0
    (12, 1, 0),
], ids=str)
def test_div_power_matches_fraction(q, base, k):
    expected = F(q) / base ** k
    _assert_same_fraction(div_power(q, base, k), expected)


def test_div_power_with_two_large_primes():
    p, r = 1_000_003, 1_000_033  # both prime; base is above 10^12
    base = p * r
    cases = [(F(p ** 5 * 7, 3), 4), (F(-p ** 3 * r ** 9, 11), 5),
             (F(r ** 2 * 13), 1), (F(5, 2), 3), (-base ** 6, 6), (base ** 7, 6)]
    for q, k in cases:
        _assert_same_fraction(div_power(q, base, k), F(q) / base ** k)


def test_div_power_matches_fraction_at_random():
    rng = random.Random(6)
    for _ in range(500):
        base = rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 35, 360])
        k = rng.randint(0, 12)
        num = rng.choice([1, -1]) * base ** rng.randint(0, 15) * rng.randint(0, 10 ** 6)
        q = F(num, rng.randint(1, 10 ** 4))
        _assert_same_fraction(div_power(q, base, k), q / base ** k)


def test_divide_reads_the_power_it_is_given():
    # x / (den * base**k) for dens that share primes with base and with x,
    # k = 0, and zero; the power is passed in, never recomputed.
    rng = random.Random(30)
    for _ in range(3000):
        base = rng.choice([1, 2, 6, 9, 12, 49, 360])
        den = rng.choice([1, 2, 3, 5, 7, 21, 35, 98])
        k = rng.randint(0, 10)
        x = (rng.choice([1, -1]) * rng.choice([base, den, 3, 7]) ** rng.randint(0, 14)
             * rng.randint(0, 10 ** 4))
        _assert_same_fraction(_divide(x, den, base, base ** k, k), F(x, den * base ** k))


def test_divide_strips_deep_valuations():
    # x shares hundreds of each prime of base, so later rounds strip a
    # power of gcd(x, base) at a time: base a power of 2 (trailing zeros)
    # or not, with the cap k binding or not.
    rng = random.Random(36)
    for _ in range(400):
        base = rng.choice([2, 4, 8, 3, 9, 6, 12, 72, 45, 360])
        den = rng.choice([1, 2, 3, 5])
        k = rng.randint(1, 120)
        x = (rng.choice([1, -1]) * 2 ** rng.randint(0, 400) * 3 ** rng.randint(0, 250)
             * 5 ** rng.randint(0, 100) * rng.randint(1, 10 ** 6))
        _assert_same_fraction(_divide(x, den, base, base ** k, k), F(x, den * base ** k))


def _random_mat(rng):
    return Mat2(*(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)))


def test_mat2_det_is_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        m, n = _random_mat(rng), _random_mat(rng)
        assert (m * n).det() == m.det() * n.det()


def _random_quad(rng, disc):
    return QuadNum(
        F(rng.randint(-9, 9), rng.randint(1, 9)),
        F(rng.randint(-9, 9), rng.randint(1, 9)),
        disc,
    )


def test_quadnum_product_formula():
    rng = random.Random(11)
    for disc in (F(20), F(-7), F(9), F(0)):
        for _ in range(100):
            u, v = _random_quad(rng, disc), _random_quad(rng, disc)
            prod = u * v
            assert prod.rat == u.rat * v.rat + u.coeff * v.coeff * disc
            assert prod.coeff == u.rat * v.coeff + u.coeff * v.rat


def test_quadnum_pow_matches_iterated_product():
    rng = random.Random(13)
    for disc in (F(20), F(-7), F(9)):
        for _ in range(20):
            u = _random_quad(rng, disc)
            acc = QuadNum.from_rational(1, disc)
            for k in range(17):
                assert u ** k == acc
                acc = acc * u
    with pytest.raises(ValueError):
        _random_quad(rng, F(5)) ** -2


def test_quadnum_sqrt_disc_squares_to_disc():
    for disc in (F(20), F(-7), F(9)):
        root = QuadNum(F(0), F(1), disc)
        assert root ** 2 == QuadNum.from_rational(disc, disc)
        assert (root ** 0) == QuadNum.from_rational(1, disc)


def test_quadnum_characteristic_equation_at_unit_params():
    # a = b = 1: alpha = 1/2 + (1/2)sqrt(9) satisfies x^2 = ab*x + 2ab,
    # kept formal (sqrt(9) is never collapsed to 3)
    alpha = QuadNum(F(1, 2), F(1, 2), F(9))
    assert alpha * alpha == alpha + 2
    assert (alpha * alpha).coeff == F(1, 2)


def test_quadnum_disc_mismatch_rejected():
    u = QuadNum(F(1), F(1), F(5))
    v = QuadNum(F(1), F(1), F(7))
    for op in (lambda: u + v, lambda: u - v, lambda: u * v):
        with pytest.raises(ValueError):
            op()
    assert u != v


def test_quadnum_scalar_mixing():
    u = QuadNum(F(1, 2), F(3), F(5))
    assert u + 2 == QuadNum(F(5, 2), F(3), F(5))
    assert u * 2 == QuadNum(F(1), F(6), F(5))
    assert u - F(1, 2) == QuadNum(F(0), F(3), F(5))


def _assert_root(x):
    # The carried root q of 2z = X + Y*sqrt(D): X^2 - D*Y^2 = 4*q^2.
    assert type(x.root) is int
    assert x.rat * x.rat - x.disc * x.coeff * x.coeff == 4 * x.root * x.root


def test_doubled_quadnum_is_twice_the_fraction_arithmetic():
    # z = p + q*w with w = (t + sqrt(D))/2, D = t^2 - 4c, an algebraic
    # integer; _DoubledQuadNum holds 2z, and every product, power and
    # integer scaling must be twice the Fraction QuadNum result.  A power
    # squares on the root of its norm, so it is taken of z*z, whose norm
    # N(z)^2 has the root N(z), and carries the root of its own norm.
    rng = random.Random(17)

    def doubled(z, root=None):
        assert (2 * z.rat).denominator == (2 * z.coeff).denominator == 1
        return _DoubledQuadNum(int(2 * z.rat), int(2 * z.coeff), z.disc, root)

    def norm(z):
        value = z.rat * z.rat - z.disc * z.coeff * z.coeff
        assert value.denominator == 1
        return value.numerator

    for t, c in ((7, 1), (4, -3), (1, 2), (6, 9), (-3, -10)):
        disc = t * t - 4 * c
        w = QuadNum(F(t, 2), F(1, 2), disc)
        for _ in range(40):
            z, y = (w * rng.randint(-9, 9) + rng.randint(-9, 9) for _ in range(2))
            k = rng.randint(-5, 5)
            assert doubled(z) * doubled(y) == doubled(z * y)
            assert doubled(z) * k == k * doubled(z) == doubled(z * k)
            zz, yy = doubled(z * z, norm(z)), doubled(y * y, norm(y))
            for value in (zz * yy, zz * k, k * zz):
                _assert_root(value)
            assert zz * yy == doubled(z * z * y * y)
            for e in range(6):
                power = zz ** e
                assert power == doubled((z * z) ** e)
                assert power.root == norm(z) ** e
                _assert_root(power)


# Operands with entries of a few bits and of a few hundred, for the square
# branches of `__mul__` and the shape of `_power`.
def _random_int(rng):
    return rng.randint(-9, 9) if rng.random() < 0.5 else rng.getrandbits(300) - 2 ** 299


def _random_fraction(rng):
    return F(_random_int(rng), rng.choice([1, rng.randint(1, 9), rng.getrandbits(200) + 1]))


def _doubled_square(p, q, t, c):
    # 2z^2 for z = p + q*w, w = (t + sqrt(D))/2 with D = t^2 - 4c an
    # algebraic integer, so the halving product stays exact, with the root
    # of its norm: N(z) = p^2 + pqt + q^2c.  2z is x + y*sqrt(D).
    x, y, disc = 2 * p + q * t, q, t * t - 4 * c
    return _DoubledQuadNum.with_root((x * x + disc * y * y) >> 1, x * y, disc,
                                     p * p + p * q * t + q * q * c)


def _random_doubled(rng, t, c):
    return _doubled_square(_random_int(rng), _random_int(rng), t, c)


def _square_operands():
    rng = random.Random(29)
    for _ in range(60):
        yield Mat2(*(_random_int(rng) for _ in range(4)))
        yield Mat2(*(_random_fraction(rng) for _ in range(4)))
        for disc in (F(-7), F(0), F(9), F(-3, 4), F(25, 4)):  # negative, zero, squares
            yield QuadNum(_random_fraction(rng), _random_fraction(rng), disc)
        for t, c in ((7, 1), (4, -3), (2, 1), (4, 4), (-3, -10)):  # D = 45, 28, 0, 0, 49
            yield _random_doubled(rng, t, c)


def test_square_branch_equals_general_product():
    for x in _square_operands():
        copy = dataclasses.replace(x)  # equal but distinct: the general product
        assert copy is not x and copy == x
        square, product = x * x, x * copy
        assert square == product
        assert type(square) is type(product) is type(x)
        assert [type(v) for v in dataclasses.astuple(square)] == [
            type(v) for v in dataclasses.astuple(product)]
        if type(x) is _DoubledQuadNum:
            assert type(square.rat) is type(square.coeff) is int
            assert square.root == x.root ** 2


# Every k up to 130, and 2^j - 1, 2^j and 2^j + 1 up to j = 20: the
# exponents whose bits after the leading one are all 0, all 1, or 0...01.
EXPONENTS = sorted({*range(131), *(2 ** j + d for j in range(1, 21) for d in (-1, 0, 1))})


def _assert_powers_match_iterated_product(x, one, k_max):
    acc = one
    for k in range(k_max + 1):
        if k in EXPONENTS:
            assert x ** k == acc, k
        acc = acc * x


def test_power_matches_iterated_product():
    rng = random.Random(31)
    operands = [
        (Mat2(*(rng.randint(-9, 9) for _ in range(4))), Mat2.identity()),
        (Mat2(*(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))), Mat2.identity()),
    ]
    for disc in (F(-7), F(0), F(9)):
        operands.append((QuadNum(F(rng.randint(-9, 9), rng.randint(1, 9)),
                                 F(rng.randint(-9, 9), rng.randint(1, 9)), disc),
                         QuadNum.from_rational(1, disc)))
    for t, c in ((7, 1), (2, 1), (-3, -10)):
        x = _doubled_square(rng.randint(-9, 9), 5, t, c)
        operands.append((x, _DoubledQuadNum.from_rational(1, x.disc)))
    for x, one in operands:
        _assert_powers_match_iterated_product(x, one, 2 ** 10 + 1)


@pytest.mark.parametrize("x, one, period", [
    # unipotent: the k-fold product adds k times the nilpotent part
    (Mat2(1, F(1, 3), 0, 1), Mat2.identity(), None),
    (QuadNum(1, F(2, 5), 0), QuadNum.from_rational(1, 0), None),   # sqrt(0)^2 = 0
    (_DoubledQuadNum(2, 3, 0, 1), _DoubledQuadNum.from_rational(1, 0), None),
    # order 6: roots of y^2 - y + 1
    (Mat2(0, F(-1, 2), 2, 1), Mat2.identity(), 6),
    (QuadNum(F(1, 2), F(1, 2), -3), QuadNum.from_rational(1, -3), 6),
    (_DoubledQuadNum(1, 1, -3, 1), _DoubledQuadNum.from_rational(1, -3), 6),
], ids=[f"{kind}-{cls}" for kind in ("unipotent", "order6")
         for cls in ("Mat2", "QuadNum", "DoubledQuadNum")])
def test_power_matches_iterated_product_up_to_2_to_the_20(x, one, period):
    # The k-fold product of these operands is known up to 2^20 + 1 without
    # taking it: a linear function of k, or periodic in k.  Taking it up to
    # 130 checks that form, then every listed exponent is checked against it.
    products = [one]
    for _ in range(130):
        products.append(products[-1] * x)
    if period is None:
        f0, f1 = dataclasses.astuple(one), dataclasses.astuple(products[1])

        def expected(k):
            return type(x)(*(u + k * (v - u) for u, v in zip(f0, f1)))
    else:
        assert products[period] == one

        def expected(k):
            return products[k % period]
    for k in range(131):
        assert products[k] == expected(k)
    for k in EXPONENTS:
        assert x ** k == expected(k), k


def test_power_of_an_int_base_stays_int():
    m, z = Mat2(1, 2, 3, -4), _DoubledQuadNum.with_root(5, 1, 21, 1)
    for k in (1, 2, 3, 7, 8, 127, 128, 129):
        assert all(type(e) is int for e in (m ** k).entries())
        assert type((z ** k).rat) is type((z ** k).coeff) is type((z ** k).root) is int
    assert m ** 0 == Mat2.identity() and z ** 0 == _DoubledQuadNum(2, 0, 21)


def _bordered_lists(m):
    """A `_Bordered` [[K, c], [0, s]] as a plain 3x3 list of rows."""
    k, (c1, c2) = m.block, m.column
    return [[k.e11, k.e12, c1], [k.e21, k.e22, c2], [0, 0, m.corner]]


@pytest.mark.parametrize("column", [(3, -18), (F(-5, 4), F(2, 3))],
                         ids=["int", "rational column"])
def test_bordered_powers_are_3x3_products(column):
    # Each power equals the k-fold product of the same matrix written out as
    # plain 3x3 lists; the int block and corner stay int, and so does the
    # column when it starts int.
    base = _Bordered(Mat2(5, 1, -4, 2), column, 9)
    plain = _bordered_lists(base)
    expected = [[int(i == j) for j in range(3)] for i in range(3)]
    int_column = all(type(c) is int for c in column)
    for k in range(10):
        power = base ** k
        assert _bordered_lists(power) == expected, k
        assert all(type(e) is int for e in (*power.block.entries(), power.corner)), k
        if int_column:
            assert all(type(c) is int for c in power.column), k
        expected = [[sum(expected[i][t] * plain[t][j] for t in range(3))
                     for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError,
                       match="^bordered powers require a non-negative integer exponent$"):
        base ** -1


@pytest.mark.parametrize("k, root", [
    (Mat2(5, 1, -4, 1), 3),
    (Mat2(3 ** 40, 1, 3 ** 40 * 5 ** 30 - 11 ** 40, 5 ** 30), 11 ** 20),
], ids=["int", "large trace and det"])
def test_matrix_poly_powers_are_products_in_z_k(k, root):
    # Each power equals the k-fold product, and read back as s*K + t*I it
    # equals the Mat2 power; the int fields stay int, the root is the
    # base's to the power, and every power shares the base's constants.
    trace, det = k.e11 + k.e22, k.det()
    assert det == root * root
    base = _MatrixPoly.generator(trace, det, root)
    expected = _MatrixPoly(0, 1, 1, base.ring)
    for e in range(10):
        power = base ** e
        assert (power.s, power.t, power.root) == (expected.s, expected.t, root ** e), e
        assert power.ring is base.ring, e
        assert all(type(x) is int for x in (power.s, power.t, power.root)), e
        assert k * power.s + Mat2(power.t, 0, 0, power.t) == k ** e, e
        expected = expected * base
    with pytest.raises(ValueError,
                       match="^matrix polynomial powers require a non-negative integer exponent$"):
        base ** -1


@pytest.mark.parametrize("cls, x", [
    (Mat2, Mat2(1, 1, 1, 0)),
    (QuadNum, QuadNum(F(1, 2), F(1, 2), 9)),
    (_DoubledQuadNum, _DoubledQuadNum.with_root(5, 1, 21, 1)),
    (_MatrixPoly, _MatrixPoly.generator(7, 9, 3)),
], ids=["Mat2", "QuadNum", "DoubledQuadNum", "MatrixPoly"])
def test_power_multiplies_only_squares_and_by_the_base(monkeypatch, cls, x):
    calls = []
    general = cls.__mul__

    def recording(self, other):
        calls.append((self, other))
        return general(self, other)

    monkeypatch.setattr(cls, "__mul__", recording)
    for k in (*range(1, 40), 255, 256, 257, 1000):
        calls.clear()
        x ** k
        assert all(other is self or other is x for self, other in calls), k
        squares = sum(other is self for self, other in calls)
        assert (squares, len(calls) - squares) == (k.bit_length() - 1, bin(k).count("1") - 1), k


# The log-time routes' bases.  A kind's two-step matrix K has trace
# tau = N + 2cM and det (cM)^2 = r^2, for ab = N/M and c the lag: these
# give tau > 0, = 0 and < 0, tau = 2 and -2, r = 1 (the lag-1 kinds at
# integer pairs, where 1 - det = 0), r a power of 2 and r = 9.  The
# doubled root 2Mg = (N + 4M) + sqrt(N(N + 8M)) has r = 2M: D = 9, the
# perfect square, at (1, 1), and D < 0 at (1, -3) and (1/2, -3/4); two
# bases built directly have r = 1 and the odd r = 3.
TWO_STEP_BASES = [
    (SeqKind.BP_FIBONACCI, 1, 1),              # tau 3, r 1
    (SeqKind.BP_LUCAS, 3, -4),                 # tau -10, r 1
    (SeqKind.BP_JACOBSTHAL, 1, -2),            # tau 2, r 2
    (SeqKind.BP_JACOBSTHAL, 2, -2),            # tau 0, r 2
    (SeqKind.BP_JACOBSTHAL_LUCAS, 2, -3),      # tau -2, r 2
    (SeqKind.BP_JACOBSTHAL, 3, F(-5, 2)),      # tau -7, r 4
    (SeqKind.BP_JACOBSTHAL, F(1, 2), F(-3, 4)),  # tau 29, r 16
    (SeqKind.BP_LUCAS, F(1, 3), F(1, 3)),      # tau 19, r 9
    (SeqKind.BP_FIBONACCI, F(-1, 3), F(5, 2)),  # tau 7, r 6
]
DOUBLED_BASES = [
    *(BiParams(a, b).binet_constants[2] for a, b in
      ((1, 1), (1, -3), (F(1, 2), F(-3, 4)), (F(1, 3), F(1, 3)))),
    _DoubledQuadNum.with_root(5, 1, 21, 1),
    _DoubledQuadNum.with_root(7, 1, 13, 3),
]
ROOTED_EXPONENTS = (*range(81), 4095, 4096, 4097)


def test_rooted_bases_cover_every_sign_of_the_trace_and_kind_of_root():
    rings = [kind._two_step_base(BiParams(a, b))[1] for kind, a, b in TWO_STEP_BASES]
    taus = {base.ring[0] for base in rings}
    assert {2, 0, -2} <= taus and min(taus) < -2 and max(taus) > 2
    roots = {base.root for base in rings}
    assert 1 in roots and 9 in roots and 16 in roots
    assert any(base.ring[2] == 0 for base in rings)  # 1 - det = 0
    discs = {x.disc for x in DOUBLED_BASES}
    assert 9 in discs and min(discs) < 0
    assert {x.root for x in DOUBLED_BASES} >= {1, 2, 3, 16, 18}


@pytest.mark.parametrize("kind, a, b", TWO_STEP_BASES, ids=str)
def test_matrix_poly_powers_equal_mat2_powers(kind, a, b):
    # Each power of the base `_two_step` raises, read back as s*K + t*I,
    # is the Mat2 power of K, and carries the root r^k.
    params = BiParams(a, b)
    k, base = kind._two_step_base(params)[:2]
    root = kind._lag * params.ab.denominator
    assert base.root == root and k.det() == root * root
    for e in ROOTED_EXPONENTS:
        power = base ** e
        assert k * power.s + Mat2(power.t, 0, 0, power.t) == k ** e, e
        assert power.root == root ** e, e


@pytest.mark.parametrize("x", DOUBLED_BASES, ids=str)
def test_doubled_powers_equal_quadnum_powers(x):
    # Each power of 2z is twice the QuadNum power of z, on Fractions, and
    # carries the root r^k.
    z = QuadNum(F(x.rat, 2), F(x.coeff, 2), x.disc)
    for e in ROOTED_EXPONENTS:
        power, expected = x ** e, z ** e
        assert (power.rat, power.coeff) == (2 * expected.rat, 2 * expected.coeff), e
        assert power.root == x.root ** e, e


def test_a_wrong_root_is_refused_where_the_base_is_built():
    with pytest.raises(ValueError, match="^3 is not a square root of the determinant 12$"):
        _MatrixPoly.generator(7, 12, 3)
    with pytest.raises(ValueError, match="^4 is not a square root of the determinant 9$"):
        _MatrixPoly.generator(7, 9, 4)
    with pytest.raises(ValueError,
                       match=r"^2 is not a square root of the norm of \(5 \+ 1\*sqrt\(21\)\)/2$"):
        _DoubledQuadNum.with_root(5, 1, 21, 2)
    # Either sign of a root is a root.
    assert _MatrixPoly.generator(7, 9, -3).root == -3
    assert _DoubledQuadNum.with_root(7, 1, 13, -3).root == -3
