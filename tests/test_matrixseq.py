import random
from fractions import Fraction as F
from functools import partial
from itertools import islice
from math import gcd, isqrt

import pytest

from bijacobsthal import exact
from bijacobsthal.exact import Mat2, QuadNum
from bijacobsthal.genfunc import build_ogf, series_coeffs
from bijacobsthal.matrixseq import (
    DegenerateDiscriminantError,
    char_roots,
    det_closed,
    generator_matrix,
    iter_terms,
    term_binet,
    term_closed,
    term_fast,
    term_naive,
    term_recurrence,
)
from bijacobsthal.scalar import BiParams, SeqKind, scalar_term, scalar_term_fast
from bijacobsthal.verifier import sum_direct, verify_cross_method
import bijacobsthal.matrixseq as matrixseq_mod
import bijacobsthal.scalar as scalar_mod

GRID = [BiParams(a, b)
        for a in (-3, -2, -1, 1, 2, 3)
        for b in (-3, -2, -1, 1, 2, 3)]

METHODS = (term_recurrence, term_closed, term_binet, term_fast)


# Low-index terms as polynomials in (a, b).  The top-left entry of J[3] is
# ab^2 + 4b, the value forced by the recurrence (a variant with a^2*b + 4b
# is in circulation and fails it, see ERRATA.md).
def _expected_low_terms(a, b):
    r = b / a
    return [
        Mat2.identity(),
        Mat2(b, 2 * r, 1, 0),
        Mat2(a * b + 2, 2 * b, a, 2),
        Mat2(a * b * b + 4 * b, 2 * b * b + 4 * r, a * b + 2, 2 * b),
        Mat2(a * a * b * b + 6 * a * b + 4, 2 * a * b * b + 8 * b,
             a * a * b + 4 * a, 2 * a * b + 4),
        Mat2(a * a * b ** 3 + 8 * a * b * b + 12 * b,
             2 * a * b ** 3 + 12 * b * b + 8 * r,
             a * a * b * b + 6 * a * b + 4,
             2 * a * b * b + 8 * b),
        Mat2(a ** 3 * b ** 3 + 10 * a * a * b * b + 24 * a * b + 8,
             2 * a * a * b ** 3 + 16 * a * b * b + 24 * b,
             a ** 3 * b * b + 8 * a * a * b + 12 * a,
             2 * a * a * b * b + 12 * a * b + 8),
    ]


@pytest.mark.parametrize("a,b", [(2, 1), (1, 1), (1, 2), (3, 5), (-2, 3)])
def test_low_terms_match_polynomials(a, b):
    params = BiParams(a, b)
    for n, expected in enumerate(_expected_low_terms(F(a), F(b))):
        for method in METHODS:
            assert method(params, n) == expected, (method.__name__, n)


def test_anchor_matrices_at_2_1():
    p = BiParams(2, 1)
    assert term_recurrence(p, 1) == Mat2(1, 1, 1, 0)
    assert term_recurrence(p, 2) == Mat2(4, 2, 2, 2)
    assert term_recurrence(p, 3) == Mat2(6, 4, 4, 2)
    assert term_recurrence(p, 4) == Mat2(20, 12, 12, 8)
    assert term_closed(p, 3) == Mat2(6, 4, 4, 2)
    assert term_closed(p, 0) == Mat2.identity()  # consumes jhat[-1] = 1/2


def test_term_closed_at_1_1():
    assert term_closed(BiParams(1, 1), 3) == Mat2(5, 6, 3, 2)


def test_term_closed_extends_jhat_once_per_call(monkeypatch):
    # jhat[n+1] is read first, so a call past the memo's end extends it
    # once, through n + 1, and reads jhat[n] and jhat[n-1] below it.
    extend, extended = scalar_mod._Series.extend, []

    def counting_extend(series, n):
        if len(series.terms) <= n:
            extended.append(n)
        extend(series, n)

    monkeypatch.setattr(scalar_mod._Series, "extend", counting_extend)
    params = BiParams(F(5, 7), F(-7, 9))
    # n, and the extensions it makes: the series starts holding jhat[0..1]
    for n, expected in ((0, []), (1, [2]), (2, [3]), (7, [8]), (5, []), (20, [21])):
        extended.clear()
        assert term_closed(params, n) == term_fast(params, n), n
        assert extended == expected, n


def test_iter_terms_matches_term_recurrence():
    for p in (BiParams(-3, 2), BiParams(F(5, 7), F(-3, 4))):
        it = iter_terms(p)
        for n in range(40):
            assert next(it) == term_recurrence(p, n)
        # Generators share no state with the memo or with each other: one
        # started after the memo is full, and the first one resumed after
        # it, both continue the recurrence.
        late = iter_terms(p)
        assert [next(late) for _ in range(45)] == [term_recurrence(p, n) for n in range(45)]
        assert [next(it) for _ in range(5)] == [term_recurrence(p, n) for n in range(40, 45)]


def test_negative_index_rejected():
    p = BiParams(2, 1)
    for fn in (term_recurrence, term_closed, term_fast, term_binet, det_closed):
        for n in (-1, -4):
            with pytest.raises(ValueError, match=r"^matrix terms are defined for n >= 0$"):
                fn(p, n)


def test_det_closed_examples():
    p = BiParams(2, 1)
    assert [det_closed(p, n) for n in range(7)] == [1, -1, 4, -4, 16, -16, 64]
    assert det_closed(p, 0) == 1
    assert det_closed(p, 4) == 16
    assert det_closed(p, 5) == -32 * p.b / p.a == -16
    q = BiParams(3, 5)
    assert det_closed(q, 5) == -32 * F(5, 3)


@pytest.mark.parametrize("params", GRID, ids=str)
def test_det_matches_recurrence(params):
    for n in range(129):
        assert term_recurrence(params, n).det() == det_closed(params, n)


@pytest.mark.parametrize("params", GRID, ids=str)
def test_four_way_agreement_small(params):
    for n in range(65):
        reference = term_recurrence(params, n)
        assert term_closed(params, n) == reference
        assert term_fast(params, n) == reference
        if params.disc != 0:
            assert term_binet(params, n) == reference


def test_binet_examples():
    assert term_binet(BiParams(2, 1), 0) == Mat2.identity()
    assert term_binet(BiParams(2, 1), 2) == Mat2(4, 2, 2, 2)
    p = BiParams(1, 2)
    assert term_binet(p, 7) == term_recurrence(p, 7)


def test_terms_commute():
    # every term is a polynomial in J[1], so all pairs must commute
    for params in (BiParams(2, 1), BiParams(-2, 3), BiParams(F(1, 2), 3)):
        terms = [term_recurrence(params, n) for n in range(33)]
        for m in range(33):
            for n in range(m + 1, 33):
                assert terms[m] * terms[n] == terms[n] * terms[m]


@pytest.mark.parametrize("params", [BiParams(2, 1), BiParams(-3, 2), BiParams(1, 1)],
                         ids=str)
def test_lower_left_entry_is_scalar_term(params):
    for n in range(257):
        assert term_recurrence(params, n).e21 == \
            scalar_term(SeqKind.BP_JACOBSTHAL, params, n)


@pytest.mark.parametrize("params", GRID, ids=str)
def test_root_identities(params):
    alpha, beta = char_roots(params)
    ab = params.ab
    disc = params.disc
    assert alpha + beta == QuadNum.from_rational(ab, disc)
    assert alpha * beta == QuadNum.from_rational(-2 * ab, disc)
    assert (alpha + 2) * (beta + 2) == QuadNum.from_rational(4, disc)
    assert ab * (alpha + 2) == alpha * alpha
    assert ab * (beta + 2) == beta * beta


def test_binet_coeff_matrices():
    for params in (BiParams(2, 1), BiParams(-3, 2), BiParams(F(2, 3), F(-5, 4))):
        a, b, ab = params.a, params.b, params.ab
        j0 = Mat2.identity()
        j1 = generator_matrix(params)
        odd_numerator = Mat2(0, 2 * b / a, 1, -b)
        even_numerator = Mat2(-2, 2 * b, a, -2 - ab)
        assert odd_numerator == j1 - b * j0
        assert even_numerator == a * j1 - 2 * j0 - ab * j0


def test_degenerate_discriminant():
    # ab = -8 collapses the two characteristic roots
    for a, b in ((2, -4), (-2, 4), (1, -8), (F(1, 2), -16)):
        params = BiParams(a, b)
        assert params.disc == 0
        with pytest.raises(DegenerateDiscriminantError):
            term_binet(params, 3)
        with pytest.raises(DegenerateDiscriminantError):
            term_binet(params, 2)
        for n in range(33):
            reference = term_recurrence(params, n)
            assert term_closed(params, n) == reference
            assert term_fast(params, n) == reference


def test_fast_matches_recurrence_deep():
    p = BiParams(1, 1)
    assert term_fast(p, 4096) == term_recurrence(p, 4096)
    q = BiParams(2, 1)
    assert term_fast(q, 6) == term_recurrence(q, 6)
    assert term_fast(q, 0) == Mat2.identity()


@pytest.mark.parametrize("params, with_binet", [
    (BiParams(1, 1), True),
    (BiParams(F(1, 2), F(-3, 4)), True),
    (BiParams(2, -4), False),  # ab = -8: the root-based route refuses
])
def test_log_time_routes_take_one_power_and_read_no_memo(monkeypatch, params,
                                                          with_binet):
    exponents = []
    real_power = exact._power

    def counting_power(base, k, one, what):
        exponents.append(k)
        return real_power(base, k, one, what)

    monkeypatch.setattr(exact, "_power", counting_power)
    points = []
    routes = [term_fast] + [term_binet] * with_binet + [
        partial(scalar_term_fast, kind) for kind in SeqKind]
    for route in routes:
        for n in [*range(65), 4096]:
            exponents.clear()
            # a fresh point per call: a point keeps its last power, so a
            # second call there at the same or the next half-index raises
            # nothing (test_stepped_powers_match_a_fresh_point)
            points.append(BiParams(params.a, params.b))
            route(points[-1], n)
            assert exponents == [n // 2], (route, n, exponents)
    assert not any(p.series for p in points)


_STEP_ORDERS = {
    "ascending": [*range(70), 255, 256, 257],
    "descending": [257, 256, 255, *range(69, -1, -1)],
    "repeated": [n for n in range(30) for _ in range(3)],
    "random": random.Random(39).choices(range(40), k=150),
}


@pytest.mark.parametrize("order", sorted(_STEP_ORDERS))
@pytest.mark.parametrize("a, b", [(1, 1), (3, -1), (F(1, 2), F(-3, 4)), (F(-3, 2), F(1, 3)),
                                  (2, -4)], ids=str)  # ab = -8: fast only
def test_stepped_powers_match_a_fresh_point(monkeypatch, a, b, order):
    # One point swept in each order keeps its last power of each base and
    # steps it; every value, and its entries' types, must be what a fresh
    # point, which raises its power, gives.
    shared = BiParams(a, b)
    routes = [term_fast] + [term_binet] * (shared.disc != 0) + [
        partial(scalar_term_fast, kind) for kind in SeqKind]
    calls = []
    real_power = exact._power

    def counting_power(base, k, one, what):
        calls.append((base, k))
        return real_power(base, k, one, what)

    monkeypatch.setattr(exact, "_power", counting_power)
    for n in _STEP_ORDERS[order]:
        for route in routes:
            stepped, fresh = route(shared, n), route(BiParams(a, b), n)
            assert stepped == fresh, (route, n)
            entries = zip(*(v.entries() if isinstance(v, Mat2) else (v,)
                            for v in (stepped, fresh)))
            assert all(type(x) is type(y) for x, y in entries), (route, n)
    # The shared point keeps one power of each of its bases: the jhat base
    # of term_fast, which scalar_term_fast reads too, the other three
    # kinds' bases and the doubled root of term_binet.  In ascending order
    # it raised each of them twice, at half-index 0 and at the jump to 127.
    mine = [entry[1] for entry in shared.two_step_bases.values()]
    mine += [shared.binet_constants[2]] * (shared.disc != 0)
    assert len(mine) == len(shared.last_powers) == len(routes) - 1
    assert all(base in shared.last_powers for base in mine)
    raised = sorted(k for base, k in calls if any(base is own for own in mine))
    if order == "ascending":
        assert raised == [0] * len(mine) + [127] * len(mine)


@pytest.mark.parametrize("params, with_binet", [
    (BiParams(1, 1), True),
    # integer pairs where 2b/a is not an integer: the log-time routes fold
    # their entries on ints and still return Fractions
    (BiParams(3, -1), True),
    (BiParams(-3, 2), True),
    (BiParams(F(1, 2), F(-3, 4)), True),
    (BiParams(2, -4), False),  # ab = -8: the root-based route refuses
])
def test_hot_paths_build_fractions_without_coercion(monkeypatch, params,
                                                     with_binet):
    calls = []
    real_as_rational = exact.as_rational

    def counting_as_rational(value):
        calls.append(value)
        return real_as_rational(value)

    monkeypatch.setattr(exact, "as_rational", counting_as_rational)
    params.series.clear()
    routes = [term_recurrence, term_closed, term_fast] + [term_binet] * with_binet
    results = [route(params, n) for route in routes for n in range(33)]
    results += [scalar_term_fast(kind, params, n)
                for kind in SeqKind for n in range(33)]
    results += series_coeffs(build_ogf(params), 33)
    results += [sum_direct(params, n) for n in range(1, 33)]
    assert not calls
    for value in results:
        entries = value.entries() if isinstance(value, Mat2) else (value,)
        # A type check, because Fraction(1, 2) == 0.5 hides a float from ==.
        assert all(type(e) is F for e in entries), value


@pytest.mark.parametrize("params", [
    BiParams(1, 1),
    BiParams(F(1, 2), F(-3, 4)),
    BiParams(F(-3, 2), F(1, 3)),
    BiParams(2, -4),  # ab = -8: the root-based route refuses
], ids=str)
def test_log_time_powers_run_on_integers(monkeypatch, params):
    seen = []
    real_power = exact._power

    def recording_power(base, k, one, what):
        result = real_power(base, k, one, what)
        seen.append((base, result))
        return result

    # Each power carries the int root of its norm, read here with its fields.
    def entries(value):
        if isinstance(value, exact._MatrixPoly):
            return (value.s, value.t, value.root)
        return value.entries() if isinstance(value, Mat2) else (value.rat, value.coeff, value.root)

    monkeypatch.setattr(exact, "_power", recording_power)
    # The units (0, 1) of Z[K] and 2 of the doubled root are ints, so the
    # exponent n // 2 = 0 of n = 0 and 1 is checked too.
    indices = [*range(41), 4096, 4097]
    for route in [term_fast] + [partial(scalar_term_fast, kind) for kind in SeqKind]:
        seen.clear()
        for n in indices:
            route(params, n)
        assert seen
        for base, result in seen:
            assert all(type(e) is int for e in entries(base) + entries(result)), \
                (route, base, result)
    if params.disc == 0:
        return
    seen.clear()
    for n in indices:
        term_binet(params, n)
    assert seen
    for base, result in seen:
        assert all(type(e) is int for e in entries(base) + entries(result)), \
            (base, result)


@pytest.mark.parametrize("a, b", [(3, 2), (2, -3), (F(1, 2), F(-3, 4))], ids=str)
def test_log_time_routes_build_no_unit_past_n_1(monkeypatch, a, b):
    # A power builds its unit only at exponent 0, so past n = 1 neither
    # route builds the identity matrix or the doubled root's 1.
    params = BiParams(a, b)
    expected = [term_recurrence(params, n) for n in range(41)]

    def refuse(cls, *args):
        raise AssertionError(f"{cls.__name__} built a unit")

    monkeypatch.setattr(Mat2, "identity", classmethod(refuse))
    monkeypatch.setattr(exact._DoubledQuadNum, "from_rational", classmethod(refuse))
    for n in range(2, 41):
        assert term_fast(params, n) == expected[n], n
        assert term_binet(params, n) == expected[n], n


def test_binet_halving_product_shifts_even_fields(monkeypatch):
    # 200 seeded pairs, numerators and denominators in +-1..12, and four
    # fixed pairs: ab = 1 and ab = -9 (N(N+8M) = 9, a perfect square),
    # ab = -3 (N(N+8M) < 0) and ab = 2 (N even).
    rng = random.Random(20171014)

    def rational():
        return F(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))

    pairs = [BiParams(1, 1), BiParams(3, -3), BiParams(1, -3), BiParams(2, 1)]
    pairs += [BiParams(rational(), rational()) for _ in range(200)]
    # The doubled product takes 4zz' on its int fields and shifts it; the
    # spy recomputes that unshifted 4zz' with `QuadNum.__mul__` on the same
    # fields and checks that the result is it, halved.
    products = []
    real_mul = exact._DoubledQuadNum.__mul__

    def spying_mul(self, other):
        product = QuadNum.__mul__(self, other)
        result = real_mul(self, other)
        assert result == exact._DoubledQuadNum(product.rat >> 1, product.coeff >> 1, self.disc)
        products.append(product)
        return result

    monkeypatch.setattr(exact._DoubledQuadNum, "__mul__", spying_mul)
    seen = {"odd N": False, "even N": False, "negative": False, "square": False}
    for params in pairs:
        if params.disc == 0:
            continue
        num, den = params.ab.numerator, params.ab.denominator
        disc = num * (num + 8 * den)
        seen["odd N" if num % 2 else "even N"] = True
        seen["negative"] |= disc < 0
        seen["square"] |= disc >= 0 and isqrt(disc) ** 2 == disc
        root = params.binet_constants[2]
        for n in [*range(24), 255, 256]:
            # A fresh point raises (2Mg)^(n//2); the shared one steps its
            # last power by one product, or reads it back.
            for point in (BiParams(params.a, params.b), params):
                products.clear()
                assert term_binet(point, n) == term_fast(point, n), (params, n)
                # (2Mg)^0 and ^1 take none
                assert products or n < 4 or point is params, (params, n)
                for product in products:
                    assert product.rat % 2 == 0 and product.coeff % 2 == 0, \
                        (params, n, product)
            # The route reads the sqrt(D) field of the power X + Y*sqrt(D)
            # times each doubled root c + sqrt(D), (X + c*Y)/2 for c = N + 4M
            # and c = N, without a product: that shift is exact too.
            power = root ** (n // 2)
            for c in (num + 4 * den, num):
                assert (power.rat + c * power.coeff) % 2 == 0, (params, n, c)
    assert all(seen.values()), seen


FRACTION_OPS = ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__add__", "__sub__")


@pytest.mark.parametrize("a, b", [(1, 2), (3, 1), (-2, 3)], ids=str)
def test_log_time_routes_take_no_fraction_arithmetic_at_integer_pairs(monkeypatch, a, b):
    # At an integer pair both routes run on ints from the two-step power or
    # the doubled root to the one division per entry; at (3, 1) J[1]'s
    # corner 2b/a = 2/3 is cleared with the rest of its row.
    params = BiParams(a, b)
    expected = [term_recurrence(params, n) for n in range(129)]
    for route in (term_fast, term_binet):
        route(params, 5)  # the point's own constants, computed once
    calls = []
    for name in FRACTION_OPS:
        real = getattr(F, name)
        monkeypatch.setattr(F, name, lambda *args, _real=real, _name=name:
                            calls.append(_name) or _real(*args))
    for route in (term_fast, term_binet):
        calls.clear()
        values = [route(params, n) for n in range(129)]
        assert calls == [], (route, len(calls))
        for n, value in enumerate(values):
            assert all(type(e) is F for e in value.entries()), (route, n)
    monkeypatch.undo()
    for route in (term_fast, term_binet):
        assert [route(params, n) for n in range(129)] == expected, route


@pytest.mark.parametrize("a, b, route", [(3, 1, "binet"), (2, -4, "fast")], ids=str)
def test_cross_method_shows_a_wrong_cleared_row(monkeypatch, a, b, route):
    # Both log-time routes finish on J[1]'s cleared row, which the memo and
    # the closed route never read: a row off by one fails CROSS_METHOD at
    # n = 1, the first index whose fold reads it, in the first route
    # checked that reads it (binet, or fast where ab = -8 skips binet).
    params = BiParams(a, b)
    c, row0, row1 = params.j1_cleared
    monkeypatch.setitem(params.__dict__, "j1_cleared", (c, row0 + 1, row1))
    report = verify_cross_method(params, 16)
    assert (report.status, report.first_failure) == ("FAIL", 1)
    assert report.note == f"{route} route disagrees with recurrence"
    assert all(term_closed(params, n) == term_recurrence(params, n) for n in range(17))


def test_routes_in_lowest_terms_where_the_clearing_and_m_share_a_prime():
    # At (3/2, 1/2) J[1]'s row (1/2, 2/3) is cleared by c = 6, and
    # ab = 3/4 has M = 4: each entry's division by c*d*M^m cancels factors
    # of 2 that its two parts share.
    params = BiParams(F(3, 2), F(1, 2))
    assert (params.j1_cleared[0], params.ab.denominator) == (6, 4)
    for n, expected in enumerate(islice(iter_terms(params), 65)):
        for route in METHODS:
            value = route(params, n)
            assert value == expected, (route, n)
            assert all(type(e) is F and gcd(e.numerator, e.denominator) == 1
                       for e in value.entries()), (route, n, value)


@pytest.mark.parametrize("a, b", [(2, 1), (3, 5), (4, 1), (F(3, 2), F(1, 2)), (F(-5, 7), 6)],
                         ids=str)
def test_det_closed_is_a_fraction_in_lowest_terms(a, b):
    # At odd n it is -2^(n-1) * 2b/a, built from J[1]'s corner; at (4, 1)
    # the corner 1/2 has an even denominator that the power of 2 cancels.
    params = BiParams(a, b)
    for n in range(40):
        det = det_closed(params, n)
        assert type(det) is F, n
        assert det == (2 ** n) * (-params.b / params.a) ** (n & 1), n
        assert gcd(det.numerator, det.denominator) == 1, n


@pytest.mark.parametrize("a, b", [
    (1, 1), (2, -3), (-1, 3), (F(1, 2), F(-3, 4)), (F(-3, 2), F(1, 3)),
], ids=str)
def test_binet_matches_fast_at_deep_pairs(a, b):
    params = BiParams(a, b)
    for n in (4096, 4097):
        assert term_binet(params, n) == term_fast(params, n), n


@pytest.mark.parametrize("params", [
    BiParams(2, F(1, 2)),          # ab an integer, b not
    BiParams(F(-3, 2), F(-2, 3)),  # ab an integer, neither a nor b
    BiParams(F(-3, 2), F(2, 3)),   # ab a negative integer, neither a nor b
    BiParams(3, F(-7, 5)),         # large coprime denominators, ab < 0
    BiParams(F(5, 7), F(-7, 9)),
    BiParams(F(1, 2), -16),        # ab = -8: the root-based route refuses
], ids=str)
def test_integer_kernels_match_fraction_oracle_at_edge_pairs(params):
    for n in [*range(41), 1023, 1024, 2049]:
        reference = term_recurrence(params, n)
        assert term_fast(params, n) == reference, n
        if params.disc != 0:
            assert term_binet(params, n) == reference, n
        for kind in SeqKind:
            assert scalar_term_fast(kind, params, n) == scalar_term(kind, params, n), \
                (kind, n)


@pytest.mark.parametrize("params, base", [
    (BiParams(2, -3), 1),                # ab = -6: M = 1, nothing to divide
    (BiParams(-1, 3), 1),                # ab = -3
    (BiParams(F(1, 2), F(-3, 4)), 8),    # ab = -3/8
], ids=str)
def test_log_time_routes_divide_once_by_a_power_of_m(monkeypatch, params, base):
    # Every division goes through `exact._divide`: `_over_power` calls it
    # and `scalar_term_fast` reaches it through `div_power`.
    calls = []
    real_divide = exact._divide

    def spying_divide(x, den, b, power, k):
        assert power == b ** k
        calls.append((b, k))
        return real_divide(x, den, b, power, k)

    monkeypatch.setattr(matrixseq_mod, "_divide", spying_divide)
    monkeypatch.setattr(exact, "_divide", spying_divide)
    routes = [term_binet, term_fast] + [partial(scalar_term_fast, kind) for kind in SeqKind]
    for route in routes:
        for n in [*range(41), 4096, 4097]:
            calls.clear()
            route(params, n)
            assert calls and set(calls) == {(base, n // 2)}, (route, n, calls)


def _same_fraction(got, expected):
    return (type(got) is F and got.numerator == expected.numerator
            and got.denominator == expected.denominator)


def test_log_time_routes_match_the_oracle_at_random_pairs():
    # 200 seeded pairs, numerators and denominators in +-1..12.  Each pair is
    # checked at n = 0..24 and at every 20th n in 25..300 from an offset that
    # moves with the pair, so every n up to 300 is covered by 10 pairs or
    # more.  One pair in 25 is also checked at 1023 and 2049: the Fraction
    # oracle takes about 0.6 s per pair to get there, so at all 200 pairs
    # this test would take longer than the rest of the suite together.
    rng = random.Random(20171006)

    def rational():
        return F(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))

    for i in range(200):
        params = BiParams(rational(), rational())
        indices = [*range(25), *range(25 + i % 20, 301, 20)] + [1023, 2049] * (i % 25 == 0)
        # One pair's prefixes at a time: each pair's series go with its
        # point when the next pair replaces it.
        routes = [term_fast] + [term_binet] * (params.disc != 0)
        for n in indices:
            reference = term_recurrence(params, n)
            for route in routes:
                value = route(params, n)
                assert all(map(_same_fraction, value.entries(), reference.entries())), \
                    (params, route, n)
            for kind in SeqKind:
                assert _same_fraction(scalar_term_fast(kind, params, n),
                                      scalar_term(kind, params, n)), (params, kind, n)


@pytest.mark.parametrize("a, b", [
    (1, 1), (F(1, 2), F(-3, 4)), (F(5, 7), F(-7, 9)), (2, -4), (F(-3, 2), F(2, 3)),
    (F(6, 35), F(10, 21)), (F(-4, 9), F(3, 8)), (F(1, 2), -16),
], ids=str)
def test_bench_naive_route_is_the_fraction_recurrence(a, b):
    params = BiParams(a, b)
    for n, expected in enumerate(islice(iter_terms(params), 65)):
        value = term_naive(params, n)
        assert all(type(e) is F for e in value.entries())
        assert value.entries() == expected.entries(), n


def _count_steps(monkeypatch, module):
    """Record the index of every step that a `_steps` run started through
    `module` takes, as the run hands the term out."""
    calls = []
    steps = module._steps

    def counting_steps(rule, start, prev, cur):
        for n, term in enumerate(steps(rule, start, prev, cur), start):
            calls.append(n)
            yield term

    monkeypatch.setattr(module, "_steps", counting_steps)
    return calls


@pytest.mark.parametrize("a, b", [(1, 1), (F(5, 7), F(-7, 9))], ids=str)
def test_bench_naive_route_steps_only_through_the_step_rule(monkeypatch, a, b):
    # The four lanes of a fresh J series take one step each per index
    # k >= 2, and the point's own memo is neither read nor filled.
    calls = _count_steps(monkeypatch, matrixseq_mod)
    params = BiParams(a, b)
    for n, expected in enumerate(islice(iter_terms(params), 40)):
        calls.clear()
        assert term_naive(params, n) == expected, n
        assert sorted(calls) == [k for k in range(2, n + 1) for _ in range(4)], n
    assert params.series == {}


@pytest.mark.parametrize("n", [-1, -4])
def test_bench_naive_route_refuses_negative_indices(monkeypatch, n):
    # The refusal comes first: no series or starting matrix is built.
    monkeypatch.setattr(matrixseq_mod, "_Series", None)
    monkeypatch.setattr(matrixseq_mod, "generator_matrix", None)
    with pytest.raises(ValueError, match=r"^matrix terms are defined for n >= 0$"):
        term_naive(BiParams(1, 1), n)


@pytest.mark.parametrize("a, b", [(1, 1), (F(5, 7), F(-7, 9))], ids=str)
def test_cleared_terms_read_the_lanes_of_the_j_series(monkeypatch, a, b):
    # A cleared point steps its point's J series through the bound by one
    # extension, one `_steps` run per lane, and reads its terms off the
    # lanes undivided.  Reading them, or clearing the point again to a
    # bound the lanes hold, takes no step; a higher bound takes the same
    # runs on from there.
    calls = _count_steps(monkeypatch, scalar_mod)
    params = BiParams(a, b)
    cleared = matrixseq_mod._Cleared(params, 20)
    assert sorted(calls) == [k for k in range(2, 21) for _ in range(4)]
    series = params.series[matrixseq_mod._J]
    assert series.terms == [None] * 21
    calls.clear()
    for k in (20, *range(20)):
        assert cleared.term(k) == cleared.factor * term_recurrence(params, k), k
    lower = matrixseq_mod._Cleared(params, 10)
    assert lower.term(10) == lower.factor * term_recurrence(params, 10)
    assert calls == []
    matrixseq_mod._Cleared(params, 40)
    assert sorted(calls) == [k for k in range(21, 41) for _ in range(4)]
    assert [len(lane) for lane in series.lanes] == [41] * 4
