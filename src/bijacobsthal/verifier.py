"""Exact identity checks with counterexample reporting.

Each `verify_*` function turns one stated identity into a machine-checked
fact over a parameter point and an index range.  The direct computation
(term-by-term summation, the definitional recurrence) is always the
normative side; printed closed forms are the hypotheses under test.  Each
suite yields its cases (n, lhs, rhs, why) to `report.first_mismatch`, the
one FAIL rule: a refuted identity is a FAIL report carrying the first
failing index and the exact residual, never an exception.  The term
routes are listed once, in `ROUTES` (which is `cli.METHODS`), and the
suites once, in `_SUITES`.

Three suites, SUM_T5, WEIGHTED_SUM_T6 and SERIES_MATCH, compare both
sides multiplied by one known nonzero factor per point and index bound,
F = c * lcm(w[bound-1], w[bound]), w the weights of
`SeqKind._integer_rule` (see `matrixseq._Cleared`): c*w[k]*J[k] is what
the point's J series holds in its lanes, on ints, and the cleared terms
read it there, so the suites step no walk of their own.  One factor
serves all three.  The closed forms and `genfunc.build_ogf`
read every term, J[0] and J[1] included, through one term source
(`matrixseq._term_source`); the closed forms take it, with their
selectors for each parity of n, from `_form_inputs`.  The printed form
is built once per point (and x) by one builder, `_build_printed`, which
computes the J[0]/J[1] part, both parities' coefficients and the
denominator, and returns the form as a function of n; the plain sum is
that form at x = 1 (ERRATA.md section 1).  Both sum suites run through
one runner, `_check_printed`, which builds one form per report.  The
corrected weighted sum, which no suite builds, is evaluated at one n by
`weighted_sum_corrected_form`.  All three public weighted sums take x
through one domain check, `_check_weight`.  A form reads J[n-1], then
J[n], so `term_fast` at a `BiParams` steps J[n]'s power from J[n-1]'s
(`scalar._stepped_power`).  The direct sum, `_partial_sums`, walks the
cleared point's terms.  So both sides are linear in the terms, and the
same formula code fed the integer terms F*J[k] gives F times its value:
the long division yields F*J[m], compared with the cleared recurrence's
F*J[m].  At integer (a, b) and
1/x both sides are then matrices of plain ints; elsewhere the terms are
still ints, and the same code runs with the rational a, b and x.
Clearing one nonzero factor from both sides does not change which side
is normative.  One rule, `_confirmed`, turns the cleared sides into
cases: an index where they differ goes back to Fraction once, for its
residual in the original units, and the first one confirmed there is the
FAIL.

CASSINI, DET, DOUBLING and LUCAS_RELATIONS (in `scalar`) check
identities among the memos' own terms, so a corrupted memo shows in
them.  Each reads all of its terms with one prefix read per series,
`scalar_prefix` or `recurrence_prefix`, which extends the series once,
and passes every term through `exact._plain` (J as a `Mat2` of such
entries), and its constants ab+4 and ab+8 too; CASSINI takes the
denominator of b/a onto both sides.  So at an integer pair every product
and sum is on ints, and so is every comparison but DET's, whose right
side is the public `Fraction` of `det_closed`.  The other three yield
only a mismatch, its left side turned back into Fractions there, so a
FAIL's residual is a `Fraction` (or a `Mat2` of them) at every pair, as
DET's is.

The public direct sums, `sum_direct` and `weighted_sum_direct`, are not
the suites' direct side: each is one power of `term_fast`'s integer
two-step matrix bordered by an accumulator column
(`matrixseq._weighted_sum`), in O(log n) integer ring operations, and
the closed forms at a `BiParams` read J[n] and J[n-1] by `term_fast`.
So the `sum` subcommand fills no memo, and the suites still check the
closed forms against a term walk, not against that power.

Two checks are known to fail and are kept on purpose (see ERRATA.md):

* WEIGHTED_SUM_T6: the printed closed form for sum_k J[k]/x^k is wrong for
  x != 1 (at x = 1 it reduces exactly to the plain summation formula).  A
  corrected, machine-validated form is provided alongside.
* the printed root relation beta + 2 = -beta/alpha, which is false for
  every admissible parameter pair; the correct companion identity is
  beta + 2 = beta^2/(ab).

Grid points that make an identity degenerate (ab = 1 for the plain sum,
a vanishing weighted-sum denominator, x = 0) yield SKIPPED reports with a
reason, never silent omissions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .exact import Mat2, _plain, as_rational
from .genfunc import build_ogf, series_coeffs
from .matrixseq import (
    _Cleared,
    _term_source,
    _weighted_sum,
    char_roots,
    det_closed,
    recurrence_prefix,
    term_binet,
    term_closed,
    term_fast,
    term_recurrence,
)
from .report import (
    CASSINI,
    CROSS_METHOD,
    DET,
    DOUBLING,
    IdentityReport,
    LUCAS_RELATIONS,
    ROOT_IDENTITIES,
    SERIES_MATCH,
    SUM_T5,
    WEIGHTED_SUM_T6,
    first_mismatch,
    skipped,
)
from .scalar import BiParams, SeqKind, point, scalar_prefix, verify_lucas_relations

# route name -> J[n] by that route; `cli.METHODS` is this same dict.
ROUTES = {
    "recurrence": term_recurrence,
    "closed": term_closed,
    "binet": term_binet,
    "fast": term_fast,
}


def defined_routes(params: BiParams) -> dict:
    """ROUTES without binet at disc = 0 (ab = -8), where the roots coincide."""
    return {name: route for name, route in ROUTES.items()
            if name != "binet" or params.disc != 0}


def route_values(routes: dict, params: BiParams, n: int, reference: Mat2):
    """Yield (name, J[n] by that route) for every route in `routes` but
    the recurrence whose J[n] differs from `reference`, the recurrence's
    J[n], which the caller reads once."""
    for name, route in routes.items():
        if name != "recurrence":
            value = route(params, n)
            if value != reference:
                yield name, value


def verify_cassini(params: BiParams, n_max: int) -> IdentityReport:
    """(b/a)^e * j[n-1]*j[n+1] - (b/a)^(1-e) * j[n]^2 = (-1)^e * 2^(n-1).

    j is the bi-periodic Jacobsthal scalar, e = parity(n), 1 <= n <= n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    p, q = params.ratio.as_integer_ratio()
    jhat = [_plain(t) for t in scalar_prefix(SeqKind.BP_JACOBSTHAL, params, n_max + 1)]

    def cases():
        # (b/a)^e and (b/a)^(1-e) are p/q and 1 by parity, and the right
        # side is the int (-1)^e * 2^(n-1).  Both sides are taken times q,
        # so at an integer pair every product is int; a mismatch divides
        # its left side back, so its residual is a Fraction.  The square is
        # j * j: on a small int it takes 22 ns against 33 for j ** 2
        # (timeit, Python 3.11.7).
        for n in range(1, n_max + 1):
            outer, inner = jhat[n - 1] * jhat[n + 1], jhat[n] * jhat[n]
            if n & 1:
                lhs, rhs = p * outer - q * inner, -(1 << (n - 1))
            else:
                lhs, rhs = q * outer - p * inner, 1 << (n - 1)
            if lhs != q * rhs:
                yield n, Fraction(lhs, q), rhs, None
    return first_mismatch(CASSINI, params, n_max, cases())


def _plain_prefix(params: BiParams, n: int) -> list[Mat2]:
    """J[0..n] from one prefix read of the recurrence memo, through this
    module's `recurrence_prefix`, with each entry through `exact._plain`."""
    return [Mat2(_plain(t.e11), _plain(t.e12), _plain(t.e21), _plain(t.e22))
            for t in recurrence_prefix(params, n)]


def verify_det(params: BiParams, n_max: int) -> IdentityReport:
    """det(J[n]) computed entrywise equals 2^n * (-b/a)^parity(n)."""
    if n_max < 0:
        raise ValueError("n_max must be at least 0")
    cases = ((n, term.det(), det_closed(params, n), None)
             for n, term in enumerate(_plain_prefix(params, n_max)))
    return first_mismatch(DET, params, n_max, cases)


def verify_doubling(params: BiParams, m_max: int) -> IdentityReport:
    """Index-doubling recurrences, both parities, for 2 <= m <= m_max:

        J[2m]   = (ab+4) * J[2m-2] - 4 * J[2m-4]
        J[2m+1] = (ab+4) * J[2m-1] - 4 * J[2m-3]

    first_failure is reported in m-space, matching the checked range.
    """
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    shift = _plain(params.ab + 4)
    terms = _plain_prefix(params, 2 * m_max + 1)

    def cases():
        # Only a mismatch is yielded, its left side with Fraction entries,
        # so that the residual has them at an integer pair too.
        for n in range(4, 2 * m_max + 2):  # J[2m], then J[2m+1], for each m
            lhs, rhs = terms[n], terms[n - 2].scale(shift) - terms[n - 4].scale(4)
            if lhs != rhs:
                yield (n // 2, Mat2(*map(Fraction, lhs.entries())), rhs,
                       f"{'odd' if n & 1 else 'even'}-index doubling failed")
    return first_mismatch(DOUBLING, params, m_max, cases())


def _partial_sums(cleared: _Cleared, x: Fraction, n_max: int):
    """Yield sum_{k=0}^{n-1} F*J[k] / x^k for n = 1, ..., n_max, term by
    term on a cleared point's terms: the sum suites' normative direct side,
    a walk, so the closed forms are checked against a computation that is
    not the power of `weighted_sum_direct`.

    The weight starts at the int 1 and is multiplied by 1/x, an int when x
    is 1 or 1/k, at each step; a weight of 1 leaves a term as it is
    (`Mat2.scale`)."""
    term = cleared.term
    total, weight, step = term(0), 1, _plain(1 / as_rational(x))
    yield total
    for k in range(1, n_max):
        weight *= step
        total = total + term(k) * weight
        yield total


def _confirmed(cleared: _Cleared, points, original):
    """The cases of a cleared suite, in the original units.

    `points` yields (n, lhs, rhs) on the cleared terms: both sides are F
    times their values, and at integer (a, b) and 1/x matrices of plain
    ints.  Only an n where they differ yields a case (n, lhs, rhs, None):
    the checked side at the point itself at n, against rhs divided back
    by F; `original()` builds that side, a function of n, at the first
    such n only.  So `first_mismatch` builds the FAIL it builds on
    Fractions, stopping at the first such case, and the normative side
    stays the oracle; a cleared mismatch that the original units do not
    confirm ends nothing.
    """
    at_point = None
    for n, lhs, rhs in points:
        if lhs != rhs:
            if at_point is None:
                at_point = original()
            yield n, at_point(n), rhs / cleared.factor, None


def sum_direct(params: BiParams, n: int) -> Mat2:
    """sum_{k=0}^{n-1} J[k]: `weighted_sum_direct` at x = 1, in O(log n)."""
    return weighted_sum_direct(params, 1, n)


def _check_sum_index(n: int) -> None:
    """Refuse an index below 1, the one domain rule of every partial sum."""
    if n < 1:
        raise ValueError("partial sums are defined for n >= 1")


def _form_inputs(params):
    """What every closed sum form reads, once per point: the point's term
    function (`matrixseq._term_source`) and, for each parity e of n, the
    selectors (a^e * b^(1-e), a^(1-e) * b^e), so selectors[n & 1]."""
    return _term_source(params), ((params.b, params.a), (params.a, params.b))


def printed_denominator(params: BiParams, x: Fraction | None = None) -> Fraction:
    """The denominator of the printed closed sum form: 1 - ab, or
    x^2 - (ab+4)x + 4 at a weight x.  Where it is 0 the form is undefined
    and this raises; the builder takes its denominator from here, and a
    plain `sum` call runs only this check of the form."""
    if x is None:
        den, pole = 1 - params.ab, "closed form divides by 1 - ab"
    else:
        den, pole = x * x - (params.ab + 4) * x + 4, "x^2 - (ab+4)x + 4 vanishes at this x"
    if den == 0:
        raise ZeroDivisionError(pole)
    return den


def _check_weight(x, n: int) -> Fraction:
    """x as a rational, once n passes `_check_sum_index`: the domain of
    every weighted sum, whose weights 1/x^k refuse x = 0."""
    x = as_rational(x)
    _check_sum_index(n)
    if x == 0:
        raise ZeroDivisionError("weights divide by powers of x")
    return x


def weighted_sum_direct(params: BiParams, x: Fraction, n: int) -> Mat2:
    """sum_{k=0}^{n-1} J[k] / x^k in O(log n) integer ring operations;
    x != 0.  `matrixseq._weighted_sum` raises `term_fast`'s two-step
    matrix bordered by an accumulator column and finishes the sum as
    `term_fast` is finished, with one division per entry."""
    return _weighted_sum(params, _check_weight(x, n), n)


def _build_printed(params, x: Fraction | None):
    """`weighted_sum_printed_form` at `params` and x as a function of
    n >= 1, and `sum_closed_form` when x is None: that is the same form at
    x = 1 (ERRATA.md section 1), over the denominator 1 - ab.  The fixed
    part, J[1]*(x^2 + (a-2)x) + J[0]*((3b - 1 - ab - b*x)*x), both
    parities' coefficients and the denominator are computed once; per n,
    two scaled terms, two sums and one division, J[n-1] read first."""
    if x is not None:
        x = _plain(x)  # an integral x stays an int, like cleared terms
    den = printed_denominator(params, x)
    x = 1 if x is None else x
    term, selectors = _form_inputs(params)
    a, b, ab = params.a, params.b, params.ab
    fixed = term(1) * (x * x + (a - 2) * x) + term(0) * ((3 * b - 1 - ab - b * x) * x)
    scales = [(2 - x - sel_n * x, 2 * (2 - sel_n1 - x)) for sel_n, sel_n1 in selectors]

    def form(n: int) -> Mat2:
        previous = term(n - 1)
        at_n, at_previous = scales[n & 1]
        return (term(n) * at_n + previous * at_previous + fixed) / den
    return form


def sum_closed_form(params: BiParams, n: int) -> Mat2:
    """Closed form for sum_{k=0}^{n-1} J[k]; requires ab != 1.

    [J[n]*(1 - a^e*b^(1-e)) + 2*J[n-1]*(1 - a^(1-e)*b^e)
     + J[1]*(a-1) + J[0]*(2b-ab-1)] / (1-ab),   e = parity(n).

    This is `weighted_sum_printed_form` at x = 1, term by term.
    """
    _check_sum_index(n)
    return _build_printed(params, None)(n)


def weighted_sum_printed_form(params: BiParams, x: Fraction, n: int) -> Mat2:
    """The printed closed form for sum_{k=0}^{n-1} J[k]/x^k, verbatim.

    [J[n]*(2 - x - a^e*b^(1-e)*x) + 2*J[n-1]*(2 - a^(1-e)*b^e - x)
     + x^2*(J[1] - b*J[0]) + x*(-2*J[1] + 3b*J[0] + a*J[1] - J[0] - ab*J[0])]
    / (x^2 - (ab+4)*x + 4),   e = parity(n).

    This is a checker input, not a trusted formula: it reduces to the plain
    summation form at x = 1 but is refuted by the direct sum for x != 1.
    Like every weighted sum it refuses x = 0.
    """
    return _build_printed(params, _check_weight(x, n))(n)


def weighted_sum_corrected_form(params: BiParams, x: Fraction, n: int) -> Mat2:
    """Corrected closed form for sum_{k=0}^{n-1} J[k]/x^k (see ERRATA.md).

    Derived by telescoping the weighted sum against the generating-function
    denominator and eliminating J[n+1], J[n-2] with one forward and one
    backward recurrence step.  With N/D the generating function of
    `genfunc.build_ogf` (both of degree 4 at most):

        [x^4*N(1/x)
         - x^(2-n) * J[n]   * (x^2 + a^e*b^(1-e)*x - 2)
         - 2*x^(1-n) * J[n-1] * (x^2 + a^(1-e)*b^e*x - 2)]
        / (x^4*D(1/x)),   e = parity(n).

    Validated against a term-by-term sum over the whole default grid; the
    denominator vanishes exactly when x^2 hits a shifted root alpha+2 or
    beta+2 (at x = 1 or x = 2 that means ab = 1).
    """
    x = _check_weight(x, n)
    term, selectors = _form_inputs(params)
    ogf = build_ogf(params)
    den = sum(d * x ** (4 - i) for i, d in enumerate(ogf.denominator))
    if den == 0:
        raise ZeroDivisionError("x^4 - (ab+4)x^2 + 4 vanishes at this x")
    fixed = sum((c * x ** (4 - i) for i, c in enumerate(ogf.numerator)), Mat2.zero())
    sel_n, sel_n1 = selectors[n & 1]
    previous = term(n - 1)  # first, so J[n]'s power steps from J[n-1]'s
    return (fixed - term(n) * (x ** (2 - n) * (x * x + sel_n * x - 2))
            - previous * (2 * x ** (1 - n) * (x * x + sel_n1 * x - 2))) / den


def _check_printed(identity: str, params: BiParams, x, n_max: int) -> IdentityReport:
    """The report of a sum suite: the printed form (`_build_printed`)
    against the direct sum of J[k]/x^k (of J[k] when x is None),
    1 <= n <= n_max, on the terms of one cleared point, cleared by
    F = c * lcm(w[n_max-1], w[n_max]), w the weights of
    `SeqKind._integer_rule` (see `matrixseq._Cleared`); built on the point
    itself only to confirm a cleared mismatch.  x = 0 and a vanishing
    denominator make a SKIPPED report."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if x is not None:
        x = as_rational(x)
        if x == 0:
            return skipped(identity, params, n_max, "x = 0", x=x)
    try:
        printed_denominator(params, x)
    except ZeroDivisionError:
        which = "1-ab" if x is None else "x^2-(ab+4)x+4"
        return skipped(identity, params, n_max, f"denominator {which} vanishes", x=x)
    cleared = _Cleared(params, n_max)
    closed = _build_printed(cleared, x)
    sums = enumerate(_partial_sums(cleared, 1 if x is None else x, n_max), 1)
    points = ((n, closed(n), direct) for n, direct in sums)
    cases = _confirmed(cleared, points, lambda: _build_printed(params, x))
    return first_mismatch(identity, params, n_max, cases, x=x)


def verify_sum_t5(params: BiParams, n_max: int) -> IdentityReport:
    """The plain closed-form partial sum against the direct sum."""
    return _check_printed(SUM_T5, params, None, n_max)


def verify_weighted_sum_t6(params: BiParams, x: Fraction, n_max: int) -> IdentityReport:
    """Printed weighted-sum closed form against the direct weighted sum.

    The direct sum is normative.  Expected outcome: PASS at x = 1 (where
    the form reduces to the plain summation formula), FAIL for x != 1.
    """
    return _check_printed(WEIGHTED_SUM_T6, params, x, n_max)


def root_claim_beta_shift_holds(params: BiParams) -> bool:
    """Truth value of the printed relation beta + 2 = -beta/alpha.

    Expected False for every admissible parameter pair: combined with the
    true identities it would force ab = 0.  Kept as an erratum detector.
    alpha*beta = -2ab != 0 makes alpha invertible, so the relation holds
    exactly when alpha*(beta + 2) + beta = 0, which needs no division.
    """
    alpha, beta = char_roots(params)
    return (alpha * (beta + 2) + beta).is_zero()


def verify_root_identities(params: BiParams) -> IdentityReport:
    """Exact identities for the characteristic roots in Q(sqrt(D)).

        alpha + beta = ab          alpha * beta = -2ab
        (alpha+2)(beta+2) = 4      alpha + 2 = alpha^2/(ab)
        beta + 2 = beta^2/(ab)

    disc = 0 is fine here, nothing divides by alpha - beta.  Each check is
    two cases, the rational and then the sqrt(D) part of lhs - rhs.  The
    note records the truth value of the known-bad printed relation
    beta + 2 = -beta/alpha.
    """
    alpha, beta = char_roots(params)
    ab = params.ab
    differences = [  # (check, lhs - rhs)
        ("alpha+beta = ab", alpha + beta - ab),
        ("alpha*beta = -2ab", alpha * beta + 2 * ab),
        ("(alpha+2)(beta+2) = 4", (alpha + 2) * (beta + 2) - 4),
        ("alpha+2 = alpha^2/ab", alpha + 2 - alpha * alpha * (1 / ab)),
        ("beta+2 = beta^2/ab", beta + 2 - beta * beta * (1 / ab)),
    ]
    claim = root_claim_beta_shift_holds(params)
    note = f"printed claim beta+2 = -beta/alpha holds: {claim}"
    cases = ((0, part, 0, f"{name} failed with difference {diff}; {note}")
             for name, diff in differences for part in (diff.rat, diff.coeff))
    return first_mismatch(ROOT_IDENTITIES, params, 0, cases, note=note)


def verify_series_match(params: BiParams, count: int) -> IdentityReport:
    """Generating-function expansion against the recurrence, coefficient
    by coefficient for 0 <= m < count, on terms cleared by
    F = c * lcm(w[bound-1], w[bound]), with bound = max(count-1, 1) and w
    the weights of `SeqKind._integer_rule` (see `matrixseq._Cleared`).

    The expansion at the cleared point is F times the series, and at an
    integer pair both sides are matrices of plain ints.  `_confirmed`
    turns an m where they differ into a case: the public expansion at the
    point itself against the cleared term divided back by F.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    cleared = _Cleared(params, count - 1)
    coeffs = enumerate(series_coeffs(build_ogf(cleared), count))
    points = ((m, coeff, cleared.term(m)) for m, coeff in coeffs)
    original = lambda: series_coeffs(build_ogf(params), count).__getitem__
    cases = _confirmed(cleared, points, original)
    return first_mismatch(SERIES_MATCH, params, count - 1, cases)


def verify_cross_method(params: BiParams, n_max: int) -> IdentityReport:
    """Agreement of every defined route with the recurrence, 0 <= n <= n_max.

    At disc = 0 (ab = -8) the root-based route is undefined, so the check
    runs the routes `defined_routes` keeps; the restriction is noted on the
    report rather than skipping the point.
    """
    if n_max < 0:
        raise ValueError("n_max must be at least 0")
    routes = defined_routes(params)
    note = (None if "binet" in routes
            else "root-based route skipped: ab = -8 repeated root")
    cases = ((n, value, reference, f"{name} route disagrees with recurrence")
             for n, reference in enumerate(recurrence_prefix(params, n_max))
             for name, value in route_values(routes, params, n, reference))
    return first_mismatch(CROSS_METHOD, params, n_max, cases, note=note)


# suite -> the reports it yields at one grid point.  The runners look the
# verify_* functions up when called, so wrappers installed on the module
# (as a tracer does) see every call.
_SUITES = {
    CASSINI: lambda p, g: [verify_cassini(p, g.n_max)],
    DET: lambda p, g: [verify_det(p, g.n_max)],
    DOUBLING: lambda p, g: [verify_doubling(p, g.n_max // 2)],
    LUCAS_RELATIONS: lambda p, g: [verify_lucas_relations(p, g.n_max)],
    SUM_T5: lambda p, g: [verify_sum_t5(p, g.n_max)],
    WEIGHTED_SUM_T6: lambda p, g: [verify_weighted_sum_t6(p, x, g.n_max)
                                   for x in g.x_values],
    ROOT_IDENTITIES: lambda p, g: [verify_root_identities(p)],
    SERIES_MATCH: lambda p, g: [verify_series_match(p, g.n_max + 1)],
    CROSS_METHOD: lambda p, g: [verify_cross_method(p, g.n_max)],
}
ALL_IDENTITIES = tuple(_SUITES)

DEFAULT_PARAM_VALUES = tuple(Fraction(v) for v in (-3, -2, -1, 1, 2, 3))
DEFAULT_X_VALUES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))
DEFAULT_N_MAX = 128


@dataclass(frozen=True)
class GridSpec:
    """A verification sweep: parameter values, index bound, suites, weights.

    Each a, b and x value and each suite is kept once, by value, and
    sorted, so '2,2/1' is one value of a, a repeated suite runs once, and
    grids that differ only in the order of their values are equal.  Zero
    parameter values are rejected outright; degenerate combinations of
    otherwise-valid values are handled downstream as SKIPPED reports.
    """

    a_values: tuple[Fraction, ...]
    b_values: tuple[Fraction, ...]
    n_max: int = DEFAULT_N_MAX
    suites: tuple[str, ...] = ALL_IDENTITIES
    x_values: tuple[Fraction, ...] = DEFAULT_X_VALUES

    def __post_init__(self) -> None:
        for name in ("a_values", "b_values", "x_values"):
            values = {as_rational(v) for v in getattr(self, name)}
            object.__setattr__(self, name, tuple(sorted(values)))
        object.__setattr__(self, "suites", tuple(sorted(set(self.suites))))
        if not self.a_values or not self.b_values:
            raise ValueError("grid needs at least one a value and one b value")
        if any(v == 0 for v in self.a_values + self.b_values):
            raise ValueError("grid parameter values must be nonzero")
        unknown = set(self.suites) - set(ALL_IDENTITIES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        if self.n_max < 4:
            raise ValueError("n_max must be at least 4")


def default_grid(n_max: int = DEFAULT_N_MAX,
                 suites: tuple[str, ...] = ALL_IDENTITIES) -> GridSpec:
    return GridSpec(DEFAULT_PARAM_VALUES, DEFAULT_PARAM_VALUES,
                    n_max=n_max, suites=suites)


def run_grid(grid: GridSpec) -> Iterator[IdentityReport]:
    """Yield the report of every requested suite at every grid point, each
    as it is made.

    Points run a, then b, then suite, in the grid's sorted order, and
    WEIGHTED_SUM_T6 yields its reports by sorted x.  A suite's name is its
    reports' identity, so the reports come sorted by (a, b, identity, x),
    a pure function of the GridSpec.  Each point is taken once from the
    table of points (`scalar.point`), so every suite at it, and a later
    grid or CLI call at an equal pair, reads one object's constants, kept
    powers and series.
    """
    for params in (point(a, b) for a in grid.a_values for b in grid.b_values):
        for suite in grid.suites:
            yield from _SUITES[suite](params, grid)


def expected_failure(report: IdentityReport) -> bool:
    """True when a FAIL is one of the documented errata outcomes."""
    return (
        report.status == "FAIL"
        and report.identity == WEIGHTED_SUM_T6
        and report.x is not None
        and report.x != 1
    )
