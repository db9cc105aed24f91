"""Structured pass/fail records for identity checks.

A report covers one identity at one parameter point up to one index, n_max.
`first_mismatch` builds a PASS or a FAIL, and `skipped` a SKIPPED; only a
FAIL carries the first failing index and the exact nonzero residual
(lhs - rhs), and a SKIPPED always carries a machine-readable reason.

A report's wire fields are listed once, in order, in `FIELDS`:
identity, a, b, x, n_max, status, first_failure, residual.  Each format
renders that list.  JSON leaves out the absent fields, keeps n_max and
first_failure as numbers and gives every other value through
`json_value`.  CSV leaves an absent field's cells empty under
`CSV_HEADER`, where the residual spans four cells.  Plain text leaves out
the absent fields, shows identity and status bare and every other field
as name=value, and appends the note, which JSON and CSV never carry.

Each wire format has one encoder here, for a Mat2 and a scalar alike:
`json_value` for JSON and `csv_fields` for CSV.  The reports and the CLI
both use them, and both render every rational, plain text included,
through `exact.format_rational`, so a rational is the string "p/q" (or
"p" when the denominator is 1), never floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Union

from .exact import Mat2, format_rational

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .scalar import BiParams

CASSINI = "CASSINI"
DET = "DET"
DOUBLING = "DOUBLING"
LUCAS_RELATIONS = "LUCAS_RELATIONS"
SUM_T5 = "SUM_T5"
WEIGHTED_SUM_T6 = "WEIGHTED_SUM_T6"
ROOT_IDENTITIES = "ROOT_IDENTITIES"
SERIES_MATCH = "SERIES_MATCH"
CROSS_METHOD = "CROSS_METHOD"

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

_ENTRIES = ("e11", "e12", "e21", "e22")

FIELDS = ("identity", "a", "b", "x", "n_max", "status", "first_failure", "residual")
CSV_HEADER = ",".join([*FIELDS[:-1], *(f"residual_{e}" for e in _ENTRIES)])
_CSV_WIDTH = CSV_HEADER.count(",") + 1
_JSON_NUMBERS = ("n_max", "first_failure")
_PLAIN_BARE = ("identity", "status")

Residual = Union[Mat2, Fraction, None]


def csv_fields(value: Any) -> list[str]:
    """The CSV cells of a value: a Mat2's four entries, or one cell for
    anything else (a rational, an index or a label)."""
    if isinstance(value, Mat2):
        return [format_rational(e) for e in value.entries()]
    return [format_rational(value)]


def json_value(value: Any) -> Any:
    """The JSON form of a value: a Mat2 as {"e11": "p/q", ..., "e22": "p/q"},
    a rational as "p/q".  `json.dumps(..., default=json_value)` calls it
    for every value JSON has no type for."""
    if isinstance(value, Mat2):
        return dict(zip(_ENTRIES, csv_fields(value)))
    return format_rational(value)


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: "BiParams"
    n_max: int
    status: str
    x: Optional[Fraction] = None
    skip_reason: Optional[str] = None
    first_failure: Optional[int] = None
    residual: Residual = None
    note: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status == FAIL:
            if self.first_failure is None or self.residual is None:
                raise ValueError("FAIL reports need first_failure and residual")
            if self.residual == 0 * self.residual:  # the zero of its own type
                raise ValueError("FAIL reports need a nonzero residual")
        elif self.first_failure is not None or self.residual is not None:
            raise ValueError("only FAIL reports carry first_failure and residual")
        if self.status == SKIPPED and not self.skip_reason:
            raise ValueError("SKIPPED reports need a reason")

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def status_label(self) -> str:
        if self.status == SKIPPED:
            return f"SKIPPED({self.skip_reason})"
        return self.status

    def _wire_fields(self) -> Iterator[tuple[str, Any]]:
        """(name, value) for each of FIELDS, in order; None where absent."""
        return zip(FIELDS, (
            self.identity, self.params.a, self.params.b, self.x, self.n_max,
            self.status_label(), self.first_failure, self.residual,
        ))

    def to_json_dict(self) -> dict:
        return {name: value if name in _JSON_NUMBERS else json_value(value)
                for name, value in self._wire_fields() if value is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv_row(self) -> str:
        cells = [cell for _, value in self._wire_fields()
                 for cell in csv_fields("" if value is None else value)]
        return ",".join(cells + [""] * (_CSV_WIDTH - len(cells)))

    def to_plain(self) -> str:
        line = " ".join(
            format_rational(value) if name in _PLAIN_BARE
            else f"{name}={format_rational(value)}"
            for name, value in self._wire_fields() if value is not None
        )
        return f"{line}  [{self.note}]" if self.note else line


def first_mismatch(identity: str, params: "BiParams", n_max: int,
                   cases: Iterable[tuple[int, Any, Any, Optional[str]]],
                   x: Optional[Fraction] = None, note: Optional[str] = None) -> IdentityReport:
    """FAIL at the first case (n, lhs, rhs, why) with lhs != rhs, carrying the
    residual lhs - rhs and the note `why`; PASS with `note` otherwise."""
    for n, lhs, rhs, why in cases:
        if lhs != rhs:
            return IdentityReport(identity, params, n_max, FAIL, x=x,
                                  first_failure=n, residual=lhs - rhs, note=why)
    return IdentityReport(identity, params, n_max, PASS, x=x, note=note)


def skipped(identity: str, params: "BiParams", n_max: int,
            reason: str, x: Optional[Fraction] = None) -> IdentityReport:
    return IdentityReport(identity, params, n_max, SKIPPED,
                          x=x, skip_reason=reason)


def reports_to_csv(reports: list[IdentityReport]) -> str:
    return "\n".join([CSV_HEADER, *(r.to_csv_row() for r in reports)])
