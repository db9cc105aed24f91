"""Structured pass/fail records for identity checks.

A report covers one identity at one parameter point over one index range.
FAIL always carries the first failing index and the exact nonzero residual
(lhs - rhs), as `first_mismatch` builds it; SKIPPED always carries a
machine-readable reason.  Exactness is preserved on the wire: every
rational serializes as the string "p/q" (or "p" when the denominator is
1), never as floating point.

Each wire format has one encoder here, for a Mat2 and a scalar alike:
`json_value` for JSON and `csv_fields` for CSV.  The reports and the CLI
both use them, and both render every rational, plain text included,
through `exact.format_rational`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterable, Optional, Union

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

CSV_HEADER = (
    "identity,a,b,x,n_max,status,first_failure,"
    "residual_e11,residual_e12,residual_e21,residual_e22"
)

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
        return dict(zip(("e11", "e12", "e21", "e22"), csv_fields(value)))
    return format_rational(value)


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: "BiParams"
    index_range: tuple[int, int]
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
        if self.status == SKIPPED and not self.skip_reason:
            raise ValueError("SKIPPED reports need a reason")

    @property
    def n_max(self) -> int:
        return self.index_range[1]

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def status_label(self) -> str:
        if self.status == SKIPPED:
            return f"SKIPPED({self.skip_reason})"
        return self.status

    def to_json_dict(self) -> dict:
        out: dict = {
            "identity": self.identity,
            "a": format_rational(self.params.a),
            "b": format_rational(self.params.b),
        }
        if self.x is not None:
            out["x"] = format_rational(self.x)
        out["n_max"] = self.n_max
        out["status"] = self.status_label()
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        if self.residual is not None:
            out["residual"] = json_value(self.residual)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv_row(self) -> str:
        res = [] if self.residual is None else csv_fields(self.residual)
        fields = [
            self.identity,
            format_rational(self.params.a),
            format_rational(self.params.b),
            format_rational(self.x) if self.x is not None else "",
            str(self.n_max),
            self.status_label(),
            str(self.first_failure) if self.first_failure is not None else "",
            *res,
        ]
        return ",".join(fields) + "," * (4 - len(res))  # four residual cells

    def to_plain(self) -> str:
        head = (
            f"{self.identity} a={format_rational(self.params.a)}"
            f" b={format_rational(self.params.b)}"
        )
        if self.x is not None:
            head += f" x={format_rational(self.x)}"
        head += f" n_max={self.n_max} {self.status_label()}"
        if self.status == FAIL:
            head += (f" first_failure={self.first_failure}"
                     f" residual={format_rational(self.residual)}")
        if self.note:
            head += f"  [{self.note}]"
        return head


def passed(identity: str, params: "BiParams", index_range: tuple[int, int],
           x: Optional[Fraction] = None, note: Optional[str] = None) -> IdentityReport:
    return IdentityReport(identity, params, index_range, PASS, x=x, note=note)


def failed(identity: str, params: "BiParams", index_range: tuple[int, int],
           first_failure: int, residual: Residual,
           x: Optional[Fraction] = None, note: Optional[str] = None) -> IdentityReport:
    return IdentityReport(
        identity, params, index_range, FAIL, x=x,
        first_failure=first_failure, residual=residual, note=note,
    )


def first_mismatch(identity: str, params: "BiParams", index_range: tuple[int, int],
                   cases: Iterable[tuple[int, Any, Any, Optional[str]]],
                   x: Optional[Fraction] = None, note: Optional[str] = None) -> IdentityReport:
    """FAIL at the first case (n, lhs, rhs, why) with lhs != rhs, carrying the
    residual lhs - rhs and the note `why`; PASS with `note` otherwise."""
    for n, lhs, rhs, why in cases:
        if lhs != rhs:
            return failed(identity, params, index_range, n, lhs - rhs, x=x, note=why)
    return passed(identity, params, index_range, x=x, note=note)


def skipped(identity: str, params: "BiParams", index_range: tuple[int, int],
            reason: str, x: Optional[Fraction] = None) -> IdentityReport:
    return IdentityReport(identity, params, index_range, SKIPPED,
                          x=x, skip_reason=reason)


def reports_to_csv(reports: list[IdentityReport]) -> str:
    return "\n".join([CSV_HEADER, *(r.to_csv_row() for r in reports)])
