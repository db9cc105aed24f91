import json
from fractions import Fraction as F

import pytest

from bijacobsthal.exact import Mat2, parse_rational
from bijacobsthal.report import (
    CSV_HEADER,
    IdentityReport,
    first_mismatch,
    reports_to_csv,
    skipped,
)
from bijacobsthal.scalar import BiParams

P = BiParams(2, 1)


def test_fail_requires_failure_data():
    with pytest.raises(ValueError):
        IdentityReport("DET", P, 8, "FAIL")
    with pytest.raises(ValueError):
        IdentityReport("DET", P, 8, "FAIL", first_failure=3, residual=F(0))
    with pytest.raises(ValueError):
        IdentityReport("DET", P, 8, "FAIL", first_failure=3,
                       residual=Mat2.zero())


def test_skip_requires_reason():
    with pytest.raises(ValueError):
        IdentityReport("SUM_T5", P, 8, "SKIPPED")
    report = skipped("SUM_T5", BiParams(1, 1), 8, "denominator 1-ab vanishes")
    assert report.status_label() == "SKIPPED(denominator 1-ab vanishes)"
    assert report.ok


def test_json_shape_scalar_residual():
    report = first_mismatch("DET", P, 16, [(5, F(-3, 7), 0, None)])
    data = json.loads(report.to_json())
    assert data == {
        "identity": "DET",
        "a": "2",
        "b": "1",
        "n_max": 16,
        "status": "FAIL",
        "first_failure": 5,
        "residual": "-3/7",
    }
    assert parse_rational(data["residual"]) == F(-3, 7)


def test_json_shape_matrix_residual_and_x():
    residual = Mat2(F(1, 2), 0, 0, F(1, 2))
    report = first_mismatch("WEIGHTED_SUM_T6", P, 16,
                            [(1, residual, Mat2.zero(), None)], x=F(2))
    data = json.loads(report.to_json())
    assert data["x"] == "2"
    assert data["residual"] == {"e11": "1/2", "e12": "0", "e21": "0", "e22": "1/2"}
    for key in ("a", "b", "x"):
        assert parse_rational(data[key]) is not None


def test_pass_json_omits_optional_fields():
    data = first_mismatch("CASSINI", P, 128, []).to_json_dict()
    assert "x" not in data
    assert "first_failure" not in data
    assert "residual" not in data
    assert data["status"] == "PASS"


def test_csv_rows():
    reports = [
        first_mismatch("CASSINI", P, 128, []),
        first_mismatch("WEIGHTED_SUM_T6", P, 16,
                       [(1, Mat2(F(1, 2), 0, 0, F(1, 2)), Mat2.zero(), None)],
                       x=F(2)),
        first_mismatch("DET", P, 16, [(5, F(-3, 7), 0, None)]),
    ]
    lines = reports_to_csv(reports).splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "CASSINI,2,1,,128,PASS,,,,,"
    assert lines[2] == "WEIGHTED_SUM_T6,2,1,2,16,FAIL,1,1/2,0,0,1/2"
    assert lines[3] == "DET,2,1,,16,FAIL,5,-3/7,,,"


def test_only_fail_reports_carry_failure_data():
    with pytest.raises(ValueError):
        IdentityReport("DET", P, 8, "PASS", residual=F(1))
    with pytest.raises(ValueError):
        IdentityReport("DET", P, 8, "PASS", first_failure=3)


def _all_formats(report):
    return json.loads(report.to_json()), report.to_csv_row(), report.to_plain()


def test_fail_with_int_residual_and_x():
    cases = [(1, 4, 4, None), (3, 7, 2, "lhs exceeds rhs")]
    report = first_mismatch("SUM_T5", P, 8, cases, x=F(-1, 2))
    assert report.residual == 5 and type(report.residual) is int
    assert _all_formats(report) == (
        {"identity": "SUM_T5", "a": "2", "b": "1", "x": "-1/2", "n_max": 8,
         "status": "FAIL", "first_failure": 3, "residual": "5"},
        "SUM_T5,2,1,-1/2,8,FAIL,3,5,,,",
        "SUM_T5 a=2 b=1 x=-1/2 n_max=8 FAIL first_failure=3 residual=5"
        "  [lhs exceeds rhs]",
    )


def test_skipped_with_x():
    report = skipped("WEIGHTED_SUM_T6", P, 16,
                     "denominator x^2-(ab+4)x+4 vanishes", x=F(2, 3))
    assert _all_formats(report) == (
        {"identity": "WEIGHTED_SUM_T6", "a": "2", "b": "1", "x": "2/3",
         "n_max": 16, "status": "SKIPPED(denominator x^2-(ab+4)x+4 vanishes)"},
        "WEIGHTED_SUM_T6,2,1,2/3,16,"
        "SKIPPED(denominator x^2-(ab+4)x+4 vanishes),,,,,",
        "WEIGHTED_SUM_T6 a=2 b=1 x=2/3 n_max=16"
        " SKIPPED(denominator x^2-(ab+4)x+4 vanishes)",
    )


def test_pass_note_only_in_plain_text():
    report = first_mismatch("ROOT_IDENTITIES", BiParams(F(1, 2), -3), 0,
                            [(0, F(1, 3), F(1, 3), "never shown")],
                            note="alpha*beta = -2ab holds")
    assert _all_formats(report) == (
        {"identity": "ROOT_IDENTITIES", "a": "1/2", "b": "-3", "n_max": 0,
         "status": "PASS"},
        "ROOT_IDENTITIES,1/2,-3,,0,PASS,,,,,",
        "ROOT_IDENTITIES a=1/2 b=-3 n_max=0 PASS  [alpha*beta = -2ab holds]",
    )
