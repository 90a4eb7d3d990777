import math

from bernsimplex.report import ScanReport


def test_nan_margin_fails():
    report = ScanReport()
    report.record(float("nan"), ())
    assert not report.passed
    assert math.isnan(report.max_violation)
    # a later, more negative margin does not hide the NaN
    report.record(-1.0, ())
    assert math.isnan(report.max_violation)
