from bernsimplex.report import ScanReport


def test_nan_margin_fails():
    report = ScanReport()
    report.record(float("nan"), ())
    assert not report.passed
