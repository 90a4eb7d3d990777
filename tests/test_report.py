import math

import numpy as np
import pytest

import oracles
from bernsimplex import ineq, monotone
from bernsimplex.cli import _grid_spec, _random_instance
from bernsimplex.report import ScanReport


def _bits(x):
    return np.float64(x).tobytes()


def _verdict(report):
    return report.passed, _bits(report.max_violation), _bits(report.min_margin)


def test_nan_margin_fails():
    report = ScanReport()
    report.record([float("nan")])
    assert not report.passed
    assert math.isnan(report.max_violation)
    # a later, more negative margin does not hide the NaN
    report.record([-1.0])
    assert math.isnan(report.max_violation)


class TestBlockRecord:
    def test_fresh_report(self):
        assert _verdict(ScanReport()) == (True, _bits(0.0), _bits(math.inf))

    def test_empty_block_changes_nothing(self):
        report = ScanReport()
        report.record(np.empty(0))
        report.record(np.empty((0, 3)), 1e-10)
        assert _verdict(report) == _verdict(ScanReport())
        report.record([-2.0, 3.0])
        before = _verdict(report)
        report.record(np.empty(0))
        assert _verdict(report) == before

    def test_nan_negative_zero_and_negative_in_one_block(self):
        report = ScanReport()
        report.record(np.array([[0.5, -0.0], [-3.0, math.nan], [-7.0, 1.0]]))
        assert not report.passed
        assert math.isnan(report.max_violation) and math.isnan(report.min_margin)

    def test_negative_zero_passes_and_ties_keep_the_first(self):
        report = ScanReport()
        report.record([1.0, -0.0, 0.0])
        assert _verdict(report) == (True, _bits(0.0), _bits(-0.0))
        report = ScanReport()
        report.record([0.0, -0.0])
        report.record([-0.0])
        assert _verdict(report) == (True, _bits(0.0), _bits(0.0))

    def test_negative_margins(self):
        report = ScanReport()
        report.record([2.0, -1.0, -4.0, -2.0])
        report.record([-3.0])
        assert _verdict(report) == (False, _bits(-4.0), _bits(-4.0))

    def test_tol_shifts_the_verdict_not_min_margin(self):
        report = ScanReport()
        report.record([-5e-11, 1.0], 1e-10)
        assert _verdict(report) == (True, _bits(0.0), _bits(-5e-11))
        report.record([-3e-10], 1e-10)
        assert _verdict(report) == (False, _bits(-3e-10 + 1e-10), _bits(-3e-10))

    def test_nan_in_an_earlier_block_stays(self):
        report = ScanReport()
        report.record([1.0, math.nan])
        report.record(np.array([-1e300, -math.inf]))
        assert not report.passed
        assert math.isnan(report.max_violation) and math.isnan(report.min_margin)


class TestAgainstOracleReport:
    """Each block a scan records, against the per-row oracle report fed the
    same margins one row at a time: the margins recorded are the margins of
    the rows yielded, in row order, and both reports reach the same verdict,
    bit for bit."""

    GRID = _grid_spec("0.5:6:0.5")

    @staticmethod
    def _check(monkeypatch, scan):
        blocks = []
        record = ScanReport.record

        def spy(self, margins, tol=0.0):
            blocks.append((np.array(margins, dtype=float).ravel(), tol))
            record(self, margins, tol)

        monkeypatch.setattr(ScanReport, "record", spy)
        report = ScanReport()
        rows = scan(report)
        raw = np.concatenate([margins for margins, _ in blocks])
        assert raw.tobytes() == np.array([row[-1] for row in rows]).tobytes()
        want = oracles.ScanReport()
        judged = np.concatenate([margins + tol for margins, tol in blocks])
        for margin, row in zip(judged.tolist(), rows):
            want.record(margin, row)
        assert want.rows == rows
        assert _verdict(report) == _verdict(want)
        return len(blocks)

    def _cm_scan(self, monkeypatch, corrupt):
        rng = np.random.Generator(np.random.PCG64(11))

        def scan(report):
            return [row for d in (1, 2, 4)
                    for row in oracles.rows_of(monotone.cm_scan(
                        [_random_instance(rng, d, corrupt)],
                        self.GRID, report, max_order=7))]

        assert self._check(monkeypatch, scan) == 3

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_cm_scan(self, monkeypatch, corrupt):
        self._cm_scan(monkeypatch, corrupt)

    def test_cm_scan_nan_derivative(self, monkeypatch, nan_derivative):
        self._cm_scan(monkeypatch, False)

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_fuzz(self, monkeypatch, small_blocks, corrupt):
        # 5 trials a block (dmax 5), so the verdict spans several blocks
        small_blocks(5, 120 + 5 * 11 * 7)
        assert self._check(monkeypatch, lambda report: oracles.rows_of(
            ineq.fuzz_inequalities(23, 5, 9, report, corrupt=corrupt))) == 5
