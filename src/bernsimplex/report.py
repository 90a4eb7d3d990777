"""The verdict of a verification sweep, and the one pass rule: a margin
passes iff margin + tol >= 0, so a NaN margin fails.  Each verdict subcommand
of the CLI records its margins in one ScanReport and exits by its passed: a
scan records one block (an array) at a time and yields its rows, as 2-D row
blocks, to its caller, which hands them to the CSV writer.  max_violation is
the least failing margin + tol (0.0 if none), min_margin the least margin
(inf if none); both are NaN from the first NaN margin on."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ScanReport"]


@dataclass
class ScanReport:
    max_violation: float = 0.0
    passed: bool = True
    min_margin: float = math.inf

    def record(self, margins, tol: float = 0.0) -> None:
        margins = np.asarray(margins, dtype=float)
        if margins.size == 0:
            return
        # the first least margin or the first NaN, as min() over the rows finds
        # it; rounding is monotone, so low + tol is the least margin + tol
        low = float(margins.flat[np.argmin(margins)])
        if low < self.min_margin or math.isnan(low):
            self.min_margin = low
        if not low + tol >= 0.0:  # a NaN margin fails too
            self.passed = False
            self.max_violation = float(np.minimum(self.max_violation, low + tol))
