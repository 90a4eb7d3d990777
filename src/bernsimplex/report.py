"""Structured result of a verification sweep.

A scan accumulates rows of signed margins.  Each margin is normalized so
that the requirement is simply ``margin >= 0``: for a check "value must
exceed -tol", the stored margin is ``value + tol``.  max_violation is the
most negative margin seen (0.0 if none), or NaN from the first NaN margin on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["ScanReport"]


@dataclass
class ScanReport:
    max_violation: float = 0.0
    passed: bool = True
    # row layout is owner-defined; monotone scans use (a, order, value, margin),
    # the inequality fuzzer uses (trial, d, M, check, margin)
    rows: List[Tuple] = field(default_factory=list)

    def record(self, margin: float, row: Tuple) -> None:
        self.rows.append(row)
        if not margin >= 0.0:  # a NaN margin fails too
            self.passed = False
            if margin < self.max_violation or math.isnan(margin):
                self.max_violation = margin
