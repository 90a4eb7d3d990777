import math

import numpy as np
import pytest

from bernsimplex import monotone, simplex


@pytest.fixture
def small_blocks(monkeypatch):
    """small_blocks(items, floats) sets simplex.BLOCK_BYTES so that a loop
    whose items hold floats float64s each takes items of them a block."""
    def patch(items: int, floats: int) -> None:
        # the part of BLOCK_BYTES that _block_len keeps free of items
        reserve = simplex.BLOCK_BYTES - 8 * simplex._block_len(1)
        monkeypatch.setattr(simplex, "BLOCK_BYTES", reserve + 8 * floats * items)
        assert simplex._block_len(floats) == items
    return patch


@pytest.fixture
def nan_derivative(monkeypatch):
    """monotone.h_derivative made NaN everywhere; its scale, when asked for,
    is the true one, so the NaN reaches every derivative margin."""
    h_derivative = monotone.h_derivative

    def nan(inst, a, n, scale=False):
        value, big = h_derivative(inst, a, n, scale=True)
        value = np.full_like(value, math.nan)
        return (value, big) if scale else value

    monkeypatch.setattr(monotone, "h_derivative", nan)
