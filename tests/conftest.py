import pytest

from bernsimplex import simplex


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
