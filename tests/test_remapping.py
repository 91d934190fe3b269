import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkattn import ChunkLayout, remap


def test_gap_collapse_matches_back_to_back_layout():
    l = 64
    lo = ChunkLayout(n=8 * l, chunk_size=l)
    # chunks 0, 1, 6, 7 take positions 0..4l-1 with no gap for chunks 2..5
    assert remap([[0, 1, 6, 7]], lo, recent_len=0, max_positions=1024) == 4 * l
    assert remap([[0, 1, 2, 3]], lo, recent_len=0, max_positions=1024) == 4 * l


def test_recent_region_appended_after_chunks():
    lo = ChunkLayout(n=8, chunk_size=5)
    # chunk 0 at 0..4, the recent tokens 5..7 at 5..7, the query at 8
    assert remap([[0]], lo, recent_len=3, max_positions=64) == 8


def test_identity_when_selection_covers_whole_prefix():
    lo = ChunkLayout(n=96, chunk_size=32)
    assert remap([[0, 1, 2]], lo, recent_len=0, max_positions=512) == lo.n


def test_capacity_error():
    lo = ChunkLayout(n=128, chunk_size=32)
    with pytest.raises(ValueError, match="does not fit"):
        remap([[0, 1, 2, 3]], lo, recent_len=0, max_positions=128)
    # one fewer chunk fits
    remap([[0, 1, 2]], lo, recent_len=0, max_positions=128)


def test_negative_recent_rejected():
    lo = ChunkLayout(n=64, chunk_size=32)
    with pytest.raises(ValueError):
        remap([[0]], lo, recent_len=-1, max_positions=512)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    l=st.integers(1, 16),
    m=st.integers(1, 12),
    recent=st.integers(0, 15),
    heads=st.integers(1, 4),
)
def test_remap_contiguous_ordered_and_in_distribution(data, l, m, recent, heads):
    recent = recent % l
    lo = ChunkLayout(n=m * l + recent, chunk_size=l)
    width = data.draw(st.integers(0, min(6, lo.m_complete)))
    ids = np.array(
        [
            sorted(data.draw(st.sets(st.integers(0, lo.m_complete - 1), min_size=width, max_size=width)))
            for _ in range(heads)
        ],
        dtype=np.int64,
    ).reshape(heads, width)
    max_positions = lo.n + 1  # always enough: remap never exceeds the source length
    position = remap(ids, lo, recent_len=recent, max_positions=max_positions)
    # every head lays its chunks back to back from 0, then the recent rows,
    # whichever chunks it picked
    assert position == width * l + recent
    assert position <= lo.n
    assert position < max_positions
