import pytest
from hypothesis import given, strategies as st

from chunkattn import ChunkLayout, advance


def test_layout_exact_division():
    lo = ChunkLayout(n=1024, chunk_size=256)
    assert lo.m == 4
    assert lo.bounds == ((0, 256), (256, 512), (512, 768), (768, 1024))
    assert lo.tail_len == 0


def test_layout_with_remainder():
    lo = ChunkLayout(n=1000, chunk_size=256)
    assert lo.m == 4
    assert lo.m_complete == 3
    assert lo.bounds[-1] == (768, 1000)
    assert lo.tail_len == 232


def test_layout_sub_chunk_input():
    lo = ChunkLayout(n=100, chunk_size=256)
    assert lo.m == 1
    assert lo.bounds == ((0, 100),)


def test_layout_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ChunkLayout(n=0, chunk_size=4)
    with pytest.raises(ValueError):
        ChunkLayout(n=4, chunk_size=0)


def test_advance_seals_on_boundary():
    lo = ChunkLayout(n=255, chunk_size=256)
    lo, sealed = advance(lo, 255)
    assert sealed == 0
    lo, sealed = advance(lo, 256)
    assert sealed is None
    lo = ChunkLayout(n=511, chunk_size=256)
    _, sealed = advance(lo, 511)
    assert sealed == 1


def test_advance_rejects_non_monotonic():
    lo = ChunkLayout(n=10, chunk_size=4)
    with pytest.raises(ValueError, match="non-monotonic"):
        advance(lo, 9)


@given(n=st.integers(1, 500), l=st.integers(1, 64))
def test_bounds_reconstruct_range(n, l):
    lo = ChunkLayout(n=n, chunk_size=l)
    covered = []
    prev_end = 0
    for start, end in lo.bounds:
        assert start == prev_end
        assert end > start
        covered.extend(range(start, end))
        prev_end = end
    assert covered == list(range(n))
    assert all(end - start == l for start, end in lo.bounds[:-1])


@given(n=st.integers(1, 300), l=st.integers(1, 32))
def test_streaming_seal_count(n, l):
    seals = []
    current = ChunkLayout(n=1, chunk_size=l)
    # the very first token seals chunk 0 on its own when l == 1
    if current.n % l == 0:
        seals.append(0)
    for idx in range(1, n):
        current, sealed = advance(current, idx)
        if sealed is not None:
            seals.append(sealed)
    assert len(seals) == n // l
    assert seals == list(range(n // l))
