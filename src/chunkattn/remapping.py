"""Contiguous in-distribution positions for gathered attention rows.

Selected chunks are laid out back-to-back from position 0 in their original
text order, followed by the recent region and then the query token. Gaps
between selected chunks collapse with no sentinel: any gap encoding would
reintroduce the out-of-distribution positions this exists to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chunking import ChunkLayout
from .selection import SelectionSet

RECENT_SEGMENT = -1


@dataclass(frozen=True)
class Segment:
    segment_id: int  # chunk index, or RECENT_SEGMENT for the unsealed tail
    original: tuple
    remapped: tuple


@dataclass(frozen=True)
class PositionMap:
    segments: tuple
    query_position: int

    @property
    def total_length(self) -> int:
        return self.query_position

    def key_positions(self):
        return range(self.query_position)


def remap(
    selection: SelectionSet,
    layout: ChunkLayout,
    recent_len: int,
    max_positions: int,
) -> PositionMap:
    """Lay out the selected chunks plus recent region and query token.

    Raises when the remapped span would not fit below `max_positions`,
    which signals a misconfigured (k, l, L) triple rather than anything
    recoverable at attention time.
    """
    if recent_len < 0:
        raise ValueError(f"recent_len={recent_len} must be >= 0")
    n, m = layout.n, layout.m
    segments = []
    cursor = 0
    for cid in selection.chunks:
        if not 0 <= cid < m:
            raise ValueError(f"chunk {cid} outside layout with {m} chunks")
        start, end = layout.span(cid)
        length = end - start
        segments.append(Segment(cid, (start, end), (cursor, cursor + length)))
        cursor += length
    if recent_len:
        if recent_len > n:
            raise ValueError(f"recent_len={recent_len} exceeds stream length {n}")
        segments.append(Segment(RECENT_SEGMENT, (n - recent_len, n), (cursor, cursor + recent_len)))
        cursor += recent_len
    if cursor + 1 > max_positions:
        raise ValueError(
            f"remapped span of {cursor} rows plus the query does not fit below "
            f"{max_positions} positions; k*chunk_size is too large for this model"
        )
    return PositionMap(segments=tuple(segments), query_position=cursor)
