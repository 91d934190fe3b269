"""Contiguous in-distribution positions for gathered attention rows.

Selected chunks are laid out back-to-back from position 0 in their original
text order, followed by the recent region and then the query token. Gaps
between selected chunks collapse with no sentinel: any gap encoding would
reintroduce the out-of-distribution positions this exists to prevent.
"""

from __future__ import annotations

import numpy as np

from .chunking import ChunkLayout


def remap(ids, layout: ChunkLayout, recent_len: int, max_positions: int) -> int:
    """Position of the query token after each row of `ids` (the selected
    sealed chunks of one head, ascending) and the recent region.

    Every sealed chunk holds chunk_size rows, so each head of an (H, width)
    id matrix puts its query at width * chunk_size + recent_len; that
    position is returned. Key rows sit at 0..position-1. Only the matrix's
    width is read: the ids themselves are checked where they are used, by
    `ChunkStore.gather`. Raises when the span would not fit below
    `max_positions`, which signals a misconfigured (k, l, L) triple rather
    than anything recoverable at attention time.
    """
    if recent_len < 0:
        raise ValueError(f"recent_len={recent_len} must be >= 0")
    if recent_len > layout.n:
        raise ValueError(f"recent_len={recent_len} exceeds stream length {layout.n}")
    position = np.shape(ids)[-1] * layout.chunk_size + recent_len
    if position + 1 > max_positions:
        raise ValueError(
            f"remapped span of {position} rows plus the query does not fit below "
            f"{max_positions} positions; k*chunk_size is too large for this model"
        )
    return position
