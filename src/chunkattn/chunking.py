"""Fixed-size chunk layout over a token stream."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class ChunkLayout:
    """Partition of n tokens into chunk_size-sized pieces.

    The final chunk may be partial; it only counts as sealed once it reaches
    exactly chunk_size tokens. Until then its tokens form the recent region.
    """

    n: int
    chunk_size: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n={self.n} must be >= 1")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size={self.chunk_size} must be >= 1")

    @property
    def m_complete(self) -> int:
        return self.n // self.chunk_size

    @property
    def tail_len(self) -> int:
        return self.n - self.m_complete * self.chunk_size

    @property
    def m(self) -> int:
        """Total chunks, counting a partial tail."""
        return self.m_complete + (1 if self.tail_len else 0)

    def span(self, cid: int) -> tuple:
        """Half-open (start, end) token range of chunk `cid`."""
        l = self.chunk_size
        return cid * l, min((cid + 1) * l, self.n)

    @cached_property
    def bounds(self) -> tuple:
        """Half-open (start, end) token ranges, one per chunk."""
        return tuple(self.span(i) for i in range(self.m))

    def chunk_of(self, token_index: int) -> int:
        if not 0 <= token_index < self.n:
            raise ValueError(f"token index {token_index} out of range [0, {self.n})")
        return token_index // self.chunk_size


def layout(n: int, chunk_size: int) -> ChunkLayout:
    return ChunkLayout(n=n, chunk_size=chunk_size)


def advance(current: ChunkLayout, new_token_index: int):
    """Extend the stream by one token.

    Returns the new layout and, when the token completes a chunk, the index
    of the chunk that just sealed (None otherwise).
    """
    if new_token_index != current.n:
        raise ValueError(
            f"non-monotonic append: expected token index {current.n}, got {new_token_index}"
        )
    grown = ChunkLayout(n=current.n + 1, chunk_size=current.chunk_size)
    sealed = grown.m_complete - 1 if grown.n % grown.chunk_size == 0 else None
    return grown, sealed
