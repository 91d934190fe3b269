"""Per-(layer, head) store of sealed KV slabs and chunk summaries, with
residency flags and exact load accounting.

Every sealed chunk's rotated-K and V rows live in two store-wide arrays,
each (capacity, L, H, l, d_head) and indexed by chunk id first, so capacity
that no layer has reached yet is never touched. All layers share the
capacity; it grows to twice the chunks written, so a prompt's encode leaves
room for decode's seals. Residency is one flag per (layer, head, chunk): a
hot slab stands for rows held in fast memory, an offloaded one for rows
that must be loaded, and `gather` counts every offloaded row it reads, so
the decode-phase load bound is observable rather than asserted. Chunk
representations are always hot: row [layer, h, i] of one more array is head
h's summary of chunk i, written at seal, so a decode step scores every
head's candidate chunks over one slice of it.

Keys arrive twice: unrotated, and rotated by their offset inside their
chunk. Slabs and `gather` hold the rotated rows, so a query rotated once per
slot attends them at any remapped position. Summaries must stay
position-free, so the recent region also keeps the Q and unrotated K rows
that sealing summarizes. Each layer's recent region is one (4, H, l, d_head)
buffer of Q, K, V and rotated-K rows with one length per head; a full buffer
is summarized in one batched call and its K_rot and V rows written once.

The store keeps a running count of hot tokens (hot slab rows plus recent
rows over all (layer, head) pairs), updated on every residency change, so
sampling the peak costs O(1) per write or gather; `hot_tokens()` is the
slow recount. A seal counts the heads' slabs in head order, each while
that head's l recent rows still count, and drops them before the next, so
the peak is sampled where per-head appends would sample it. Budget
residency keeps each head's hot chunk ids in a dict, least recently
gathered first, and evicts from its front.

`bulk_append` and `append_token` write, and `gather` reads, every head of
a layer at once, so between calls a layer's heads hold equally many sealed
chunks and recent rows. Residency is fixed when the store is built.
"""

from __future__ import annotations

import numpy as np

from . import model
from .representation import build_chunk_repr

RESIDENCY_MODES = ("hot", "offload", "budget")


class ChunkStore:
    """Segmented KV cache with residency flags and exact load accounting."""

    def __init__(
        self,
        n_layers: int,
        n_heads: int,
        d_head: int,
        chunk_size: int,
        *,
        residency: str = "hot",
        budget: int | None = None,
        working_set_tokens: int | None = None,
    ):
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        self.chunk_size = chunk_size
        if residency not in RESIDENCY_MODES:
            raise ValueError(
                f"unknown residency mode {residency!r}; expected one of {RESIDENCY_MODES}"
            )
        if residency == "budget":
            # keep at most `budget` hot tokens per (layer, head), evicting the
            # least-recently-gathered slab first
            if budget is None:
                raise ValueError("budget residency requires a token budget")
            if working_set_tokens is not None and budget < working_set_tokens:
                raise ValueError(
                    f"budget={budget} cannot hold one working set of {working_set_tokens} tokens"
                )
        else:
            budget = None
        self.mode = residency
        self.budget = budget
        # rotated K and V rows of slab [chunk, layer, head]
        self._K = np.empty((0, n_layers, n_heads, chunk_size, d_head))
        self._V = np.empty_like(self._K)
        # whether slab [layer, head, chunk] is hot
        self._hot = np.zeros((n_layers, n_heads, 0), dtype=bool)
        self._reprs = np.empty((n_layers, n_heads, 0, d_head))
        self._sealed = [0] * n_layers
        # budget residency only: each head's hot chunk ids, least recently
        # gathered first
        self._lru = [[{} for _ in range(n_heads)] for _ in range(n_layers)]
        # rows 0..3 of a layer's buffer: Q, K, V and rotated K
        self._recent = [np.empty((4, n_heads, chunk_size, d_head)) for _ in range(n_layers)]
        # per head, because a write installs heads one after another
        self._recent_lens = [[0] * n_heads for _ in range(n_layers)]
        self._hot_level = 0
        self.tokens_loaded_this_step = 0
        self.tokens_loaded_total = 0
        self.tokens_gathered_this_step = 0
        self.tokens_gathered_total = 0
        self.peak_hot_tokens = 0

    # -- residency ---------------------------------------------------------

    def _evict_over_budget(self, layer: int, head: int) -> None:
        """Offload one head's least recently gathered hot slabs until they
        fit the budget; every slab holds chunk_size rows."""
        lru = self._lru[layer][head]
        while lru and len(lru) * self.chunk_size > self.budget:
            victim = next(iter(lru))
            del lru[victim]
            self._hot[layer, head, victim] = False
            self._hot_level -= self.chunk_size

    def _note_hot_level(self) -> None:
        if self._hot_level > self.peak_hot_tokens:
            self.peak_hot_tokens = self._hot_level

    # -- writes ------------------------------------------------------------

    def _seal(self, layer: int, reprs, K, V) -> range:
        """Write the next chunks of every head of `layer`: (H, chunks,
        d_head) summaries and (H, chunks, l, d_head) rotated-K and V rows.
        Returns their ids; `_install` then counts them head by head."""
        first = self._sealed[layer]
        end = first + K.shape[1]
        if end > len(self._K):
            self._grow(2 * end)
        self._K[first:end, layer] = K.swapaxes(0, 1)
        self._V[first:end, layer] = V.swapaxes(0, 1)
        self._reprs[layer, :, first:end] = reprs
        self._sealed[layer] = end
        return range(first, end)

    def _grow(self, capacity: int) -> None:
        """Reallocate every per-chunk array with room for `capacity` chunks."""
        cap = len(self._K)

        def grown(old, axis, alloc=np.empty):
            new = alloc(old.shape[:axis] + (capacity,) + old.shape[axis + 1 :], dtype=old.dtype)
            new[(slice(None),) * axis + (slice(cap),)] = old
            return new

        self._K, self._V = grown(self._K, 0), grown(self._V, 0)
        self._hot = grown(self._hot, 2, np.zeros)
        self._reprs = grown(self._reprs, 2)

    def _install(self, layer: int, head: int, ids: range) -> None:
        """Count one head's newly sealed chunks `ids` under the residency,
        sampling the peak as if they arrived one at a time: under budget
        residency each is hot until the eviction that follows it."""
        l, hot = self.chunk_size, self._hot[layer, head]
        if self.mode == "budget":
            lru = self._lru[layer][head]
            for cid in ids:
                hot[cid] = True
                lru[cid] = None
                self._hot_level += l
                self._evict_over_budget(layer, head)
                self._note_hot_level()
            return
        if self.mode == "hot":
            hot[ids.start : ids.stop] = True
            self._hot_level += l * len(ids)
        self._note_hot_level()

    def append_token(self, layer: int, q, k, v, k_rot):
        """Add one token's unrotated (H, d_head) states and its keys rotated
        by its offset in the chunk to every head of `layer`; returns the
        sealed chunk id when this token completes a chunk, else None."""
        H, l = self.n_heads, self.chunk_size
        r = self.recent_len(layer)
        buf = self._recent[layer]
        for i, rows in enumerate((q, k, v, k_rot)):
            if np.shape(rows) != (H, self.d_head):
                raise ValueError(f"expected ({H}, {self.d_head}) rows, got {np.shape(rows)}")
            buf[i, :, r] = rows
        lens = self._recent_lens[layer]
        if r + 1 < l:
            lens[:] = [r + 1] * H
            self._hot_level += H
            self._note_hot_level()
            return None
        chunk_id = self.sealed_count(layer)
        # one chunk per head: (H, 1, l, d_head) Q, K, V, K_rot
        reprs = build_chunk_repr(chunk_id, *buf[:3, :, None])
        ids = self._seal(layer, reprs, buf[3, :, None], buf[2, :, None])
        for head in range(H):
            lens[head] = l
            self._hot_level += 1
            self._install(layer, head, ids)
            lens[head] = 0
            self._hot_level -= l
        return chunk_id

    def bulk_append(self, layer: int, Q, K, V, K_rot) -> list:
        """Ingest (H, tokens, d_head) blocks for every head of `layer` at
        once, sealing every complete chunk; returns the sealed chunk ids.

        Equivalent to repeated append_token; used by the encoding phase.
        The complete chunks are summarized, before any state changes, in
        batches of about DENSE_BLOCK_ROWS rows over all heads, which bounds
        the (H, chunks, l, l) attention scratch. Heads are then installed
        one after another: a head's slabs, then its recent rows.
        """
        Q, K, V, K_rot = (np.asarray(a, dtype=np.float64) for a in (Q, K, V, K_rot))
        H, l = self.n_heads, self.chunk_size
        if not Q.shape == K.shape == V.shape == K_rot.shape or Q.ndim != 3 or len(Q) != H:
            raise ValueError(f"Q/K/V/K_rot must be matching ({H}, tokens, d_head) blocks")
        if self.recent_len(layer):
            raise ValueError("bulk_append requires an empty recent buffer")
        n = Q.shape[1]
        n_full = (n // l) * l
        first = self.sealed_count(layer)
        blocks = [a[:, :n_full].reshape(H, -1, l, a.shape[2]) for a in (Q, K, V, K_rot)]
        per = max(1, model.DENSE_BLOCK_ROWS // (H * l))
        reprs = [
            build_chunk_repr(first + c, *(b[:, c : c + per] for b in blocks[:3]))
            for c in range(0, n // l, per)
        ]
        reprs = np.concatenate(reprs, axis=1) if reprs else np.empty((H, 0, self.d_head))
        ids = self._seal(layer, reprs, blocks[3], blocks[2])
        tail = n - n_full
        self._recent[layer][:, :, :tail] = [a[:, n_full:] for a in (Q, K, V, K_rot)]
        lens = self._recent_lens[layer]
        for head in range(H):
            self._install(layer, head, ids)
            lens[head] = tail
            self._hot_level += tail
            self._note_hot_level()
        return list(ids)

    # -- reads -------------------------------------------------------------

    def sealed_count(self, layer: int) -> int:
        """The number of sealed chunks every head of `layer` holds."""
        return self._sealed[layer]

    def recent_len(self, layer: int) -> int:
        """The number of recent rows every head of `layer` holds."""
        return self._recent_lens[layer][0]

    def layer_reprs(self, layer: int) -> np.ndarray:
        """Read-only (H, sealed, d_head) view of every head's summaries."""
        view = self._reprs[layer, :, : self.sealed_count(layer)]
        view.flags.writeable = False
        return view

    def gather(self, layer: int, chunk_ids):
        """Rotated K and V slabs of each head's selected sealed chunks, and
        its recent rows.

        `chunk_ids` is an (H, width) integer matrix whose row h lists head
        h's sealed chunks in strictly ascending order. Returns (K, V,
        K_recent, V_recent): K and V are new (H, width, l, d_head) arrays,
        and K_recent and V_recent read-only (H, recent, d_head) views of
        the recent rows, valid until the layer's next write. The whole
        matrix is checked before any state changes, so a rejected call
        leaves the store as it was; the first bad id in row order names
        the error. Every offloaded slab read is counted. Under budget
        residency heads are then served one after another: a head's slabs
        move to the back of its LRU in id order and offloaded ones are
        promoted, then that head's slabs are evicted down to the budget and
        the hot peak is sampled. The hot set is otherwise left unchanged.
        """
        ids = np.asarray(chunk_ids)
        H, l = self.n_heads, self.chunk_size
        if ids.ndim != 2 or ids.shape[0] != H or (ids.size and ids.dtype.kind not in "iu"):
            raise ValueError(
                f"chunk ids must be an ({H}, width) integer matrix, got {ids.dtype} {ids.shape}"
            )
        sealed = self._sealed[layer]
        # Rows strictly ascending, the first column's least id >= 0 and the
        # last column's greatest < sealed put every id in range.
        if ids.size and not (
            ids[:, 0].min() >= 0
            and ids[:, -1].max() < sealed
            and (ids[:, 1:] > ids[:, :-1]).all()
        ):
            unknown = (ids < 0) | (ids >= sealed)
            bad = unknown.copy()
            bad[:, 1:] |= ids[:, 1:] <= ids[:, :-1]
            head, j = np.unravel_index(np.argmax(bad), bad.shape)
            if unknown[head, j]:
                raise KeyError(f"unknown chunk id {ids[head, j]} (sealed: {sealed})")
            raise ValueError(
                f"chunk ids must be strictly ascending, got {tuple(ids[head].tolist())}"
            )
        ids = ids.astype(np.intp, copy=False)
        heads = np.arange(H)[:, None]
        cold = ~self._hot[layer][heads, ids]
        loaded = int(np.count_nonzero(cold)) * l
        self.tokens_loaded_this_step += loaded
        self.tokens_loaded_total += loaded
        if self.mode == "budget":
            for head, (row, row_cold) in enumerate(zip(ids.tolist(), cold.tolist())):
                lru, hot = self._lru[layer][head], self._hot[layer, head]
                for cid, was_cold in zip(row, row_cold):
                    if was_cold:
                        hot[cid] = True
                        self._hot_level += l
                    lru[cid] = lru.pop(cid, None)
                # evict once per head so the working set cannot thrash itself
                self._evict_over_budget(layer, head)
                self._note_hot_level()
        recent = self._recent[layer][:, :, : self.recent_len(layer)]
        recent.flags.writeable = False
        rows = H * (ids.shape[1] * l + recent.shape[2])
        self.tokens_gathered_this_step += rows
        self.tokens_gathered_total += rows
        return self._K[ids, layer, heads], self._V[ids, layer, heads], recent[3], recent[2]

    # -- accounting --------------------------------------------------------

    def begin_step(self) -> None:
        self.tokens_loaded_this_step = 0
        self.tokens_gathered_this_step = 0

    def hot_tokens(self) -> int:
        """Recount hot tokens from the flags; O(L·H·capacity), for checks only."""
        recent = sum(sum(lens) for lens in self._recent_lens)
        return int(np.count_nonzero(self._hot)) * self.chunk_size + recent

    def residency_flags(self, layer: int, head: int) -> list:
        flags = self._hot[layer, head, : self._sealed[layer]].tolist()
        return ["hot" if hot else "offloaded" for hot in flags]

    def counters(self) -> dict:
        return {
            "tokens_loaded_this_step": self.tokens_loaded_this_step,
            "tokens_loaded_total": self.tokens_loaded_total,
            "tokens_gathered_this_step": self.tokens_gathered_this_step,
            "tokens_gathered_total": self.tokens_gathered_total,
            "peak_hot_tokens": self.peak_hot_tokens,
        }
