"""Tiered per-(layer, head) store of sealed KV slabs and chunk summaries.

Sealed chunks live in a hot tier (numpy arrays) or an offload tier (an
in-process byte store standing in for host memory). Fetches from the
offload tier are counted in token rows, so the decode-phase load bound is
observable rather than asserted. Chunk representations are always hot:
each layer keeps one contiguous (H, m, d_head) array whose row [h, i] is
head h's summary of chunk i, written at seal, so a decode step scores
every head's candidate chunks over one slice of it.

Keys arrive twice: unrotated, and rotated by their offset inside their
chunk. Slabs and `gather` hold the rotated rows, so a query rotated once per
slot attends them at any remapped position. Summaries must stay
position-free, so the recent region also keeps the Q and unrotated K rows
that sealing summarizes. Each layer's recent region is one (4, H, l, d_head)
buffer of Q, K, V and rotated-K rows with one length per head; a full buffer
is summarized in one batched call and its K_rot and V rows copied out once.

The store keeps a running count of hot tokens (hot slab rows plus recent
rows over all (layer, head) pairs), updated on every residency change, so
sampling the peak costs O(1) per write or gather; `hot_tokens()` is the
slow recount. A seal installs the heads' slabs in head order, each while
that head's l recent rows still count, and drops them before the next, so
the peak is sampled where per-head appends would sample it. Budget
residency keeps each head's hot slabs in a dict in stamp order and evicts
from its front.

`bulk_append` and `append_token` write, and `gather` reads, every head of
a layer at once, so between calls a layer's heads hold equally many sealed
chunks and recent rows. Residency is fixed when the store is built.
"""

from __future__ import annotations

import numpy as np

from . import model
from .representation import build_chunk_repr

RESIDENCY_MODES = ("hot", "offload", "budget")


class _Slab:
    """One sealed chunk's K/V rows, resident either as arrays or as bytes.

    Residency changes go through ChunkStore._offload / _promote, which keep
    the store's hot-token count in step.
    """

    __slots__ = ("rows", "dim", "k", "v", "k_bytes", "v_bytes", "hot", "stamp")

    def __init__(self, k: np.ndarray, v: np.ndarray, stamp: int):
        self.rows, self.dim = k.shape
        self.k, self.v = np.ascontiguousarray(k), np.ascontiguousarray(v)
        self.k.flags.writeable = self.v.flags.writeable = False
        self.k_bytes = self.v_bytes = None
        self.hot = True
        self.stamp = stamp

    def fetch(self):
        """Read-only arrays over the byte tier; residency is unchanged."""
        shape = (self.rows, self.dim)
        k = np.frombuffer(self.k_bytes, dtype=np.float64).reshape(shape)
        v = np.frombuffer(self.v_bytes, dtype=np.float64).reshape(shape)
        return k, v


class ChunkStore:
    """Segmented KV cache with residency tiers and exact load accounting."""

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
        self._slabs = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
        # budget residency only: each head's hot slabs, oldest stamp first
        self._lru = [[{} for _ in range(n_heads)] for _ in range(n_layers)]
        self._reprs = [np.empty((n_heads, 0, d_head)) for _ in range(n_layers)]
        # rows 0..3 of a layer's buffer: Q, K, V and rotated K
        self._recent = [np.empty((4, n_heads, chunk_size, d_head)) for _ in range(n_layers)]
        # per head, because a write installs heads one after another
        self._recent_lens = [[0] * n_heads for _ in range(n_layers)]
        self._clock = 0
        self._hot_level = 0
        self.tokens_loaded_this_step = 0
        self.tokens_loaded_total = 0
        self.tokens_gathered_this_step = 0
        self.tokens_gathered_total = 0
        self.peak_hot_tokens = 0

    # -- residency ---------------------------------------------------------

    def _evict_over_budget(self, lru: dict) -> None:
        """Offload the oldest-stamped of one head's hot slabs `lru` until
        they fit the budget; every slab holds chunk_size rows."""
        while lru and len(lru) * self.chunk_size > self.budget:
            victim = next(iter(lru))
            del lru[victim]
            self._offload(victim)

    def _offload(self, slab: _Slab) -> None:
        """Move a hot slab to the byte tier."""
        slab.k_bytes = slab.k.tobytes()
        slab.v_bytes = slab.v.tobytes()
        slab.k = None
        slab.v = None
        slab.hot = False
        self._hot_level -= slab.rows

    def _promote(self, slab: _Slab, k: np.ndarray, v: np.ndarray) -> None:
        """Make an offloaded slab hot again with its fetched arrays."""
        self._hot_level += slab.rows
        slab.k = k
        slab.v = v
        slab.k_bytes = None
        slab.v_bytes = None
        slab.hot = True

    def _note_hot_level(self) -> None:
        if self._hot_level > self.peak_hot_tokens:
            self.peak_hot_tokens = self._hot_level

    # -- writes ------------------------------------------------------------

    def _install_sealed(self, layer, head, reprs, K, V) -> None:
        """Store the next chunks' summaries `reprs` (chunks, d_head) and
        their (chunks, l, d_head) K/V rows as slabs, one after another."""
        slabs, lru = self._slabs[layer][head], self._lru[layer][head]
        self._write_reprs(layer, head, len(slabs), reprs)
        for k, v in zip(K, V):
            self._clock += 1
            slab = _Slab(k, v, stamp=self._clock)
            slabs.append(slab)
            self._hot_level += slab.rows
            if self.mode == "offload":
                self._offload(slab)
            elif self.mode == "budget":
                lru[slab] = None
                self._evict_over_budget(lru)
            self._note_hot_level()

    def _write_reprs(self, layer: int, head: int, first: int, reprs: np.ndarray) -> None:
        """Store summaries as rows [head, first:] of the layer's array,
        at least doubling its capacity when they do not fit."""
        mat = self._reprs[layer]
        cap = mat.shape[1]
        end = first + len(reprs)
        if end > cap:
            grown = np.empty((self.n_heads, max(8, 2 * cap, end), self.d_head))
            grown[:, :cap] = mat
            self._reprs[layer] = mat = grown
        mat[head, first:end] = reprs

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
        # one chunk per head: (H, 1, l, d_head) Q, K, V, then V and K_rot copied
        reprs = build_chunk_repr(chunk_id, *buf[:3, :, None])
        V, K_rot = buf[2:, :, None].copy()
        for head in range(H):
            lens[head] = l
            self._hot_level += 1
            self._install_sealed(layer, head, reprs[head], K_rot[head], V[head])
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
        sealed = list(range(first, first + n // l))
        blocks = [a[:, :n_full].reshape(H, -1, l, a.shape[2]) for a in (Q, K, V, K_rot)]
        per = max(1, model.DENSE_BLOCK_ROWS // (H * l))
        reprs = [
            build_chunk_repr(first + c, *(b[:, c : c + per] for b in blocks[:3]))
            for c in range(0, len(sealed), per)
        ]
        reprs = np.concatenate(reprs, axis=1) if reprs else np.empty((H, 0, self.d_head))
        tail = n - n_full
        self._recent[layer][:, :, :tail] = [a[:, n_full:] for a in (Q, K, V, K_rot)]
        lens = self._recent_lens[layer]
        for head in range(H):
            self._install_sealed(layer, head, reprs[head], blocks[3][head], blocks[2][head])
            lens[head] = tail
            self._hot_level += tail
            self._note_hot_level()
        return sealed

    # -- reads -------------------------------------------------------------

    def sealed_count(self, layer: int) -> int:
        """The number of sealed chunks every head of `layer` holds."""
        return len(self._slabs[layer][0])

    def recent_len(self, layer: int) -> int:
        """The number of recent rows every head of `layer` holds."""
        return self._recent_lens[layer][0]

    def layer_reprs(self, layer: int) -> np.ndarray:
        """Read-only (H, sealed, d_head) view of every head's summaries."""
        view = self._reprs[layer][:, : self.sealed_count(layer)]
        view.flags.writeable = False
        return view

    def gather(self, layer: int, chunk_ids):
        """Rotated K and V rows of each head's selected sealed chunks, then
        its recent rows.

        `chunk_ids` is an (H, width) integer matrix whose row h lists head
        h's sealed chunks in strictly ascending order. Returns (K, V), each
        (H, width * l + recent, d_head). The whole matrix is checked before
        any state changes, so a rejected call leaves the store as it was.
        Heads are served one after another: a head's slabs are stamped in id
        order, offloaded ones are fetched and counted, and under budget
        residency promoted, then that head's slabs are evicted down to the
        budget and the hot peak is sampled. The hot set is otherwise left
        unchanged.
        """
        ids = np.asarray(chunk_ids)
        H, l, d = self.n_heads, self.chunk_size, self.d_head
        if ids.ndim != 2 or ids.shape[0] != H or (ids.size and ids.dtype.kind not in "iu"):
            raise ValueError(
                f"chunk ids must be an ({H}, width) integer matrix, got {ids.dtype} {ids.shape}"
            )
        recent = self.recent_len(layer)
        id_rows = ids.tolist()
        for head, head_ids in enumerate(id_rows):
            sealed, prev = len(self._slabs[layer][head]), -1
            for cid in head_ids:
                if not 0 <= cid < sealed:
                    raise KeyError(f"unknown chunk id {cid} (sealed: {sealed})")
                if cid <= prev:
                    raise ValueError(f"chunk ids must be strictly ascending, got {tuple(head_ids)}")
                prev = cid
        width = ids.shape[1]
        rows = width * l + recent
        K = np.empty((H, rows, d))
        V = np.empty((H, rows, d))
        # Byte views of K and V, so an offloaded slab's bytes copy straight
        # in; a view of zero rows cannot be cast, and no slab is read then.
        if rows:
            k_bytes, v_bytes = memoryview(K).cast("B"), memoryview(V).cast("B")
        slab_bytes = l * d * K.itemsize
        budget = self.mode == "budget"
        for head, head_ids in enumerate(id_rows):
            slabs, lru = self._slabs[layer][head], self._lru[layer][head]
            for j, cid in enumerate(head_ids):
                slab = slabs[cid]
                self._clock += 1
                slab.stamp = self._clock
                if not slab.hot:
                    self.tokens_loaded_this_step += slab.rows
                    self.tokens_loaded_total += slab.rows
                    if budget:
                        self._promote(slab, *slab.fetch())
                if budget:
                    lru[slab] = lru.pop(slab, None)
                if slab.hot:
                    K[head, j * l : (j + 1) * l] = slab.k
                    V[head, j * l : (j + 1) * l] = slab.v
                else:
                    at = (head * rows + j * l) * d * K.itemsize
                    k_bytes[at : at + slab_bytes] = slab.k_bytes
                    v_bytes[at : at + slab_bytes] = slab.v_bytes
            if budget:
                # evict once per head so the working set cannot thrash itself
                self._evict_over_budget(lru)
            self._note_hot_level()
        K[:, width * l :] = self._recent[layer][3, :, :recent]
        V[:, width * l :] = self._recent[layer][2, :, :recent]
        self.tokens_gathered_this_step += H * rows
        self.tokens_gathered_total += H * rows
        return K, V

    # -- accounting --------------------------------------------------------

    def begin_step(self) -> None:
        self.tokens_loaded_this_step = 0
        self.tokens_gathered_this_step = 0

    def hot_tokens(self) -> int:
        """Recount hot tokens slab by slab; O(L·H·m), for checks only."""
        level = 0
        for layer in range(self.n_layers):
            for head in range(self.n_heads):
                level += sum(s.rows for s in self._slabs[layer][head] if s.hot)
            level += sum(self._recent_lens[layer])
        return level

    def residency_flags(self, layer: int, head: int) -> list:
        return ["hot" if s.hot else "offloaded" for s in self._slabs[layer][head]]

    def counters(self) -> dict:
        return {
            "tokens_loaded_this_step": self.tokens_loaded_this_step,
            "tokens_loaded_total": self.tokens_loaded_total,
            "tokens_gathered_this_step": self.tokens_gathered_this_step,
            "tokens_gathered_total": self.tokens_gathered_total,
            "peak_hot_tokens": self.peak_hot_tokens,
        }
