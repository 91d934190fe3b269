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
that sealing summarizes; both are dropped at seal.

The store keeps a running count of hot tokens (hot slab rows plus recent
rows over all (layer, head) pairs), updated on every residency change, so
sampling the peak costs O(1) per write or gather; `hot_tokens()` is the
slow recount.

One decode loop writes per sequence, appending one token to every head
of a layer, so a layer's heads hold equally many sealed chunks and recent
rows whenever the engine gathers; `gather` reads all of a layer's heads at
once and rejects a layer whose heads disagree.
"""

from __future__ import annotations

import numpy as np

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
        k = np.ascontiguousarray(k)
        v = np.ascontiguousarray(v)
        k.flags.writeable = False
        v.flags.writeable = False
        self.k = k
        self.v = v
        self.k_bytes = None
        self.v_bytes = None
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
        self.working_set_tokens = working_set_tokens
        self._slabs = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
        self._reprs = [np.empty((n_heads, 0, d_head)) for _ in range(n_layers)]
        self._recent_q = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
        self._recent_k = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
        self._recent_v = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
        self._recent_kr = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
        self._clock = 0
        self._hot_level = 0
        self.tokens_loaded_this_step = 0
        self.tokens_loaded_total = 0
        self.tokens_gathered_this_step = 0
        self.tokens_gathered_total = 0
        self.peak_hot_tokens = 0
        self.mode = "hot"
        self.budget = None
        self.set_residency(residency, budget)

    # -- residency ---------------------------------------------------------

    def set_residency(self, mode: str, budget: int | None = None) -> None:
        """Switch tiers administratively (no load counting).

        budget mode keeps at most `budget` hot tokens per (layer, head),
        evicting the least-recently-gathered slab first.
        """
        if mode not in RESIDENCY_MODES:
            raise ValueError(f"unknown residency mode {mode!r}; expected one of {RESIDENCY_MODES}")
        if mode == "budget":
            if budget is None:
                raise ValueError("budget residency requires a token budget")
            floor = self.working_set_tokens
            if floor is not None and budget < floor:
                raise ValueError(
                    f"budget={budget} cannot hold one working set of {floor} tokens"
                )
        else:
            budget = None
        self.mode = mode
        self.budget = budget
        for layer in range(self.n_layers):
            for head in range(self.n_heads):
                slabs = self._slabs[layer][head]
                if mode == "offload":
                    for slab in slabs:
                        if slab.hot:
                            self._offload(slab)
                elif mode == "hot":
                    for slab in slabs:
                        if not slab.hot:
                            self._promote(slab, *slab.fetch())
                else:
                    self._evict_over_budget(slabs)
        self._note_hot_level()

    def _evict_over_budget(self, slabs) -> None:
        hot = [s for s in slabs if s.hot]
        hot_tokens = sum(s.rows for s in hot)
        hot.sort(key=lambda s: s.stamp)
        while hot and hot_tokens > self.budget:
            victim = hot.pop(0)
            self._offload(victim)
            hot_tokens -= victim.rows

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

    def _recent(self, layer: int, head: int) -> tuple:
        """The recent region's Q, K, V and rotated K row lists."""
        return tuple(
            rows[layer][head]
            for rows in (self._recent_q, self._recent_k, self._recent_v, self._recent_kr)
        )

    def _seal(self, layer: int, head: int) -> int:
        buffers = self._recent(layer, head)
        Q, K, V, K_rot = (np.stack(rows)[None] for rows in buffers)
        chunk_id = len(self._slabs[layer][head])
        reprs = build_chunk_repr(layer, head, chunk_id, Q, K, V)
        # the peak is sampled inside _install_sealed, while these rows still
        # count as recent
        self._install_sealed(layer, head, reprs, K_rot, V)
        for rows in buffers:
            rows.clear()
        self._hot_level -= K.shape[1]
        return chunk_id

    def _install_sealed(self, layer, head, reprs, K, V) -> None:
        """Store the next chunks' summaries `reprs` (chunks, d_head) and
        their (chunks, l, d_head) K/V rows as slabs, one after another."""
        slabs = self._slabs[layer][head]
        self._write_reprs(layer, head, len(slabs), reprs)
        for k, v in zip(K, V):
            self._clock += 1
            slab = _Slab(k, v, stamp=self._clock)
            slabs.append(slab)
            self._hot_level += slab.rows
            if self.mode == "offload":
                self._offload(slab)
            elif self.mode == "budget":
                self._evict_over_budget(slabs)
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

    def append_token(self, layer: int, head: int, q, k, v, k_rot):
        """Add one token's unrotated states and its key rotated by its
        offset in the chunk; returns the sealed chunk id when this token
        completes a chunk, else None."""
        d = self.d_head
        self._recent_q[layer][head].append(np.asarray(q, dtype=np.float64).reshape(d))
        self._recent_v[layer][head].append(np.asarray(v, dtype=np.float64).reshape(d))
        self._recent_kr[layer][head].append(np.asarray(k_rot, dtype=np.float64).reshape(d))
        k_rows = self._recent_k[layer][head]
        k_rows.append(np.asarray(k, dtype=np.float64).reshape(d))
        self._hot_level += 1
        if len(k_rows) == self.chunk_size:
            return self._seal(layer, head)
        self._note_hot_level()
        return None

    def bulk_append(self, layer: int, head: int, Q, K, V, K_rot) -> list:
        """Ingest a block of tokens at once, sealing every complete chunk.

        Equivalent to repeated append_token; used by the encoding phase,
        where all complete chunks are summarized up front in one batch.
        """
        Q, K, V, K_rot = (np.asarray(a, dtype=np.float64) for a in (Q, K, V, K_rot))
        if not Q.shape == K.shape == V.shape == K_rot.shape or Q.ndim != 2:
            raise ValueError("Q/K/V/K_rot must be matching (tokens, d_head) blocks")
        if len(self._recent_k[layer][head]):
            raise ValueError("bulk_append requires an empty recent buffer")
        n = Q.shape[0]
        l = self.chunk_size
        n_full = (n // l) * l
        first = len(self._slabs[layer][head])
        sealed = list(range(first, first + n // l))
        if sealed:
            blocks = [a[:n_full].reshape(-1, l, a.shape[1]) for a in (Q, K, V, K_rot)]
            reprs = build_chunk_repr(layer, head, first, *blocks[:3])
            self._install_sealed(layer, head, reprs, blocks[3], blocks[2])
        for rows, a in zip(self._recent(layer, head), (Q, K, V, K_rot)):
            rows.extend(a[n_full:].copy())
        self._hot_level += n - n_full
        self._note_hot_level()
        return sealed

    # -- reads -------------------------------------------------------------

    def sealed_count(self, layer: int, head: int) -> int:
        return len(self._slabs[layer][head])

    def recent_len(self, layer: int, head: int) -> int:
        return len(self._recent_k[layer][head])

    def layer_reprs(self, layer: int) -> np.ndarray:
        """Read-only (H, sealed, d_head) view of every head's summaries."""
        view = self._reprs[layer][:, : self._layer_count(layer, self._slabs, "sealed chunks")]
        view.flags.writeable = False
        return view

    def _layer_count(self, layer: int, per_head, what: str) -> int:
        """The common length of the layer's per-head lists `per_head`."""
        counts = {len(rows) for rows in per_head[layer]}
        if len(counts) != 1:
            raise ValueError(f"heads of layer {layer} hold different numbers of {what}: {counts}")
        return counts.pop()

    def gather(self, layer: int, chunk_ids):
        """Rotated K and V rows of each head's selected sealed chunks, then
        its recent rows.

        `chunk_ids` is an (H, width) matrix whose row h lists head h's chunks
        in strictly ascending order. Returns (K, V), each (H, width * l +
        recent, d_head). Heads are served one after another: a head's slabs
        are stamped in id order, offloaded ones are fetched and counted, and
        under budget residency promoted, then that head's slabs are evicted
        down to the budget and the hot peak is sampled. The hot set is
        otherwise left unchanged.
        """
        ids = np.asarray(chunk_ids)
        H, l, d = self.n_heads, self.chunk_size, self.d_head
        if ids.ndim != 2 or ids.shape[0] != H:
            raise ValueError(f"chunk ids must be an ({H}, width) matrix, got shape {ids.shape}")
        recent = self._layer_count(layer, self._recent_k, "recent rows")
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
        for head, head_ids in enumerate(ids.tolist()):
            slabs = self._slabs[layer][head]
            prev = -1
            for j, cid in enumerate(head_ids):
                if not 0 <= cid < len(slabs):
                    raise KeyError(f"unknown chunk id {cid} (sealed: {len(slabs)})")
                if cid <= prev:
                    raise ValueError(f"chunk ids must be strictly ascending, got {tuple(head_ids)}")
                prev = cid
                slab = slabs[cid]
                self._clock += 1
                slab.stamp = self._clock
                if not slab.hot:
                    self.tokens_loaded_this_step += slab.rows
                    self.tokens_loaded_total += slab.rows
                    if budget:
                        self._promote(slab, *slab.fetch())
                if slab.hot:
                    K[head, j * l : (j + 1) * l] = slab.k
                    V[head, j * l : (j + 1) * l] = slab.v
                else:
                    at = (head * rows + j * l) * d * K.itemsize
                    k_bytes[at : at + slab_bytes] = slab.k_bytes
                    v_bytes[at : at + slab_bytes] = slab.v_bytes
            if budget:
                # evict once per head so the working set cannot thrash itself
                self._evict_over_budget(slabs)
            if recent:
                K[head, width * l :] = self._recent_kr[layer][head]
                V[head, width * l :] = self._recent_v[layer][head]
            self._note_hot_level()
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
                level += len(self._recent_k[layer][head])
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
