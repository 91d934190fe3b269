"""Tiered per-(layer, head) store of sealed KV slabs and chunk summaries.

Sealed chunks live in a hot tier (numpy arrays) or an offload tier (an
in-process byte store standing in for host memory). Fetches from the
offload tier are counted in token rows, so the decode-phase load bound is
observable rather than asserted. Chunk representations are always hot:
each (layer, head) keeps one contiguous (m, d_head) matrix whose row i is
chunk i's summary, written at seal, so a decode step scores every
candidate chunk with one matmul over a slice of it.

The recent region keeps Q rows alongside K/V because sealing needs the
chunk's own queries to build its summary; Q rows are dropped at seal.

The store keeps a running count of hot tokens (hot slab rows plus recent
rows over all (layer, head) pairs), updated on every residency change, so
sampling the peak costs O(1) per write or gather; `hot_tokens()` is the
slow recount.

One decode loop writes per sequence; sealed slabs are immutable, so
gathers for distinct (layer, head) pairs could proceed concurrently.
"""

from __future__ import annotations

import numpy as np

from .representation import (
    build_chunk_repr,
    chunk_query,
    chunk_representation,
    weights_record,
)

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
        collect_weights: bool = False,
    ):
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        self.chunk_size = chunk_size
        self.working_set_tokens = working_set_tokens
        self._slabs = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
        self._reprs = [[np.empty((0, d_head)) for _ in range(n_heads)] for _ in range(n_layers)]
        self._recent_q = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
        self._recent_k = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
        self._recent_v = [[[] for _ in range(n_heads)] for _ in range(n_layers)]
        self._clock = 0
        self._hot_level = 0
        self.tokens_loaded_this_step = 0
        self.tokens_loaded_total = 0
        self.tokens_gathered_this_step = 0
        self.tokens_gathered_total = 0
        self.peak_hot_tokens = 0
        self.weight_records = [] if collect_weights else None
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

    def _seal(self, layer: int, head: int) -> int:
        q_rows = self._recent_q[layer][head]
        k_rows = self._recent_k[layer][head]
        v_rows = self._recent_v[layer][head]
        Q = np.stack(q_rows)
        K = np.stack(k_rows)
        V = np.stack(v_rows)
        chunk_id = len(self._slabs[layer][head])
        # the peak is sampled inside _install_sealed, while these rows still
        # count as recent
        self._install_sealed(layer, head, Q, K, V, chunk_id)
        q_rows.clear()
        k_rows.clear()
        v_rows.clear()
        self._hot_level -= K.shape[0]
        return chunk_id

    def _install_sealed(self, layer, head, Q, K, V, chunk_id) -> None:
        if self.weight_records is not None:
            q_c = chunk_query(Q, K, V)
            c, weights = chunk_representation(q_c, K, return_weights=True)
            self.weight_records.append(weights_record(layer, head, chunk_id, weights))
        else:
            c = build_chunk_repr(layer, head, chunk_id, Q, K, V)
        self._write_repr(layer, head, chunk_id, c)
        self._clock += 1
        slab = _Slab(K, V, stamp=self._clock)
        slabs = self._slabs[layer][head]
        slabs.append(slab)
        self._hot_level += slab.rows
        if self.mode == "offload":
            self._offload(slab)
        elif self.mode == "budget":
            self._evict_over_budget(slabs)
        self._note_hot_level()

    def _write_repr(self, layer: int, head: int, chunk_id: int, c: np.ndarray) -> None:
        """Store chunk `chunk_id`'s summary as row `chunk_id` of the
        (layer, head) matrix, doubling its capacity when full."""
        mat = self._reprs[layer][head]
        if chunk_id == mat.shape[0]:
            grown = np.empty((max(8, 2 * chunk_id), self.d_head))
            grown[:chunk_id] = mat[:chunk_id]
            self._reprs[layer][head] = mat = grown
        mat[chunk_id] = c

    def append_token(self, layer: int, head: int, q, k, v):
        """Add one token's unrotated states; returns the sealed chunk id
        when this token completes a chunk, else None."""
        q = np.asarray(q, dtype=np.float64).reshape(self.d_head)
        k = np.asarray(k, dtype=np.float64).reshape(self.d_head)
        v = np.asarray(v, dtype=np.float64).reshape(self.d_head)
        self._recent_q[layer][head].append(q)
        self._recent_k[layer][head].append(k)
        self._recent_v[layer][head].append(v)
        self._hot_level += 1
        if len(self._recent_k[layer][head]) == self.chunk_size:
            return self._seal(layer, head)
        self._note_hot_level()
        return None

    def bulk_append(self, layer: int, head: int, Q, K, V) -> list:
        """Ingest a block of tokens at once, sealing every complete chunk.

        Equivalent to repeated append_token; used by the encoding phase,
        where all complete chunks are summarized up front.
        """
        Q = np.asarray(Q, dtype=np.float64)
        K = np.asarray(K, dtype=np.float64)
        V = np.asarray(V, dtype=np.float64)
        if Q.shape != K.shape or K.shape != V.shape or Q.ndim != 2:
            raise ValueError("Q/K/V must be matching (tokens, d_head) blocks")
        if len(self._recent_k[layer][head]):
            raise ValueError("bulk_append requires an empty recent buffer")
        n = Q.shape[0]
        l = self.chunk_size
        sealed = []
        for start in range(0, (n // l) * l, l):
            chunk_id = len(self._slabs[layer][head])
            self._install_sealed(
                layer, head, Q[start : start + l], K[start : start + l], V[start : start + l], chunk_id
            )
            sealed.append(chunk_id)
        for row in range((n // l) * l, n):
            self._recent_q[layer][head].append(Q[row].copy())
            self._recent_k[layer][head].append(K[row].copy())
            self._recent_v[layer][head].append(V[row].copy())
        self._hot_level += n - (n // l) * l
        self._note_hot_level()
        return sealed

    # -- reads -------------------------------------------------------------

    def sealed_count(self, layer: int, head: int) -> int:
        return len(self._slabs[layer][head])

    def recent_len(self, layer: int, head: int) -> int:
        return len(self._recent_k[layer][head])

    def recent_states(self, layer: int, head: int):
        """Stacked (rows, d_head) Q, K, V of the unsealed tail."""
        q = self._recent_q[layer][head]
        k = self._recent_k[layer][head]
        v = self._recent_v[layer][head]
        empty = np.zeros((0, self.d_head))
        return (
            np.array(q) if q else empty,
            np.array(k) if k else empty,
            np.array(v) if v else empty,
        )

    def repr_matrix(self, layer: int, head: int) -> np.ndarray:
        """Read-only (sealed, d_head) view: row i is chunk i's summary."""
        view = self._reprs[layer][head][: len(self._slabs[layer][head])]
        view.flags.writeable = False
        return view

    def gather(self, layer: int, head: int, chunk_ids, include_recent: bool = False):
        """Materialize K/V rows for the given sealed chunks, ascending order.

        Offloaded slabs are fetched and counted; under budget residency the
        fetch also promotes the slab (evicting the least recently gathered),
        otherwise the hot set is left unchanged. Returns (K, V, row_chunk_ids).
        """
        slabs = self._slabs[layer][head]
        ids = [int(cid) for cid in chunk_ids]
        ks, vs = [], []
        prev = -1
        for cid in ids:
            if not 0 <= cid < len(slabs):
                raise KeyError(f"unknown chunk id {cid} (sealed: {len(slabs)})")
            if cid <= prev:
                raise ValueError(f"chunk ids must be strictly ascending, got {tuple(chunk_ids)}")
            prev = cid
            slab = slabs[cid]
            self._clock += 1
            slab.stamp = self._clock
            if slab.hot:
                k, v = slab.k, slab.v
            else:
                k, v = slab.fetch()
                self.tokens_loaded_this_step += slab.rows
                self.tokens_loaded_total += slab.rows
                if self.mode == "budget":
                    self._promote(slab, k, v)
            ks.append(k)
            vs.append(v)
        if self.mode == "budget":
            # evict once per gather so the working set cannot thrash itself
            self._evict_over_budget(slabs)
        counts = [self.chunk_size] * len(ids)
        if include_recent and self._recent_k[layer][head]:
            _, rk, rv = self.recent_states(layer, head)
            ks.append(rk)
            vs.append(rv)
            ids.append(len(slabs))
            counts.append(rk.shape[0])
        if ks:
            K = np.concatenate(ks, axis=0)
            V = np.concatenate(vs, axis=0)
        else:
            K = np.zeros((0, self.d_head))
            V = np.zeros((0, self.d_head))
        row_ids = np.repeat(np.array(ids, dtype=np.int64), counts)
        rows = K.shape[0]
        self.tokens_gathered_this_step += rows
        self.tokens_gathered_total += rows
        self._note_hot_level()
        return K, V, row_ids

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
