"""Two-phase inference: parallel encoding and step-wise generation.

Encoding summarizes every complete chunk up front, then lets each token of
each head attend its selected chunks (laid out from position 0) plus its own
chunk's causal prefix. Generation repeats the same dance one token at a
time, gathering selected slabs through the store so loads are counted.
Both phases pick chunks through one step, `Engine._select`, which scores a
block of queries against the chunk summaries and calls `select`; decode's
block is its one token. Both read the selected slabs as pages of one
`attend` kernel: encode's pages are shared by the tokens that read a chunk,
decode's each hold one slot.
`OracleDecoder` steps `model.full_attention_forward` through its cache,
the full-attention reference for equivalence checks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import groupby

import numpy as np

from .cache import ChunkStore
from .chunking import ChunkLayout, advance
from .config import CONSTRAINT_POLICIES, SELECTION_POLICIES, EngineConfig, validate_pairing
from .model import (
    PAGE_ROWS,
    HostModel,
    TokenSequence,
    as_token_array,
    attend,
    causal_mask,
    full_attention_forward,
    page_table,
    rms_norm,
    row_blocks,
)
from .remapping import remap
from .selection import rank_top
from .trace import SelectionTrace

# Encode attends consecutive chunks of one length and width in groups that
# read about this many rows (T * k' * l for T tokens), or one chunk that
# reads more: 8 chunks at l = 16, k = 8, and 1 at l = 64, k = 8 (32,768
# rows). A group's pages' gathered K/V slabs dominate its scratch memory.
GROUP_READ_ROWS = 16384

# Encode ranks about this many scores at once, at most: a group whose
# (H, T, C) score matrix would be larger selects in blocks of whole chunks.
# A larger matrix and its partition copy outgrow a core's 2 MB L2: whole
# groups of 16.8 MB (n = 65536, l = 16) made encode slower than ranking
# chunk by chunk (see CHANGES.md).
SELECT_BLOCK_SCORES = 2**18


@dataclass
class StepCounters:
    step: int
    rows_gathered: int
    rows_loaded: int
    max_attended_rows: int
    max_rotary_position: int


@dataclass
class EngineCounters:
    encode_tokens: int = 0
    encode_max_attended_rows: int = 0
    encode_max_rotary_position: int = -1
    steps: list = field(default_factory=list)


class Engine:
    """One sequence's worth of chunked-attention inference state."""

    def __init__(
        self,
        model: HostModel,
        config: EngineConfig,
        *,
        residency: str = "hot",
        budget: int | None = None,
    ):
        validate_pairing(model.config, config)
        self.model = model
        self.config = config
        mc = model.config
        self.store = ChunkStore(
            mc.n_layers,
            mc.n_heads,
            mc.d_head,
            config.chunk_size,
            residency=residency,
            budget=budget,
            working_set_tokens=config.attention_window,
        )
        self.layout: ChunkLayout | None = None
        self.trace = SelectionTrace(
            meta={
                "chunk_size": config.chunk_size,
                "num_selected": config.num_selected,
                "policy": config.policy,
                "engine_seed": config.seed,
                "model_seed": mc.seed,
            }
        )
        self.counters = EngineCounters()
        self.last_logits: np.ndarray | None = None
        self._layer0_ids: dict[int, np.ndarray] = {}
        self._failure: str | None = None

    # -- encoding ----------------------------------------------------------

    def encode(self, tokens) -> np.ndarray:
        """Process a prompt; returns the (n, vocab) logits matrix.

        Layer by layer, over the whole prompt: chunked attention
        (`_encode_layer`), then the attention output projection, the MLP
        and, after the last layer, the logits. The dense per-token stages
        run in blocks of `model.DENSE_BLOCK_ROWS` rows, and each layer's
        Q, K, V and attention output are dropped as soon as they are dead.
        So beyond what encode keeps (the store's slabs and summaries, the
        trace rows and the logits), its peak memory is the hidden state,
        one layer's (H, n, d_head) Q, V, rotated K (held as transposed
        chunks once the store has its copy) and attention output, and one
        block's or one group's scratch.
        """
        mc = self.model.config
        cfg = self.config
        toks = as_token_array(tokens, mc.vocab_size)
        n = toks.size
        if n == 0:
            raise ValueError("cannot encode an empty sequence")
        self._check_not_failed()
        if self.layout is not None:
            raise RuntimeError("engine already holds an encoded sequence")
        self.layout = ChunkLayout(n, cfg.chunk_size)
        self.trace.meta["n"] = n
        try:
            h = self.model.embed[toks]
            for layer in range(mc.n_layers):
                attn = self._encode_layer(layer, h)
                wo = self.model.layers[layer].wo
                for i, j in row_blocks(n):
                    h[i:j] += self.model.merge_heads(attn[:, i:j]) @ wo
                del attn
                h = self.model.mlp(layer, h)
            self._layer0_ids.clear()  # read only by later layers' selection
            logits = self.model.logits_from_hidden(h)
            if not np.isfinite(logits).all():
                raise FloatingPointError(f"non-finite logits in encode of {n} tokens")
        except BaseException as exc:
            # The layout is set and the store and trace hold some layers.
            self._failure = f"encode of {n} tokens raised {exc!r}"
            raise
        # a copy, so that the engine does not keep the whole matrix alive
        self.last_logits = logits[-1].copy()
        self.counters.encode_tokens = n
        return logits

    def _encode_layer(self, layer, h) -> np.ndarray:
        """One layer's chunked attention over the whole prompt's (n, d_model)
        hidden rows h, (H, n, d_head).

        Each chunk's selection width follows from its index, k and the
        policy alone (`selection_widths`), so chunks group with their
        neighbours of the same length and width before any is selected
        (`_encode_groups`). Every group selects first, in chunk order, so
        the trace keeps chunk order: one `_select` call and one trace
        block for all its tokens and heads (in blocks of whole chunks past
        SELECT_BLOCK_SCORES scores). Then each
        group attends in one `attend` call with pages laid out by
        `page_table`.
        Every key is rotated once, by its offset r inside its chunk, and
        stored so. A token j of a chunk that selected n_sel chunks sits at
        n_sel*l + j and its slot s at s*l + r, so its query is rotated once
        per slot, to (n_sel - s)*l + j, since R(a)q . R(b)k = R(a - c)q .
        R(b - c)k: one `rope.apply` call per group broadcasts its (H, G,
        l_c, d) queries over (n_sel + 1, l_c) positions, with no copy of
        the queries per slot. Every head's reads are sorted by chunk into
        pages of PAGE_ROWS query rows, and each page reads its chunk's slab
        once, its keys transposed.

        The layer's Q, K and V are projected here, and K, whose last use is
        the chunk summaries, is dropped before attention; keys are rotated
        in blocks of `model.DENSE_BLOCK_ROWS` rows. Once the store holds
        them, the complete chunks' rotated keys are copied into one
        C-contiguous (H, m, d, l) array, the pages' and own chunks' keys,
        and of the rotated rows only the partial last chunk's are kept.
        """
        l = self.config.chunk_size
        H, d = self.model.config.n_heads, self.model.config.d_head
        rope = self.model.rope
        bounds = self.layout.bounds
        Q, K, V = self.model.project_heads(layer, rms_norm(h))
        K_rot = np.empty_like(K)
        offsets = np.arange(K.shape[1]) % l
        for i, j in row_blocks(K.shape[1]):
            K_rot[:, i:j] = rope.apply(K[:, i:j], offsets[i:j])
        self.store.bulk_append(layer, Q, K, V, K_rot)
        del K  # the summaries were its last use
        reprs = self.store.layer_reprs(layer)
        n_full = self.layout.m_complete * l
        # every complete chunk's keys transposed, (H, m, d, l), so that a
        # page's scores are one contiguous gemm; of K_rot only the partial
        # last chunk's rows are kept
        k_chunks = np.ascontiguousarray(K_rot[:, :n_full].reshape(H, -1, l, d).swapaxes(-1, -2))
        k_tail = K_rot[:, n_full:].copy()
        del K_rot
        v_chunks = V[:, :n_full].reshape(H, -1, l, d)
        mask = causal_mask(l, l)
        attn = np.empty_like(Q)
        k, policy = self.config.num_selected, self.config.policy
        widths = [selection_widths(c - 1, k, policy) for c in range(len(bounds))]
        groups = []
        for c0, c1 in _encode_groups(bounds, widths, l):
            start, end = bounds[c0][0], bounds[c1 - 1][1]
            l_c, n_sel = bounds[c0][1] - start, widths[c0]
            per = max(1, SELECT_BLOCK_SCORES // (H * l_c * max(c1 - 3, 1)))
            ids = []
            for s0 in range(c0, c1, per):  # blocks of whole chunks
                s1 = min(s0 + per, c1)
                a, b = bounds[s0][0], bounds[s1 - 1][1]
                block = self._select(layer, s0, s1, l_c, reprs, Q[:, a:b], a)
                rows = np.arange(a * H, b * H)  # token-major: token r // H, head r % H
                self.trace.append_block(rows // H, layer, rows % H,
                                        block.swapaxes(0, 1).reshape(len(rows), n_sel))
                ids.append(block)
            self._note_encode_window(n_sel * l + l_c)
            groups.append((c0, c1, l_c, start, end, np.concatenate(ids, axis=1)))
        for c0, c1, l_c, start, end, ids in groups:
            G, n_sel = c1 - c0, ids.shape[-1]
            own = (H, G, l_c, d)
            # (H, G, n_sel + 1, l_c, d): slot s of token j at (n_sel - s)*l + j
            at = np.arange(n_sel, -1, -1)[:, None] * l + np.arange(l_c)
            q_rot = rope.apply(Q[:, start:end].reshape(own), at)
            # slab h * len(bounds) + c is chunk c of head h
            page_slab, read_at = page_table(ids + np.arange(H)[:, None, None] * len(bounds))
            head, chunk = np.divmod(page_slab, len(bounds))
            read_at = read_at.reshape(H, G, l_c, n_sel)
            q_pages = np.zeros((page_slab.size, PAGE_ROWS, d))
            q_pages.reshape(-1, d)[read_at.transpose(0, 1, 3, 2)] = q_rot[:, :, :n_sel]
            pages = (q_pages, k_chunks[head, chunk], v_chunks[head, chunk], read_at)
            k_own = k_tail[:, None] if l_c < l else k_chunks[:, c0:c1].swapaxes(-1, -2)
            attn[:, start:end] = attend(
                q_rot[:, :, n_sel], k_own, V[:, start:end].reshape(own), mask[:l_c, :l_c], pages,
            ).reshape(H, -1, d)
        return attn

    def _note_encode_window(self, rows: int) -> None:
        """A block attending `rows` rows lays them out at positions 0..rows-1."""
        counters = self.counters
        if rows > counters.encode_max_attended_rows:
            counters.encode_max_attended_rows = rows
            counters.encode_max_rotary_position = rows - 1

    def _select(self, layer, c0, c1, l_c, reprs, q, token0):
        """Selected ids (H, T, width), ascending, of the queries q (H, T, d)
        of tokens token0.. token0 + T - 1: chunks c0..c1-1 of l_c tokens and
        one width each. Decode's token is the one-row chunk c, its layer's
        sealed count.

        Chunk c ranks the C = c - 2 chunks strictly between chunk 0 and
        chunk c - 1. Ranking policies score them, padded with -inf to the
        block's (H, T, c1 - 3), and one `select` call limits each row to its
        own chunk's columns; last-k and random pass no columns. Under
        fix-layer and fix-head-and-layer, layers >= 1 take layer 0's ids for
        token0 unscored; the caller clears them after each pass.
        """
        cfg = self.config
        H, T = q.shape[:2]
        policy = cfg.policy
        shares_layers = policy in ("fix-layer", "fix-head-and-layer")
        if shares_layers and layer > 0:
            return self._layer0_ids[token0]
        if policy in ("last-k", "random"):
            scores = np.empty((H, T, 0))
        elif c1 == c0 + 1:  # one chunk, such as decode's token: one product
            scores = q @ reprs[:, 1 : 1 + max(c0 - 2, 0)].swapaxes(-1, -2)
        else:
            scores = np.empty((H, T, max(c1 - 3, 0)))  # the group's last chunk's C
            # Each chunk's own product: past about 192 candidates the last
            # bits of OpenBLAS's gemm depend on its shape, and a chunk's
            # scores must not depend on the group it falls in.
            for i, c in zip(range(0, T, l_c), range(c0, c1)):
                C, rows = max(c - 2, 0), slice(i, i + l_c)
                cands = reprs[:, 1 : 1 + C].swapaxes(-1, -2)
                np.matmul(q[:, rows], cands, out=scores[:, rows, :C])
                scores[:, rows, C:] = -np.inf
        last = np.arange(c0 - 1, c1 - 1).repeat(l_c)  # each row's last chunk
        rngs = None
        if policy == "random":
            rngs = [[np.random.default_rng([cfg.seed, layer, head, token0 + j]) for j in range(T)]
                    for head in range(H)]
        ids = select(scores, last, cfg.num_selected, policy, rngs)
        if shares_layers:  # layer 0: later layers reuse
            self._layer0_ids[token0] = ids
        return ids

    # -- generation --------------------------------------------------------

    def generate(self, steps: int) -> TokenSequence:
        """Greedy-decode `steps` tokens after encode()."""
        if steps < 0:
            raise ValueError(f"steps={steps} must be >= 0")
        self._check_not_failed()
        if self.last_logits is None:
            raise RuntimeError("encode a prompt before generating")
        out = []
        logits = self.last_logits
        for _ in range(steps):
            token = int(np.argmax(logits))
            out.append(token)
            step = self.layout.n
            try:
                logits = self._decode_token(token)
            except BaseException as exc:
                # Layers before the failing one have already appended this
                # token's K/V, so the store no longer matches the layout.
                self._failure = f"decode step {step} raised {exc!r}"
                raise
        self.last_logits = logits
        return TokenSequence(tuple(out))

    def _check_not_failed(self) -> None:
        if self._failure is not None:
            raise RuntimeError(f"engine is unusable: {self._failure}")

    def _decode_token(self, token: int) -> np.ndarray:
        """One greedy step. Each layer selects, remaps, gathers, rotates and
        attends for all of its heads at once: every head reads k' sealed
        chunks plus the same recent region, so their slabs stack into
        (H, k', l, d_head) arrays with the query at one shared position.
        The layer's one `attend` call reads them as pages in the identity
        layout (read_at None), one page per slot, so no index take runs.
        Selection is encode's `_select` on a block of one row, the token
        standing as chunk c, the layer's sealed count; its (H, width) ids go
        to the trace in one `append` and to the store's `gather` as they
        are."""
        mc = self.model.config
        l = self.config.chunk_size
        rope = self.model.rope
        store = self.store
        step = self.layout.n
        heads = np.arange(mc.n_heads)
        store.begin_step()
        max_pos = -1
        h = self.model.embed[np.array([token])]
        for layer in range(mc.n_layers):
            x = rms_norm(h)
            Q, K, V = self.model.project_heads(layer, x)
            c = store.sealed_count(layer)
            ids = self._select(layer, c, c + 1, 1, store.layer_reprs(layer), Q, step)[:, 0]
            self.trace.append(step, layer, heads, ids)
            recent = store.recent_len(layer)
            position = remap(ids, self.layout, recent, mc.pretrain_length)
            k_sel, v_sel, k_recent, v_recent = store.gather(layer, ids)
            if k_sel.shape[1] * l + k_recent.shape[1] != position:
                raise AssertionError("gathered rows disagree with the position map")
            # Keys are stored at R(r), r their offset in the chunk. The query
            # sits at `position` and slot s at s*l + r, so one rotary call
            # takes the query to position - s*l for s = 0..width (slot
            # `width` holds the recent rows and this token) and this token's
            # key to its own offset, `recent`.
            width = ids.shape[1]
            at = position - l * np.arange(width + 2)
            at[-1] = recent
            rot = rope.apply(np.concatenate([np.repeat(Q, width + 1, axis=1), K], axis=1), at)
            k_self = rot[:, -1:]
            # page (h, 0, s) holds slot s of head h's one query
            pages = (rot[:, None, :width, None], k_sel[:, None].swapaxes(-1, -2),
                     v_sel[:, None], None)
            attn = attend(
                rot[:, width : width + 1],
                np.concatenate([k_recent, k_self], axis=1),
                np.concatenate([v_recent, V], axis=1),
                pages=pages,
            )
            max_pos = max(max_pos, position)
            h = h + self.model.merge_heads(attn) @ self.model.layers[layer].wo
            h = self.model.mlp(layer, h)
            store.append_token(layer, Q[:, 0], K[:, 0], V[:, 0], k_self[:, 0])
        self._layer0_ids.clear()
        logits = self.model.logits_from_hidden(h)[0]
        if not np.isfinite(logits).all():
            raise FloatingPointError(f"non-finite logits at decode step {step}")
        self.layout, _ = advance(self.layout, step)
        self.counters.steps.append(
            StepCounters(
                step=step,
                rows_gathered=store.tokens_gathered_this_step,
                rows_loaded=store.tokens_loaded_this_step,
                max_attended_rows=max_pos + 1,
                max_rotary_position=max_pos,
            )
        )
        return logits

    def counters_dict(self) -> dict:
        out = asdict(self.counters)
        out["store"] = self.store.counters()
        return out


def selection_widths(last: int, k: int, policy: str) -> int:
    """The width of a selection whose last chunk is `last`: its mandatory
    chunks, 0 and `last` (only `last` under no-first; one chunk when they
    coincide), and as many of the last - 1 candidates between them as the
    rest of k allows. last = -1, no sealed chunk, selects nothing."""
    if last < 0:
        return 0
    candidates = max(last - 1, 0)
    if policy == "no-first":
        return 1 + min(k - 1, candidates)
    return min(last + 1, 2) + min(k - 2, candidates)


def select(scores: np.ndarray, last, k: int, policy: str = "top-k", rngs=None) -> np.ndarray:
    """Chunk ids of H heads' selections for T rows at once.

    Row t keeps chunk 0 and chunk last[t] (only last[t] under no-first)
    and picks from the candidates 1..last[t]-1 between them, as many as
    `selection_widths` allows; every row of a call must have the same
    width. Ranking policies (top-k, no-first and the fix-* constraints on
    top-k) take the best of `scores` (H, T, C), whose column j scores
    chunk 1 + j against row t's query; a row's columns from last[t] - 1
    on are ignored. Other policies may pass C = 0. last-k picks the
    candidates just before last[t]; random draws head h's picks for row t
    from rngs[h][t]. Under fix-head and fix-head-and-layer every head takes
    head 0's picks; sharing across layers is left to the caller, which
    holds layer 0's ids.

    Returns (H, T, width) chunk ids, ascending along the last axis.
    """
    if k < 2:
        raise ValueError(f"k={k} must be >= 2")
    if policy not in SELECTION_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if scores.ndim != 3:
        raise ValueError(f"scores must be an (H, T, C) array, got shape {scores.shape}")
    H, T, C = scores.shape
    last = np.asarray(last)
    if last.shape != (T,):
        raise ValueError(f"last must be a ({T},) sequence, got shape {last.shape}")
    if policy == "random" and rngs is None:
        raise ValueError("random policy requires one rng per (head, row)")
    # widths never shrink as last grows, so the extremes have one width
    # only if every row has
    if T == 1:
        lo = hi = int(last[0])
    else:
        lo, hi = int(last.min()), int(last.max())
    width = selection_widths(lo, k, policy)
    if hi > lo and selection_widths(hi, k, policy) != width:
        raise ValueError(f"rows of mixed width: last runs from {lo} to {hi}")
    base = "top-k" if policy in CONSTRAINT_POLICIES else policy
    if base in ("top-k", "no-first") and C < hi - 1:
        raise ValueError(f"{policy} ranks up to {hi - 1} candidates, but scores hold {C}")

    # ids run [0,] the picks, ascending, then last: every pick lies
    # strictly between the first chunk and the last. rank_top's sets and
    # last-k's run are ascending already; only random's draws are sorted.
    # The zeros hold chunk 0.
    ids = np.zeros((H, T, width), dtype=np.int64)
    keep_first = base != "no-first"
    take = width - 1 - keep_first
    if take > 0:
        if base in ("top-k", "no-first"):
            limit = None if lo - 1 == C else last - 1
            shared = policy in ("fix-head", "fix-head-and-layer")
            picked = 1 + rank_top(scores[:1] if shared else scores, take, limit)
        elif base == "last-k":
            picked = (last - take)[:, None] + np.arange(take)
        else:  # random
            picked = np.empty((H, T, take), dtype=np.int64)
            for t in range(T):
                pool = np.arange(1, last[t], dtype=np.int64)
                for head in range(H):
                    picked[head, t] = rngs[head][t].choice(pool, size=take, replace=False)
            picked.sort(axis=-1)
        ids[..., keep_first:-1] = picked
    if width:
        ids[..., -1] = last
    return ids


def _encode_groups(bounds, widths, l):
    """(c0, c1) of each run of consecutive chunks c0..c1-1 that encode
    selects and attends at once.

    Chunks of the same length and width group until the run reads about
    GROUP_READ_ROWS rows, and a chunk that reads more runs alone: one
    width, so no slot is padded, and one length, so the own-chunk scores
    batch.
    """
    first = 0
    for (l_c, n_sel), run in groupby(
        (end - start, int(n_sel)) for (start, end), n_sel in zip(bounds, widths)
    ):
        past = first + sum(1 for _ in run)
        size = max(1, GROUP_READ_ROWS // max(l_c * n_sel * l, 1))
        for i in range(first, past, size):
            yield i, min(i + size, past)
        first = past


class OracleDecoder:
    """Incremental full-attention greedy decoder with row accounting.

    It holds one `full_attention_forward` cache: encode is one call over
    the prompt and each greedy step one call on its token. Every step
    attends every cached row, so its attended-row count, the cache's row
    count after the step, grows with the prompt length; the chunked
    engine's does not.
    """

    def __init__(self, model: HostModel):
        self.model = model
        self.last_logits: np.ndarray | None = None
        self.attended_rows_per_step: list = []
        self._cache: list = []

    @property
    def n(self) -> int:
        """Tokens processed so far: the cache's row count."""
        return self._cache[0][0].shape[1] if self._cache else 0

    def encode(self, tokens) -> np.ndarray:
        cache = []
        logits = full_attention_forward(self.model, tokens, cache=cache)
        self._cache = cache
        self.last_logits = logits[-1]
        return logits

    def generate(self, steps: int) -> TokenSequence:
        if steps < 0:
            raise ValueError(f"steps={steps} must be >= 0")
        if self.last_logits is None:
            raise RuntimeError("encode a prompt before generating")
        out = []
        logits = self.last_logits
        for _ in range(steps):
            token = int(np.argmax(logits))
            out.append(token)
            logits = full_attention_forward(self.model, [token], cache=self._cache)[0]
            self.attended_rows_per_step.append(self.n)
        self.last_logits = logits
        return TokenSequence(tuple(out))
