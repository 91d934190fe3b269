"""Two-phase inference: parallel encoding and step-wise generation.

Encoding summarizes every complete chunk up front, then lets each token of
each head attend its selected chunks (laid out from position 0) plus its own
chunk's causal prefix. Generation repeats the same dance one token at a
time, gathering selected slabs through the tiered store so loads are
counted. The full-attention oracle lives alongside for equivalence checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cache import ChunkStore
from .chunking import ChunkLayout, advance
from .config import CONSTRAINT_POLICIES, EngineConfig, ModelConfig, validate_pairing
from .model import (
    HostModel,
    TokenSequence,
    as_token_array,
    attend,
    causal_mask,
    full_attention_forward,
    rms_norm,
    softmax,
)
from .remapping import remap
from .selection import SelectionSet, apply_head_constraints, rank_top, select
from .trace import SelectionTrace


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

    def to_dict(self) -> dict:
        return {
            "encode_tokens": self.encode_tokens,
            "encode_max_attended_rows": self.encode_max_attended_rows,
            "encode_max_rotary_position": self.encode_max_rotary_position,
            "steps": [
                {
                    "step": s.step,
                    "rows_gathered": s.rows_gathered,
                    "rows_loaded": s.rows_loaded,
                    "max_attended_rows": s.max_attended_rows,
                    "max_rotary_position": s.max_rotary_position,
                }
                for s in self.steps
            ],
        }


class Engine:
    """One sequence's worth of chunked-attention inference state."""

    def __init__(
        self,
        model: HostModel,
        config: EngineConfig,
        *,
        residency: str = "hot",
        budget: int | None = None,
        record_scores: bool = False,
        collect_weights: bool = False,
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
            collect_weights=collect_weights,
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
        self.step_count = 0
        self.record_scores = record_scores
        self.last_logits: np.ndarray | None = None
        self._layer0_encode_ids: dict[int, np.ndarray] = {}

    # -- encoding ----------------------------------------------------------

    def encode(self, tokens) -> np.ndarray:
        """Process a prompt; returns the (n, vocab) logits matrix."""
        mc = self.model.config
        cfg = self.config
        toks = as_token_array(tokens, mc.vocab_size)
        n = toks.size
        if n == 0:
            raise ValueError("cannot encode an empty sequence")
        if self.layout is not None:
            raise RuntimeError("engine already holds an encoded sequence")
        self.layout = ChunkLayout(n, cfg.chunk_size)
        self.trace.meta["n"] = n
        bounds = self.layout.bounds
        l = cfg.chunk_size
        H, d = mc.n_heads, mc.d_head
        rope = self.model.rope
        h = self.model.embed[toks]
        max_pos = -1
        for layer in range(mc.n_layers):
            x = rms_norm(h)
            Q, K, V = self.model.project_heads(layer, x)
            for head in range(H):
                self.store.bulk_append(layer, head, Q[head], K[head], V[head])
            reprs = np.stack([self.store.repr_matrix(layer, head) for head in range(H)])
            attn = np.empty_like(Q)
            for c, (start, end) in enumerate(bounds):
                l_c = end - start
                q_blk, k_blk, v_blk = Q[:, start:end], K[:, start:end], V[:, start:end]
                if c == 0:
                    pos = np.arange(l_c)
                    mask = causal_mask(l_c, l_c)
                    for head in range(H):
                        attn[head, start:end] = attend(
                            rope.apply(q_blk[head], pos),
                            rope.apply(k_blk[head], pos),
                            v_blk[head],
                            mask,
                        )
                    self._record_block(layer, start, l_c, None, None)
                    self._note_encode_window(l_c)
                    max_pos = max(max_pos, l_c - 1)
                    continue
                ids, diag = self._encode_selection_ids(layer, c, l_c, start, reprs, q_blk)
                n_sel = ids.shape[-1]
                span = n_sel * l
                pos_sel = np.arange(span)
                pos_own = span + np.arange(l_c)
                mask = causal_mask(l_c, l_c)
                for head in range(H):
                    row_idx = (ids[head, :, :, None] * l + np.arange(l)).reshape(l_c, span)
                    k_sel = rope.apply(K[head][row_idx], pos_sel)
                    v_sel = V[head][row_idx]
                    q_rot = rope.apply(q_blk[head], pos_own)
                    k_own = rope.apply(k_blk[head], pos_own)
                    s_sel = np.einsum("td,tsd->ts", q_rot, k_sel) / np.sqrt(d)
                    s_own = (q_rot @ k_own.T) / np.sqrt(d) + mask
                    w = softmax(np.concatenate([s_sel, s_own], axis=1))
                    attn[head, start:end] = (
                        np.einsum("ts,tsd->td", w[:, :span], v_sel) + w[:, span:] @ v_blk[head]
                    )
                self._record_block(layer, start, l_c, ids, diag)
                self._note_encode_window(span + l_c)
                max_pos = max(max_pos, span + l_c - 1)
            h = h + self.model.merge_heads(attn) @ self.model.layers[layer].wo
            h = self.model.mlp(layer, h)
        logits = self.model.logits_from_hidden(h)
        self.last_logits = logits[-1]
        self.counters.encode_tokens = n
        self.counters.encode_max_rotary_position = max_pos
        return logits

    def _note_encode_window(self, rows: int) -> None:
        if rows > self.counters.encode_max_attended_rows:
            self.counters.encode_max_attended_rows = rows

    def _record_block(self, layer, token0, l_c, ids, diag) -> None:
        H = self.model.config.n_heads
        for j in range(l_c):
            for head in range(H):
                chunks = () if ids is None else tuple(int(v) for v in ids[head, j])
                if diag is not None:
                    cand_ids, scores = diag
                    self.trace.append(
                        token0 + j,
                        layer,
                        head,
                        chunks,
                        candidates=cand_ids,
                        scores=tuple(float(s) for s in scores[head, j]),
                    )
                else:
                    self.trace.append(token0 + j, layer, head, chunks)

    def _encode_selection_ids(self, layer, c, l_c, token0, reprs, q_blk):
        """Per-token selected chunk ids for one chunk's queries.

        Returns ids of shape (H, l_c, n_sel), ascending along the last axis,
        plus (candidate_ids, scores) when score recording is on. Candidates
        are the sealed chunks strictly between the first chunk and the
        chunk just before this one.
        """
        cfg = self.config
        H = self.model.config.n_heads
        k = cfg.num_selected
        policy = cfg.policy
        base = "top-k" if policy in CONSTRAINT_POLICIES else policy
        first, last = 0, c - 1
        cand_ids = np.arange(1, c - 1, dtype=np.int64)

        if policy in ("fix-layer", "fix-head-and-layer") and layer > 0:
            ids = self._layer0_encode_ids[c]
            diag = None
            if self.record_scores and cand_ids.size:
                scores = np.einsum("htd,hcd->htc", q_blk, reprs[:, 1 : c - 1])
                diag = (tuple(int(i) for i in cand_ids), scores)
            return ids, diag

        if base == "no-first":
            mandatory = np.array([last], dtype=np.int64)
            take = min(k - 1, cand_ids.size)
        else:
            mandatory = (
                np.array([first, last], dtype=np.int64)
                if first != last
                else np.array([first], dtype=np.int64)
            )
            take = min(k - 2, cand_ids.size)

        scores = None
        if cand_ids.size and (base in ("top-k", "no-first") or self.record_scores):
            scores = np.einsum("htd,hcd->htc", q_blk, reprs[:, 1 : c - 1])

        if take == 0:
            picked = np.zeros((H, l_c, 0), dtype=np.int64)
        elif base in ("top-k", "no-first"):
            if policy in ("fix-head", "fix-head-and-layer"):
                pos = rank_top(scores[0], take)
                picked = np.broadcast_to(cand_ids[pos], (H, l_c, take))
            else:
                picked = cand_ids[rank_top(scores, take)]
        elif base == "last-k":
            tail = cand_ids[-take:]
            picked = np.broadcast_to(tail, (H, l_c, take))
        elif base == "random":
            picked = np.empty((H, l_c, take), dtype=np.int64)
            for head in range(H):
                for j in range(l_c):
                    rng = np.random.default_rng([cfg.seed, layer, head, token0 + j])
                    picked[head, j] = rng.choice(cand_ids, size=take, replace=False)
        else:  # pragma: no cover
            raise AssertionError(base)

        mand = np.broadcast_to(mandatory, (H, l_c, mandatory.size))
        ids = np.sort(np.concatenate([picked, mand], axis=-1), axis=-1)
        if policy in ("fix-layer", "fix-head-and-layer") and layer == 0:
            self._layer0_encode_ids[c] = ids
        diag = None
        if self.record_scores and scores is not None:
            diag = (tuple(int(i) for i in cand_ids), scores)
        return ids, diag

    # -- generation --------------------------------------------------------

    def generate(self, steps: int, sampler: str = "greedy") -> TokenSequence:
        """Greedy-decode `steps` tokens after encode()."""
        if sampler != "greedy":
            raise ValueError(f"unsupported sampler {sampler!r}")
        if self.last_logits is None:
            raise RuntimeError("encode a prompt before generating")
        out = []
        logits = self.last_logits
        for _ in range(steps):
            token = int(np.argmax(logits))
            out.append(token)
            logits = self._decode_token(token)
        self.last_logits = logits
        return TokenSequence(tuple(out))

    def _decode_token(self, token: int) -> np.ndarray:
        mc = self.model.config
        cfg = self.config
        H, d = mc.n_heads, mc.d_head
        k = cfg.num_selected
        policy = cfg.policy
        base = "top-k" if policy in CONSTRAINT_POLICIES else policy
        rope = self.model.rope
        store = self.store
        step = self.layout.n
        store.begin_step()
        max_pos = -1
        max_attended = 0
        h = self.model.embed[np.array([token])]
        layer0_sets: list = [None] * H
        for layer in range(mc.n_layers):
            x = rms_norm(h)
            Q, K, V = self.model.project_heads(layer, x)
            head_out = np.empty_like(Q)
            head0_set: SelectionSet | None = None
            for head in range(H):
                sealed = store.sealed_count(layer, head)
                recent = store.recent_len(layer, head)
                if sealed == 0:
                    sel = SelectionSet(layer, head, step, ())
                else:
                    first, last = 0, sealed - 1
                    cands = store.repr_matrix(layer, head)[1:last]
                    rng = (
                        np.random.default_rng([cfg.seed, layer, head, step])
                        if base == "random"
                        else None
                    )
                    sel = select(
                        Q[head, 0],
                        cands,
                        first,
                        last,
                        k,
                        policy=base,
                        rng=rng,
                        layer=layer,
                        head=head,
                        query_token=step,
                        record_scores=self.record_scores,
                    )
                if policy == "fix-head" and head > 0:
                    sel = apply_head_constraints(sel, policy, head0_set)
                elif policy == "fix-layer" and layer > 0:
                    sel = apply_head_constraints(sel, policy, layer0_sets[head])
                elif policy == "fix-head-and-layer":
                    if layer > 0:
                        sel = apply_head_constraints(sel, policy, layer0_sets[0])
                    elif head > 0:
                        sel = apply_head_constraints(sel, policy, head0_set)
                if head == 0:
                    head0_set = sel
                if layer == 0:
                    layer0_sets[head] = sel
                if self.record_scores:
                    self.trace.append(
                        step, layer, head, sel.chunks, candidates=sel.candidates, scores=sel.scores
                    )
                else:
                    self.trace.append(step, layer, head, sel.chunks)
                pm = remap(sel, self.layout, recent, mc.pretrain_length)
                k_rows, v_rows, _ = store.gather(layer, head, sel.chunks, include_recent=True)
                if k_rows.shape[0] != pm.query_position:
                    raise AssertionError("gathered rows disagree with the position map")
                k_rot = rope.apply(k_rows, np.arange(k_rows.shape[0]))
                q_pos = np.array([pm.query_position])
                q_rot = rope.apply(Q[head], q_pos)
                k_self = rope.apply(K[head], q_pos)
                keys = np.concatenate([k_rot, k_self], axis=0)
                vals = np.concatenate([v_rows, V[head]], axis=0)
                head_out[head] = attend(q_rot, keys, vals)
                max_attended = max(max_attended, keys.shape[0])
                max_pos = max(max_pos, pm.query_position)
            h = h + self.model.merge_heads(head_out) @ self.model.layers[layer].wo
            h = self.model.mlp(layer, h)
            for head in range(H):
                store.append_token(layer, head, Q[head, 0], K[head, 0], V[head, 0])
        self.layout, _ = advance(self.layout, step)
        self.step_count += 1
        self.counters.steps.append(
            StepCounters(
                step=step,
                rows_gathered=store.tokens_gathered_this_step,
                rows_loaded=store.tokens_loaded_this_step,
                max_attended_rows=max_attended,
                max_rotary_position=max_pos,
            )
        )
        return self.model.logits_from_hidden(h)[0]

    # -- oracle ------------------------------------------------------------

    def oracle_forward(self, tokens) -> np.ndarray:
        """Vanilla full-attention logits for the same model."""
        return full_attention_forward(self.model, tokens)

    def counters_dict(self) -> dict:
        out = self.counters.to_dict()
        out["store"] = self.store.counters()
        return out


class OracleDecoder:
    """Incremental full-attention greedy decoder with row accounting.

    Attends every cached row at every step, so its per-step attended-row
    count grows with the prompt length; the chunked engine's does not.
    """

    def __init__(self, model: HostModel, block_size: int = 512):
        self.model = model
        self.block_size = block_size
        self.n = 0
        self.last_logits: np.ndarray | None = None
        self._k_cache: list | None = None
        self._v_cache: list | None = None
        self.attended_rows_per_step: list = []

    def encode(self, tokens) -> np.ndarray:
        logits, caches, _ = full_attention_forward(
            self.model, tokens, block_size=self.block_size, return_state=True
        )
        self._k_cache = [k for k, _ in caches]
        self._v_cache = [v for _, v in caches]
        self.n = logits.shape[0]
        self.last_logits = logits[-1]
        return logits

    def generate(self, steps: int) -> TokenSequence:
        if self.last_logits is None:
            raise RuntimeError("encode a prompt before generating")
        out = []
        logits = self.last_logits
        for _ in range(steps):
            token = int(np.argmax(logits))
            out.append(token)
            logits = self._decode_token(token)
        self.last_logits = logits
        return TokenSequence(tuple(out))

    def _decode_token(self, token: int) -> np.ndarray:
        model = self.model
        mc = model.config
        pos = self.n
        if pos >= mc.pretrain_length:
            raise ValueError(
                f"position {pos} exceeds pretrain length {mc.pretrain_length}"
            )
        h = model.embed[np.array([token])]
        pos_arr = np.array([pos])
        for layer in range(mc.n_layers):
            x = rms_norm(h)
            Q, K, V = model.project_heads(layer, x)
            k_rot = model.rope.apply(K, pos_arr)
            q_rot = model.rope.apply(Q, pos_arr)
            self._k_cache[layer] = np.concatenate([self._k_cache[layer], k_rot], axis=1)
            self._v_cache[layer] = np.concatenate([self._v_cache[layer], V], axis=1)
            head_out = np.empty_like(Q)
            for head in range(mc.n_heads):
                head_out[head] = attend(
                    q_rot[head], self._k_cache[layer][head], self._v_cache[layer][head]
                )
            h = h + model.merge_heads(head_out) @ model.layers[layer].wo
            h = model.mlp(layer, h)
        self.attended_rows_per_step.append(pos + 1)
        self.n += 1
        return model.logits_from_hidden(h)[0]
