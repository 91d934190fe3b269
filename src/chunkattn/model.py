"""Deterministic decoder-only transformer substrate.

Weights are a pure function of (config, seed); there is no training path.
The engine caches keys rotated only by their offset inside their chunk and
rotates each query once per slot it attends, so the same cached keys can
later be attended at remapped positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig

NORM_EPS = 1e-6
ROPE_BASE = 10000.0

# Rows per block of the dense per-token stages over a whole prompt (the
# MLP and the logits; in encode also the attention output projection, key
# rotation and chunk summaries), so that their scratch memory is one
# block's whatever the prompt length. At least 2: see `row_blocks`.
DENSE_BLOCK_ROWS = 2048

# Query rows per page of encode's `attend` pages: the reads of one slab
# fill ceil(reads / PAGE_ROWS) pages.
PAGE_ROWS = 16


def rms_norm(x: np.ndarray, eps: float = NORM_EPS) -> np.ndarray:
    # The mean as np.mean computes it (a sum, then a division), without
    # np.mean's per-call overhead: decode normalises single rows.
    return x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + eps)


def silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    w = np.exp(shifted)
    return w / np.sum(w, axis=axis, keepdims=True)


def causal_mask(n_q: int, n_k: int, offset: int = 0) -> np.ndarray:
    """Additive mask: query row i may see key column j iff j <= i + offset."""
    rows = np.arange(n_q)[:, None] + offset
    cols = np.arange(n_k)[None, :]
    return np.where(cols <= rows, 0.0, -np.inf)


def attend(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray | None = None, pages=None
) -> np.ndarray:
    """Scaled softmax attention of queries q (..., t, d) over rows k, v
    (..., n, d) under the additive `mask`; leading axes (e.g. heads) are
    batch dimensions. Without `pages` this is softmax(scores) @ v.

    `pages = (q_pages, k_pages, v_pages, read_at)` adds S slots of l rows
    per query, read through pages that hold one slab each: k_pages (P, d,
    l), transposed, v_pages (P, l, d) and q_pages (P, R, d), up to R
    queries that read the slab, each rotated for its slot. read_at (..., t,
    S) is the flat row of (P, R) holding slot s of query i (see
    `page_table`); rows no slot reads may hold anything. With read_at None
    the pages are in the identity layout, page (..., i, s) holding slot s
    of query i alone: q_pages (..., t, S, 1, d), k_pages (..., t, S, d, l)
    and v_pages (..., t, S, l, d). Encode passes the first layout, so a
    slab read by several queries is copied once per page, and decode the
    second, which skips the index takes.

    Every page is scored against its slab in one batched product (one
    plain gemm per page when k_pages is C-contiguous; numpy runs a
    transposed view at about half that speed). One softmax per query spans
    its own rows and its S*l slot rows; it is exponentiated in place and
    divided once, on the (..., t, d) output, and no input is written. With
    no slots (S = 0) this is the plain formula, bit for bit, in either
    layout.
    """
    scale = np.sqrt(q.shape[-1])
    scores = _scores(q, k, mask, scale)
    if pages is None:
        return softmax(scores) @ v
    q_pages, k_pages, v_pages, read_at = pages
    if not (q_pages.shape[-3] if read_at is None else read_at.shape[-1]):
        return softmax(scores) @ v
    d, l = k_pages.shape[-2:]
    s_pages = q_pages @ k_pages
    flat = s_pages.reshape(-1, l)
    s_sel = flat if read_at is None else flat.take(read_at, axis=0)
    s_sel *= 1 / scale  # a product, several times cheaper than a quotient
    w_sel = s_sel.reshape(scores.shape[:-1] + (-1,))
    total = _exp_shifted(scores, w_sel)
    out = scores @ v
    if read_at is None:
        # each query's S*l slot rows weighed in one product
        out += (w_sel[..., None, :] @ v_pages.reshape(w_sel.shape + (d,)))[..., 0, :]
    else:
        # The weights overwrite every row a slot reads; the other rows'
        # outputs are never taken.
        flat[read_at] = s_sel
        out += (s_pages @ v_pages).reshape(-1, d).take(read_at, axis=0).sum(-2)
    out /= total
    return out


def page_table(slabs: np.ndarray, rows: int = PAGE_ROWS):
    """Pages for `attend` of reads of the slabs `slabs` (..., t, S).

    The reads, in row-major order, are sorted by slab with a stable sort
    and each slab's run is cut into pages of `rows` rows, the last one
    partly filled. So every page reads one slab, and a slab read more than
    `rows` times spans several pages. Returns page_slab (P,), the slab
    each page reads, and read_at (..., t, S), the flat row of the (P,
    rows) pages that holds each read.
    """
    flat = slabs.ravel()
    # numpy's stable sort of 16-bit keys is a radix sort, several times
    # faster than its sort of int64 keys
    narrow = flat.size and flat.min() >= 0 and flat.max() < 2**16
    order = np.argsort(flat.astype(np.uint16) if narrow else flat, kind="stable")
    ranked = flat[order]
    starts = np.flatnonzero(np.concatenate(([flat.size > 0], ranked[1:] != ranked[:-1])))
    counts = np.diff(np.append(starts, flat.size))
    pages = -(-counts // rows)
    first_row = (np.cumsum(pages) - pages) * rows
    read_at = np.empty_like(flat)
    read_at[order] = np.repeat(first_row - starts, counts) + np.arange(flat.size)
    return np.repeat(ranked[starts], pages), read_at.reshape(slabs.shape)


def _scores(q, k, mask, scale):
    scores = q @ k.swapaxes(-1, -2)
    scores /= scale
    if mask is not None:
        scores += mask
    return scores


def _exp_shifted(scores, s_sel):
    """Exponentiate, in place, each query's own-row scores (..., t, n) and
    slot-row scores s_sel (..., t, S*l), both shifted by the query's max
    over the two, and return the (..., t, 1) sums that their one softmax
    divides by."""
    top = np.maximum(scores.max(-1, keepdims=True), s_sel.max(-1, keepdims=True, initial=-np.inf))
    for part in (scores, s_sel):
        part -= top
        np.exp(part, out=part)
    return scores.sum(-1, keepdims=True) + s_sel.sum(-1, keepdims=True)


def row_blocks(n: int) -> list:
    """(start, end) of consecutive blocks of at most DENSE_BLOCK_ROWS rows
    that cover n rows. A one-row tail joins the block before it: numpy
    multiplies a single row by gemv, whose sums round differently from
    gemm's, and every row must come out as it would in one whole matmul."""
    starts = list(range(0, n, DENSE_BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def by_row_blocks(fn, x: np.ndarray, width: int) -> np.ndarray:
    """The (t, width) result of the row-wise function fn on the t rows of
    x, computed block by block over `row_blocks(t)` into one array; a
    single call when t fits one block."""
    if len(x) <= DENSE_BLOCK_ROWS:
        return fn(x)
    out = np.empty((len(x), width))
    for i, j in row_blocks(len(x)):
        out[i:j] = fn(x[i:j])
    return out


def rotate_half(x: np.ndarray) -> np.ndarray:
    half = x.shape[-1] // 2
    return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)


class RotaryTable:
    """Precomputed rotary cos/sin over positions [0, max_positions).

    Applying at a position outside the table raises: that is exactly the
    out-of-distribution failure the engine's position remapping prevents,
    so it must never be silently extrapolated.
    """

    def __init__(self, d_head: int, max_positions: int, base: float = ROPE_BASE):
        if d_head % 2 != 0:
            raise ValueError(f"d_head={d_head} must be even")
        self.d_head = d_head
        self.max_positions = max_positions
        inv_freq = base ** (-np.arange(0, d_head, 2, dtype=np.float64) / d_head)
        angles = np.outer(np.arange(max_positions, dtype=np.float64), inv_freq)
        self.cos = np.concatenate([np.cos(angles), np.cos(angles)], axis=-1)
        self.sin = np.concatenate([np.sin(angles), np.sin(angles)], axis=-1)
        self.cos.flags.writeable = False
        self.sin.flags.writeable = False

    def apply(self, states: np.ndarray, positions) -> np.ndarray:
        """Rotate rows of `states` at the given positions.

        `states` has shape (..., t, d_head); `positions` has length t and
        broadcasts over any leading axes. Positions of shape (S, t) rotate
        every row once per slot s, to positions[s], into a new (..., S, t,
        d_head) array; `rotate_half` runs once per row, and each slot's
        result is bit for bit that of a call with positions[s] alone.
        """
        states = np.asarray(states, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.intp)
        if positions.ndim not in (1, 2) or positions.shape[-1] != states.shape[-2]:
            raise ValueError(
                f"positions length {positions.shape} does not match rows {states.shape[-2]}"
            )
        if states.shape[-1] != self.d_head:
            raise ValueError(f"expected trailing dimension {self.d_head}, got {states.shape[-1]}")
        if positions.size == 0:
            return np.empty(states.shape[:-2] + positions.shape + states.shape[-1:])
        lo = int(positions.min())
        hi = int(positions.max())
        if lo < 0:
            raise ValueError(f"negative position {lo}")
        if hi >= self.max_positions:
            raise ValueError(
                f"position {hi} is outside the rotary table "
                f"(pretrain length {self.max_positions})"
            )
        cos = self.cos[positions]
        sin = self.sin[positions]
        rotated = rotate_half(states)
        if positions.ndim == 2:  # the slot axis, before the rows
            states, rotated = states[..., None, :, :], rotated[..., None, :, :]
        out = states * cos
        out += rotated * sin
        return out


@dataclass(frozen=True)
class TokenSequence:
    """An input or output token stream."""

    tokens: tuple

    @property
    def n(self) -> int:
        return len(self.tokens)


@dataclass
class LayerWeights:
    wqkv: np.ndarray  # (d_model, 3 * d_model): the Q, K and V projections side by side
    wo: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray


class HostModel:
    """Seeded random-weight decoder-only transformer.

    Pre-norm residual blocks; attention scale 1/sqrt(d_head); MLP with silu.
    Immutable after construction and safe for concurrent reads.
    """

    def __init__(self, config: ModelConfig, embed, layers, w_out):
        self.config = config
        self.embed = embed
        self.layers = layers
        self.w_out = w_out
        self.rope = RotaryTable(config.d_head, config.pretrain_length)
        for arr in self._weight_arrays():
            arr.flags.writeable = False

    def _weight_arrays(self):
        yield self.embed
        for lw in self.layers:
            yield lw.wqkv
            yield lw.wo
            yield lw.w_up
            yield lw.w_down
        yield self.w_out

    def project_heads(self, layer: int, x: np.ndarray):
        """Project a (t, d_model) block into per-head (H, t, d_head) Q, K, V:
        one (t, d_model) @ (d_model, 3 * d_model) product, split into three
        C-contiguous arrays, so that each can be dropped on its own."""
        if not 0 <= layer < self.config.n_layers:
            raise ValueError(f"layer {layer} out of range")
        if x.ndim != 2 or x.shape[1] != self.config.d_model:
            raise ValueError(
                f"expected hidden of shape (tokens, {self.config.d_model}), got {x.shape}"
            )
        heads = (x @ self.layers[layer].wqkv).reshape(
            x.shape[0], 3, self.config.n_heads, self.config.d_head
        ).transpose(1, 2, 0, 3)
        return tuple(np.ascontiguousarray(part) for part in heads)

    def logits_from_hidden(self, hidden: np.ndarray) -> np.ndarray:
        """(t, vocab) logits of (t, d_model) final hidden rows, computed in
        blocks of DENSE_BLOCK_ROWS rows."""
        return by_row_blocks(lambda x: rms_norm(x) @ self.w_out, hidden, self.config.vocab_size)

    def mlp(self, layer: int, h: np.ndarray) -> np.ndarray:
        """The residual MLP block, h + silu(rms_norm(h) @ w_up) @ w_down, of
        (t, d_model) rows. It runs in blocks of DENSE_BLOCK_ROWS rows written
        into one new array, so its (rows, 4 * d_model) scratch is one
        block's at any t; a block's rows come out as in one whole pass."""
        lw = self.layers[layer]
        return by_row_blocks(
            lambda x: x + silu(rms_norm(x) @ lw.w_up) @ lw.w_down, h, self.config.d_model
        )

    def merge_heads(self, per_head: np.ndarray) -> np.ndarray:
        """(H, t, d_head) -> (t, d_model)."""
        h_count, t, d = per_head.shape
        return per_head.transpose(1, 0, 2).reshape(t, h_count * d)


def build_model(config: ModelConfig) -> HostModel:
    """Materialize seeded pseudo-random weights for the given config."""
    rng = np.random.default_rng(config.seed)
    dm = config.d_model
    scale = 1.0 / np.sqrt(dm)
    embed = rng.normal(0.0, scale, (config.vocab_size, dm))
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            LayerWeights(
                wqkv=np.concatenate([rng.normal(0.0, scale, (dm, dm)) for _ in range(3)], axis=1),
                wo=rng.normal(0.0, scale, (dm, dm)),
                w_up=rng.normal(0.0, scale, (dm, 4 * dm)),
                w_down=rng.normal(0.0, scale, (4 * dm, dm)),
            )
        )
    w_out = rng.normal(0.0, scale, (dm, config.vocab_size))
    return HostModel(config, embed, layers, w_out)


def as_token_array(tokens, vocab_size: int) -> np.ndarray:
    """`tokens` as a flat int64 array of ids in [0, vocab_size). Only
    integer input is taken: floats, booleans and strings raise, rather than
    being cast to ids."""
    if isinstance(tokens, TokenSequence):
        tokens = tokens.tokens
    toks = np.asarray(tokens)
    if toks.ndim != 1:
        raise ValueError(f"expected a flat token sequence, got shape {toks.shape}")
    if toks.size and toks.dtype.kind not in "iu":
        raise ValueError(f"token ids must be integers, got dtype {toks.dtype}")
    if toks.size and (toks.min() < 0 or toks.max() >= vocab_size):
        raise ValueError(f"token ids must lie in [0, {vocab_size})")
    return toks.astype(np.int64, copy=False)


def full_attention_forward(model: HostModel, tokens, *, cache=None, block_size: int = 512):
    """Vanilla causal attention at positions 0.., the oracle the chunked
    engine is checked against, and the only full-attention forward.

    `cache`, a list of per-layer (rotated K, V) arrays of shape (H, P,
    d_head), puts the tokens at positions P.. after the P cached rows: they
    attend those rows and their own, and their rows are appended to it (an
    empty list is filled). Queries run in blocks of `block_size` that attend
    only the rows up to their own end, so long sequences stay within
    memory; results match the unblocked ones to rounding. Returns the
    tokens' (t, vocab) logits.
    """
    cfg = model.config
    toks = as_token_array(tokens, cfg.vocab_size)
    n = toks.size
    if n == 0:
        raise ValueError("empty token sequence")
    cache = [] if cache is None else cache
    filled = bool(cache)
    start = cache[0][0].shape[1] if filled else 0
    if start + n > cfg.pretrain_length:
        raise ValueError(
            f"sequence length {start + n} exceeds pretrain length {cfg.pretrain_length}"
        )
    positions = np.arange(start, start + n)
    h = model.embed[toks]
    for layer in range(cfg.n_layers):
        Q, K, V = model.project_heads(layer, rms_norm(h))
        q_rot = model.rope.apply(Q, positions)
        k_rot = model.rope.apply(K, positions)
        if filled:
            k_rot = np.concatenate([cache[layer][0], k_rot], axis=1)
            V = np.concatenate([cache[layer][1], V], axis=1)
            cache[layer] = (k_rot, V)
        else:
            cache.append((k_rot, V))
        out = np.empty_like(Q)
        for head in range(cfg.n_heads):
            for q0 in range(0, n, block_size):
                q1 = min(q0 + block_size, n)
                rows = start + q1
                mask = causal_mask(q1 - q0, rows, offset=start + q0)
                out[head, q0:q1] = attend(
                    q_rot[head, q0:q1], k_rot[head, :rows], V[head, :rows], mask
                )
        h = h + model.merge_heads(out) @ model.layers[layer].wo
        h = model.mlp(layer, h)
    return model.logits_from_hidden(h)
