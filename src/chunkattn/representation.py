"""Chunk summary vectors derived from a chunk's own attention states.

A chunk's query vector is the mean of a bidirectional self-attention pass
over the chunk (content-weighted message passing); the chunk representation
is then an attention-weighted average of the chunk's key rows, probed by
that query vector. No positions enter anywhere: representations must stay
position-free so selected chunks can be remapped later.
"""

from __future__ import annotations

import numpy as np

from .model import attend, softmax


def _check_chunk_states(name: str, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty (rows, d_head) matrix, got shape {mat.shape}")
    return mat


def chunk_query(Q: np.ndarray, K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Mean of the chunk's bidirectional self-attention outputs."""
    Q = _check_chunk_states("Q", Q)
    K = _check_chunk_states("K", K)
    V = _check_chunk_states("V", V)
    if not (Q.shape == K.shape == V.shape):
        raise ValueError(f"Q/K/V shapes differ: {Q.shape}, {K.shape}, {V.shape}")
    out = attend(Q, K, V)
    return out.mean(axis=0)


def chunk_representation(q_c: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Attention-weighted average of key rows, probed by the chunk query.

    The keys serve as both keys and values, so the result is a convex
    combination of the chunk's key rows.
    """
    K = _check_chunk_states("K", K)
    q_c = np.asarray(q_c, dtype=np.float64)
    if q_c.shape != (K.shape[1],):
        raise ValueError(f"q_c shape {q_c.shape} does not match key dimension {K.shape[1]}")
    weights = softmax((K @ q_c) / np.sqrt(K.shape[1]))
    return weights @ K


def build_chunk_repr(first: int, Q, K, V) -> np.ndarray:
    """Representation vectors of sealed chunks first, first + 1, ..., from
    their (chunks, l, d_head) states; further leading axes (e.g. heads) are
    batch dimensions.

    The same matmuls as `chunk_representation(chunk_query(...))` with a
    leading chunk axis, so every row equals the one-chunk result bit for bit.
    """
    q_c = attend(Q, K, V).mean(axis=-2)
    weights = softmax((K @ q_c[..., None])[..., 0] / np.sqrt(K.shape[-1]))
    c = (weights[..., None, :] @ K)[..., 0, :]
    finite = np.isfinite(c).all(axis=-1)
    if not finite.all():
        raise FloatingPointError(
            f"non-finite representation for chunk {first + int(np.nonzero(~finite)[-1][0])}"
        )
    return c
