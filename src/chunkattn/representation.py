"""Chunk summary vectors derived from a chunk's own attention states.

A chunk's query vector is the mean of a bidirectional self-attention pass
over the chunk (content-weighted message passing); the chunk representation
is then an attention-weighted average of the chunk's key rows, probed by
that query vector. No positions enter anywhere: representations must stay
position-free so selected chunks can be remapped later.
"""

from __future__ import annotations

import json

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


def chunk_representation(q_c: np.ndarray, K: np.ndarray, return_weights: bool = False):
    """Attention-weighted average of key rows, probed by the chunk query.

    The keys serve as both keys and values, so the result is a convex
    combination of the chunk's key rows. With return_weights=True the
    softmax weights are returned alongside, for diagnostics.
    """
    K = _check_chunk_states("K", K)
    q_c = np.asarray(q_c, dtype=np.float64)
    if q_c.shape != (K.shape[1],):
        raise ValueError(f"q_c shape {q_c.shape} does not match key dimension {K.shape[1]}")
    weights = softmax((K @ q_c) / np.sqrt(K.shape[1]))
    c = weights @ K
    if return_weights:
        return c, weights
    return c


def build_chunk_repr(layer: int, head: int, chunk: int, Q, K, V) -> np.ndarray:
    """Representation vector of one sealed chunk of (layer, head)."""
    c = chunk_representation(chunk_query(Q, K, V), K)
    if not np.isfinite(c).all():
        raise FloatingPointError(f"non-finite representation for chunk {chunk}")
    return c


def weights_record(layer: int, head: int, chunk: int, weights: np.ndarray) -> dict:
    """JSON-ready record of one representation's softmax weights."""
    return {
        "layer": layer,
        "head": head,
        "chunk": chunk,
        "weights": [float(w) for w in weights],
    }


def dump_weight_records(records: list, path) -> None:
    with open(path, "w") as f:
        json.dump(records, f, sort_keys=True, indent=2)
        f.write("\n")


# Batched variants over a leading chunk axis. Same math as the per-chunk
# functions (asserted in tests); used where many chunks are summarized at
# once, e.g. the synthetic retrieval harness.

def chunk_query_batch(Q: np.ndarray, K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(m, l, d) states -> (m, d) chunk queries."""
    d = Q.shape[-1]
    scores = Q @ K.transpose(0, 2, 1) / np.sqrt(d)
    out = softmax(scores) @ V
    return out.mean(axis=1)


def chunk_representation_batch(q_c: np.ndarray, K: np.ndarray) -> np.ndarray:
    """(m, d) queries and (m, l, d) keys -> (m, d) representations."""
    d = K.shape[-1]
    scores = np.einsum("md,mld->ml", q_c, K) / np.sqrt(d)
    return np.einsum("ml,mld->md", softmax(scores), K)
