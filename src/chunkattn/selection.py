"""Per-head chunk routing: rank candidate chunks against a query state.

The first chunk keeps the model stable and the most recent sealed chunk
carries local context, so both are always kept (except under the no-first
ablation). The remaining budget goes to the candidates with the highest
dot-product score against the query, or to the ablation variant's picks.

Every head of a layer is routed in one call: candidates arrive as one
(H, C, d) slice of the layer's representation matrices, one batched
matmul scores every head and one `rank_top` call ranks all the scores.
"""

from __future__ import annotations

import numpy as np

from .config import CONSTRAINT_POLICIES, SELECTION_POLICIES

# rank_top ranks a block of rows of C scores by a stable argsort when
# C <= ARGSORT_MAX_LENGTH or the block holds at most ARGSORT_MAX_SCORES
# scores, else by a threshold top-k. The argsort's cost per score grows with
# C; the threshold's is flatter but has a fixed part, which pays off sooner
# the more rows share it: on 4-row decode blocks from about 256 scores a
# row, on encode's 256- and 512-row blocks from about 20 (at 62, 494 against
# 161 µs). scripts/rank_top_shapes.py times both paths (see CHANGES.md).
ARGSORT_MAX_LENGTH = 16
ARGSORT_MAX_SCORES = 1024


def rank_top(scores: np.ndarray, take: int, limit=None) -> np.ndarray:
    """Positions of the `take` best scores along the last axis, in rank
    order; ties go to the lower position and NaN ranks last. Leading axes
    are treated as batch dimensions.

    `limit`, if given, broadcasts against the leading axes: each row ranks
    only its first `limit` positions, as if the rest were sliced off. Every
    row must keep at least `take` of them.
    """
    count = scores.shape[-1]
    take = max(0, min(take, count))
    if limit is not None:
        limit = np.broadcast_to(limit, scores.shape[:-1])[..., None]
    if take == 0 or count <= ARGSORT_MAX_LENGTH or scores.size <= ARGSORT_MAX_SCORES:
        return _argsort_top(scores, take, limit)
    rows = scores.size // count
    flat_limit = None if limit is None else limit.reshape(rows, 1)
    top = _threshold_top(scores.reshape(rows, count), take, flat_limit)
    return top.reshape(scores.shape[:-1] + (take,))


def _argsort_top(scores, take, limit):
    """The stable argsort of each row's negated scores; positions at or
    past the row's `limit` rank as NaN, after every other one."""
    if limit is None:
        neg = -scores
    else:
        neg = np.where(np.arange(scores.shape[-1]) < limit, -scores, np.nan)
    return np.argsort(neg, axis=-1, kind="stable")[..., :take]


def _threshold_top(flat, take, limit):
    """`np.partition` finds each (rows, C) row's take-th best score, with
    the positions at or past its `limit` at -inf. The picks are the
    positions before the limit whose scores are at or above it, in position
    order from one `flatnonzero`, then ordered by a stable argsort of their
    scores.

    The picks are the argsort's exactly when a row keeps `take` positions;
    else a score ties the boundary (the argsort may prefer its lower
    position) or a NaN was met (no comparison with it holds), and the row
    takes the argsort.
    """
    rows, count = flat.shape
    part = flat.copy()
    if limit is not None:
        # each row's cut-off positions, limit..C-1, as flat positions
        cut = np.maximum(count - limit[:, 0], 0)
        ends = np.cumsum(cut)
        at = np.repeat((np.arange(rows) + 1) * count - ends, cut) + np.arange(ends[-1])
        part.ravel()[at] = -np.inf
    part.partition(count - take, axis=-1)
    row, col = np.divmod(np.flatnonzero(flat >= part[:, count - take, None]), count)
    if limit is not None:
        before = col < limit[row, 0]
        row, col = row[before], col[before]
    exact = np.bincount(row, minlength=rows) == take
    inexact = not exact.all()
    if inexact:
        keep = exact[row]
        row, col = row[keep], col[keep]
    col = col.reshape(-1, take)
    order = np.argsort(-flat[row.reshape(-1, take), col], axis=-1, kind="stable")
    picks = col[np.arange(len(col))[:, None], order]
    if not inexact:
        return picks
    top = np.empty((rows, take), dtype=np.intp)
    top[exact] = picks
    top[~exact] = _argsort_top(flat[~exact], take, None if limit is None else limit[~exact])
    return top


def select(
    query: np.ndarray,
    candidates: np.ndarray,
    first: int,
    last: int,
    k: int,
    policy: str = "top-k",
    rngs=None,
) -> tuple:
    """Pick at most k chunks for each of H heads' queries.

    `query` is (H, d); `candidates` is an (H, C, d) stack of chunk
    representations whose row i is chunk first + 1 + i. It must exclude
    `first` and `last`, which are kept unconditionally (policy permitting).
    One batched matmul scores each head h against its own query[h]. The
    random policy draws head h's picks from `rngs[h]`. Under fix-head and
    fix-head-and-layer every head takes head 0's selection; sharing across
    layers is left to the caller, which holds layer 0's ids.

    Returns `(ids, scores)`: an (H, k') matrix of chunk ids, each row
    strictly ascending, and the (H, C) candidate scores.
    """
    if k < 2:
        raise ValueError(f"k={k} must be >= 2")
    if policy not in SELECTION_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 2 or query.size == 0:
        raise ValueError(f"query must be a nonempty (H, d) matrix, got shape {query.shape}")
    heads = query.shape[0]
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.ndim != 3 or candidates.shape[0] != heads:
        raise ValueError(
            f"candidates must be an ({heads}, C, d) stack, got shape {candidates.shape}"
        )
    count = candidates.shape[1]
    scores = np.empty((heads, count))
    if count:
        if candidates.shape[2] == 0:
            raise ValueError("candidates hold an empty representation vector")
        if candidates.shape[2] != query.shape[1]:
            raise ValueError(
                f"representation dimension {candidates.shape[2:]} does not match "
                f"query {query.shape[1:]}"
            )
        if first + count >= last:
            raise ValueError(
                f"candidates must exclude the mandatory chunks, got ids "
                f"{first + 1}..{first + count} with last={last}"
            )
        scores = np.matmul(candidates, query[:, :, None])[..., 0]

    base = policy if policy not in CONSTRAINT_POLICIES else "top-k"
    if base == "no-first":
        mandatory = [last]
        take = k - 1
    else:
        mandatory = [first, last] if first != last else [first]
        take = k - 2
    take = min(take, count)

    if base in ("top-k", "no-first"):
        picked = first + 1 + rank_top(scores, take)
    elif base == "last-k":
        picked = np.arange(first + 1 + count - take, first + 1 + count)
    elif base == "random":
        if rngs is None:
            raise ValueError("random policy requires one rng per head")
        pool = np.arange(first + 1, first + 1 + count, dtype=np.int64)
        picked = np.empty((heads, take), dtype=np.int64)
        if take:
            for head in range(heads):
                picked[head] = rngs[head].choice(pool, size=take, replace=False)
    else:  # pragma: no cover - exhaustive above
        raise AssertionError(base)

    ids = np.empty((heads, take + len(mandatory)), dtype=np.int64)
    ids[:, :take] = picked
    ids[:, take:] = mandatory
    ids.sort(axis=1)
    if policy in ("fix-head", "fix-head-and-layer"):
        ids = np.broadcast_to(ids[0], ids.shape)
    return ids, scores
