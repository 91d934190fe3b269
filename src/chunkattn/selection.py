"""Top-k sets of candidate chunk scores: `rank_top`, the top-k that
`engine.select` picks chunks with and `analysis.top_hits` scores hits with.

Scores arrive as blocks of rows, one row per (head, query), so one call
ranks every head of a decode layer or every token of an encode group.
"""

from __future__ import annotations

import numpy as np

# rank_top finds the top-k sets of a block of rows of C scores by a stable
# argsort when C <= ARGSORT_MAX_LENGTH or the block holds at most
# ARGSORT_MAX_SCORES scores, else by a threshold top-k. The argsort's cost
# per score grows with C; the threshold's is flatter but has a fixed part,
# which pays off sooner the more rows share it. With sets in place of
# rankings it wins on 4-row decode blocks from about 192 scores a row (10.9
# against 12.5 µs; 11.5 against 17.7 at 256, where the limits still take
# the argsort) and on 256-row encode blocks from about 12 (33.8 against
# 39.8 µs), and loses on 32-row blocks of 32 (13.5 against 9.9).
# scripts/rank_top_shapes.py times both paths (see CHANGES.md).
ARGSORT_MAX_LENGTH = 16
ARGSORT_MAX_SCORES = 1024


def rank_top(scores: np.ndarray, take: int, limit=None) -> np.ndarray:
    """Positions of the `take` best scores along the last axis, as a set:
    each row's positions in ascending order, not in rank order. Ties go to
    the lower position and NaN ranks last, so the set is the first `take`
    of a stable argsort of the negated scores. Leading axes are treated as
    batch dimensions.

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
    """The first `take` of the stable argsort of each row's negated
    scores, sorted; positions at or past the row's `limit` rank as NaN,
    after every other one."""
    if limit is None:
        neg = -scores
    else:
        neg = np.where(np.arange(scores.shape[-1]) < limit, -scores, np.nan)
    top = np.argsort(neg, axis=-1, kind="stable")[..., :take]
    top.sort(axis=-1)
    return top


def _threshold_top(flat, take, limit):
    """`np.partition` finds each (rows, C) row's take-th best score, with
    the positions at or past its `limit` at -inf. The picks are the
    positions before the limit whose scores are at or above it, in
    ascending order from one `flatnonzero`.

    The picks are the argsort's set exactly when a row keeps `take`
    positions; else a score ties the boundary (the argsort may prefer its
    lower position) or a NaN was met (no comparison with it holds), and the
    row takes the argsort.
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
    if exact.all():
        return col.reshape(rows, take)
    top = np.empty((rows, take), dtype=np.intp)
    top[exact] = col[exact[row]].reshape(-1, take)
    top[~exact] = _argsort_top(flat[~exact], take, None if limit is None else limit[~exact])
    return top
