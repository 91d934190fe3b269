"""Per-head chunk routing: rank candidate chunks against a query state.

The first chunk keeps the model stable and the most recent sealed chunk
carries local context, so both are always kept (except under the no-first
ablation). The remaining budget goes to the candidates with the highest
dot-product score against the query, or to the ablation variant's picks.

Candidates arrive as one contiguous (C, d) slice of a head's
representation matrix, so scoring is a single matmul and ranking one
stable sort; nothing per candidate runs in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import CONSTRAINT_POLICIES, SELECTION_POLICIES


@dataclass(frozen=True)
class SelectionSet:
    """Chunks one (layer, head) attends for one query token.

    `chunks` is strictly ascending so gathered rows preserve text order.
    `candidates` and `scores` record the ranking inputs for diagnostics;
    they exclude the mandatory chunks.
    """

    layer: int
    head: int
    query_token: int
    chunks: tuple
    candidates: tuple = ()
    scores: tuple = ()

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.chunks, self.chunks[1:])):
            raise ValueError(f"chunk ids must be strictly ascending, got {self.chunks}")


def rank_top(scores: np.ndarray, take: int) -> np.ndarray:
    """Positions of the `take` best scores along the last axis; ties go to
    the lower position. Leading axes are treated as batch dimensions."""
    take = max(0, min(take, scores.shape[-1]))
    order = np.argsort(-scores, axis=-1, kind="stable")
    return order[..., :take]


def select(
    query: np.ndarray,
    candidates: np.ndarray,
    first: int,
    last: int,
    k: int,
    policy: str = "top-k",
    rng: np.random.Generator | None = None,
    *,
    layer: int = 0,
    head: int = 0,
    query_token: int = 0,
    record_scores: bool = True,
) -> SelectionSet:
    """Pick at most k chunks for one query.

    `candidates` is a (C, d) matrix of chunk representations whose row i
    is chunk first + 1 + i; it must exclude `first` and `last`, which are
    appended unconditionally (policy permitting). One matmul scores every
    row. Constraint policies (fix-head etc.) rank exactly like top-k here;
    sharing across heads/layers is applied afterwards via
    apply_head_constraints. With record_scores=False the returned set
    leaves `candidates` and `scores` empty.
    """
    if k < 2:
        raise ValueError(f"k={k} must be >= 2")
    if policy not in SELECTION_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1 or query.size == 0:
        raise ValueError(f"query must be a nonempty vector, got shape {query.shape}")
    candidates = np.asarray(candidates, dtype=np.float64)
    count = len(candidates)
    if count:
        if candidates.ndim != 2:
            raise ValueError(f"candidates must be a (C, d) matrix, got shape {candidates.shape}")
        if candidates.shape[1] == 0:
            raise ValueError("candidates hold an empty representation vector")
        if candidates.shape[1] != query.size:
            raise ValueError(
                f"representation dimension {candidates.shape[1:]} does not match query {query.shape}"
            )
        if first + count >= last:
            raise ValueError(
                f"candidates must exclude the mandatory chunks, got ids "
                f"{first + 1}..{first + count} with last={last}"
            )
        scores = candidates @ query
    else:
        scores = np.zeros(0, dtype=np.float64)

    base = policy if policy not in CONSTRAINT_POLICIES else "top-k"
    if base == "no-first":
        mandatory = {last}
        take = k - 1
    else:
        mandatory = {first, last}
        take = k - 2
    take = min(take, count)

    if base in ("top-k", "no-first"):
        picked = first + 1 + rank_top(scores, take)
    elif base == "last-k":
        picked = range(first + 1 + count - take, first + 1 + count)
    elif base == "random":
        if rng is None:
            raise ValueError("random policy requires an rng")
        ids = np.arange(first + 1, first + 1 + count, dtype=np.int64)
        picked = rng.choice(ids, size=take, replace=False) if take else []
    else:  # pragma: no cover - exhaustive above
        raise AssertionError(base)

    chosen = sorted(mandatory | set(int(p) for p in picked))
    if not record_scores:
        return SelectionSet(layer=layer, head=head, query_token=query_token, chunks=tuple(chosen))
    return SelectionSet(
        layer=layer,
        head=head,
        query_token=query_token,
        chunks=tuple(chosen),
        candidates=tuple(range(first + 1, first + 1 + count)),
        scores=tuple(float(s) for s in scores),
    )


def apply_head_constraints(
    base: SelectionSet, mode: str, reference: SelectionSet | None = None
) -> SelectionSet:
    """Share a reference unit's selection across heads and/or layers.

    fix-head reuses head 0's selection within the layer; fix-layer reuses
    layer 0's per-head selections; fix-head-and-layer shares layer 0 /
    head 0 everywhere. Any non-constraint mode returns `base` unchanged.
    """
    if mode not in CONSTRAINT_POLICIES:
        if mode in SELECTION_POLICIES:
            return base
        raise ValueError(f"unknown constraint mode {mode!r}")
    if reference is None:
        raise ValueError(f"constraint mode {mode!r} requires a reference selection")
    return replace(base, chunks=reference.chunks)
