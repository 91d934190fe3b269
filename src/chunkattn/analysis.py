"""Selection-quality metrics and the synthetic retrieval harness.

The harness works at the representation level: per-head key states are
seeded noise, and the target chunk's keys carry an additive component
aligned with the probe query. The host model is untrained, so semantic
retrieval is not testable; what is testable is whether the selection
machinery routes heads to the chunk whose keys match the query.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .engine import select
from .representation import build_chunk_repr
from .selection import rank_top
from .trace import SelectionTrace


@dataclass
class MetricsReport:
    cover_rate: float
    gini: float
    hit_rate_top1: float | None = None
    hit_rate_top5: float | None = None
    hit_rate_top1_by_example: float | None = None
    retrieval_rate: float | None = None
    selection_counts: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "cover_rate": self.cover_rate,
            "gini": self.gini,
            "hit_rate_top1": self.hit_rate_top1,
            "hit_rate_top5": self.hit_rate_top5,
            "hit_rate_top1_by_example": self.hit_rate_top1_by_example,
            "retrieval_rate": self.retrieval_rate,
            "selection_counts": list(map(int, self.selection_counts)),
            "notes": list(self.notes),
        }


def cover_rate(trace: SelectionTrace, m: int) -> float:
    """Fraction of the m chunks selected at least once by any record."""
    if m <= 0:
        raise ValueError(f"m={m} must be positive")
    if len(trace) == 0:
        raise ValueError("empty trace")
    return np.count_nonzero(trace.selection_counts(m)) / m


def gini(counts) -> float:
    """Normalized mean absolute difference of per-chunk selection counts.

    0 means perfectly uniform selection; the maximum for m chunks is
    1 - 1/m (all selections on a single chunk).
    """
    x = np.asarray(counts, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("counts must be a nonempty vector")
    if np.any(x < 0):
        raise ValueError("counts must be nonnegative")
    total = x.sum()
    if total == 0:
        raise ValueError("counts must not be all zero")
    m = x.size
    diff_sum = np.abs(x[:, None] - x[None, :]).sum()
    return float(diff_sum / (2 * m * total))


def top_hits(trace: SelectionTrace, target, top: int) -> np.ndarray:
    """Per row, whether the target chunk is among the row's `top`
    best-scoring candidates. `target` is one chunk id or one per row.
    Mandatory chunks never count: they are selected regardless of score,
    so they carry no ranking signal."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    target = np.broadcast_to(target, (len(trace),))
    hits = np.zeros(len(trace), dtype=bool)
    scored = 0
    for r, scores in trace.score_blocks:
        rows = slice(r, r + len(scores))
        hits[rows] = (1 + rank_top(scores, top) == target[rows, None]).any(axis=1)
        scored += len(scores)
    if scored != len(trace):
        raise ValueError("trace records carry no candidate scores")
    return hits


def hit_rate(trace: SelectionTrace, target, top: int) -> float:
    """Fraction of records whose `top` best-scoring candidates include the
    target chunk: one chunk id, or one per row."""
    return np.count_nonzero(top_hits(trace, target, top)) / len(trace)


def retrieval_rate(trace: SelectionTrace, target) -> float:
    """Fraction of records whose selected set contains the target chunk:
    one chunk id, or one per row."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    ids = trace.chunk_ids
    selected = np.arange(ids.shape[1]) < trace.width[:, None]
    found = (ids == np.reshape(target, (-1, 1))) & selected
    return np.count_nonzero(found.any(axis=1)) / len(trace)


def export_heatmap(trace: SelectionTrace, path) -> None:
    """CSV grid of selection counts per (layer, head) row and chunk column,
    plus a JSON sidecar with the run metadata."""
    m = trace.meta.get("m")
    if m is None:
        raise ValueError("trace metadata lacks 'm' (total chunk count)")
    # Number each (layer, head) by layer rank * heads + head rank, which
    # sorts the units present by (layer, head) and cannot overflow, then
    # count every valid id per unit.
    layers, layer_of = np.unique(trace.layer, return_inverse=True)
    heads, head_of = np.unique(trace.head, return_inverse=True)
    units, unit_of = np.unique(layer_of * len(heads) + head_of, return_inverse=True)
    ids = trace.chunk_ids
    keys = (unit_of.reshape(-1, 1) * m + ids)[(ids >= 0) & (ids < m)]
    cells = np.bincount(keys, minlength=units.size * m).reshape(units.size, m)
    path = str(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["layer", "head"] + [f"c{i}" for i in range(m)])
        unit_layer, unit_head = layers[units // len(heads)], heads[units % len(heads)]
        for la, h, row in zip(unit_layer.tolist(), unit_head.tolist(), cells.tolist()):
            writer.writerow([la, h] + row)
    with open(path + ".meta.json", "w") as f:
        json.dump(trace.meta, f, sort_keys=True, indent=2)
        f.write("\n")


# -- synthetic retrieval harness ------------------------------------------


@dataclass
class PasskeyInstance:
    """Engineered per-head chunk states with one answer-bearing chunk."""

    m: int
    target: int
    chunk_size: int
    d_head: int
    n_heads: int
    gap: float
    noise_seed: int
    keys: np.ndarray  # (H, m, l, d)
    queries: np.ndarray  # (H, m, l, d)
    values: np.ndarray  # (H, m, l, d)
    probes: np.ndarray  # (H, d)
    flagged: bool = False


def build_passkey(
    m: int,
    target: int,
    gap: float,
    noise_seed: int,
    *,
    chunk_size: int = 16,
    d_head: int = 16,
    n_heads: int = 4,
) -> PasskeyInstance:
    """Draw noise chunk states and plant a probe-aligned component in the
    target chunk's keys, so the target's score exceeds every distractor by
    roughly `gap` when `gap` is large.

    A target colliding with the mandatory chunks (0 or m-1) is allowed but
    flagged: mandatory selection would mask what the harness measures.
    """
    if m < 3:
        raise ValueError(f"m={m} must be >= 3")
    if not 0 <= target < m:
        raise ValueError(f"target={target} outside [0, {m})")
    if not np.isfinite(gap):
        raise ValueError(f"gap={gap} must be finite")
    for name, value in (("chunk_size", chunk_size), ("d_head", d_head), ("n_heads", n_heads)):
        if value < 1:
            raise ValueError(f"{name}={value} must be >= 1")
    rng = np.random.default_rng(noise_seed)
    shape = (n_heads, m, chunk_size, d_head)
    keys = rng.normal(0.0, 1.0, shape)
    queries = rng.normal(0.0, 1.0, shape)
    values = rng.normal(0.0, 1.0, shape)
    probes = rng.normal(0.0, 1.0, (n_heads, d_head))
    probes /= np.linalg.norm(probes, axis=-1, keepdims=True)
    keys[:, target] += gap * probes[:, None, :]
    flagged = target in (0, m - 1)
    return PasskeyInstance(
        m=m,
        target=target,
        chunk_size=chunk_size,
        d_head=d_head,
        n_heads=n_heads,
        gap=gap,
        noise_seed=noise_seed,
        keys=keys,
        queries=queries,
        values=values,
        probes=probes,
        flagged=flagged,
    )


def instance_representations(instance: PasskeyInstance) -> np.ndarray:
    """(H, m, d) chunk representations through the real summary pipeline."""
    return build_chunk_repr(0, instance.queries, instance.keys, instance.values)


def run_passkey_trial(
    instance: PasskeyInstance,
    k: int,
    trace: SelectionTrace,
    *,
    policy: str = "top-k",
    seed: int = 0,
    step: int = 0,
) -> tuple:
    """One selection event for every head against the instance's probes.

    The harness is a single (layer 0) selection round, so fix-layer is the
    identity here; fix-head and fix-head-and-layer share head 0's picks.
    Returns the (H, k') selected ids and the (H, m - 2) candidate scores.
    """
    last = instance.m - 1
    cands = instance_representations(instance)[:, 1:last]
    scores = np.matmul(cands, instance.probes[:, :, None])[..., 0]
    rngs = None
    if policy == "random":
        rngs = [[np.random.default_rng([seed, 0, head, step])] for head in range(instance.n_heads)]
    ids = select(scores[:, None], (last,), k, policy, rngs)[:, 0]
    trace.append_block(step, 0, np.arange(instance.n_heads), ids, scores)
    return ids, scores


def run_passkey_trials(
    m: int,
    k: int,
    gap: float,
    trials: int,
    seed: int,
    *,
    policy: str = "top-k",
    target: int | None = None,
    target_range: tuple | None = None,
    chunk_size: int = 16,
    d_head: int = 16,
    n_heads: int = 4,
) -> tuple:
    """Repeated fresh instances with (by default) random target placement.

    target_range=(lo, hi) restricts placement to [lo, hi); the default is
    the non-mandatory range [1, m-1). Returns (MetricsReport, trace).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lo, hi = target_range if target_range is not None else (1, m - 1)
    if not (0 <= lo < hi <= m):
        raise ValueError(f"bad target range [{lo}, {hi}) for m={m}")
    trace = SelectionTrace(
        meta={
            "m": m,
            "k": k,
            "gap": gap,
            "trials": trials,
            "policy": policy,
            "seed": seed,
            "harness": "passkey",
        }
    )
    targets = []
    flagged = False
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        t = target if target is not None else int(rng.integers(lo, hi))
        noise_seed = int(rng.integers(0, 2**32))
        inst = build_passkey(
            m, t, gap, noise_seed, chunk_size=chunk_size, d_head=d_head, n_heads=n_heads
        )
        flagged = flagged or inst.flagged
        run_passkey_trial(inst, k, trace, policy=policy, seed=seed, step=trial)
        targets.append(t)

    # Trial t wrote rows t*H .. t*H + H - 1, one per head.
    targets = np.repeat(targets, n_heads)
    hits1 = top_hits(trace, targets, 1)
    votes = np.bincount(trace.step[hits1], minlength=trials)
    counts = trace.selection_counts(m)
    report = MetricsReport(
        cover_rate=cover_rate(trace, m),
        gini=gini(counts),
        hit_rate_top1=np.count_nonzero(hits1) / len(trace),
        hit_rate_top5=hit_rate(trace, targets, 5),
        hit_rate_top1_by_example=np.count_nonzero(votes * 2 > n_heads) / trials,
        retrieval_rate=retrieval_rate(trace, targets),
        selection_counts=counts.tolist(),
    )
    if flagged:
        report.notes.append(
            "target collided with a mandatory chunk; membership is masked by mandatory selection"
        )
    return report, trace
