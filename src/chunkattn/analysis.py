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

from .representation import chunk_query_batch, chunk_representation_batch
from .selection import apply_head_constraints, rank_top, select
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
    covered = {cid for cid in trace.chunk_union() if 0 <= cid < m}
    return len(covered) / m


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


def hit_rate(trace: SelectionTrace, target: int, top: int) -> float:
    """Fraction of records whose `top` best-scoring candidates include the
    target chunk. Mandatory chunks never count: they are selected
    regardless of score, so they carry no ranking signal."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    hits = 0
    total = 0
    for rec in trace:
        if rec.candidates is None or rec.scores is None:
            raise ValueError("trace records carry no candidate scores")
        total += 1
        cand = np.asarray(rec.candidates, dtype=np.int64)
        if cand.size == 0:
            continue
        scores = np.asarray(rec.scores, dtype=np.float64)
        best = cand[rank_top(scores, top)]
        if target in best:
            hits += 1
    return hits / total


def hit_rate_by_example(trace: SelectionTrace, target: int, top: int) -> float:
    """Per-example aggregate: an example (one `step`) hits when the target
    ranks in the top `top` for a strict majority of its records."""
    by_step: dict[int, list] = {}
    for rec in trace:
        by_step.setdefault(rec.step, []).append(rec)
    if not by_step:
        raise ValueError("empty trace")
    hits = 0
    for recs in by_step.values():
        votes = 0
        for rec in recs:
            cand = np.asarray(rec.candidates, dtype=np.int64)
            if cand.size == 0:
                continue
            scores = np.asarray(rec.scores, dtype=np.float64)
            if target in cand[rank_top(scores, top)]:
                votes += 1
        if votes * 2 > len(recs):
            hits += 1
    return hits / len(by_step)


def retrieval_rate(trace: SelectionTrace, target: int) -> float:
    """Fraction of records whose selected set contains the target chunk."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    return sum(1 for rec in trace if target in rec.chunks) / len(trace)


def export_heatmap(trace: SelectionTrace, path) -> None:
    """CSV grid of selection counts per (layer, head) row and chunk column,
    plus a JSON sidecar with the run metadata."""
    m = trace.meta.get("m")
    if m is None:
        raise ValueError("trace metadata lacks 'm' (total chunk count)")
    cells: dict[tuple, np.ndarray] = {}
    for rec in trace:
        key = (rec.layer, rec.head)
        if key not in cells:
            cells[key] = np.zeros(m, dtype=np.int64)
        for cid in rec.chunks:
            if 0 <= cid < m:
                cells[key][cid] += 1
    path = str(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["layer", "head"] + [f"c{i}" for i in range(m)])
        for layer, head in sorted(cells):
            writer.writerow([layer, head] + cells[(layer, head)].tolist())
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
    H = instance.n_heads
    reps = np.empty((H, instance.m, instance.d_head))
    for head in range(H):
        q_c = chunk_query_batch(instance.queries[head], instance.keys[head], instance.values[head])
        reps[head] = chunk_representation_batch(q_c, instance.keys[head])
    return reps


def run_passkey_trial(
    instance: PasskeyInstance,
    k: int,
    trace: SelectionTrace,
    *,
    policy: str = "top-k",
    seed: int = 0,
    step: int = 0,
) -> list:
    """One selection event per head against the instance's probe queries.

    The harness is a single (layer 0) selection round, so fix-layer is the
    identity here; fix-head and fix-head-and-layer share head 0's picks.
    """
    reps = instance_representations(instance)
    first, last = 0, instance.m - 1
    sets = []
    for head in range(instance.n_heads):
        rng = (
            np.random.default_rng([seed, 0, head, step]) if policy == "random" else None
        )
        sel = select(
            instance.probes[head],
            reps[head, first + 1 : last],
            first,
            last,
            k,
            policy=policy,
            rng=rng,
            layer=0,
            head=head,
            query_token=step,
        )
        if head > 0 and policy in ("fix-head", "fix-head-and-layer"):
            sel = apply_head_constraints(sel, policy, sets[0])
        trace.append(step, 0, head, sel.chunks, candidates=sel.candidates, scores=sel.scores)
        sets.append(sel)
    return sets


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

    by_step: dict[int, list] = {}
    for rec in trace:
        by_step.setdefault(rec.step, []).append(rec)
    hits1 = hits5 = retrieved = total = 0
    by_example_hits = 0
    for trial, t in enumerate(targets):
        recs = by_step[trial]
        votes = 0
        for rec in recs:
            total += 1
            cand = np.asarray(rec.candidates, dtype=np.int64)
            scores = np.asarray(rec.scores, dtype=np.float64)
            if cand.size and t in cand[rank_top(scores, 1)]:
                hits1 += 1
                votes += 1
            if cand.size and t in cand[rank_top(scores, 5)]:
                hits5 += 1
            if t in rec.chunks:
                retrieved += 1
        if votes * 2 > len(recs):
            by_example_hits += 1

    counts = trace.selection_counts(m)
    report = MetricsReport(
        cover_rate=cover_rate(trace, m),
        gini=gini(counts),
        hit_rate_top1=hits1 / total,
        hit_rate_top5=hits5 / total,
        hit_rate_top1_by_example=by_example_hits / trials,
        retrieval_rate=retrieved / total,
        selection_counts=counts.tolist(),
    )
    if flagged:
        report.notes.append(
            "target collided with a mandatory chunk; membership is masked by mandatory selection"
        )
    return report, trace
