"""Spans around the engine's calls into each layer, recorded from outside.

`instrument(tracer)` replaces, for its duration, the names the engine looks
up at call time: functions bound into `chunkattn.engine` and
`chunkattn.cache`, methods of the model, store and trace classes, and the
public `Engine.encode` and `Engine.generate`. Each call records a span
(name, start, end, parent) in memory; nothing is written until the run
ends. A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

import numpy as np

import chunkattn.analysis
import chunkattn.cache
import chunkattn.engine
from chunkattn import ChunkStore, Engine, HostModel, RotaryTable, SelectionTrace


class Tracer:
    """In-memory span log of one traced pass, plus counts taken at the same
    boundaries from the call arguments."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.rope_rows = 0
        self.rope_max_position = -1
        self.candidates_scored = 0

    def _open(self, name: str) -> int:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.start[i] = t0
        self.end[i] = t1

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(i, t0, time.perf_counter_ns())

    def wrap(self, name: str, fn, count=None):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            if count is not None:
                count(self, args)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i, t0, clock())

        return traced

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the durations of its child spans."""
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return dur - child.astype(np.int64)

    def per_name(self) -> dict:
        """{name: (self ms, calls)} over all recorded spans."""
        name = np.asarray(self.name, dtype=np.int64)
        self_ns = self.self_ns()
        ms = np.bincount(name, weights=self_ns, minlength=len(self.names)) / 1e6
        calls = np.bincount(name, minlength=len(self.names))
        return {label: (float(ms[i]), int(calls[i])) for i, label in enumerate(self.names)}

    def to_jsonable(self) -> dict:
        return {
            "run_id": self.run_id,
            "names": self.names,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
        }


def _count_rope(tracer: Tracer, args) -> None:
    _, states, positions = args[:3]
    states = np.asarray(states)
    positions = np.asarray(positions)
    tracer.rope_rows += states.size // states.shape[-1]
    if positions.size:
        tracer.rope_max_position = max(tracer.rope_max_position, int(positions.max()))


def _count_candidates(tracer: Tracer, args) -> None:
    tracer.candidates_scored += len(args[1])


# (owner, attribute, span name, counter). Module functions are replaced in
# the module that calls them, which is where the engine looks them up.
TARGETS = (
    (chunkattn.engine, "select", "selection.select", _count_candidates),
    (chunkattn.engine, "rank_top", "selection.rank_top", None),
    (chunkattn.engine, "remap", "remapping.remap", None),
    (chunkattn.engine, "attend", "model.attend", None),
    (chunkattn.engine, "advance", "chunking.advance", None),
    (chunkattn.cache, "build_chunk_repr", "representation.build_chunk_repr", None),
    (chunkattn.analysis, "export_heatmap", "analysis.export_heatmap", None),
    (RotaryTable, "apply", "model.rope_apply", _count_rope),
    (HostModel, "project_heads", "model.project_heads", None),
    (HostModel, "mlp", "model.mlp", None),
    (HostModel, "logits_from_hidden", "model.logits", None),
    (ChunkStore, "gather", "cache.gather", None),
    (ChunkStore, "append_token", "cache.append_token", None),
    (ChunkStore, "bulk_append", "cache.bulk_append", None),
    (SelectionTrace, "append", "trace.append", None),
    (SelectionTrace, "to_json", "trace.to_json", None),
    (Engine, "encode", "engine.encode", None),
    (Engine, "generate", "engine.decode", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every target through `tracer` until the block exits."""
    saved = []
    try:
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, res, d_head: int) -> dict:
    """Per-layer metrics of one traced pass `res`."""
    spans = tracer.per_name()

    def self_ms(name):
        return spans.get(name, (0.0, 0))[0]

    def calls(name):
        return spans.get(name, (0.0, 0))[1]

    def us_per_call(name):
        return self_ms(name) * 1e3 / max(1, calls(name))

    rows_loaded = sum(res.rows_loaded)
    sealed = sum(res.sealed_rows_gathered)
    return {
        "model.rope_apply.ms": self_ms("model.rope_apply"),
        "model.rope_apply.calls": calls("model.rope_apply"),
        "model.rope_apply.rows": tracer.rope_rows,
        "model.rope.max_position": tracer.rope_max_position,
        "model.project_heads.ms": self_ms("model.project_heads"),
        "model.mlp.ms": self_ms("model.mlp"),
        "model.logits.ms": self_ms("model.logits"),
        "model.attend.ms": self_ms("model.attend"),
        "engine.encode.self_ms": self_ms("engine.encode"),
        "engine.decode.self_ms": self_ms("engine.decode"),
        "selection.select.ms": self_ms("selection.select"),
        "selection.select.calls": calls("selection.select"),
        "selection.select.us_per_call": us_per_call("selection.select"),
        "selection.candidates_scored": tracer.candidates_scored,
        "selection.rank_top.ms": self_ms("selection.rank_top"),
        "remapping.remap.ms": self_ms("remapping.remap"),
        "remapping.remap.calls": calls("remapping.remap"),
        "chunking.advance.ms": self_ms("chunking.advance"),
        "representation.build_chunk_repr.ms": self_ms("representation.build_chunk_repr"),
        "representation.build_chunk_repr.calls": calls("representation.build_chunk_repr"),
        "cache.gather.ms": self_ms("cache.gather"),
        "cache.gather.calls": calls("cache.gather"),
        "cache.gather.us_per_call": us_per_call("cache.gather"),
        "cache.append_token.ms": self_ms("cache.append_token"),
        "cache.bulk_append.ms": self_ms("cache.bulk_append"),
        "cache.rows_gathered": sum(res.rows_gathered),
        "cache.sealed_rows_gathered": sealed,
        "cache.rows_loaded": rows_loaded,
        # Computed, not measured: K and V rows of d_head float64 values each.
        "cache.bytes_loaded": rows_loaded * d_head * 8 * 2,
        "cache.hot_hit_ratio": 1.0 - rows_loaded / sealed if sealed else 1.0,
        "cache.evictions": res.evictions,
        "trace.append.ms": self_ms("trace.append"),
        "trace.append.calls": calls("trace.append"),
        "trace.to_json.ms": self_ms("trace.to_json"),
        "trace.records": res.trace_records,
        "analysis.metrics.ms": self_ms("analysis.metrics"),
        "analysis.export_heatmap.ms": self_ms("analysis.export_heatmap"),
    }


def phase_shares(tracer: Tracer, top: int = 5) -> dict:
    """The largest self-time shares in each phase, over the phase's time.

    A span belongs to the phase of its outermost span: `Engine.encode`,
    `Engine.generate` (decode) or one of the report calls.
    """
    phase_of = {"engine.encode": "encode", "engine.decode": "decode"}
    self_ns = tracer.self_ns()
    wall: dict = {}
    by_phase: dict = {}
    root = []
    for i, (nid, parent) in enumerate(zip(tracer.name, tracer.parent)):
        root.append(i if parent < 0 else root[parent])
        phase = phase_of.get(tracer.names[tracer.name[root[i]]], "report")
        if parent < 0:
            wall[phase] = wall.get(phase, 0) + tracer.end[i] - tracer.start[i]
        bucket = by_phase.setdefault(phase, {})
        label = tracer.names[nid]
        bucket[label] = bucket.get(label, 0) + int(self_ns[i])
    return {
        phase: {
            "wall_s": wall[phase] / 1e9,
            "top_self_share": [
                [label, round(ns / wall[phase], 4)]
                for label, ns in sorted(bucket.items(), key=lambda kv: -kv[1])[:top]
            ],
        }
        for phase, bucket in by_phase.items()
    }


def write_spans(tracers: list, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump([t.to_jsonable() for t in tracers], f, separators=(",", ":"))
        f.write("\n")
