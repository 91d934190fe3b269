import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from chunkattn import SelectionTrace, cover_rate, export_heatmap, hit_rate, retrieval_rate
from chunkattn.selection import rank_top
from chunkattn.trace import TraceRecord


def reference_json(records, meta):
    """trace.json as written from one record object per row, through the
    pure-Python encoder that `json.dump` to a file uses."""
    rows = []
    for rec in records:
        row = [rec.step, rec.layer, rec.head, list(rec.chunks)]
        if rec.candidates is not None:
            row.append(list(rec.candidates))
            row.append([float(s) for s in (rec.scores or ())])
        rows.append(row)
    out = io.StringIO()
    json.dump({"meta": meta, "records": rows}, out, sort_keys=True, separators=(",", ":"))
    return out.getvalue() + "\n"


def reference_heatmap(records, m):
    cells = {}
    for rec in records:
        cells.setdefault((rec.layer, rec.head), np.zeros(m, dtype=np.int64))
        for cid in rec.chunks:
            if 0 <= cid < m:
                cells[(rec.layer, rec.head)][cid] += 1
    lines = [["layer", "head"] + [f"c{i}" for i in range(m)]]
    lines += [[layer, head] + cells[(layer, head)].tolist() for layer, head in sorted(cells)]
    return [[str(v) for v in line] for line in lines]


def reference_hit_rate(records, targets, top):
    """Share of records whose `top` best-scoring candidates hold the row's
    target, one record at a time; None when a record carries no scores."""
    hits = 0
    for rec, target in zip(records, targets):
        if rec.candidates is None or rec.scores is None:
            return None
        cand = np.asarray(rec.candidates, dtype=np.int64)
        if cand.size == 0:
            continue
        best = cand[rank_top(np.asarray(rec.scores, dtype=np.float64), top)]
        if target in best:
            hits += 1
    return hits / len(records)


@st.composite
def trace_ops(draw):
    """A chunk count m and a list of single appends and block writes. A
    scored block carries a (rows, C) score matrix; column i scores chunk
    i + 1. Some cases hold only scored blocks, so hit rates are defined."""
    m = draw(st.integers(1, 12))
    k = draw(st.integers(0, 6))
    ids = st.integers(-1, m + 3)
    units = st.integers(-1, 3)  # layer and head numbers
    only_scored = draw(st.booleans())
    # few distinct values, so scores often tie; rows past 64 scores take
    # rank_top's partition path
    values = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-1e6, 1e6)
    sizes = st.integers(0, 5) | st.integers(65, 70)

    ops = []
    for step in range(draw(st.integers(0, 8))):
        width = draw(st.integers(0, k))
        if not only_scored and draw(st.booleans()):
            chunks = tuple(draw(st.lists(ids, min_size=width, max_size=width)))
            ops.append(("append", step, draw(units), draw(units), chunks))
            continue
        count = draw(st.integers(0, 5))
        heads = draw(st.lists(units, min_size=count, max_size=count))
        rows = [tuple(draw(st.lists(ids, min_size=width, max_size=width))) for _ in range(count)]
        scores = None
        if only_scored or draw(st.booleans()):
            scores = draw(hnp.arrays(np.float64, (count, draw(sizes)), elements=values))
        ops.append(("block", step, draw(units), heads, width, rows, scores))
    return m, ops


@settings(max_examples=150, deadline=None)
@given(case=trace_ops())
def test_columnar_trace_matches_per_record_reference(case, tmp_path_factory):
    m, ops = case
    meta = {"m": m, "policy": "top-k"}
    trace = SelectionTrace(meta=meta)
    expected = []
    for op in ops:
        if op[0] == "append":
            _, step, layer, head, chunks = op
            trace.append(step, layer, head, chunks)
            expected.append(TraceRecord(step, layer, head, chunks))
        else:
            _, step, layer, heads, width, rows, scores = op
            ids = np.array(rows, dtype=np.int64).reshape(len(rows), width)
            trace.append_block(step, layer, np.array(heads, dtype=np.int64), ids, scores)
            for i, (head, chunks) in enumerate(zip(heads, rows)):
                rec = TraceRecord(step, layer, head, chunks)
                if scores is not None:
                    rec.candidates = tuple(range(1, scores.shape[1] + 1))
                    rec.scores = tuple(scores[i].tolist())
                expected.append(rec)

    assert len(trace) == len(expected)
    assert trace.records == expected
    assert list(trace) == expected
    assert trace.chunk_ids.shape == (len(expected), max((len(r.chunks) for r in expected), default=0))

    out = tmp_path_factory.mktemp("trace")
    trace.to_json(out / "trace.json")
    assert (out / "trace.json").read_bytes() == reference_json(expected, meta).encode()

    counts = np.zeros(m, dtype=np.int64)
    for rec in expected:
        for cid in rec.chunks:
            if 0 <= cid < m:
                counts[cid] += 1
    np.testing.assert_array_equal(trace.selection_counts(m), counts)

    export_heatmap(trace, out / "heatmap.csv")
    with open(out / "heatmap.csv", newline="") as f:
        assert list(csv.reader(f)) == reference_heatmap(expected, m)

    if expected:
        assert cover_rate(trace, m) == len({c for r in expected for c in r.chunks if 0 <= c < m}) / m
        for target in range(-1, m + 4):
            hits = sum(1 for rec in expected if target in rec.chunks)
            assert retrieval_rate(trace, target) == hits / len(expected)
        # one target per row
        targets = np.arange(len(expected)) % (m + 2)
        hits = sum(1 for rec, t in zip(expected, targets) if t in rec.chunks)
        assert retrieval_rate(trace, targets) == hits / len(expected)

        widest = max((len(rec.candidates or ()) for rec in expected), default=0)
        for top in (1, 2, 5):
            for targets in [[t] * len(expected) for t in {0, 1, 2, 3, widest, widest + 1}] + [
                np.arange(len(expected)) % (widest + 1)
            ]:
                rate = reference_hit_rate(expected, targets, top)
                if rate is None:
                    with pytest.raises(ValueError, match="scores"):
                        hit_rate(trace, targets, top)
                else:
                    assert hit_rate(trace, targets, top) == rate
                    if len(set(targets)) == 1:
                        assert hit_rate(trace, int(targets[0]), top) == rate
