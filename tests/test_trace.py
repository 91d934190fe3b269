import csv
import io
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from chunkattn import SelectionTrace, cover_rate, export_heatmap, retrieval_rate
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


@st.composite
def trace_ops(draw):
    """A chunk count m and a list of single appends and block writes."""
    m = draw(st.integers(1, 12))
    k = draw(st.integers(0, 6))
    ids = st.integers(-1, m + 3)
    units = st.integers(-1, 3)  # layer and head numbers

    def row(width):
        chunks = tuple(draw(st.lists(ids, min_size=width, max_size=width)))
        if not draw(st.booleans()):
            return chunks, None, None
        cands = tuple(draw(st.lists(st.integers(0, m), max_size=4)))
        scores = draw(
            st.none() | st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * len(cands))
        )
        return chunks, cands, scores

    ops = []
    for step in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            width = draw(st.integers(0, k))
            chunks, cands, scores = row(width)
            ops.append(("append", step, draw(units), draw(units), chunks, cands, scores))
        else:
            width = draw(st.integers(0, k))
            count = draw(st.integers(0, 5))
            heads = draw(st.lists(units, min_size=count, max_size=count))
            scored = draw(st.booleans())
            rows = [row(width) for _ in range(count)]
            ops.append(("block", step, draw(units), heads, width, rows, scored))
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
            _, step, layer, head, chunks, cands, scores = op
            trace.append(step, layer, head, chunks, candidates=cands, scores=scores)
            expected.append(TraceRecord(step, layer, head, chunks, cands, scores))
        else:
            _, step, layer, heads, width, rows, scored = op
            ids = np.array([chunks for chunks, _, _ in rows], dtype=np.int64)
            ids = ids.reshape(len(rows), width)
            cands = [c for _, c, _ in rows] if scored else None
            scores = [s for _, _, s in rows] if scored else None
            trace.append_block(step, layer, np.array(heads, dtype=np.int64), ids, cands, scores)
            for head, (chunks, c, s) in zip(heads, rows):
                expected.append(
                    TraceRecord(step, layer, head, chunks, c if scored else None,
                                s if scored else None)
                )

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
