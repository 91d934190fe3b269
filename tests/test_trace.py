import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from chunkattn import SelectionTrace, cover_rate, export_heatmap, hit_rate, retrieval_rate
from chunkattn.selection import rank_top
from chunkattn.trace import WRITE_BLOCK_ROWS, TraceRecord


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


def wide(small):
    """`small`, or an integer of any digit width up to 13, either sign."""
    return small | st.integers(0, 12).flatmap(lambda e: st.integers(-(10**e), 10**e))


@st.composite
def trace_ops(draw):
    """A chunk count m and a list of single appends and block writes. A
    scored block carries a (rows, C) score matrix whose column i scores
    chunk i + 1. Some cases hold only scored blocks, so hit rates are
    defined."""
    m = draw(st.integers(1, 12))
    k = draw(st.integers(0, 6))
    ids = wide(st.integers(-1, m + 3))
    units = wide(st.integers(-1, 3))  # layer and head numbers
    only_scored = draw(st.booleans())
    # few distinct values, so scores often tie; rows past 64 scores take
    # rank_top's partition path
    values = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-1e6, 1e6)
    sizes = st.integers(0, 5) | st.integers(65, 70)

    ops = []
    for i in range(draw(st.integers(0, 8))):
        step = draw(wide(st.just(i)))
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


def record_block(trace, expected, step, layer, heads, ids, scores=None):
    trace.append_block(step, layer, heads, ids, scores)
    heads = np.broadcast_to(heads, len(ids)).tolist()
    for i, (head, chunks) in enumerate(zip(heads, ids.tolist())):
        rec = TraceRecord(step, layer, head, tuple(chunks))
        if scores is not None:
            rec.candidates = tuple(range(1, scores.shape[1] + 1))
            rec.scores = tuple(scores[i].tolist())
        expected.append(rec)


def test_trace_json_across_write_blocks(tmp_path):
    # more rows than one write block, of widths 0 to 5, with a scored block
    # across the seam between the first two write blocks and a scored last row
    rng = np.random.default_rng(3)
    meta = {"m": 50, "policy": "top-k"}
    trace, expected = SelectionTrace(meta=meta), []
    seam = WRITE_BLOCK_ROWS
    head = np.arange(seam - 5) % 4
    record_block(trace, expected, 0, 0, head, rng.integers(-1, 50, (seam - 5, 3)))
    for width in (0, 2):
        chunks = tuple(rng.integers(-1, 50, width).tolist())
        trace.append(1, 1, 7, chunks)
        expected.append(TraceRecord(1, 1, 7, chunks))
    scores = rng.normal(size=(6, 5))
    scores[0, 1], scores[2, 0], scores[4, 4], scores[5, 2] = np.nan, np.inf, -np.inf, -0.0
    record_block(trace, expected, 2, 0, np.arange(6), rng.integers(-1, 50, (6, 2)), scores)
    record_block(trace, expected, 3, 1, 2, np.empty((10, 0), dtype=np.int64))
    record_block(trace, expected, 4, 1, 3, rng.integers(-1, 50, (2, 5)), rng.normal(size=(2, 3)))
    assert trace.score_blocks[0][0] < seam < trace.score_blocks[0][0] + 6 < len(trace)

    trace.to_json(tmp_path / "trace.json")
    assert (tmp_path / "trace.json").read_bytes() == reference_json(expected, meta).encode()


def test_chunk_ids_pad_rows_written_before_a_wider_row():
    # capacity grows by rows and by width several times; every row reads
    # its ids then -1 up to the widest row written so far
    trace, expected = SelectionTrace(), []
    rng = np.random.default_rng(5)
    for count, width in [(3, 2), (1, 0), (20, 5), (2, 1), (40, 7), (9, 3)]:
        ids = rng.integers(0, 50, (count, width))
        if count == 1:
            trace.append(0, 0, 0, ids[0].tolist())
        else:
            trace.append_block(0, 0, 0, ids)
        expected += [row.tolist() for row in ids]
        widest = max(map(len, expected))
        padded = [row + [-1] * (widest - len(row)) for row in expected]
        np.testing.assert_array_equal(trace.chunk_ids, np.array(padded, dtype=np.int64))


def test_heatmap_keeps_extreme_layer_and_head_numbers(tmp_path):
    trace = SelectionTrace(meta={"m": 3})
    for layer, head, chunk in [(10**18, -(10**18), 1), (10**18, 10**18, 2), (3, 2, 2)]:
        trace.append(0, layer, head, (chunk,))
    export_heatmap(trace, tmp_path / "heatmap.csv")
    with open(tmp_path / "heatmap.csv", newline="") as f:
        assert list(csv.reader(f))[1:] == [
            ["3", "2", "0", "0", "1"],
            [str(10**18), str(-(10**18)), "0", "1", "0"],
            [str(10**18), str(10**18), "0", "0", "1"],
        ]


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
            row_scores = [] if scores is None else scores.tolist()
            for i, (head, chunks) in enumerate(zip(heads, rows)):
                rec = TraceRecord(step, layer, head, chunks)
                if row_scores:
                    rec.candidates = tuple(range(1, len(row_scores[i]) + 1))
                    rec.scores = tuple(row_scores[i])
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
