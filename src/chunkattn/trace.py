"""Record of which chunks each (layer, head) selected at each step."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class TraceRecord:
    step: int
    layer: int
    head: int
    chunks: tuple
    candidates: tuple | None = None
    scores: tuple | None = None


class SelectionTrace:
    """Append-only selection log; one row per (step, layer, head).

    Rows are stored as columns: step, layer, head and width in one (R, 4)
    int matrix, and the selected chunk ids in an (R, K) matrix padded with
    -1, where K is the widest selection seen. Every selection ranks the
    chunks strictly between the first and the last, 1..C, so a block
    written with scores keeps them as one (rows, C) float matrix whose
    column i scores chunk i + 1. `records` rebuilds `TraceRecord` objects
    on demand.

    `to_json` writes trace.json from the columns in fixed-size blocks of
    rows, byte-identical to `json.dumps(..., sort_keys=True,
    separators=(",", ":"))` of the per-row lists; the text of the scores
    still comes from `json.dumps`, one call per score block and write
    block.

    Single-row `append`s, one per (layer, head) in each decode step, wait
    in a list and move into the columns at the next read or block write.
    """

    def __init__(self, meta: dict | None = None):
        self.meta = dict(meta or {})
        self._n = 0
        self._k = 0
        self._cols = np.empty((0, 4), dtype=np.int64)
        self._ids = np.empty((0, 0), dtype=np.int64)
        self._score_blocks: list = []
        self._pending: list = []

    def _reserve(self, rows: int, width: int) -> None:
        """Make room for `rows` rows of up to `width` ids, doubling each
        capacity when it runs out. New room is left uninitialised, so only
        rows as they are written become resident; `_write` pads them."""
        cap, k_cap = self._ids.shape
        if rows <= cap and width <= k_cap:
            return
        cap = max(8, 2 * cap, rows) if rows > cap else cap
        k_cap = max(2 * k_cap, width) if width > k_cap else k_cap
        n = self._n
        ids = np.empty((cap, k_cap), dtype=np.int64)
        ids[:n, : self._k] = self._ids[:n, : self._k]
        cols = np.empty((cap, 4), dtype=np.int64)
        cols[:n] = self._cols[:n]
        self._ids, self._cols = ids, cols

    def append(self, step, layer, head, chunks) -> None:
        self._pending.append((step, layer, head, tuple(chunks)))

    def append_block(self, step, layer, head, ids, scores=None) -> None:
        """Append len(ids) rows at once. `step`, `layer` and `head` are ints
        or per-row arrays; `ids` is a (rows, width) id matrix. `scores`, if
        given, is the rows' (rows, C) matrix of candidate scores, kept, not
        copied."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return
        self._flush()
        if scores is not None:
            scores = np.asarray(scores, dtype=np.float64)
            if scores.ndim != 2 or len(scores) != len(ids):
                raise ValueError(f"scores must be a ({len(ids)}, C) matrix, got {scores.shape}")
            self._score_blocks.append((self._n, scores))
        self._write(step, layer, head, ids.shape[1], ids)

    def _flush(self) -> None:
        """Move the pending single-row appends into the columns."""
        if not self._pending:
            return
        steps, layers, heads, chunks = zip(*self._pending)
        self._pending = []
        widths = [len(c) for c in chunks]
        ids = np.full((len(chunks), max(widths)), -1, dtype=np.int64)
        for row, c in zip(ids, chunks):
            row[: len(c)] = c
        self._write(steps, layers, heads, widths, ids)

    def _write(self, step, layer, head, width, ids) -> None:
        count, k = ids.shape
        r = self._n
        self._reserve(r + count, k)
        if k > self._k:  # pad the rows already written to the new width
            self._ids[:r, self._k : k] = -1
            self._k = k
        block = self._cols[r : r + count]
        block[:, 0], block[:, 1], block[:, 2], block[:, 3] = step, layer, head, width
        self._ids[r : r + count, :k] = ids
        self._ids[r : r + count, k : self._k] = -1
        self._n = r + count

    def __len__(self) -> int:
        return self._n + len(self._pending)

    @property
    def step(self) -> np.ndarray:
        return self._column(0)

    @property
    def layer(self) -> np.ndarray:
        return self._column(1)

    @property
    def head(self) -> np.ndarray:
        return self._column(2)

    @property
    def width(self) -> np.ndarray:
        return self._column(3)

    @property
    def score_blocks(self) -> list:
        """(first row, (rows, C) scores) of every block written with
        scores, in row order."""
        return list(self._score_blocks)

    @property
    def chunk_ids(self) -> np.ndarray:
        """(R, K) read-only view of the selected ids; row r's first
        width[r] entries are its selection, the rest are -1."""
        self._flush()
        view = self._ids[: self._n, : self._k]
        view.flags.writeable = False
        return view

    def _column(self, j: int) -> np.ndarray:
        self._flush()
        view = self._cols[: self._n, j]
        view.flags.writeable = False
        return view

    @property
    def records(self) -> list:
        """The rows as `TraceRecord`s, built on each access."""
        self._flush()
        steps, layers, heads, widths = self._cols[: self._n].T.tolist()
        ids = self._ids[: self._n, : self._k].tolist()
        records = [
            TraceRecord(s, la, h, tuple(c[:w]))
            for s, la, h, w, c in zip(steps, layers, heads, widths, ids)
        ]
        for r, block in self._score_blocks:
            candidates = tuple(range(1, block.shape[1] + 1))
            for rec, scores in zip(records[r : r + len(block)], block.tolist()):
                rec.candidates, rec.scores = candidates, tuple(scores)
        return records

    def __iter__(self):
        return iter(self.records)

    def selection_counts(self, m: int) -> np.ndarray:
        """Times each chunk id in [0, m) appears in a selection."""
        ids = self.chunk_ids
        return np.bincount(ids[(ids >= 0) & (ids < m)], minlength=m)

    def to_json(self, path) -> None:
        """Write `{"meta": ..., "records": [...]}` and a newline, byte for
        byte as `json.dumps(..., sort_keys=True, separators=(",", ":"))`
        would, from the columns; see `_write_records`."""
        self._flush()
        n = self._n
        meta = json.dumps(self.meta, sort_keys=True, separators=(",", ":"))
        with open(path, "wb") as f:
            f.write(b'{"meta":' + meta.encode() + b',"records":[')
            if n:
                _write_records(f, self._cols[:n], self._ids[:n, : self._k], self._score_blocks)
            f.write(b"]}\n")


# Rows per write block; bounds the writer's temporary memory.
WRITE_BLOCK_ROWS = 1 << 14


def _number_table(cols, ids):
    """(index, digits): digits[index(v)] is the decimal text of integer v,
    NUL-padded to a fixed width, for every v in the step, layer and head
    columns and in the id matrix, padding included. The table is the
    range of those values when that is no longer than the number of cells
    written, else their distinct values."""
    labels, blocks = cols[:, :3], range(0, len(cols), WRITE_BLOCK_ROWS)
    lo = int(min(labels.min(), ids.min(initial=-1)))
    hi = int(max(labels.max(), ids.max(initial=-1)))
    if hi - lo < 3 * len(cols) + int(cols[:, 3].sum()):
        values = np.arange(lo, hi + 1, dtype=np.int64)

        def index(v):
            return v - lo

    else:
        parts = [np.unique(a[b : b + WRITE_BLOCK_ROWS]) for a in (labels, ids) for b in blocks]
        values = np.unique(np.concatenate(parts))

        def index(v):
            return np.searchsorted(values, v)

    width = max(len(str(lo)), len(str(hi)))
    return index, values.astype(f"S{width}").view(np.uint8).reshape(-1, width)


def _write_records(f, cols, ids, score_blocks) -> None:
    """Write the rows, comma-separated, each as `[step,layer,head,[ids]]`,
    with `,[1..C],[scores]` before the last `]` of a scored row.

    Each row of a write block is a fixed run of cells, `[`, step, layer,
    head, `[`, one cell per id column and `]],`, taken from one table of
    NUL-padded cell text: every number with a comma, every number bare,
    `[`, `]],` and an all-NUL cell. JSON text never holds NUL. The last id
    of a row is bare, and id cells at or past the row's width are NUL (the
    width decides, not the id: -1 is a valid id). One take fills a block
    and one boolean compress drops the NULs."""
    index, digits = _number_table(cols, ids)
    d, w = digits.shape
    table = np.zeros((2 * d + 3, max(w + 1, 3)), dtype=np.uint8)
    table[:d, :w] = table[d : 2 * d, :w] = digits
    table[np.arange(d), np.count_nonzero(digits, axis=1)] = ord(",")
    table[2 * d, 0] = ord("[")
    table[2 * d + 1, :3] = np.frombuffer(b"]],", dtype=np.uint8)
    bare, open_, close, nul = d, 2 * d, 2 * d + 1, 2 * d + 2
    n, k = ids.shape
    columns = np.arange(k)
    for b0 in range(0, n, WRITE_BLOCK_ROWS):
        c = cols[b0 : b0 + WRITE_BLOCK_ROWS]
        widths = c[:, 3:4]
        cells = np.empty((len(c), k + 6), dtype=np.int64)
        cells[:, [0, 4, 5 + k]] = open_, open_, close
        cells[:, 1:4] = index(c[:, :3])
        at = cells[:, 5 : 5 + k]
        at[:] = index(ids[b0 : b0 + WRITE_BLOCK_ROWS])
        at += bare * (columns == widths - 1)
        at[columns >= widths] = nul
        text = _block_text(table.take(cells, axis=0), b0, score_blocks)
        f.write(text[:-1] if b0 + len(c) == n else text)  # the last row takes no comma


def _block_text(buf, b0, score_blocks) -> bytes:
    """A write block's text: the bytes of its (rows, cells, width) `buf`
    without NULs, with each scored row's `,[1..C],[scores]` spliced in
    before its closing `],`. The score text comes from one `json.dumps`
    per score block, or per part of one that lies in this block."""
    rows = len(buf)
    flat = buf.ravel()
    out = np.compress(flat != 0, flat).tobytes()
    parts = [
        (max(r, b0) - b0, block[max(r, b0) - r : b0 + rows - r])
        for r, block in score_blocks
        if r < b0 + rows and r + len(block) > b0
    ]
    if not parts:
        return out
    ends = np.cumsum(np.count_nonzero(buf.reshape(rows, -1), axis=1)) - 2
    pieces, prev = [], 0
    for r, scores in parts:
        candidates = json.dumps(list(range(1, scores.shape[1] + 1)), separators=(",", ":"))
        head = f",{candidates},[".encode()
        # `[[a,b],[c]]` -> `a,b` and `c`: float text holds no brackets
        dumped = json.dumps(scores.tolist(), separators=(",", ":"))
        rows_text = dumped[2:-2].encode().split(b"],[")
        for end, text in zip(ends[r : r + len(scores)].tolist(), rows_text):
            pieces += (out[prev:end], head, text, b"]")
            prev = end
    pieces.append(out[prev:])
    return b"".join(pieces)
