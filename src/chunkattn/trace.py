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

    Single-row `append`s, one per (layer, head) in each unscored decode
    step, wait in a list and move into the columns at the next read or
    block write.
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
        capacity when it runs out."""
        cap, k_cap = self._ids.shape
        if rows <= cap and width <= k_cap:
            return
        cap = max(8, 2 * cap, rows) if rows > cap else cap
        k_cap = max(2 * k_cap, width) if width > k_cap else k_cap
        n = self._n
        ids = np.full((cap, k_cap), -1, dtype=np.int64)
        ids[:n, : self._k] = self._ids[:n, : self._k]
        cols = np.empty((cap, 4), dtype=np.int64)
        cols[:n] = self._cols[:n]
        self._ids, self._cols = ids, cols

    def append(self, step, layer, head, chunks) -> None:
        self._pending.append((step, layer, head, tuple(chunks)))

    def append_block(self, step, layer, head, ids, scores=None) -> None:
        """Append len(ids) rows at once. `step`, `layer` and `head` are ints
        or per-row arrays; `ids` is a (rows, width) id matrix. `scores`, if
        given, is the rows' (rows, C) matrix of candidate scores; it is
        kept, not copied."""
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
        block = self._cols[r : r + count]
        block[:, 0], block[:, 1], block[:, 2], block[:, 3] = step, layer, head, width
        self._ids[r : r + count, :k] = ids
        self._k = max(self._k, k)
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

    def _python_columns(self):
        """Per-row (step, layer, head, chunk list) as Python objects, each
        chunk list trimmed to its width."""
        self._flush()
        steps, layers, heads, widths = self._cols[: self._n].T.tolist()
        k = self._k
        ids = self._ids[: self._n, :k].tolist()
        chunks = [row if w == k else row[:w] for row, w in zip(ids, widths)]
        return steps, layers, heads, chunks

    @property
    def records(self) -> list:
        """The rows as `TraceRecord`s, built on each access."""
        steps, layers, heads, chunks = self._python_columns()
        records = [
            TraceRecord(s, la, h, tuple(c)) for s, la, h, c in zip(steps, layers, heads, chunks)
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

    def to_jsonable(self) -> dict:
        steps, layers, heads, chunks = self._python_columns()
        rows = [list(row) for row in zip(steps, layers, heads, chunks)]
        for r, block in self._score_blocks:
            candidates = list(range(1, block.shape[1] + 1))
            for row, scores in zip(rows[r : r + len(block)], block.tolist()):
                row += (candidates, scores)
        return {"meta": self.meta, "records": rows}

    def to_json(self, path) -> None:
        # json.dumps runs the C encoder; json.dump to a file never does.
        text = json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))
        with open(path, "w") as f:
            f.write(text + "\n")
