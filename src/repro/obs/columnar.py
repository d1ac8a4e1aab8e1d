"""Chunked typed-NumPy column buffers — the in-memory half of the trace store.

A :class:`StreamBuffer` holds one event stream as parallel typed columns.
An append extends a flat list of plain Python scalars (no per-row object
for the cyclic collector to track); every ``STAGE_ROWS`` rows one slice
assignment per column moves them into preallocated fixed-size NumPy chunks,
which :meth:`column_parts` hands out one by one.  A :class:`StringTable`
interns category names into integer codes so string columns stay ints.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["StringTable", "StreamBuffer"]

#: Rows per preallocated chunk: memory grows in ``CHUNK_ROWS``-row steps,
#: and a full chunk is retired to a list and never touched again.
CHUNK_ROWS = 4096

#: Rows staged as Python scalars before they move into the current chunk
#: (a divisor of ``CHUNK_ROWS``, so a full stage never straddles chunks).
STAGE_ROWS = 256

#: (column name, numpy dtype string) pairs; the schema of one stream.
ColumnSchema = Sequence[Tuple[str, str]]


class StringTable:
    """Bidirectional str <-> small-int interning (category names)."""

    __slots__ = ("_codes", "strings")

    def __init__(self) -> None:
        self._codes: Dict[str, int] = {}
        self.strings: List[str] = []

    def code(self, s: str) -> int:
        """The code for *s*, interning it on first sight."""
        code = self._codes.get(s)
        if code is None:
            code = len(self.strings)
            self._codes[s] = code
            self.strings.append(s)
        return code

    def get_code(self, s: str) -> int:
        """The existing code for *s*, or -1 (never interns)."""
        return self._codes.get(s, -1)

    def __len__(self) -> int:
        return len(self.strings)


class StreamBuffer:
    """Append-only columnar buffer for one event stream.

    Parameters
    ----------
    schema:
        ``[(column name, dtype), ...]``; appends must supply one value per
        column, in schema order.
    """

    __slots__ = ("schema", "names", "_width", "_stage", "_limit", "_chunks", "_fill")

    def __init__(self, schema: ColumnSchema) -> None:
        self.schema = tuple((str(n), str(d)) for n, d in schema)
        if not self.schema:
            raise ValueError("a stream needs at least one column")
        self.names = tuple(n for n, _ in self.schema)
        self._width = len(self.schema)
        self._stage: List[Any] = []   # staged rows, row-major
        self._limit = self._width * STAGE_ROWS
        self._chunks: List[Dict[str, np.ndarray]] = []
        self._fill = CHUNK_ROWS       # rows in the last chunk ("full" if none)

    def append(self, *values) -> None:
        """Append one row; *values* in schema order."""
        if len(values) != self._width:
            raise ValueError(f"a row has {self._width} values, got {len(values)}")
        stage = self._stage
        stage.extend(values)
        if len(stage) == self._limit:
            self._flush()

    def _flush(self) -> None:
        """Move the staged rows into the last chunk, one slice assignment
        per column, opening a new chunk when the last one is full."""
        stage, width = self._stage, self._width
        n = len(stage) // width
        if not n:
            return
        if self._fill == CHUNK_ROWS:
            self._chunks.append({name: np.empty(CHUNK_ROWS, dtype=dtype)
                                 for name, dtype in self.schema})
            self._fill = 0
        chunk, i = self._chunks[-1], self._fill
        for j, name in enumerate(self.names):
            chunk[name][i:i + n] = stage[j::width]
        stage.clear()
        self._fill = i + n
        # After an early flush (column_parts) the next stage ends with the chunk.
        self._limit = width * min(STAGE_ROWS, CHUNK_ROWS - self._fill or CHUNK_ROWS)

    @property
    def rows(self) -> int:
        """Rows appended so far, staged ones included."""
        staged = len(self._stage) // self._width
        return CHUNK_ROWS * (len(self._chunks) - 1) + self._fill + staged

    def __len__(self) -> int:
        return self.rows

    def column_parts(self, name: str) -> List[np.ndarray]:
        """Column *name* as per-chunk arrays in row order, after flushing
        the stage.  The arrays are views into the buffer, not copies."""
        if name not in self.names:
            raise KeyError(f"no column {name!r} (have {self.names})")
        self._flush()
        parts = [chunk[name] for chunk in self._chunks]
        if parts:
            parts[-1] = parts[-1][:self._fill]
        return parts

    def column(self, name: str) -> np.ndarray:
        parts = self.column_parts(name)
        return np.concatenate(parts) if parts else np.empty(0, dict(self.schema)[name])

    def columns(self) -> Dict[str, np.ndarray]:
        """Contiguous per-column arrays over every appended row."""
        return {name: self.column(name) for name in self.names}
