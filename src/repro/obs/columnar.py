"""Chunked typed-NumPy column buffers — the in-memory half of the trace store.

A :class:`StreamBuffer` holds one event stream as parallel typed columns.
Appends land in preallocated fixed-size NumPy chunks (no per-event Python
object survives the append, unlike a ``list[dataclass]`` trace), and
:meth:`columns` concatenates the chunks into the contiguous arrays the
on-disk store writes.  A :class:`StringTable` interns the small set of
category names into integer codes so string columns stay fixed-width ints.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["StringTable", "StreamBuffer"]

#: Rows per preallocated chunk: memory grows in ``CHUNK_ROWS``-row steps,
#: and a full chunk is retired to a list and never touched again.
CHUNK_ROWS = 4096

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

    def lookup(self, code: int) -> str:
        return self.strings[code]

    def get_code(self, s: str) -> int:
        """The existing code for *s*, or -1 (never interns)."""
        return self._codes.get(s, -1)

    def __len__(self) -> int:
        return len(self.strings)

    def __contains__(self, s: str) -> bool:
        return s in self._codes


class StreamBuffer:
    """Append-only columnar buffer for one event stream.

    Parameters
    ----------
    schema:
        ``[(column name, dtype), ...]``; appends must supply one value per
        column, in schema order.
    """

    __slots__ = ("schema", "names", "_chunks", "_cur", "_fill", "rows")

    def __init__(self, schema: ColumnSchema) -> None:
        self.schema = tuple((str(n), str(d)) for n, d in schema)
        if not self.schema:
            raise ValueError("a stream needs at least one column")
        self.names = tuple(n for n, _ in self.schema)
        self._chunks: List[Dict[str, np.ndarray]] = []
        self._cur: Dict[str, np.ndarray] | None = None
        self._fill = 0
        self.rows = 0

    def _new_chunk(self) -> Dict[str, np.ndarray]:
        if self._cur is not None:
            self._chunks.append(self._cur)
        self._cur = {name: np.empty(CHUNK_ROWS, dtype=dtype)
                     for name, dtype in self.schema}
        self._fill = 0
        return self._cur

    def append(self, *values) -> None:
        """Append one row; *values* in schema order."""
        cur = self._cur
        if cur is None or self._fill == CHUNK_ROWS:
            cur = self._new_chunk()
        i = self._fill
        for name, value in zip(self.names, values):
            cur[name][i] = value
        self._fill = i + 1
        self.rows += 1

    def __len__(self) -> int:
        return self.rows

    def columns(self) -> Dict[str, np.ndarray]:
        """Contiguous per-column arrays over every appended row."""
        out: Dict[str, np.ndarray] = {}
        for name, dtype in self.schema:
            parts = [c[name] for c in self._chunks]
            if self._cur is not None and self._fill:
                parts.append(self._cur[name][:self._fill])
            if parts:
                out[name] = np.concatenate(parts) if len(parts) > 1 else parts[0].copy()
            else:
                out[name] = np.empty(0, dtype=dtype)
        return out

    def column(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise KeyError(f"no column {name!r} (have {self.names})")
        return self.columns()[name]

    def clear(self) -> None:
        self._chunks.clear()
        self._cur = None
        self._fill = 0
        self.rows = 0
