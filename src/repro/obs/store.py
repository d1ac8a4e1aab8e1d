"""The columnar on-disk trace store (npz layout, grouped by run).

One store file holds every run of a capture (a bench scenario that sweeps
N produces one run per network).  Layout inside the ``.npz``:

* ``__meta__`` — a UTF-8 JSON blob (uint8 array) describing the schema
  version, the global string table, per-run stream row counts, per-run
  category counts and simulator event-label counts.
* ``{run}/{stream}/{column}`` — one typed 1-D array per column per stream
  per run (``spans`` and ``events``; see
  :data:`~repro.obs.hub.SPAN_SCHEMA` / :data:`~repro.obs.hub.EVENT_SCHEMA`).

Each hub interned category names independently, so the writer remaps every
``cat`` column onto one global string table (a vectorised ``take``).  The
reader (:class:`TraceReader`) exposes an iterate/filter query API over
lazily-loaded column views — no row objects are materialised until a
caller actually iterates.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Mapping, Optional

import numpy as np

from repro.obs.columnar import StringTable
from repro.obs.hub import EVENT_SCHEMA, SPAN_SCHEMA, ObsHub

__all__ = ["SCHEMA", "write_store", "TraceReader", "StreamView"]

#: Store schema identifier; bump on breaking layout changes.
SCHEMA = "repro.obs/1"

_STREAM_SCHEMAS = {"spans": SPAN_SCHEMA, "events": EVENT_SCHEMA}


def write_store(path: str, runs: Mapping[str, ObsHub],
                meta_extra: Optional[Mapping[str, Any]] = None) -> str:
    """Write *runs* (``{run name: hub}``) to *path*; returns the path.

    Finalizes every hub (open spans flush with ``STATUS_OPEN``), remaps
    per-hub category codes onto one global string table, and writes a
    compressed npz.  ``meta_extra`` (e.g. the scenario name and seed) is
    embedded under ``"extra"`` in the metadata blob.
    """
    strings = StringTable()
    arrays: Dict[str, np.ndarray] = {}
    meta_runs: Dict[str, Any] = {}
    for run, hub in runs.items():
        if "/" in run:
            raise ValueError(f"run name {run!r} must not contain '/'")
        hub.finalize()
        # hub-local code -> global code, vectorised over the cat columns.
        remap = np.array([strings.code(s) for s in hub.strings.strings]
                         or [0], dtype=np.uint16)
        streams = hub.export_streams()
        stream_meta: Dict[str, int] = {}
        for stream, columns in streams.items():
            for name, arr in columns.items():
                if name == "cat" and len(arr):
                    arr = remap[arr]
                arrays[f"{run}/{stream}/{name}"] = arr
            stream_meta[stream] = int(len(next(iter(columns.values()))))
        meta_runs[run] = {
            "streams": stream_meta,
            "counts": hub.category_counts(),
            "sim_events": dict(hub.sim_event_counts),
        }
    meta = {
        "schema": SCHEMA,
        "strings": strings.strings,
        "runs": meta_runs,
        "columns": {s: [list(c) for c in cols]
                    for s, cols in _STREAM_SCHEMAS.items()},
        "extra": dict(meta_extra) if meta_extra else {},
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)
    return path


class StreamView:
    """One stream of one run: parallel column arrays + filter/iterate.

    ``filter`` returns a new (masked) view; iteration yields plain dicts
    with the ``cat`` code decoded to its category name.
    """

    def __init__(self, columns: Dict[str, np.ndarray], strings: List[str],
                 run: str, stream: str) -> None:
        self.columns = columns
        self._strings = strings
        self.run = run
        self.stream = stream

    def __len__(self) -> int:
        return int(len(next(iter(self.columns.values()))))

    @property
    def strings(self) -> List[str]:
        """The global string table decoding this view's ``cat`` codes."""
        return self._strings

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def categories(self) -> Dict[str, int]:
        """Row counts per decoded category in this view."""
        codes, counts = np.unique(self.columns["cat"], return_counts=True)
        return {self._strings[int(c)]: int(n) for c, n in zip(codes, counts)}

    def filter(self, category: Optional[str] = None,
               node: Optional[int] = None,
               min_time: Optional[float] = None,
               max_time: Optional[float] = None,
               status: Optional[int] = None) -> "StreamView":
        """A masked sub-view (time filters use ``t0`` for spans, ``t`` for
        events).  Unknown categories yield an empty view, not an error."""
        mask = np.ones(len(self), dtype=bool)
        if category is not None:
            code = self._strings.index(category) if category in self._strings else -1
            mask &= self.columns["cat"] == code
        if node is not None:
            mask &= self.columns["node"] == node
        tcol = self.columns.get("t0", self.columns.get("t"))
        if min_time is not None:
            mask &= tcol >= min_time
        if max_time is not None:
            mask &= tcol <= max_time
        if status is not None and "status" in self.columns:
            mask &= self.columns["status"] == status
        return StreamView({k: v[mask] for k, v in self.columns.items()},
                          self._strings, self.run, self.stream)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        names = list(self.columns)
        cols = [self.columns[n] for n in names]
        for i in range(len(self)):
            row = {n: c[i].item() for n, c in zip(names, cols)}
            row["category"] = self._strings[row.pop("cat")]
            yield row

    def rows(self) -> List[Dict[str, Any]]:
        return list(self)


class TraceReader:
    """Query API over one written trace store.

    >>> reader = TraceReader("benchmarks/out/trace_storage.npz")  # doctest: +SKIP
    >>> spans = reader.stream(reader.runs[0], "spans")            # doctest: +SKIP
    >>> spans.filter(category="lookup").categories()              # doctest: +SKIP
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._npz = np.load(path)
        if "__meta__" not in self._npz:
            raise ValueError(f"{path!r} is not a trace store (missing __meta__)")
        self.meta: Dict[str, Any] = json.loads(
            bytes(self._npz["__meta__"]).decode("utf-8"))
        if self.meta.get("schema") != SCHEMA:
            raise ValueError(
                f"unsupported trace-store schema {self.meta.get('schema')!r} "
                f"(expected {SCHEMA!r})")
        self.strings: List[str] = list(self.meta["strings"])
        self.runs: List[str] = sorted(self.meta["runs"])

    # ------------------------------------------------------------- queries
    def run_meta(self, run: str) -> Dict[str, Any]:
        try:
            return self.meta["runs"][run]
        except KeyError:
            raise KeyError(f"no run {run!r} (have {self.runs})") from None

    def stream(self, run: str, stream: str) -> StreamView:
        meta = self.run_meta(run)
        if stream not in meta["streams"]:
            raise KeyError(
                f"no stream {stream!r} in run {run!r} "
                f"(have {sorted(meta['streams'])})")
        columns = {name: self._npz[f"{run}/{stream}/{name}"]
                   for name, _ in _STREAM_SCHEMAS[stream]}
        return StreamView(columns, self.strings, run, stream)

    def spans(self, run: str, **filters) -> StreamView:
        return self.stream(run, "spans").filter(**filters)

    def events(self, run: str, **filters) -> StreamView:
        return self.stream(run, "events").filter(**filters)

    def category_counts(self, run: Optional[str] = None) -> Dict[str, int]:
        """Recorded per-category counts (from metadata), one run or all."""
        out: Dict[str, int] = {}
        for r in ([run] if run is not None else self.runs):
            for cat, n in self.run_meta(r)["counts"].items():
                out[cat] = out.get(cat, 0) + int(n)
        return out

    def sim_event_counts(self, run: Optional[str] = None) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in ([run] if run is not None else self.runs):
            for label, n in self.run_meta(r)["sim_events"].items():
                out[label] = out.get(label, 0) + int(n)
        return out

    def close(self) -> None:
        self._npz.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
