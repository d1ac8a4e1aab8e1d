"""Summary statistics: :func:`summarize_batch` folds one batch of lookups
into the :class:`LookupBatchStats` the figure experiments consume."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.lookup import LookupResult


@dataclass(frozen=True)
class LookupBatchStats:
    """Everything the figures need from one batch at one failure level.

    ``failed_hops_max`` / ``failed_hops_min`` cover *failed* lookups only —
    the quantity of Figure E; failed hop counts come from NotFound replies
    and, for black-holed/timed-out requests, from the sweep's hop observer
    (measurement infrastructure, not protocol knowledge).
    """

    issued: int
    found: int
    failed: int
    timed_out: int
    failure_rate: float
    hops_mean: float
    #: ``hops_percent[k]`` — % of *found* lookups resolved in exactly *k*
    #: hops (the z-axis of Figures F-I), dense up to the largest hop count
    #: seen; empty when nothing was found.
    hops_percent: Tuple[float, ...]
    failed_hops_max: int
    failed_hops_min: int


def summarize_batch(
    results: Sequence[LookupResult],
    failed_hop_counts: Optional[Iterable[int]] = None,
) -> LookupBatchStats:
    """Fold a batch of :class:`LookupResult` into :class:`LookupBatchStats`.

    Parameters
    ----------
    results:
        Origin-side outcomes.
    failed_hop_counts:
        Optional hop counts for the failed lookups (from a hop
        observer); defaults to the hops recorded in NotFound replies.
    """
    if not results:
        raise ValueError("empty batch")
    found = [r for r in results if r.found]
    failed = [r for r in results if not r.found]
    hops = [r.hops for r in found]

    if failed_hop_counts is not None:
        fh = [int(h) for h in failed_hop_counts]
    else:
        fh = [r.hops for r in failed if not r.timed_out]

    return LookupBatchStats(
        issued=len(results),
        found=len(found),
        failed=len(failed),
        timed_out=sum(1 for r in failed if r.timed_out),
        failure_rate=len(failed) / len(results),
        hops_mean=float(np.mean(hops)) if found else 0.0,
        hops_percent=tuple(
            ((100.0 * np.bincount(hops)) / len(hops)).tolist()) if found else (),
        failed_hops_max=max(fh) if fh else 0,
        failed_hops_min=min(fh) if fh else 0,
    )

