"""Metric arithmetic shared by every workload.

Everything here is pure: percentiles under the tail rule, quartile
spread, and the self-time of spans whose children may overlap.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the mass at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` position of ``n``."""
    return n - max(1, math.ceil(round(q * n, 9)))


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` percentile, or ``None`` when fewer than ten samples lie beyond it."""
    if not values or beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def highest_tail(values: Sequence[float], cap: float = 0.99) -> Tuple[Optional[float], Optional[float]]:
    """``(q, value)`` for the highest whole-percent tail, up to ``cap``, the sample supports.

    Tails are tried from ``cap`` downwards in the steps 0.99, 0.95,
    0.90, 0.80, 0.75; below that the maximum is returned as ``q = 1``,
    and an empty sample gives ``(None, None)``.
    """
    for q in (0.99, 0.95, 0.90, 0.80, 0.75):
        if q > cap + 1e-12:
            continue
        value = tail(values, q)
        if value is not None:
            return q, value
    if not values:
        return None, None
    return 1.0, max(values)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and spread of one metric's run values."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (values[0],) * 3
    return {
        "n": len(values),
        "median": float(statistics.median(values)),
        "q1": float(q1),
        "q3": float(q3),
        "spread": quartile_spread(values),
    }


# ---------------------------------------------------------------------------
# Span arithmetic.


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Per-span self time: duration minus the part its children cover.

    Spans are given column-wise; ``parents[i]`` is the index of span
    ``i``'s parent or ``-1``.  Children may overlap one another (spans
    of interleaved coroutines) and may outlive their parent; only the
    union of the children's time inside the parent's interval is
    subtracted, so a self time is never negative and never counts the
    same instant twice.
    """
    children: Dict[int, List[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out: List[float] = []
    for i, (a, b) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        if not kids:
            out.append(b - a)
            continue
        out.append((b - a) - covered(((starts[k], ends[k]) for k in kids), a, b))
    return out


def canonical_digest(payload: object) -> str:
    """sha256 of the canonical JSON form (sorted keys, no whitespace)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
