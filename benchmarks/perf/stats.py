"""Order statistics and span self-times; standard library only."""

from __future__ import annotations

import math


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule); 0.0 if empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def iqr_share(values) -> float:
    """Distance between the quartiles as a share of the median."""
    mid = median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    return (percentile(values, 75.0) - percentile(values, 25.0)) / abs(mid)


def span_self_seconds(trace_doc: dict) -> dict[str, float]:
    """Total self time per span name from a Chrome trace-event document.

    A span's self time is its duration minus the part its child spans
    (spans nested inside it on the same track) cover.  Computed here,
    from the public document alone, so the ledger does not depend on the
    repo's own summariser.
    """
    tracks: dict[int, list[dict]] = {}
    for event in trace_doc.get("traceEvents", ()):
        if event.get("ph") == "X":
            tracks.setdefault(event.get("tid", 0), []).append(event)
    totals: dict[str, float] = {}
    for events in tracks.values():
        # a parent sorts before the children it contains
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[list] = []  # [end_us, name, self_us]

        def close(entry) -> None:
            totals[entry[1]] = totals.get(entry[1], 0.0) + max(0.0, entry[2]) / 1e6

        for event in events:
            start, dur = float(event["ts"]), float(event["dur"])
            while stack and start >= stack[-1][0] - 1e-9:
                close(stack.pop())
            if stack:
                stack[-1][2] -= dur
            stack.append([start + dur, event["name"], dur])
        while stack:
            close(stack.pop())
    return totals
