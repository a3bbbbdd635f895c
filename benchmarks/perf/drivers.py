"""Load drivers: one thread, one wall clock, no knowledge of the engine.

``run_open_loop`` sends requests on a schedule whatever the system does
(independent users); ``run_closed_loop`` sends the next batch only after
the previous one returned (one caller waiting for replies).  Both take
the clock as an argument so the self-test can drive them on a fake one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


@dataclass
class OpenLoopResult:
    sent: int = 0
    completed: int = 0
    failed: int = 0
    #: dropped by the bounded queue before being served
    refused: int = 0
    #: per completed request: completion minus the *scheduled* arrival
    latency_s: list = field(default_factory=list)
    #: per served request: batch start minus scheduled arrival
    queue_wait_s: list = field(default_factory=list)
    #: per batch: wall of the predict call
    service_s: list = field(default_factory=list)
    #: per request: admit time minus scheduled arrival (generator lateness)
    admit_lag_s: list = field(default_factory=list)
    wall_s: float = 0.0
    last_error: str = ""

    @property
    def busy_s(self) -> float:
        return sum(self.service_s)

    def slo_miss_frac(self, slo_s: float) -> float:
        """Late, failed or refused requests over requests sent."""
        late = sum(1 for lat in self.latency_s if lat > slo_s)
        return (late + self.failed + self.refused) / self.sent if self.sent else 0.0


def run_open_loop(
    predict,
    batcher,
    make_request,
    due,
    nodes,
    *,
    clock=time.perf_counter,
    sleep=time.sleep,
    max_queue: int = 256,
) -> OpenLoopResult:
    """Admit request ``i`` at ``due[i]`` seconds, serve micro-batches as they flush.

    ``batcher`` is a ``MicroBatcher``-shaped object fed requests whose
    arrival is their due time, so its deadline runs from when the
    request *should* have arrived and a stall in this loop is charged to
    the requests it delayed.  When ``max_queue`` requests are pending the
    oldest is shed and counts as refused.
    """
    res = OpenLoopResult(sent=len(due))
    t0 = clock()
    i, n = 0, len(due)
    while i < n or len(batcher):
        now = clock() - t0
        while i < n and due[i] <= now:
            if len(batcher) >= max_queue:
                batcher.shed_oldest()
                res.refused += 1
            batcher.submit(make_request(i, int(nodes[i]), float(due[i])))
            res.admit_lag_s.append(now - float(due[i]))
            i += 1
        if len(batcher) and (i >= n or batcher.ready(now)):
            batch = batcher.pop(now, drain=i >= n)
            start = clock()
            try:
                rows = predict([r.node for r in batch])
                ok = len(rows) == len(batch)
            except Exception as exc:  # the loop must finish; the failure is counted
                ok = False
                res.last_error = repr(exc)
            end = clock()
            res.service_s.append(end - start)
            for request in batch:
                res.queue_wait_s.append((start - t0) - request.arrival)
                if ok:
                    res.latency_s.append((end - t0) - request.arrival)
                    res.completed += 1
                else:
                    res.failed += 1
        else:
            wake = min(
                float(due[i]) if i < n else math.inf,
                batcher.next_deadline() if len(batcher) else math.inf,
            )
            sleep(max(0.0, wake - now))
    res.wall_s = clock() - t0
    return res


@dataclass
class ClosedLoopResult:
    completed: int = 0
    failed: int = 0
    #: per batch: wall of the predict round trip
    batch_s: list = field(default_factory=list)
    wall_s: float = 0.0
    last_error: str = ""


def run_closed_loop(
    predict,
    batches,
    *,
    seconds: float,
    min_batches: int,
    before_batch=None,
    clock=time.perf_counter,
) -> ClosedLoopResult:
    """One client draining ``batches`` in order for ``seconds``.

    Runs at least ``min_batches`` and stops when the time is up or the
    generated input is used up.  ``before_batch(k)`` runs inside the
    timed loop before batch ``k`` (the delta workload's writes).
    """
    res = ClosedLoopResult()
    t0 = clock()
    for k, batch in enumerate(batches):
        if k >= min_batches and clock() - t0 >= seconds:
            break
        if before_batch is not None:
            before_batch(k)
        start = clock()
        try:
            rows = predict(batch)
            ok = len(rows) == len(batch)
        except Exception as exc:  # counted, and the loop goes on
            ok = False
            res.last_error = repr(exc)
        res.batch_s.append(clock() - start)
        if ok:
            res.completed += len(batch)
        else:
            res.failed += len(batch)
    res.wall_s = clock() - t0
    return res
