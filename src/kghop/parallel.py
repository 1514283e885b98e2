"""Fork-join worker gangs.

A WorkerGang runs a region function on `workers` real threads (worker 0
on the calling thread) and joins them all before returning, so every
region ends with a full barrier. The gang's cyclic barrier is shared with
the region function for collectives such as tree reduction.

If any worker raises, the barrier is aborted so peers blocked in a
collective fail fast instead of deadlocking; the first real exception
(lowest worker id, BrokenBarrierError excluded) is re-raised on the
caller. If a worker's thread cannot start, the barrier is aborted too,
the threads already started are joined, and the run raises CapacityError.
"""

from __future__ import annotations

import threading
from typing import Callable

from .errors import CapacityError
from .kgstore import require_count


class WorkerGang:
    def __init__(self, workers: int):
        self.workers = require_count(workers, "workers")
        self.barrier = threading.Barrier(self.workers)

    def run(self, fn: Callable[[int], None]) -> None:
        """Execute fn(worker_id) on every worker and join."""
        if self.workers == 1:
            fn(0)
            return
        errors: list[BaseException | None] = [None] * self.workers

        def _run(wid: int) -> None:
            try:
                fn(wid)
            except BaseException as exc:  # noqa: BLE001 - must not lose worker errors
                errors[wid] = exc
                self.barrier.abort()

        threads = [
            threading.Thread(target=_run, args=(wid,), name=f"kghop-worker-{wid}")
            for wid in range(1, self.workers)
        ]
        for started, t in enumerate(threads):
            try:
                t.start()
            except RuntimeError as exc:  # the OS refused a thread
                self.barrier.abort()
                for peer in threads[:started]:
                    peer.join()
                self.barrier.reset()
                raise CapacityError(
                    f"{started} of the {len(threads)} threads of a {self.workers}-worker gang "
                    f"started: {exc}"
                ) from exc
        _run(0)
        for t in threads:
            t.join()
        if self.barrier.broken:
            self.barrier.reset()
        first_real = next(
            (e for e in errors if e is not None and not isinstance(e, threading.BrokenBarrierError)),
            None,
        )
        if first_real is not None:
            raise first_real
        first_broken = next((e for e in errors if e is not None), None)
        if first_broken is not None:
            raise first_broken


def block_bounds(total: int, workers: int, worker_id: int) -> tuple[int, int]:
    """Contiguous block partition: half-open [lo, hi) for this worker."""
    lo = total * worker_id // workers
    hi = total * (worker_id + 1) // workers
    return lo, hi
