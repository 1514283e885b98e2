"""Bounded top-K selection and cross-worker reduction.

A TopKSelector keeps the K best items seen so far under one total order:
score descending, then entity id ascending, then path key ascending (for
path items). The order is total, so the retained set is unique and the
final contents never depend on offer order, worker count, or merge shape.

Two reduction strategies combine per-worker partial results into one
global result: a tree reduction (pairwise merges in log-depth rounds
separated by barriers) and a locked baseline where every worker merges
into a single shared result under one mutex. Both are collectives: every
participating worker calls them with its own worker id. Both take the
merge as an argument: selector_merge for selectors, and the scoring
module's row-ranking merge for its batched (ids, scores) rankings.
"""

from __future__ import annotations

import threading
from bisect import insort
from typing import Callable, NamedTuple

from .errors import ArgumentError
from .kgstore import require_count
from .parallel import WorkerGang

NEG_INF = float("-inf")

MERGES = ("tree", "locked")


def require_merge(merge: str) -> None:
    """ArgumentError unless merge names one of the MERGES collectives."""
    if merge not in MERGES:
        raise ArgumentError(f"merge must be one of {MERGES}, got {merge!r}")


class ScoredEntity(NamedTuple):
    """An entity id with its score. Score is finite or -inf (missing embedding)."""

    entity: int
    score: float

    def order_key(self):
        """Ascending sort by this key ranks best first."""
        return (-self.score, self.entity)


class TopKSelector:
    """Bounded container retaining the K best items offered.

    Internally a sorted list of (order_key, item) pairs, best first.
    K is at most a few dozen in practice, so ordered insertion beats a
    heap: offers are O(K) memmoves in C, and merges are a single sort
    of at most 2K pre-sorted runs.

    Not thread-safe: a selector has exactly one owner worker. Ownership
    transfers only at reduction barriers.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, k: int):
        self.capacity = require_count(k, "k")
        self._entries: list[tuple] = []

    @classmethod
    def _from_entries(cls, k: int, entries: list[tuple]) -> "TopKSelector":
        """Wrap pre-sorted (key, item) entries; entries must be ascending and len <= k."""
        sel = cls(k)
        sel._entries = entries
        return sel

    def __len__(self) -> int:
        return len(self._entries)

    def offer(self, item) -> None:
        """Consider one item; keep it only if it ranks among the K best so far."""
        entry = (item.order_key(), item)
        if len(self._entries) < self.capacity:
            insort(self._entries, entry)
        elif entry[0] < self._entries[-1][0]:
            insort(self._entries, entry)
            self._entries.pop()

    def sorted_items(self) -> list:
        """Current contents, best first, without consuming the selector."""
        return [item for _, item in self._entries]

    def into_sorted_desc(self) -> list:
        """Drain the selector, returning items best first. Selector ends empty."""
        out = [item for _, item in self._entries]
        self._entries = []
        return out


def selector_merge(a: TopKSelector, b: TopKSelector) -> TopKSelector:
    """K best of the multiset union of a and b. Inputs are left intact."""
    if a.capacity != b.capacity:
        raise ArgumentError(
            f"cannot merge selectors of capacity {a.capacity} and {b.capacity}"
        )
    merged = sorted(a._entries + b._entries)[: a.capacity]
    return TopKSelector._from_entries(a.capacity, merged)


def reduce_topk_tree(
    locals_: list,
    num_workers: int,
    worker_id: int,
    barrier: threading.Barrier | None = None,
    *,
    combine: Callable,
):
    """Tree reduction of per-worker partial results. Collective call.

    Every worker 0..num_workers-1 must call this with the shared locals_
    list, the shared barrier and the same `combine`, a merge of two
    partial results into one (selector_merge for selectors). Rounds
    double the stride; in each round the lower-indexed worker of a pair
    merges its partner's result into its own slot, guarded by
    `worker_id + stride < num_workers` so odd worker counts leave the
    unpaired slot untouched. All workers hit the barrier every round,
    merging or not.

    Worker 0 returns the global result (locals_[0] after the last
    round); other workers return None.
    """
    if worker_id >= num_workers or worker_id < 0:
        raise ArgumentError(f"worker_id {worker_id} out of range for {num_workers} workers")
    if num_workers > 1 and barrier is None:
        raise ArgumentError("tree reduction with more than one worker needs a barrier")
    stride = 1
    while stride < num_workers:
        if worker_id % (2 * stride) == 0 and worker_id + stride < num_workers:
            locals_[worker_id] = combine(locals_[worker_id], locals_[worker_id + stride])
        barrier.wait()
        stride *= 2
    return locals_[worker_id] if worker_id == 0 else None


class LockedTopK:
    """One shared partial result guarded by one mutex: the merge baseline.

    Each worker folds its whole local result in with `combine` under a
    single lock acquisition, so the critical section is one merge, not
    one offer. The first contribution is taken as is.
    """

    def __init__(self, combine: Callable):
        self._lock = threading.Lock()
        self._combine = combine
        self._merged = None

    def merge_from(self, local) -> None:
        with self._lock:
            if self._merged is None:
                self._merged = local
            else:
                self._merged = self._combine(self._merged, local)

    def take(self):
        """Hand out the merged result and reset to empty."""
        with self._lock:
            out, self._merged = self._merged, None
            return out


def locked_merge_reduce(
    locals_: list,
    num_workers: int,
    worker_id: int,
    shared: LockedTopK,
    barrier: threading.Barrier | None = None,
):
    """Locked-merge reduction. Collective call; same result contract as the tree.

    Worker 0 returns the global result; others None. A second barrier
    after the take keeps workers from merging a subsequent round's
    contribution into the shared result before it has been drained.
    """
    if worker_id >= num_workers or worker_id < 0:
        raise ArgumentError(f"worker_id {worker_id} out of range for {num_workers} workers")
    if num_workers > 1 and barrier is None:
        raise ArgumentError("locked reduction with more than one worker needs a barrier")
    shared.merge_from(locals_[worker_id])
    if barrier is not None:
        barrier.wait()
    result = shared.take() if worker_id == 0 else None
    if barrier is not None:
        barrier.wait()
    return result


def reduce_selectors(selectors: list, strategy: str = "tree") -> TopKSelector:
    """Run a full reduction over the given selectors with real threads.

    Convenience driver: spawns len(selectors) workers, runs the chosen
    collective with selector_merge, and returns the global selector. The
    input list is not mutated (the tree works on a copy).
    """
    num_workers = len(selectors)
    if num_workers == 0:
        raise ArgumentError("need at least one selector to reduce")
    require_merge(strategy)
    locals_ = list(selectors)
    gang = WorkerGang(num_workers)
    shared = LockedTopK(selector_merge)
    out: list = [None]

    def work(wid: int) -> None:
        if strategy == "tree":
            res = reduce_topk_tree(
                locals_, num_workers, wid, gang.barrier, combine=selector_merge
            )
        else:
            res = locked_merge_reduce(locals_, num_workers, wid, shared, gang.barrier)
        if wid == 0:
            out[0] = res

    gang.run(work)
    return out[0]
