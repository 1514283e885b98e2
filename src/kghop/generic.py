"""Arbitrary-N-hop top-K path search between a source and a target.

Level-synchronous frontier expansion: at each level every live path is
expanded in parallel. A path's composite embedding is the source
embedding plus the sum of its relation embeddings; each out-neighbor is
scored against the composite extended by the new edge's relation.
Neighbors equal to the target complete the path and go to the shared
results selector; the rest compete for at most k beam slots per parent
and the survivors form the next frontier.

The beam is per parent, so the engine returns the best completed paths
among those that survived per-parent truncation, not a global optimum
over all paths. The sequential oracle replays the identical rule.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, CapacityError, QueryError
from .kgstore import U64_MAX, KGStore
from .parallel import WorkerGang, block_bounds
from .scoring import _score_block, require_finite_gamma
from .topk import TopKSelector
from .trace import Trace, count, span

_I64_MAX = 2**63 - 1


class Path(NamedTuple):
    """Cycle-free entity sequence with the relations that join it."""

    nodes: tuple[int, ...]
    relations: tuple[int, ...]

    @classmethod
    def start(cls, source: int) -> "Path":
        return cls((source,), ())

    def end(self) -> int:
        return self.nodes[-1]

    def extend(self, relation: int, node: int) -> "Path":
        return Path(self.nodes + (node,), self.relations + (relation,))

    def interleaved(self) -> tuple[int, ...]:
        """node0, rel0, node1, rel1, ..., nodeN — the lexicographic tie key."""
        out = []
        for i, n in enumerate(self.nodes):
            out.append(n)
            if i < len(self.relations):
                out.append(self.relations[i])
        return tuple(out)

    def render(self) -> str:
        return ",".join(str(x) for x in self.interleaved())


class ScoredPath(NamedTuple):
    path: Path
    score: float

    def order_key(self):
        return (-self.score, self.path.interleaved())


class SharedResults:
    """Results selector with serialized offers, shared by all workers."""

    def __init__(self, k: int):
        self._lock = threading.Lock()
        self._selector = TopKSelector(k)

    def offer(self, item: ScoredPath) -> None:
        with self._lock:
            self._selector.offer(item)

    def drain_sorted(self) -> list[ScoredPath]:
        with self._lock:
            return self._selector.into_sorted_desc()


def total_frontier_capacity(k: int, num_hops: int) -> int:
    """Frontier capacity bound: sum of k^i for i in 0..num_hops-2.

    The geometric closed form (k^(num_hops-1) - 1) / (k - 1) degenerates
    at k=1 to num_hops - 1. The engines only validate the value, nothing
    is reserved from it: a capacity beyond a 64-bit signed integer is a
    CapacityError.
    """
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if num_hops < 1:
        raise ArgumentError(f"num_hops must be >= 1, got {num_hops}")
    if k == 1:
        capacity = num_hops - 1
    else:
        capacity = (k ** (num_hops - 1) - 1) // (k - 1)
    if capacity > _I64_MAX:
        raise CapacityError(
            f"frontier capacity {capacity} exceeds 64-bit range for k={k}, hops={num_hops}"
        )
    return capacity


def require_entity_ids(source: int, target: int) -> None:
    """QueryError unless source and target are unsigned 64-bit ids."""
    for name, eid in (("source", source), ("target", target)):
        if not 0 <= eid <= U64_MAX:
            raise QueryError(f"{name} {eid} is not an unsigned 64-bit entity id")


def path_composite_embedding(path: Path, store: KGStore) -> np.ndarray:
    """emb(source) plus the path's relation embeddings, summed in hop order."""
    src = store.entity_embedding(path.nodes[0])
    if src is None:
        raise QueryError(f"source entity {path.nodes[0]} has no embedding")
    comp = np.asarray(src, dtype=np.float64)
    for rel in path.relations:
        comp = comp + store.relation_embedding(rel)
    if not path.relations:
        comp = comp.copy()
    return comp


def expand_path(
    path: Path,
    next_frontier: list,
    store: KGStore,
    target: int,
    k: int,
    results,
    gamma: float = 1.0,
) -> None:
    """Expand one path by one hop.

    Out-edges of the horizon node are enumerated in ascending
    (relation, tail) order across all relation tables. Neighbors already
    on the path are skipped (cycle-free), neighbors without an embedding
    are skipped (scores must stay finite), the target completes the path
    into `results`, and the best k remaining children are appended to
    next_frontier.
    """
    horizon = path.end()
    composite = path_composite_embedding(path, store)
    target_u = np.uint64(target)

    cand_tails: list[np.ndarray] = []
    cand_rels: list[np.ndarray] = []
    cand_scores: list[np.ndarray] = []
    for rel in range(store.num_relations):
        tails = store.edge_tables[rel].tails(horizon)
        if len(tails) == 0:
            continue
        keep = np.ones(len(tails), dtype=bool)
        for node in path.nodes:
            keep &= tails != np.uint64(node)
        if not keep.any():
            continue
        tails = tails[keep]
        extended = composite + store.relation_embeddings[rel]
        emb_t, found = store.gather_entity_embeddings(tails)
        scores = _score_block(emb_t, found, extended, gamma)
        if not found.all():
            tails = tails[found]
            scores = scores[found]
            if len(tails) == 0:
                continue
        hits = tails == target_u
        if hits.any():
            done = path.extend(rel, target)
            for s in scores[hits].tolist():
                results.offer(ScoredPath(done, s))
        rest = ~hits
        if rest.any():
            cand_tails.append(tails[rest])
            cand_rels.append(np.full(int(rest.sum()), rel, dtype=np.int64))
            cand_scores.append(scores[rest])

    if not cand_tails:
        return
    tails_all = np.concatenate(cand_tails)
    rels_all = np.concatenate(cand_rels)
    scores_all = np.concatenate(cand_scores)
    order = np.lexsort((tails_all, rels_all, -scores_all))
    for idx in order[: min(k, len(order))].tolist():
        next_frontier.append(path.extend(int(rels_all[idx]), int(tails_all[idx])))


def multihop_reasoning_generic(
    store: KGStore,
    source: int,
    target: int,
    num_hops: int,
    k: int,
    workers: int = 1,
    gamma: float = 1.0,
    trace: Trace | None = None,
) -> list[ScoredPath]:
    """Top-k completed source-to-target paths of length <= num_hops.

    Levels run synchronously: all expansions of length-L paths finish
    (fork-join barrier) before any length-L+1 path is expanded. Within a
    level, each of min(workers, frontier) workers expands a contiguous
    frontier block into its own buffer; buffers are concatenated in
    worker order, so the frontier sequence is identical for every worker
    count. When given, `trace` receives one `level` span per expanded
    level, counting the paths it leaves for the next level as `frontier`.
    """
    if num_hops < 1:
        raise ArgumentError(f"num_hops must be >= 1, got {num_hops}")
    if workers < 1:
        raise ArgumentError(f"workers must be >= 1, got {workers}")
    require_finite_gamma(gamma)
    total_frontier_capacity(k, num_hops)
    require_entity_ids(source, target)
    if source == target:
        return []
    if store.entity_embedding(source) is None:
        raise QueryError(f"source entity {source} has no embedding")

    results = SharedResults(k)
    frontier: list[Path] = [Path.start(source)]
    for _level in range(num_hops):
        if not frontier:
            break
        w_eff = max(1, min(workers, len(frontier)))
        buffers: list[list[Path]] = [[] for _ in range(w_eff)]
        gang = WorkerGang(w_eff)
        current = frontier

        def work(wid: int) -> None:
            lo, hi = block_bounds(len(current), w_eff, wid)
            buf = buffers[wid]
            for i in range(lo, hi):
                expand_path(current[i], buf, store, target, k, results, gamma)

        with span(trace, "level"):
            gang.run(work)
            frontier = [p for buf in buffers for p in buf]
            count(trace, "frontier", len(frontier))
    return results.drain_sorted()
