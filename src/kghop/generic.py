"""Arbitrary-N-hop top-K path search between a source and a target.

Level-synchronous frontier expansion on the calling thread: each level
expands every live path, in frontier order, before the next level
starts. A path's composite embedding is the source embedding plus its
relation embeddings, added in hop order. Each frontier entry carries its
path's composite, and each out-neighbor is scored against that
composite extended by the new edge's relation. Neighbors equal to the
target complete the path and go to the query's results selector; the
rest compete for at most k beam slots per parent and the survivors form
the next frontier.

The beam is per parent, so the engine returns the best completed paths
among those that survived per-parent truncation, not a global optimum
over all paths. The sequential oracle replays the identical rule.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CapacityError, QueryError, shown
from .kgstore import KGStore, require_count, require_id, require_real
from .scoring import _score_block
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


class SharedResults(TopKSelector):
    """The query's results selector: the k best completed paths so far.

    A subclass only so that its name stays: perfbench wraps
    `SharedResults.offer` to count completed paths.
    """

    __slots__ = ()


def total_frontier_capacity(k: int, num_hops: int) -> int:
    """Frontier capacity bound: sum of k^i for i in 0..num_hops-2.

    The geometric closed form (k^(num_hops-1) - 1) / (k - 1) degenerates
    at k=1 to num_hops - 1. The engines only validate the value, nothing
    is reserved from it: a capacity beyond a 64-bit signed integer is a
    CapacityError.
    """
    k = require_count(k, "k")
    num_hops = require_count(num_hops, "num_hops")
    if k == 1:
        capacity = num_hops - 1
    else:
        # at k >= 2 the first 64 terms alone exceed 2**63 - 1: bound the
        # exponent so a huge num_hops never forms a huge power
        capacity = (k ** min(num_hops - 1, 64) - 1) // (k - 1)
    if capacity > _I64_MAX:
        raise CapacityError(
            f"frontier capacity exceeds 64-bit range for k={shown(k)}, hops={shown(num_hops)}"
        )
    return capacity


def require_entity_ids(source: int, target: int) -> None:
    """QueryError unless source and target pass require_id."""
    require_id(source, "source")
    require_id(target, "target")


def expand_path(
    entry: tuple[Path, np.ndarray],
    next_frontier: list,
    store: KGStore,
    target: int,
    k: int,
    results,
    gamma: float = 1.0,
) -> None:
    """Expand one frontier entry, a path and its composite, by one hop.

    The horizon node's out-edges in every relation table form one
    candidate array in ascending (relation, tail) order. Neighbors
    already on the path are skipped (cycle-free), neighbors without an
    embedding are skipped (scores must stay finite), and one kernel call
    scores each tail against its own composite, the path's composite
    plus the edge's relation embedding. The target completes the path
    into `results`; the best k remaining children are appended to
    next_frontier with the composite they were scored against. A horizon
    with no out-edge returns before any gather or scoring.
    """
    path, composite = entry
    views = [table.tails(path.end()) for table in store.edge_tables]
    counts = [len(v) for v in views]
    if not any(counts):
        return
    tails = np.concatenate(views)
    rels = np.repeat(np.arange(len(views)), counts)
    keep = np.ones(len(tails), dtype=bool)
    for node in path.nodes:
        keep &= tails != np.uint64(node)
    tails, rels = tails[keep], rels[keep]
    emb_t, found = store.gather_entity_embeddings(tails)
    ext = composite + store.relation_embeddings[rels]
    scores = _score_block(emb_t, found, ext.T, gamma)
    tails, rels, ext, scores = tails[found], rels[found], ext[found], scores[found]

    hits = tails == np.uint64(target)
    for rel, s in zip(rels[hits].tolist(), scores[hits].tolist()):
        results.offer(ScoredPath(path.extend(rel, target), s))
    rest = np.flatnonzero(~hits)
    best = rest[np.lexsort((tails[rest], rels[rest], -scores[rest]))[:k]]
    for i, rel, tail in zip(best.tolist(), rels[best].tolist(), tails[best].tolist()):
        next_frontier.append((path.extend(rel, tail), ext[i]))


# A composite grows with the hops, so it or its L1 sum may overflow: that
# score is -inf, as in oracle_beam_paths, and numpy need not warn.
@np.errstate(over="ignore")
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

    Levels run synchronously on the calling thread: every length-L path
    is expanded, in frontier order, before any length-L+1 path. `workers`
    is checked as a count and changes nothing else; threads would only
    take turns under the GIL for this per-path Python work. When given,
    `trace` receives one `level` span per expanded level, counting the
    paths it leaves for the next level as `frontier`.
    """
    require_count(workers, "workers")
    require_real(gamma, "gamma")
    total_frontier_capacity(k, num_hops)
    require_entity_ids(source, target)
    if source == target:
        return []
    src = store.entity_embedding(source)
    if src is None:
        raise QueryError(f"source entity {source} has no embedding")

    results = SharedResults(k)
    frontier: list[tuple[Path, np.ndarray]] = [(Path.start(source), src)]
    for _level in range(num_hops):
        if not frontier:
            break
        with span(trace, "level"):
            next_frontier: list[tuple[Path, np.ndarray]] = []
            for entry in frontier:
                expand_path(entry, next_frontier, store, target, k, results, gamma)
            frontier = next_frontier
            count(trace, "frontier", len(frontier))
    return results.into_sorted_desc()
