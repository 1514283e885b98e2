"""The three-hop affiliation query, in two interchangeable implementations.

`optimized` ranks each worker's candidate block into per-worker row
rankings merged by the tree (or locked) collective. `simple` is the
naive baseline a first implementation would use: every worker appends
each (entity, score) pair to one shared list under a mutex, and the
coordinator fully sorts the list per stage. Both modes share the
scoring kernels and return identical results; they exist so benchmarks
can quantify the data-structure difference honestly.

Hop semantics:
  hop 1  score every person (tails of rel1) against emb(anchor1)+emb(rel1),
         keep the top k.
  hop 2  re-score exactly those k persons against emb(anchor2)+emb(rel2)
         and re-rank; hop-1 scores are replaced, not combined, and remain
         available in AffiliationResult.hop1_persons for diagnostics.
  hop 3  for each ranked person, score every university (tails of rel3)
         against emb(person)+emb(rel3), keep the top k per person.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .errors import ArgumentError, QueryError
from .kgstore import EntitySet, KGStore, extract_entities, require_count, require_id, require_real
from .parallel import WorkerGang, block_bounds
from .scoring import (
    embedding_aggregation,
    score_candidates_topk,
    score_candidates_topk_many,
    transe_score,
)
from .topk import NEG_INF, ScoredEntity, require_merge
from .trace import Trace, count, span

import numpy as np

STAGE_HOP1 = "computeScorePerPerson"
STAGE_HOP2 = "computeScoreBasedOnWorksInDL"
STAGE_HOP3 = "computeAffiliationScore"
STAGE_TOTAL = "multiHopReasoning"

MODES = ("simple", "optimized")


@dataclass(frozen=True)
class ThreeHopQuery:
    """One award -> field -> affiliation query.

    k and gamma pass the count and gamma rules when it is built; the
    anchors and relations are checked where a query first uses them.
    """

    anchor1: int
    rel1: int
    anchor2: int
    rel2: int
    rel3: int
    k: int = 50
    gamma: float = 1.0

    def __post_init__(self):
        require_count(self.k, "k")
        require_real(self.gamma, "gamma")


@dataclass
class AffiliationResult:
    """Ranked persons after hop 2 plus per-person ranked universities.

    hop1_persons carries the hop-1 ranking (diagnostic; hop-2 scores
    replace hop-1 scores in ranked_persons).
    """

    ranked_persons: list[ScoredEntity]
    affiliations: dict[int, list[ScoredEntity]]
    hop1_persons: list[ScoredEntity] = field(default_factory=list)

    def machine_lines(self) -> list[str]:
        """Stable machine-readable rendering.

        Person lines:      person_id<TAB>person_score<TAB>rank
        Affiliation lines: person_id<TAB>university_id<TAB>score<TAB>rank
        """
        lines = []
        for rank, p in enumerate(self.ranked_persons, 1):
            lines.append(f"{p.entity}\t{p.score!r}\t{rank}")
        for pid, unis in self.affiliations.items():
            for rank, u in enumerate(unis, 1):
                lines.append(f"{pid}\t{u.entity}\t{u.score!r}\t{rank}")
        return lines

    def table(self) -> str:
        """Human-readable rendering."""
        out = ["rank  person        score"]
        for rank, p in enumerate(self.ranked_persons, 1):
            out.append(f"{rank:<5d} {p.entity:<13d} {p.score:.6g}")
        for pid, unis in self.affiliations.items():
            out.append(f"affiliations of person {pid}:")
            for rank, u in enumerate(unis, 1):
                out.append(f"  {rank:<4d} university {u.entity:<13d} {u.score:.6g}")
        return "\n".join(out)


def _require_engine(mode: str, merge: str) -> None:
    """ArgumentError unless mode is one of MODES and merge one of MERGES, whatever the mode."""
    if mode not in MODES:
        raise ArgumentError(f"mode must be one of {MODES}, got {mode!r}")
    require_merge(merge)


def _require_anchor(store: KGStore, eid: int, name: str):
    require_id(eid, name)
    emb = store.entity_embedding(eid)
    if emb is None:
        raise QueryError(f"{name}={eid} has no embedding")
    return emb


def _simple_topk_scan(
    composite,
    candidates: EntitySet,
    store: KGStore,
    k: int,
    workers: int,
    gamma: float,
    trace: Trace | None = None,
) -> list[ScoredEntity]:
    """Naive baseline scan: shared locked list, then one full sort.

    Deliberately preserves the baseline's cost profile: one mutex
    acquisition per scored candidate and an O(n log n) sort per stage.
    Counts the candidates it scores as `evals` into `trace`.
    """
    require_real(gamma, "gamma")
    comp_list = composite.tolist() if isinstance(composite, np.ndarray) else list(composite)
    ids = candidates.ids.tolist()
    shared: list[ScoredEntity] = []
    lock = threading.Lock()
    gang = WorkerGang(workers)

    def work(wid: int) -> None:
        lo, hi = block_bounds(len(ids), gang.workers, wid)
        for eid in ids[lo:hi]:
            emb = store.entity_embedding(eid)
            if emb is None:
                item = ScoredEntity(eid, NEG_INF)
            else:
                item = ScoredEntity(eid, transe_score(comp_list, emb, gamma))
            with lock:
                shared.append(item)

    count(trace, "evals", len(ids))
    gang.run(work)
    shared.sort(key=lambda it: it.order_key())
    return shared[:k]


def _scan(mode, composite, candidates, store, k, workers, gamma, merge, trace):
    """One top-k scan of the candidates, by the scorer of the given mode."""
    if mode == "optimized":
        return score_candidates_topk(composite, candidates, store, k, workers, gamma, merge, trace)
    return _simple_topk_scan(composite, candidates, store, k, workers, gamma, trace)


def rescore_with_relation(
    persons: list[ScoredEntity],
    anchor: int,
    rel: int,
    store: KGStore,
    k: int,
    workers: int = 1,
    mode: str = "optimized",
    merge: str = "tree",
    gamma: float = 1.0,
    trace: Trace | None = None,
) -> list[ScoredEntity]:
    """Re-score the given persons against emb(anchor)+emb(rel) and re-rank.

    Prior scores are discarded; the returned list holds the same entities
    in the new score order (ties by ascending id).
    """
    _require_engine(mode, merge)
    k = require_count(k, "k")
    if len(persons) > k:
        raise ArgumentError(f"rescore got {len(persons)} persons for k={k}")
    emb = _require_anchor(store, anchor, "anchor")
    composite = embedding_aggregation(emb, store.relation_embedding(rel))
    candidates = EntitySet(ids=np.array([p.entity for p in persons], dtype=np.uint64))
    return _scan(mode, composite, candidates, store, k, workers, gamma, merge, trace)


def three_hop_query(
    store: KGStore,
    q: ThreeHopQuery,
    mode: str = "optimized",
    workers: int = 1,
    merge: str = "tree",
    trace: Trace | None = None,
) -> AffiliationResult:
    """Run the three-hop query. `simple` and `optimized` return identical results.

    Only hop 3 fans out over `workers`. Hops 1 and 2 score too few
    candidates (2,000 and k at paper scale) to gain from threads, and run
    on the calling thread.

    When given, `trace` receives a STAGE_TOTAL span holding one span per
    hop (STAGE_HOP1, STAGE_HOP2, STAGE_HOP3), each counting the
    candidate scorings it made as `evals`.
    """
    _require_engine(mode, merge)
    workers = require_count(workers, "workers")
    for name in ("rel1", "rel2", "rel3"):
        store.require_relation(getattr(q, name), name)
    emb1 = _require_anchor(store, q.anchor1, "anchor1")
    _require_anchor(store, q.anchor2, "anchor2")

    with span(trace, STAGE_TOTAL):
        persons = extract_entities(store.edge_table(q.rel1))
        comp1 = embedding_aggregation(emb1, store.relation_embedding(q.rel1))
        with span(trace, STAGE_HOP1):
            hop1 = _scan(mode, comp1, persons, store, q.k, 1, q.gamma, merge, trace)
        with span(trace, STAGE_HOP2):
            hop2 = rescore_with_relation(
                hop1, q.anchor2, q.rel2, store, q.k, 1, mode, merge, q.gamma, trace
            )

        universities = extract_entities(store.edge_table(q.rel3))
        rel3_emb = store.relation_embedding(q.rel3)
        with span(trace, STAGE_HOP3):
            embs = [store.entity_embedding(p.entity) for p in hop2]
            live = [e for e in embs if e is not None]
            # Every person's composite in one float64 add, bit for bit
            # embedding_aggregation's; persons with no embedding get None.
            block = iter(np.array(live).reshape(len(live), store.dim) + rel3_emb)
            composites = [None if e is None else next(block) for e in embs]
            if mode == "optimized":
                per_person = score_candidates_topk_many(
                    composites, universities, store, q.k, workers, q.gamma, merge, trace
                )
            else:
                per_person = [
                    None if c is None else _simple_topk_scan(
                        c, universities, store, q.k, workers, q.gamma, trace
                    )
                    for c in composites
                ]
    affiliations = {p.entity: unis or [] for p, unis in zip(hop2, per_person)}
    return AffiliationResult(
        ranked_persons=hop2, affiliations=affiliations, hop1_persons=hop1
    )
