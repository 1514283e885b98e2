"""Slow, obviously-correct sequential references.

Everything here is single-threaded, list-based, and free of bounded
heaps: scores for a stage are computed into a plain list, fully sorted,
and truncated. These functions back the test suite and the CLI's
`--mode oracle`; any divergence between an engine and its oracle is an
engine bug by construction.

Scoring uses the scalar kernel scoring.transe_score, a plain Python
loop in ascending index order, which is bit-identical to the engines'
block kernel, so comparisons are exact.
"""

from __future__ import annotations

from .errors import QueryError
from .kgstore import KGStore, require_count, require_id, require_real
from .generic import Path, ScoredPath, require_entity_ids, total_frontier_capacity
from .pipeline import (
    STAGE_HOP1,
    STAGE_HOP2,
    STAGE_HOP3,
    STAGE_TOTAL,
    AffiliationResult,
    ThreeHopQuery,
)
from .scoring import transe_score
from .topk import NEG_INF, ScoredEntity
from .trace import Trace, span


def oracle_topk(items, k: int) -> list[ScoredEntity]:
    """Sort everything by (score desc, id asc), truncate to k."""
    k = require_count(k, "k")
    ranked = sorted(items, key=lambda it: (-it.score, it.entity))
    return ranked[:k]


def _tail_ids(store: KGStore, rel: int) -> list[int]:
    seen: set[int] = set()
    for _, tails in store.edge_table(rel).items():
        seen.update(tails.tolist())
    return sorted(seen)


def _score_against(store: KGStore, composite: list[float], eid: int, gamma: float) -> float:
    emb = store.entity_embedding(eid)
    return NEG_INF if emb is None else transe_score(composite, emb, gamma)


def _composite(store: KGStore, eid: int, rel: int, what: str) -> list[float]:
    require_id(eid, what)
    emb = store.entity_embedding(eid)
    if emb is None:
        raise QueryError(f"{what}={eid} has no embedding")
    rel_emb = store.relation_embedding(rel)
    return [a + b for a, b in zip(emb.tolist(), rel_emb.tolist())]


def _ranked(store: KGStore, comp: list[float], ids, gamma: float, k: int) -> list:
    """The k best of `ids` scored against the composite."""
    return oracle_topk([ScoredEntity(i, _score_against(store, comp, i, gamma)) for i in ids], k)


def oracle_three_hop(
    store: KGStore, q: ThreeHopQuery, trace: Trace | None = None
) -> AffiliationResult:
    """Sequential restatement of the three-hop query semantics.

    Records into `trace` the same STAGE_TOTAL and per-hop spans as
    three_hop_query.
    """
    for name in ("rel1", "rel2", "rel3"):
        store.require_relation(getattr(q, name), name)

    with span(trace, STAGE_TOTAL):
        persons = _tail_ids(store, q.rel1)
        comp1 = _composite(store, q.anchor1, q.rel1, "anchor1")
        with span(trace, STAGE_HOP1):
            hop1 = _ranked(store, comp1, persons, q.gamma, q.k)

        comp2 = _composite(store, q.anchor2, q.rel2, "anchor2")
        with span(trace, STAGE_HOP2):
            hop2 = _ranked(store, comp2, [p.entity for p in hop1], q.gamma, q.k)

        universities = _tail_ids(store, q.rel3)
        with span(trace, STAGE_HOP3):
            affiliations: dict[int, list[ScoredEntity]] = {}
            for p in hop2:
                if store.entity_embedding(p.entity) is None:
                    affiliations[p.entity] = []
                else:
                    comp = _composite(store, p.entity, q.rel3, "person")
                    affiliations[p.entity] = _ranked(store, comp, universities, q.gamma, q.k)

    return AffiliationResult(ranked_persons=hop2, affiliations=affiliations, hop1_persons=hop1)


def oracle_beam_paths(
    store: KGStore,
    source: int,
    target: int,
    num_hops: int,
    k: int,
    gamma: float = 1.0,
) -> list[ScoredPath]:
    """Depth-first single-threaded replay of the per-parent beam rule.

    Expands every surviving path recursively: children are enumerated in
    ascending (relation, tail) order, scored, and truncated to the k best
    per parent under (score desc, relation asc, tail asc). Completed
    paths collect in a plain list, sorted and truncated only at the end.
    """
    require_real(gamma, "gamma")
    total_frontier_capacity(k, num_hops)
    require_entity_ids(source, target)
    if source == target:
        return []
    src = store.entity_embedding(source)
    if src is None:
        raise QueryError(f"source entity {source} has no embedding")

    rel_embs = [store.relation_embedding(r).tolist() for r in range(store.num_relations)]
    completed: list[ScoredPath] = []

    def expand(nodes: tuple, rels: tuple, comp: list[float], level: int) -> None:
        if level == num_hops:
            return
        horizon = nodes[-1]
        children = []
        for rel in range(store.num_relations):
            tails = store.edge_tables[rel].tails(horizon)
            if len(tails) == 0:
                continue
            ext = [a + b for a, b in zip(comp, rel_embs[rel])]
            for tail in tails.tolist():
                if tail in nodes:
                    continue
                temb = store.entity_embedding(tail)
                if temb is None:
                    continue
                score = transe_score(ext, temb, gamma)
                if tail == target:
                    completed.append(
                        ScoredPath(Path(nodes + (tail,), rels + (rel,)), score)
                    )
                else:
                    children.append((score, rel, tail, ext))
        children.sort(key=lambda c: (-c[0], c[1], c[2]))
        for score, rel, tail, ext in children[:k]:
            expand(nodes + (tail,), rels + (rel,), ext, level + 1)

    expand((source,), (), src.tolist(), 0)
    completed.sort(key=lambda sp: (-sp.score, sp.path.interleaved()))
    return completed[:k]
