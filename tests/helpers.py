"""Independent reference implementations and store builders for tests.

References here are deliberately naive (full sorts, exhaustive DFS,
fsum) and never share code with the engine paths they verify.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from kghop.kgstore import KGStore
from kghop.topk import ScoredEntity, TopKSelector, selector_merge


def make_store(dim, num_relations, triples, entity_embs, rel_embs) -> KGStore:
    """Store from explicit triples and embedding dicts/lists."""
    edges = np.array(triples, dtype=np.uint64).reshape(len(triples), 3)
    ids = np.array(list(entity_embs), dtype=np.uint64)
    matrix = np.array(
        [np.asarray(vec, dtype=np.float64) for vec in entity_embs.values()], dtype=np.float64
    ).reshape(len(ids), dim)
    rel_arr = np.asarray(rel_embs, dtype=np.float64).reshape(num_relations, dim)
    return KGStore(ids, matrix, rel_arr, edges[:, 0], edges[:, 1], edges[:, 2])


def random_graph_store(rng, n_nodes=50, n_rels=2, n_edges=120, dim=4):
    """Random multigraph where every node has an embedding."""
    triples = [
        (int(h), int(r), int(t))
        for h, r, t in zip(
            rng.integers(0, n_nodes, n_edges),
            rng.integers(0, n_rels, n_edges),
            rng.integers(0, n_nodes, n_edges),
        )
    ]
    entity_embs = {i: rng.normal(0, 1, dim) for i in range(n_nodes)}
    rel_embs = rng.normal(0, 1, (n_rels, dim))
    return make_store(dim, n_rels, triples, entity_embs, rel_embs)


def ref_topk(pairs, k):
    """Full sort by (score desc, id asc), truncated: the selector oracle."""
    return [
        ScoredEntity(e, s)
        for e, s in sorted(pairs, key=lambda p: (-p[1], p[0]))[:k]
    ]


def ref_transe(composite, emb, gamma=1.0) -> float:
    """Exactly-rounded L1 score via math.fsum."""
    return gamma - math.fsum(abs(a - b) for a, b in zip(composite, emb))


def ref_union_topk(selectors, k):
    """Top-k of the multiset union of selector contents, by full sort."""
    items = [it for sel in selectors for it in sel.sorted_items()]
    return ref_topk([(it.entity, it.score) for it in items], k)


def ref_fold_merge(selectors) -> TopKSelector:
    """Sequential left fold of selector_merge."""
    return reduce(selector_merge, selectors)


def ref_brute_force_scores(store, composite, candidate_ids, gamma=1.0):
    """(id, score) for every candidate via per-item lookups and plain loops."""
    comp = list(composite)
    out = []
    for eid in candidate_ids:
        emb = store.entity_embedding(int(eid))
        if emb is None:
            out.append((int(eid), float("-inf")))
            continue
        total = 0.0
        for a, b in zip(comp, emb.tolist()):
            total += abs(a - b)
        out.append((int(eid), gamma - total))
    return out


def ref_exhaustive_paths(store, source, target, num_hops, gamma=1.0):
    """Every cycle-free source->target path of length <= num_hops, scored.

    No beam: pure DFS enumeration. Paths stop at the first target hit
    (the engines never extend a completed path). Returns ScoredPath-like
    (interleaved_tuple, score) pairs sorted by (score desc, path asc).
    """
    results = []

    def walk(nodes, rels, comp):
        if len(rels) == num_hops:
            return
        horizon = nodes[-1]
        for rel in range(store.num_relations):
            tails = store.edge_tables[rel].tails(horizon)
            ext = None
            for tail in tails.tolist():
                if tail in nodes:
                    continue
                emb = store.entity_embedding(tail)
                if emb is None:
                    continue
                if ext is None:
                    rel_emb = store.relation_embedding(rel).tolist()
                    ext = [a + b for a, b in zip(comp, rel_emb)]
                total = 0.0
                for a, b in zip(ext, emb.tolist()):
                    total += abs(a - b)
                score = gamma - total
                if tail == target:
                    path = nodes + (tail,)
                    prels = rels + (rel,)
                    inter = []
                    for i, n in enumerate(path):
                        inter.append(n)
                        if i < len(prels):
                            inter.append(prels[i])
                    results.append((tuple(inter), score))
                else:
                    walk(nodes + (tail,), rels + (rel,), ext)

    src = store.entity_embedding(source)
    if src is None or source == target:
        return []
    walk((source,), (), src.tolist())
    results.sort(key=lambda r: (-r[1], r[0]))
    return results
