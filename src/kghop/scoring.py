"""TransE composite construction and L1 scoring kernels.

Scoring has one definition and two realizations that are bit-identical:

* transe_score    scalar kernel, plain Python accumulation
* _score_block    vectorized kernel over a (dim, n) embedding block, for
                  one (dim,) composite or a (rows, dim) stack of them

Both accumulate the L1 sum in ascending index order, so a score never
depends on which code path (or worker chunk) computed it. That makes
results from the optimized engine, the locked baseline, and the
sequential oracles exactly equal, not merely close.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, DimensionError
from .kgstore import EntitySet, KGStore
from .parallel import WorkerGang, block_bounds
from .topk import (
    NEG_INF,
    LockedTopK,
    ScoredEntity,
    locked_merge_reduce,
    reduce_topk_tree,
)


def embedding_aggregation(h_emb, r_emb) -> np.ndarray:
    """Elementwise sum of a head/source embedding and a relation embedding."""
    h = np.asarray(h_emb, dtype=np.float64)
    r = np.asarray(r_emb, dtype=np.float64)
    if h.shape != r.shape or h.ndim != 1:
        raise DimensionError(f"cannot aggregate shapes {h.shape} and {r.shape}")
    return h + r


def transe_score(composite, t_emb, gamma: float = 1.0) -> float:
    """gamma minus the L1 distance between composite and candidate embeddings.

    Accumulates |composite[j] - t_emb[j]| for j ascending; accepts numpy
    vectors or plain sequences.
    """
    cs = composite.tolist() if isinstance(composite, np.ndarray) else composite
    ts = t_emb.tolist() if isinstance(t_emb, np.ndarray) else t_emb
    if len(cs) != len(ts):
        raise DimensionError(f"length mismatch: {len(cs)} vs {len(ts)}")
    total = 0.0
    for a, b in zip(cs, ts):
        total += abs(a - b)
    return gamma - total


def _score_block(
    emb_t: np.ndarray, found: np.ndarray, comps: np.ndarray, gamma: float
) -> np.ndarray:
    """Scores of a transposed (dim, n) embedding block; missing columns get -inf.

    comps is one (dim,) composite, giving (n,) scores, or a (rows, dim)
    stack, giving a (rows, n) matrix. Walks the dimensions in ascending
    order (one contiguous row of the block per step), so every element
    is accumulated in exactly the scalar kernel's order. A single
    composite stays 1-D: the generic engine calls this once per
    (path, relation) with a handful of candidates, where a one-row
    matrix costs measurably more.
    """
    cols = comps if comps.ndim == 1 else comps.T[:, :, None]
    dim = len(emb_t)
    acc = np.abs(emb_t[0] - cols[0])
    if dim > 1:
        tmp = np.empty_like(acc)
        for j in range(1, dim):
            np.subtract(emb_t[j], cols[j], out=tmp)
            np.abs(tmp, out=tmp)
            acc += tmp
    scores = np.subtract(gamma, acc, out=acc)
    if not found.all():
        scores[..., ~found] = NEG_INF
    return scores


def _as_candidate_ids(candidates) -> np.ndarray:
    if isinstance(candidates, EntitySet):
        return candidates.ids
    return np.unique(np.asarray(candidates, dtype=np.uint64))


def _rank_rows(ids: np.ndarray, scores: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Order every row by (score desc, id asc) and truncate to width.

    ids/scores are (rows, cols) with per-element candidate ids. One
    flattened lexsort (row, then -score, then id) orders all rows at
    once.
    """
    rows, cols = scores.shape
    take = min(width, cols)
    row_key = np.repeat(np.arange(rows), cols)
    order = np.lexsort((ids.ravel(), -scores.ravel(), row_key))
    ids_sorted = ids.ravel()[order].reshape(rows, cols)
    scores_sorted = scores.ravel()[order].reshape(rows, cols)
    return ids_sorted[:, :take], scores_sorted[:, :take]


def _matrix_topk(
    ids_blk: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row top-k of a (rows, n) score matrix (ids_blk ascending).

    argpartition selects k per row in O(n); rows where ties straddle the
    k-th score (so the selected SET is not unique) are re-selected
    exactly with the scalar-path rule: strictly-better scores first,
    then boundary ties by ascending id.
    """
    rows, n = scores.shape
    kk = min(k, n)
    if kk == 0:
        empty_i = np.empty((rows, 0), dtype=np.uint64)
        empty_s = np.empty((rows, 0), dtype=np.float64)
        return empty_i, empty_s
    if n == kk:
        sel_idx = np.tile(np.arange(n), (rows, 1))
    else:
        sel_idx = np.argpartition(scores, n - kk, axis=1)[:, n - kk :]
        sel_scores = np.take_along_axis(scores, sel_idx, axis=1)
        cutoff = sel_scores.min(axis=1)
        ge_counts = (scores >= cutoff[:, None]).sum(axis=1)
        for r in np.flatnonzero(ge_counts > kk).tolist():
            row = scores[r]
            gt = np.flatnonzero(row > cutoff[r])
            eq = np.flatnonzero(row == cutoff[r])[: kk - len(gt)]
            sel_idx[r] = np.concatenate([gt, eq])
    picked_ids = ids_blk[sel_idx]
    picked_scores = np.take_along_axis(scores, sel_idx, axis=1)
    return _rank_rows(picked_ids, picked_scores, kk)


def score_candidates_topk_many(
    composites: list,
    candidates,
    store: KGStore,
    k: int,
    workers: int = 1,
    gamma: float = 1.0,
    merge: str = "tree",
    stats: dict | None = None,
) -> list:
    """Top-k candidates by TransE score against each of many composites.

    Candidates are block-partitioned over the workers. Each worker
    gathers its block once, scores every composite with one kernel call,
    and keeps a per-composite ranking of its block's k best; the rankings
    are combined by the chosen reduction collective (tree or locked),
    every composite's merge riding the same rounds, so barrier count is
    O(log workers) per call however many composites there are. Missing
    embeddings score -inf and therefore surface only when fewer than k
    finite-scored candidates exist.

    Entries of `composites` may be None (no composite could be formed);
    those yield None results. Results are lists of ScoredEntity, best
    first, identical for any worker count and either merge.
    """
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if merge not in ("tree", "locked"):
        raise ArgumentError(f"unknown merge strategy {merge!r}")
    live_idx = []
    live_comps = []
    for qi, c in enumerate(composites):
        if c is None:
            continue
        arr = np.asarray(c, dtype=np.float64)
        if arr.shape != (store.dim,):
            raise DimensionError(f"composite shape {arr.shape} != ({store.dim},)")
        live_idx.append(qi)
        live_comps.append(arr)

    out: list = [None] * len(composites)
    cand_ids = _as_candidate_ids(candidates)
    n = len(cand_ids)
    if stats is not None:
        stats["score_evals"] = stats.get("score_evals", 0) + n * len(live_comps)
    if not live_comps:
        return out
    comps = np.stack(live_comps)

    gang = WorkerGang(workers)
    locals_: list = [None] * workers

    def combine(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The row-ranking merge: k best per row of two (ids, scores) rankings."""
        return _rank_rows(
            np.concatenate([a[0], b[0]], axis=1), np.concatenate([a[1], b[1]], axis=1), k
        )

    shared = LockedTopK(combine)
    final: list = [None]

    def work(wid: int) -> None:
        lo, hi = block_bounds(n, workers, wid)
        ids_blk = cand_ids[lo:hi]
        emb_t, found = store.gather_entity_embeddings(ids_blk)
        locals_[wid] = _matrix_topk(ids_blk, _score_block(emb_t, found, comps, gamma), k)
        gang.barrier.wait()
        if merge == "tree":
            res = reduce_topk_tree(locals_, workers, wid, gang.barrier, combine=combine)
        else:
            res = locked_merge_reduce(locals_, workers, wid, shared, gang.barrier)
        if wid == 0:
            final[0] = res

    gang.run(work)
    ids_mat, scores_mat = final[0]
    for row, qi in enumerate(live_idx):
        out[qi] = [
            ScoredEntity(e, s)
            for e, s in zip(ids_mat[row].tolist(), scores_mat[row].tolist())
        ]
    return out


def score_candidates_topk(
    composite,
    candidates,
    store: KGStore,
    k: int,
    workers: int = 1,
    gamma: float = 1.0,
    merge: str = "tree",
    stats: dict | None = None,
) -> list[ScoredEntity]:
    """Top-k candidates by TransE score against one composite.

    The one-composite case of score_candidates_topk_many.
    """
    return score_candidates_topk_many(
        [np.asarray(composite, dtype=np.float64)],
        candidates, store, k, workers, gamma, merge, stats,
    )[0]
