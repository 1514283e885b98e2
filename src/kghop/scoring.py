"""TransE composite construction and L1 scoring kernels.

Scoring has one definition and two realizations that are bit-identical:

* transe_score            scalar kernel, plain Python accumulation
* _block_scores           vectorized kernel over a (dim, n) embedding block

Both accumulate the L1 sum in ascending index order, so a score never
depends on which code path (or worker chunk) computed it. That makes
results from the optimized engine, the locked baseline, and the
sequential oracles exactly equal, not merely close.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimensionError
from .kgstore import EntitySet, KGStore
from .parallel import WorkerGang, block_bounds
from .topk import (
    NEG_INF,
    LockedTopK,
    ScoredEntity,
    TopKSelector,
    locked_merge_reduce,
    reduce_topk_tree,
)


@dataclass(frozen=True)
class ScoringConfig:
    """Normalization constant and embedding dimension for one query."""

    gamma: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ArgumentError(f"gamma must be finite, got {self.gamma}")
        if self.dim < 1:
            raise ArgumentError(f"dim must be >= 1, got {self.dim}")


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


def _block_scores(
    emb_t: np.ndarray, found: np.ndarray, composite: np.ndarray, gamma: float
) -> np.ndarray:
    """Scores for a transposed embedding block; missing rows get -inf.

    Walks the dimensions in ascending order (one contiguous row of the
    transposed block per step) so every candidate's sum is accumulated
    in exactly the scalar kernel's order.
    """
    dim, n = emb_t.shape
    acc = np.abs(emb_t[0] - composite[0])
    if dim > 1:
        tmp = np.empty(n, dtype=np.float64)
        for j in range(1, dim):
            np.subtract(emb_t[j], composite[j], out=tmp)
            np.abs(tmp, out=tmp)
            acc += tmp
    scores = np.subtract(gamma, acc, out=acc)
    if not found.all():
        scores[~found] = NEG_INF
    return scores


def _block_topk(ids: np.ndarray, scores: np.ndarray, k: int) -> TopKSelector:
    """Exact top-k of one block under the total order (ids must be ascending).

    argpartition finds the k best by score in O(n); boundary ties are then
    resolved explicitly by ascending id so the result matches offering
    every item to a selector one by one.
    """
    n = len(ids)
    kk = min(k, n)
    if kk == 0:
        return TopKSelector(k)
    if n > kk:
        part = np.argpartition(scores, n - kk)[n - kk :]
        cutoff = scores[part].min()
        gt_idx = np.flatnonzero(scores > cutoff)
        need = kk - len(gt_idx)
        sel_idx = np.concatenate([gt_idx, np.flatnonzero(scores == cutoff)[:need]])
    else:
        sel_idx = np.arange(n)
    sub_scores = scores[sel_idx]
    order = np.argsort(-sub_scores, kind="stable")
    top_ids = ids[sel_idx[order]].tolist()
    top_scores = sub_scores[order].tolist()
    entries = [((-s, i), ScoredEntity(i, s)) for i, s in zip(top_ids, top_scores)]
    return TopKSelector._from_entries(k, entries)


def _as_candidate_ids(candidates) -> np.ndarray:
    if isinstance(candidates, EntitySet):
        return candidates.ids
    return np.unique(np.asarray(candidates, dtype=np.uint64))


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

    Candidates are block-partitioned over the workers; each worker builds
    a private selector from its block and the selectors are combined by
    the chosen reduction collective. Missing embeddings score -inf and
    therefore surface only when fewer than k finite-scored candidates
    exist. The result is identical for any worker count.
    """
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if merge not in ("tree", "locked"):
        raise ArgumentError(f"unknown merge strategy {merge!r}")
    comp = np.asarray(composite, dtype=np.float64)
    if comp.shape != (store.dim,):
        raise DimensionError(f"composite shape {comp.shape} != ({store.dim},)")

    cand_ids = _as_candidate_ids(candidates)
    n = len(cand_ids)
    gang = WorkerGang(workers)
    locals_: list = [None] * workers
    shared = LockedTopK(k) if merge == "locked" else None
    out: list = [None]

    def work(wid: int) -> None:
        lo, hi = block_bounds(n, workers, wid)
        ids_blk = cand_ids[lo:hi]
        if len(ids_blk) > 0:
            emb_t, found = store.gather_entity_embeddings(ids_blk)
            scores = _block_scores(emb_t, found, comp, gamma)
            locals_[wid] = _block_topk(ids_blk, scores, k)
        else:
            locals_[wid] = TopKSelector(k)
        gang.barrier.wait()
        if merge == "tree":
            res = reduce_topk_tree(locals_, workers, wid, gang.barrier)
        else:
            res = locked_merge_reduce(locals_, workers, wid, shared, gang.barrier)
        if wid == 0:
            out[0] = res.into_sorted_desc()

    gang.run(work)
    if stats is not None:
        stats["score_evals"] = stats.get("score_evals", 0) + n
    return out[0]


def _score_block_matrix(
    emb_t: np.ndarray, found: np.ndarray, comps: np.ndarray, gamma: float
) -> np.ndarray:
    """(num_composites, n) score matrix for one block; missing columns -inf.

    Same ascending-dimension accumulation as _block_scores, broadcast
    over all composites at once, so every element is bit-identical to
    the scalar kernel.
    """
    dim, n = emb_t.shape
    acc = np.abs(emb_t[0][None, :] - comps[:, 0][:, None])
    if dim > 1:
        tmp = np.empty_like(acc)
        for j in range(1, dim):
            np.subtract(emb_t[j][None, :], comps[:, j][:, None], out=tmp)
            np.abs(tmp, out=tmp)
            acc += tmp
    scores = np.subtract(gamma, acc, out=acc)
    if not found.all():
        scores[:, ~found] = NEG_INF
    return scores


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


class _LockedRanked:
    """Shared (ids, scores) ranking matrices guarded by one mutex."""

    def __init__(self, k: int):
        self._lock = threading.Lock()
        self._k = k
        self._pair: tuple[np.ndarray, np.ndarray] | None = None

    def merge_from(self, pair: tuple[np.ndarray, np.ndarray]) -> None:
        with self._lock:
            if self._pair is None:
                self._pair = pair
            else:
                self._pair = _rank_rows(
                    np.concatenate([self._pair[0], pair[0]], axis=1),
                    np.concatenate([self._pair[1], pair[1]], axis=1),
                    self._k,
                )

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            pair = self._pair
            self._pair = None
            return pair


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
    """Score the same candidate set against many composites in one gang.

    The batched engine behind the affiliation hop, where one fixed
    university set is ranked against every person's composite. Each
    worker gathers its candidate block once, scores all composites with
    one matrix kernel, and keeps a per-composite ranking of its block's
    k best. The per-worker rankings are then combined by the usual
    reduction (pairwise tree rounds with the odd-worker guard and one
    barrier per round, or the locked baseline), with every composite's
    merge riding the same rounds so barrier count stays O(log workers)
    per call instead of O(composites log workers).

    Entries of `composites` may be None (no composite could be formed);
    those yield None results. Results are lists of ScoredEntity, best
    first, identical for any worker count and to the single-composite
    path.
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
    num_q = len(live_comps)

    gang = WorkerGang(workers)
    locals_: list = [None] * workers
    shared = _LockedRanked(k) if merge == "locked" else None
    final: list = [None]

    def work(wid: int) -> None:
        lo, hi = block_bounds(n, workers, wid)
        ids_blk = cand_ids[lo:hi]
        if len(ids_blk) > 0:
            emb_t, found = store.gather_entity_embeddings(ids_blk)
            scores = _score_block_matrix(emb_t, found, comps, gamma)
            locals_[wid] = _matrix_topk(ids_blk, scores, k)
        else:
            locals_[wid] = (
                np.empty((num_q, 0), dtype=np.uint64),
                np.empty((num_q, 0), dtype=np.float64),
            )
        gang.barrier.wait()
        if merge == "tree":
            stride = 1
            while stride < workers:
                if wid % (2 * stride) == 0 and wid + stride < workers:
                    mine, other = locals_[wid], locals_[wid + stride]
                    locals_[wid] = _rank_rows(
                        np.concatenate([mine[0], other[0]], axis=1),
                        np.concatenate([mine[1], other[1]], axis=1),
                        k,
                    )
                gang.barrier.wait()
                stride *= 2
            if wid == 0:
                final[0] = locals_[0]
        else:
            shared.merge_from(locals_[wid])
            gang.barrier.wait()
            if wid == 0:
                final[0] = shared.take()
            gang.barrier.wait()

    gang.run(work)
    ids_mat, scores_mat = final[0]
    for row, qi in enumerate(live_idx):
        out[qi] = [
            ScoredEntity(e, s)
            for e, s in zip(ids_mat[row].tolist(), scores_mat[row].tolist())
        ]
    return out
