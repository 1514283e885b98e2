"""TransE composite construction and L1 scoring kernels.

Scoring has one definition and two realizations that are bit-identical:

* transe_score    scalar kernel, plain Python accumulation
* _score_block    vectorized kernel: a (dim,) composite, or one composite
                  per column, against a transposed (dim, n) embedding block

Both accumulate the L1 sum in ascending index order, so a score never
depends on which code path (or worker chunk) computed it. That makes
results from the optimized engine, the locked baseline, and the
sequential oracles exactly equal, not merely close. Where the sum, or
gamma minus it, overflows, the score is -inf on every path.

Many composites against one candidate set go through the compiled
leaf-bound sweep `_hop3.c`, over the set's kd-ordered leaf layout
(KGStore.layout, cached while the set lives): it skips every leaf whose
score bound cannot reach a composite's top k, scores the rest, and keeps
each composite's exact top-k, with the GIL released. Where it cannot be
built, the numpy kernel runs instead: each composite is streamed through
_score_block in turn, and its row goes straight to the exact per-row
selection _row_topk, so one row (320 KB at 40k candidates) stays in L2
cache between the two. Both give the same ids and the same bits.
"""

from __future__ import annotations

import numpy as np

from . import _hop3
from .errors import ArgumentError, DimensionError
from .kgstore import EntitySet, KGStore, require_count, require_real
from .parallel import WorkerGang, block_bounds
from .topk import (
    NEG_INF,
    LockedTopK,
    ScoredEntity,
    locked_merge_reduce,
    reduce_topk_tree,
    require_merge,
)
from .trace import Trace, count


def embedding_aggregation(h_emb, r_emb) -> np.ndarray:
    """Elementwise sum of a head/source embedding and a relation embedding."""
    h = np.asarray(h_emb, dtype=np.float64)
    r = np.asarray(r_emb, dtype=np.float64)
    if h.shape != r.shape or h.ndim != 1:
        raise DimensionError(f"cannot aggregate shapes {h.shape} and {r.shape}")
    return h + r


def transe_score(composite, t_emb, gamma: float = 1.0) -> float:
    """gamma minus the L1 distance between composite and candidate embeddings.

    Accumulates |composite[j] - t_emb[j]| for j ascending and, as the
    block kernel does, subtracts it from gamma as a float64; accepts
    numpy vectors or plain sequences.
    """
    cs = composite.tolist() if isinstance(composite, np.ndarray) else composite
    ts = t_emb.tolist() if isinstance(t_emb, np.ndarray) else t_emb
    if len(cs) != len(ts):
        raise DimensionError(f"length mismatch: {len(cs)} vs {len(ts)}")
    total = 0.0
    for a, b in zip(cs, ts):
        total += abs(a - b)
    return float(gamma) - total


def _score_block(
    emb_t: np.ndarray, found: np.ndarray, comp: np.ndarray, gamma: float
) -> np.ndarray:
    """(n,) scores of a composite against a transposed (dim, n) block.

    comp is one (dim,) composite shared by every column, or a (dim, n)
    block holding column i's own composite in column i. Walks the
    dimensions in ascending order (one row of the block per step), so
    every element is accumulated in exactly the scalar kernel's order.
    Columns whose embedding is missing score -inf.
    """
    acc = np.abs(emb_t[0] - comp[0])
    if len(emb_t) > 1:
        tmp = np.empty_like(acc)
        for j in range(1, len(emb_t)):
            np.subtract(emb_t[j], comp[j], out=tmp)
            np.abs(tmp, out=tmp)
            acc += tmp
    scores = np.subtract(gamma, acc, out=acc)
    if not found.all():
        scores[~found] = NEG_INF
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


def _row_topk(ids_blk: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k (ids, scores) of one score row, best first (ids_blk ascending).

    The k-th largest score is the cutoff; keeping every score at or
    above it keeps every boundary tie, and a stable sort by descending
    score leaves tied scores in ascending id order. Exact because the
    scores are totally ordered: finite or -inf, never NaN.
    """
    n = len(scores)
    kk = min(k, n)
    if n > kk:
        cutoff = np.partition(scores, n - kk)[n - kk]
        idx = np.flatnonzero(scores >= cutoff)
    else:
        idx = np.arange(n)
    best = idx[np.argsort(-scores[idx], kind="stable")[:kk]]
    return ids_blk[best], scores[best]


def _composite_block(composites, live_idx: list, dim: int) -> np.ndarray:
    """The composites at live_idx as one (rows, dim) float64 block.

    The block is stacked and checked in one pass. Only when it is not
    (rows, dim) and finite are the composites checked one by one, so the
    DimensionError names the shape of the first of the wrong shape, and
    the ArgumentError the position of the first that is not finite.
    """
    live = [composites[qi] for qi in live_idx]
    try:
        block = np.array(live, dtype=np.float64)
        if block.shape == (len(live), dim) and np.isfinite(block).all():
            return block
    except (TypeError, ValueError):
        pass
    arrs = []
    for qi, c in zip(live_idx, live):
        arr = np.asarray(c, dtype=np.float64)
        if arr.shape != (dim,):
            raise DimensionError(f"composite shape {arr.shape} != ({dim},)")
        if not np.isfinite(arr).all():
            raise ArgumentError(f"composite {qi} is not finite: {arr.tolist()}")
        arrs.append(arr)
    return np.array(arrs).reshape(len(live), dim)


def score_candidates_topk_many(
    composites: list,
    candidates,
    store: KGStore,
    k: int,
    workers: int = 1,
    gamma: float = 1.0,
    merge: str = "tree",
    trace: Trace | None = None,
) -> list:
    """Top-k candidates by TransE score against each of many composites.

    With the compiled kernel, each worker sweeps alternate leaves of the
    candidates' layout in one call, keeping every composite's exact
    top-k of its leaves. Without it, each worker gathers a contiguous
    block of the candidates and ranks one numpy row at a time. The
    stacked rankings are combined by the chosen reduction collective
    (tree or locked), every composite's merge riding the same rounds, so
    barrier count is O(log workers) per call however many composites
    there are. Missing embeddings score -inf and therefore surface only
    when fewer than k finite-scored candidates exist.

    Entries of `composites` may be None (no composite could be formed);
    those yield None results. A composite or gamma that is not finite is
    an ArgumentError; raw candidate ids follow EntitySet's rule. Results
    are lists of ScoredEntity, best first, identical for any worker count
    and either merge. Counts candidates × composites as `evals` into
    `trace`, and the pairs the leaf bound skipped as `pruned`.
    """
    k = require_count(k, "k")
    workers = require_count(workers, "workers")
    gamma = require_real(gamma, "gamma")
    require_merge(merge)
    live_idx = [qi for qi, c in enumerate(composites) if c is not None]
    comps = _composite_block(composites, live_idx, store.dim)

    out: list = [None] * len(composites)
    if not isinstance(candidates, EntitySet):
        candidates = EntitySet(candidates)
    cand_ids = candidates.ids
    n = len(cand_ids)
    count(trace, "evals", n * len(live_idx))
    if not live_idx:
        return out

    kernel = _hop3.load()
    layout = None if kernel is None else store.layout(candidates, trace)
    gang = WorkerGang(workers)
    locals_: list = [None] * workers
    pruned = [0] * workers

    def combine(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The row-ranking merge: k best per row of two (ids, scores) rankings."""
        return _rank_rows(
            np.concatenate([a[0], b[0]], axis=1), np.concatenate([a[1], b[1]], axis=1), k
        )

    shared = LockedTopK(combine)
    final: list = [None]

    def work(wid: int) -> None:
        if kernel is None:
            lo, hi = block_bounds(n, workers, wid)
            ids_blk = cand_ids[lo:hi]
            emb_t, found = store.gather_entity_embeddings(ids_blk)
            with np.errstate(over="ignore"):  # gamma minus a large sum may overflow to -inf
                ranked = [_row_topk(ids_blk, _score_block(emb_t, found, c, gamma), k)
                          for c in comps]
            locals_[wid] = tuple(map(np.stack, zip(*ranked)))
        else:
            pos, scores, pruned[wid] = _hop3.leaf_topk(kernel, layout, comps, gamma, k, wid, workers)
            locals_[wid] = (layout.ids[pos], scores)
        gang.barrier.wait()
        if merge == "tree":
            res = reduce_topk_tree(locals_, workers, wid, gang.barrier, combine=combine)
        else:
            res = locked_merge_reduce(locals_, workers, wid, shared, gang.barrier)
        if wid == 0:
            final[0] = res

    gang.run(work)
    count(trace, "pruned", sum(pruned))
    ids_mat, scores_mat = final[0]
    for qi, ids_row, scores_row in zip(live_idx, ids_mat.tolist(), scores_mat.tolist()):
        out[qi] = list(map(ScoredEntity._make, zip(ids_row, scores_row)))
    return out


def score_candidates_topk(
    composite,
    candidates,
    store: KGStore,
    k: int,
    workers: int = 1,
    gamma: float = 1.0,
    merge: str = "tree",
    trace: Trace | None = None,
) -> list[ScoredEntity]:
    """Top-k candidates by TransE score against one composite.

    The one-composite case of score_candidates_topk_many.
    """
    return score_candidates_topk_many(
        [np.asarray(composite, dtype=np.float64)],
        candidates, store, k, workers, gamma, merge, trace,
    )[0]
