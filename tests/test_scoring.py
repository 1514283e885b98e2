"""TransE kernels and the parallel batch scorer."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kghop.errors import ArgumentError, DimensionError, QueryError
from kghop.kgstore import EntitySet, KGStore
from kghop.scoring import (
    _row_topk,
    _score_block,
    embedding_aggregation,
    score_candidates_topk,
    score_candidates_topk_many,
    transe_score,
)
from kghop.topk import NEG_INF, ScoredEntity
from kghop.trace import Trace

from helpers import make_store, ref_brute_force_scores, ref_topk, ref_transe


class TestEmbeddingAggregation:
    def test_additive_identity(self):
        assert embedding_aggregation([0.0, 0.0], [1.0, 2.0]).tolist() == [1.0, 2.0]

    def test_elementwise_sum(self):
        assert embedding_aggregation([1.0, 1.0], [2.0, -1.0]).tolist() == [3.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            embedding_aggregation([1.0], [1.0, 2.0])


class TestTranseScore:
    def test_zero_distance_returns_gamma_exactly(self):
        v = np.array([0.25, -1.5, 3.0])
        assert transe_score(v, v.copy(), gamma=1.0) == 1.0
        assert transe_score(v, v.copy(), gamma=-2.5) == -2.5

    def test_direct_arithmetic(self):
        assert transe_score([1.0, 2.0], [0.0, 0.0], gamma=1.0) == 1.0 - 3.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            transe_score([1.0], [1.0, 2.0])

    def test_monotone_in_l1_distance(self):
        rng = np.random.default_rng(0)
        comp = rng.normal(0, 1, 6)
        cands = rng.normal(0, 1, (50, 6))
        scores = [transe_score(comp, c) for c in cands]
        l1 = [float(np.abs(comp - c).sum()) for c in cands]
        assert int(np.argmax(scores)) == int(np.argmin(l1))

    @pytest.mark.parametrize("dim", [1, 8, 768])
    def test_against_references(self, dim):
        # fsum is exactly rounded; ascending accumulation drifts from it
        # by ~sqrt(dim)*eps*|partial sums|, so the fsum check scales with dim
        # while the ascending-loop check is exact.
        fsum_tol = 1e-12 if dim <= 8 else 6e-12
        rng = np.random.default_rng(dim)
        for _ in range(50):
            a = rng.normal(0, 1, dim)
            b = rng.normal(0, 1, dim)
            got = transe_score(a, b, 1.0)
            assert got == pytest.approx(ref_transe(a, b, 1.0), abs=fsum_tol)
            total = 0.0
            for x, y in zip(a.tolist(), b.tolist()):
                total += abs(x - y)
            assert got == 1.0 - total

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(0, 1, 8), rng.normal(0, 1, 8)
        assert transe_score(a, b, 2.0) == transe_score(b, a, 2.0)

    def test_triangle_inequality_of_distance(self):
        rng = np.random.default_rng(6)
        gamma = 1.0
        for _ in range(100):
            a, b, c = rng.normal(0, 1, (3, 8))
            d_ac = gamma - transe_score(a, c, gamma)
            d_ab = gamma - transe_score(a, b, gamma)
            d_bc = gamma - transe_score(b, c, gamma)
            assert d_ac <= d_ab + d_bc + 1e-9


def one_row_topk(ids, scores, k):
    """_row_topk of one score row, as ScoredEntity items."""
    top_ids, top_scores = _row_topk(ids, scores, k)
    return [ScoredEntity(e, s) for e, s in zip(top_ids.tolist(), top_scores.tolist())]


class TestBlockKernel:
    """The one block kernel, and the exact top-k of one score row."""

    @pytest.mark.parametrize("dim", [1, 3, 8, 17])
    def test_bit_identical_to_scalar_kernel(self, dim):
        rng = np.random.default_rng(dim)
        n = 64
        block = rng.normal(0, 1, (n, dim))
        comp = rng.normal(0, 1, dim)
        emb_t = np.ascontiguousarray(block.T)
        found = np.ones(n, dtype=bool)
        batch = _score_block(emb_t, found, comp, gamma=0.25)
        assert batch.shape == (n,)
        for i in range(n):
            assert batch[i] == transe_score(comp, block[i], gamma=0.25)
        # one composite per column, passed transposed as the generic engine does
        comps = rng.normal(0, 1, (n, dim))
        per_column = _score_block(emb_t, found, comps.T, gamma=0.25)
        for i in range(n):
            assert per_column[i] == _score_block(emb_t, found, comps[i], gamma=0.25)[i]

    def test_missing_rows_get_neg_inf(self):
        emb_t = np.zeros((2, 3))
        found = np.array([True, False, True])
        scores = _score_block(emb_t, found, np.zeros(2), gamma=1.0)
        assert scores.tolist() == [1.0, NEG_INF, 1.0]

    def test_block_topk_matches_reference(self):
        rng = np.random.default_rng(7)
        ids = np.sort(rng.choice(10_000, size=500, replace=False)).astype(np.uint64)
        scores = rng.normal(0, 1, 500)
        scores[rng.choice(500, 30, replace=False)] = NEG_INF
        expected = ref_topk(list(zip(ids.tolist(), scores.tolist())), 20)
        assert one_row_topk(ids, scores, 20) == expected

    def test_block_topk_breaks_boundary_ties_by_id(self):
        # five candidates tied exactly at the k-th score: the two
        # smallest ids of the tie must win the remaining slots
        ids = np.array([10, 20, 30, 40, 50, 60, 70], dtype=np.uint64)
        scores = np.array([9.0, 5.0, 5.0, 5.0, 5.0, 5.0, 1.0])
        assert one_row_topk(ids, scores, 3) == [
            ScoredEntity(10, 9.0),
            ScoredEntity(20, 5.0),
            ScoredEntity(30, 5.0),
        ]

    def test_block_topk_all_tied_at_neg_inf(self):
        ids = np.array([3, 5, 9], dtype=np.uint64)
        scores = np.array([NEG_INF] * 3)
        assert [it.entity for it in one_row_topk(ids, scores, 2)] == [3, 5]


def scored_ids(result):
    return [(it.entity, it.score) for it in result]


class TestScoreCandidatesTopK:
    def planted_store(self, dim=4):
        rng = np.random.default_rng(11)
        embs = {i: rng.normal(0, 1, dim) for i in range(20)}
        rel = rng.normal(0, 1, (1, dim))
        composite = embs[0] + rel[0]
        embs[7] = composite.copy()  # exact match
        store = make_store(dim, 1, [(0, 0, i) for i in range(1, 20)], embs, rel)
        return store, composite

    def test_planted_exact_match_ranks_first_with_gamma(self):
        store, composite = self.planted_store()
        cands = EntitySet(ids=np.arange(1, 20, dtype=np.uint64))
        result = score_candidates_topk(composite, cands, store, k=5, gamma=1.0)
        assert result[0] == ScoredEntity(7, 1.0)

    def test_worker_counts_agree_and_match_brute_force(self):
        rng = np.random.default_rng(12)
        dim = 8
        embs = {i: rng.normal(0, 1, dim) for i in range(1000)}
        rel = rng.normal(0, 1, (1, dim))
        store = make_store(dim, 1, [], embs, rel)
        composite = embs[3] + rel[0]
        cands = EntitySet(ids=np.arange(1000, dtype=np.uint64))
        expected = ref_topk(
            ref_brute_force_scores(store, composite, range(1000)), 50
        )
        results = {
            w: score_candidates_topk(composite, cands, store, 50, workers=w)
            for w in (1, 4, 8)
        }
        assert results[1] == results[4] == results[8]
        assert scored_ids(results[1]) == scored_ids(expected)

    def test_missing_embedding_scores_neg_inf_and_ranks_last(self):
        store = make_store(
            2, 1, [], {1: [0.0, 0.0], 2: [1.0, 1.0]}, [[0.0, 0.0]]
        )
        cands = EntitySet(ids=np.array([1, 2, 3], dtype=np.uint64))
        result = score_candidates_topk(np.zeros(2), cands, store, k=3)
        assert result[-1] == ScoredEntity(3, NEG_INF)
        assert [it.entity for it in result] == [1, 2, 3]

    def test_gamma_shift_never_changes_ranking(self):
        rng = np.random.default_rng(13)
        embs = {i: rng.normal(0, 1, 4) for i in range(300)}
        store = make_store(4, 1, [], embs, [[0.0] * 4])
        composite = rng.normal(0, 1, 4)
        cands = EntitySet(ids=np.arange(300, dtype=np.uint64))
        a = score_candidates_topk(composite, cands, store, 20, gamma=1.0)
        b = score_candidates_topk(composite, cands, store, 20, gamma=-7.25)
        assert [it.entity for it in a] == [it.entity for it in b]

    def test_locked_merge_equals_tree(self):
        rng = np.random.default_rng(14)
        embs = {i: rng.normal(0, 1, 4) for i in range(500)}
        store = make_store(4, 1, [], embs, [[0.0] * 4])
        composite = rng.normal(0, 1, 4)
        cands = EntitySet(ids=np.arange(500, dtype=np.uint64))
        tree = score_candidates_topk(composite, cands, store, 25, workers=6, merge="tree")
        locked = score_candidates_topk(composite, cands, store, 25, workers=6, merge="locked")
        assert tree == locked

    def test_eval_count_recorded(self):
        store = make_store(2, 1, [], {i: [0.0, 0.0] for i in range(10)}, [[0.0, 0.0]])
        trace = Trace()
        cands = EntitySet(ids=np.arange(10, dtype=np.uint64))
        score_candidates_topk(np.zeros(2), cands, store, 3, workers=2, trace=trace)
        assert trace.counts["evals"] == 10


class TestMatrixBatchPath:
    """Hop 3's batch path: many composites, each streamed through the kernel and _row_topk."""

    def test_many_scores_bit_identical_to_scalar(self):
        rng = np.random.default_rng(40)
        embs = {i: rng.normal(0, 1, 8) for i in range(30)}
        store = make_store(8, 1, [], embs, [[0.0] * 8])
        comps = [rng.normal(0, 1, 8) for _ in range(5)]
        cands = EntitySet(ids=np.arange(30, dtype=np.uint64))
        for comp, got in zip(comps, score_candidates_topk_many(comps, cands, store, 30, 3, 1.5)):
            assert len(got) == 30
            for it in got:
                assert it.score == transe_score(comp, embs[it.entity], gamma=1.5)

    @pytest.mark.parametrize("dim", [1, 8])
    def test_one_composite_and_stacked_rows_give_the_same_bits(self, dim):
        # every row the batch path returns (3 worker blocks, merged)
        # carries the 1-D kernel's bits over the whole candidate set
        rng = np.random.default_rng(43 + dim)
        embs = {i: rng.normal(0, 1, dim) for i in range(40) if rng.random() > 0.2}
        store = make_store(dim, 1, [], embs, [[0.0] * dim])
        ids = np.arange(40, dtype=np.uint64)
        emb_t, found = store.gather_entity_embeddings(ids)
        comps = [rng.normal(0, 1, dim) for _ in range(4)]
        batched = score_candidates_topk_many(comps, EntitySet(ids=ids), store, 40, 3, 0.75)
        for comp, got in zip(comps, batched):
            row = _score_block(emb_t, found, comp, gamma=0.75)
            expected = ref_topk(list(zip(ids.tolist(), row.tolist())), 40)
            got_bits = [(it.entity, np.float64(it.score).tobytes()) for it in got]
            assert got_bits == [(it.entity, np.float64(it.score).tobytes()) for it in expected]

    def test_row_topk_matches_per_row_reference(self):
        rng = np.random.default_rng(41)
        ids = np.sort(rng.choice(5000, 200, replace=False)).astype(np.uint64)
        scores = rng.normal(0, 1, (7, 200))
        for q in range(7):
            expected = ref_topk(list(zip(ids.tolist(), scores[q].tolist())), 9)
            assert one_row_topk(ids, scores[q], 9) == expected

    def test_row_topk_boundary_ties_resolved_by_id(self):
        ids = np.array([10, 20, 30, 40, 50], dtype=np.uint64)
        straddle = _row_topk(ids, np.array([9.0, 5.0, 5.0, 5.0, 1.0]), 2)
        all_tied = _row_topk(ids, np.array([5.0] * 5), 2)
        assert straddle[0].tolist() == [10, 20]
        assert all_tied[0].tolist() == [10, 20]
        assert all_tied[1].tolist() == [5.0, 5.0]

    def test_many_rows_equal_brute_force_reference(self):
        rng = np.random.default_rng(42)
        embs = {i: rng.normal(0, 1, 4) for i in range(400) if i % 37}
        embs.update({i: np.round(rng.normal(0, 1, 4)) for i in range(0, 400, 5)})
        store = make_store(4, 1, [], embs, [[0.0] * 4])
        cands = EntitySet(ids=np.arange(400, dtype=np.uint64))
        comps = [rng.normal(0, 1, 4) for _ in range(5)] + [np.zeros(4)]
        expected = [ref_topk(ref_brute_force_scores(store, c, range(400)), 12) for c in comps]
        for workers in (1, 3, 8):
            for merge in ("tree", "locked"):
                batched = score_candidates_topk_many(
                    comps, cands, store, 12, workers=workers, merge=merge
                )
                assert [scored_ids(got) for got in batched] == [
                    scored_ids(exp) for exp in expected
                ]

    def test_many_with_none_composites(self):
        store = make_store(2, 1, [], {i: [float(i), 0.0] for i in range(5)}, [[0.0, 0.0]])
        cands = EntitySet(ids=np.arange(5, dtype=np.uint64))
        got = score_candidates_topk_many(
            [None, np.zeros(2), None], cands, store, 2, workers=2
        )
        assert got[0] is None and got[2] is None
        assert [it.entity for it in got[1]] == [0, 1]

    def test_many_all_none(self):
        store = make_store(2, 1, [], {0: [0.0, 0.0]}, [[0.0, 0.0]])
        cands = EntitySet(ids=np.arange(1, dtype=np.uint64))
        assert score_candidates_topk_many([None, None], cands, store, 2) == [None, None]

    def test_more_workers_than_candidates(self):
        store = make_store(2, 1, [], {i: [float(i), 0.0] for i in range(3)}, [[0.0, 0.0]])
        cands = EntitySet(ids=np.arange(3, dtype=np.uint64))
        got = score_candidates_topk_many(
            [np.zeros(2)], cands, store, 5, workers=8, merge="tree"
        )
        assert [it.entity for it in got[0]] == [0, 1, 2]


def cutoff_ids(n=5000):
    """Sparse ascending ids, so positions and ids differ."""
    return np.arange(n, dtype=np.uint64) * 7 + 3


class TestRowTopKCutoff:
    """n >> k, so _row_topk takes the partition-cutoff branch."""

    def test_ties_straddling_the_cutoff(self):
        rng = np.random.default_rng(50)
        ids = cutoff_ids()
        scores = np.round(rng.random(5000), 2)  # ~50 candidates per distinct score
        expected = ref_topk(list(zip(ids.tolist(), scores.tolist())), 50)
        assert one_row_topk(ids, scores, 50) == expected
        cutoff = expected[-1].score
        assert (scores > cutoff).sum() < 50 < (scores >= cutoff).sum()

    def test_more_than_k_tied_at_the_cutoff(self):
        rng = np.random.default_rng(51)
        ids = cutoff_ids()
        scores = rng.random(5000)
        tied = np.sort(rng.choice(5000, 200, replace=False))
        scores[tied] = 2.0
        got = one_row_topk(ids, scores, 50)
        assert got == [ScoredEntity(e, 2.0) for e in ids[tied[:50]].tolist()]

    def test_fewer_than_k_finite_fill_with_neg_inf_by_ascending_id(self):
        rng = np.random.default_rng(52)
        ids = cutoff_ids()
        scores = np.full(5000, NEG_INF)
        finite = rng.choice(5000, 30, replace=False)
        scores[finite] = rng.normal(0, 1, 30)
        got = one_row_topk(ids, scores, 50)
        assert got == ref_topk(list(zip(ids.tolist(), scores.tolist())), 50)
        unscored = np.delete(ids, finite)
        assert [it.entity for it in got[30:]] == unscored[:20].tolist()

    def test_k_above_n_sorts_the_whole_row(self):
        rng = np.random.default_rng(53)
        ids = cutoff_ids()
        scores = np.round(rng.normal(0, 1, 5000), 1)
        got = one_row_topk(ids, scores, 6000)
        assert got == ref_topk(list(zip(ids.tolist(), scores.tolist())), 6000)

    def test_empty_worker_block(self):
        top_ids, top_scores = _row_topk(np.empty(0, np.uint64), np.empty(0), 50)
        assert top_ids.dtype == np.uint64 and len(top_ids) == len(top_scores) == 0
        store = make_store(2, 1, [], {0: [0.0, 0.0]}, [[0.0, 0.0]])
        none = EntitySet(ids=np.empty(0, np.uint64))
        assert score_candidates_topk_many([np.zeros(2)] * 2, none, store, 5, workers=3) == [[], []]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_scorer_equals_brute_force_under_ties(self, workers):
        # grid embeddings force exact score ties at every rank
        rng = np.random.default_rng(54)
        embs = {i: rng.choice([0.0, 0.5, 1.0], 4) for i in range(5000) if i % 41}
        store = make_store(4, 1, [], embs, [[0.0] * 4])
        cands = EntitySet(ids=np.arange(5000, dtype=np.uint64))
        comps = [rng.choice([0.0, 0.5, 1.0], 4) for _ in range(3)]
        got = score_candidates_topk_many(comps, cands, store, 50, workers=workers)
        assert got == [ref_topk(ref_brute_force_scores(store, c, range(5000)), 50) for c in comps]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([NEG_INF, 0.0, 0.5, 1.0]), max_size=120),
        st.integers(min_value=1, max_value=40),
    )
    def test_row_topk_equals_reference(self, values, k):
        ids = cutoff_ids(len(values))
        scores = np.array(values, dtype=np.float64)
        assert one_row_topk(ids, scores, k) == ref_topk(list(zip(ids.tolist(), values)), k)


class TestScorerInputs:
    @pytest.mark.parametrize(
        "bad, gamma, match",
        [
            (np.array([0.0, np.nan]), 1.0, "composite 1"),
            (np.array([np.inf, 0.0]), 1.0, "composite 1"),
            (np.array([0.0, -np.inf]), 1.0, "composite 1"),
            (np.zeros(2), np.inf, "gamma"),
            (np.zeros(2), -np.inf, "gamma"),
            (np.zeros(2), np.nan, "gamma"),
            (np.zeros(2), None, "gamma"),
            (np.zeros(2), "x", "gamma"),
            (np.zeros(2), True, "gamma"),
            (np.zeros(2), 10**400, "gamma"),
            (np.zeros(2), np.float32(np.inf), "gamma"),
        ],
        ids=["nan-comp", "inf-comp", "neg-inf-comp", "inf-gamma", "neg-inf-gamma", "nan-gamma",
             "None-gamma", "str-gamma", "bool-gamma", "huge-int-gamma", "float32-inf-gamma"],
    )
    def test_non_finite_composite_or_gamma_rejected(self, bad, gamma, match):
        store = make_store(2, 1, [], {i: [float(i), 0.0] for i in range(30)}, [[0.0, 0.0]])
        cands = EntitySet(ids=np.arange(30, dtype=np.uint64))
        with pytest.raises(ArgumentError, match=match):
            score_candidates_topk_many([np.zeros(2), bad], cands, store, 3, gamma=gamma)

    @pytest.mark.parametrize(
        "name, bad",
        [("k", 2.5), ("k", None), ("k", True), ("k", 0), ("workers", 1.5), ("workers", None),
         ("workers", np.float64(2.0)), ("workers", 0)],
    )
    def test_non_integer_counts_rejected(self, name, bad):
        store = make_store(2, 1, [], {i: [float(i), 0.0] for i in range(30)}, [[0.0, 0.0]])
        cands = EntitySet(ids=np.arange(30, dtype=np.uint64))
        args = {"k": 3, "workers": 1, name: bad}
        for composites in ([np.zeros(2)], [None]):
            with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
                score_candidates_topk_many(composites, cands, store, **args)
        with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
            score_candidates_topk(np.zeros(2), cands, store, **args)

    def test_unknown_merge_rejected(self):
        store = make_store(2, 1, [], {i: [float(i), 0.0] for i in range(30)}, [[0.0, 0.0]])
        cands = EntitySet(ids=np.arange(30, dtype=np.uint64))
        with pytest.raises(ArgumentError, match="merge"):
            score_candidates_topk(np.zeros(2), cands, store, 3, merge="bogus")

    @pytest.mark.parametrize(
        "raw",
        [[-1, 3], [2**64], [1.5, 3], [3.0], ["3"], np.array([-1, 3]), np.array([2.0])],
        ids=["-1", "2**64", "1.5", "3.0", "str", "int64-array--1", "float64-array"],
    )
    def test_raw_candidate_outside_u64_rejected(self, raw):
        store = make_store(2, 1, [], {3: [0.0, 0.0]}, [[0.0, 0.0]])
        with pytest.raises(QueryError, match="unsigned 64-bit"):
            score_candidates_topk(np.zeros(2), raw, store, 2)

    def test_raw_candidates_are_deduplicated_ids_up_to_u64_max(self):
        store = make_store(2, 1, [], {3: [0.0, 0.0]}, [[0.0, 0.0]])
        got = score_candidates_topk(np.zeros(2), [2**64 - 1, 3, np.uint64(3), 0], store, 5)
        assert [it.entity for it in got] == [3, 0, 2**64 - 1]


def test_hop3_scorer_allocates_no_rows_by_n_matrix():
    # (50, 40_000) float64 is 16 MB; the row-streamed scorer peaks near 5.5 MB
    rng = np.random.default_rng(60)
    n, dim = 40_000, 8
    store = KGStore(
        np.arange(n, dtype=np.uint64), rng.normal(0, 1, (n, dim)), np.zeros((1, dim)),
        np.empty(0, np.uint64), np.empty(0, np.uint64), np.empty(0, np.uint64),
    )
    cands = EntitySet(ids=np.arange(n, dtype=np.uint64))
    comps = list(rng.normal(0, 1, (50, dim)))
    tracemalloc.start()
    try:
        got = score_candidates_topk_many(comps, cands, store, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(r) for r in got] == [50] * 50
    assert peak <= 12 * 2**20, f"peak {peak / 2**20:.1f} MB"
