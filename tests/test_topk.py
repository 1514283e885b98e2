"""Selector and reduction tests against full-sort references."""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kghop.errors import ArgumentError, CapacityError
from kghop.topk import (
    NEG_INF,
    ScoredEntity,
    TopKSelector,
    reduce_selectors,
    reduce_topk_tree,
    selector_merge,
)

from helpers import ref_fold_merge, ref_topk, ref_union_topk


def fill(k, pairs):
    sel = TopKSelector(k)
    for e, s in pairs:
        sel.offer(ScoredEntity(e, s))
    return sel


class TestSelectorBasics:
    def test_new_capacity_50(self):
        sel = TopKSelector(50)
        assert sel.capacity == 50
        assert len(sel) == 0

    def test_new_capacity_1(self):
        assert TopKSelector(1).capacity == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ArgumentError):
            TopKSelector(0)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, None, "3", np.float64(3.0), -1])
    def test_non_integer_capacity_rejected(self, bad):
        with pytest.raises(ArgumentError, match="k must be an integer"):
            TopKSelector(bad)

    def test_offer_keeps_best_two(self):
        sel = fill(2, [(10, 1.0), (11, 2.0), (12, 3.0)])
        expected = ref_topk([(10, 1.0), (11, 2.0), (12, 3.0)], 2)
        assert sel.sorted_items() == expected
        assert [it.entity for it in sel.sorted_items()] == [12, 11]

    def test_tie_break_by_ascending_id(self):
        sel = fill(2, [(7, 0.5), (3, 0.5), (9, 0.5)])
        expected = ref_topk([(7, 0.5), (3, 0.5), (9, 0.5)], 2)
        assert sel.sorted_items() == expected
        assert [it.entity for it in sel.sorted_items()] == [3, 7]

    def test_empty_selector_stays_empty(self):
        assert fill(2, []).sorted_items() == []

    def test_into_sorted_desc_two_items(self):
        sel = fill(5, [(1, 5.0), (2, 9.0)])
        assert sel.into_sorted_desc() == [ScoredEntity(2, 9.0), ScoredEntity(1, 5.0)]
        assert len(sel) == 0  # consumed

    def test_into_sorted_desc_empty(self):
        assert TopKSelector(3).into_sorted_desc() == []

    def test_thousand_offers_match_full_sort(self):
        rng = np.random.default_rng(0)
        pairs = [(int(e), float(s)) for e, s in
                 zip(rng.integers(0, 500, 1000), rng.normal(0, 1, 1000))]
        sel = fill(50, pairs)
        assert sel.into_sorted_desc() == ref_topk(pairs, 50)

    def test_neg_inf_sentinel_ranks_last(self):
        sel = fill(3, [(1, NEG_INF), (2, 0.5), (3, NEG_INF)])
        items = sel.sorted_items()
        assert items[0] == ScoredEntity(2, 0.5)
        assert [it.entity for it in items[1:]] == [1, 3]


class TestSelectorMerge:
    def test_merge_with_empty_is_identity(self):
        a = fill(3, [(1, 5.0)])
        b = TopKSelector(3)
        assert selector_merge(a, b).sorted_items() == [ScoredEntity(1, 5.0)]

    def test_merge_truncates_to_k(self):
        a = fill(2, [(1, 5.0), (2, 3.0)])
        b = fill(2, [(3, 9.0)])
        merged = selector_merge(a, b)
        assert merged.sorted_items() == [ScoredEntity(3, 9.0), ScoredEntity(1, 5.0)]

    def test_merge_leaves_inputs_intact(self):
        a = fill(2, [(1, 5.0)])
        b = fill(2, [(3, 9.0)])
        selector_merge(a, b)
        assert len(a) == 1 and len(b) == 1

    def test_capacity_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            selector_merge(TopKSelector(2), TopKSelector(3))


scored_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.one_of(
            st.sampled_from([-1.0, 0.0, 0.5, 1.0, NEG_INF]),
            st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
    ),
    max_size=60,
)


class TestSelectorProperties:
    @settings(max_examples=200, deadline=None)
    @given(pairs=scored_lists, k=st.sampled_from([1, 2, 5, 50]))
    def test_matches_full_sort_oracle(self, pairs, k):
        sel = fill(k, pairs)
        assert len(sel) <= k
        assert sel.into_sorted_desc() == ref_topk(pairs, k)

    @settings(max_examples=100, deadline=None)
    @given(a_pairs=scored_lists, b_pairs=scored_lists, k=st.sampled_from([1, 3, 8]))
    def test_merge_commutes(self, a_pairs, b_pairs, k):
        a1, b1 = fill(k, a_pairs), fill(k, b_pairs)
        a2, b2 = fill(k, a_pairs), fill(k, b_pairs)
        assert selector_merge(a1, b1).sorted_items() == selector_merge(b2, a2).sorted_items()

    @settings(max_examples=100, deadline=None)
    @given(
        a_pairs=scored_lists, b_pairs=scored_lists, c_pairs=scored_lists,
        k=st.sampled_from([1, 3, 8]),
    )
    def test_merge_associates(self, a_pairs, b_pairs, c_pairs, k):
        a, b, c = (fill(k, p) for p in (a_pairs, b_pairs, c_pairs))
        left = selector_merge(selector_merge(a, b), c)
        right = selector_merge(a, selector_merge(b, c))
        assert left.sorted_items() == right.sorted_items()

    def test_never_exceeds_capacity_during_offers(self):
        rng = np.random.default_rng(3)
        sel = TopKSelector(5)
        for e, s in zip(rng.integers(0, 100, 500), rng.normal(0, 1, 500)):
            sel.offer(ScoredEntity(int(e), float(s)))
            assert len(sel) <= 5


def random_selectors(rng, count, k, items_each=12):
    out = []
    for _ in range(count):
        n = int(rng.integers(0, items_each))
        out.append(fill(k, [
            (int(e), float(s))
            for e, s in zip(rng.integers(0, 200, n), rng.normal(0, 1, n))
        ]))
    return out


class TestReductions:
    def test_tree_single_worker_is_identity(self):
        sel = fill(2, [(1, 5.0)])
        got = reduce_topk_tree([sel], 1, 0, combine=selector_merge)
        assert got.sorted_items() == [ScoredEntity(1, 5.0)]

    def test_tree_three_workers_non_power_of_two(self):
        locals_ = [fill(2, [(1, 5.0)]), fill(2, [(2, 3.0)]), fill(2, [(3, 9.0)])]
        got = reduce_selectors(locals_, strategy="tree")
        assert got.sorted_items() == [ScoredEntity(3, 9.0), ScoredEntity(1, 5.0)]

    def test_locked_three_workers(self):
        locals_ = [fill(2, [(1, 5.0)]), fill(2, [(2, 3.0)]), fill(2, [(3, 9.0)])]
        got = reduce_selectors(locals_, strategy="locked")
        assert got.sorted_items() == [ScoredEntity(3, 9.0), ScoredEntity(1, 5.0)]

    def test_worker_id_out_of_range(self):
        with pytest.raises(ArgumentError):
            reduce_topk_tree([TopKSelector(2)], 1, 1, combine=selector_merge)

    def test_unknown_merge_rejected(self):
        with pytest.raises(ArgumentError, match="merge"):
            reduce_selectors([TopKSelector(2)], strategy="bogus")

    @pytest.mark.parametrize("num_workers", list(range(1, 18)))
    def test_all_strategies_equal_fold_oracle(self, num_workers):
        rng = np.random.default_rng(100 + num_workers)
        k = int(rng.integers(1, 8))
        locals_ = random_selectors(rng, num_workers, k)
        expected_fold = ref_fold_merge(list(locals_)).sorted_items()
        expected_union = ref_union_topk(locals_, k)
        assert expected_fold == expected_union
        tree = reduce_selectors(locals_, strategy="tree").sorted_items()
        locked = reduce_selectors(locals_, strategy="locked").sorted_items()
        assert tree == expected_fold
        assert locked == expected_fold

    def test_result_independent_of_partition(self):
        rng = np.random.default_rng(9)
        pairs = [(int(e), float(s)) for e, s in
                 zip(rng.integers(0, 300, 200), rng.normal(0, 1, 200))]
        expected = ref_topk(pairs, 7)
        for num_workers in (1, 2, 5, 8):
            locals_ = [TopKSelector(7) for _ in range(num_workers)]
            for i, (e, s) in enumerate(pairs):
                locals_[i % num_workers].offer(ScoredEntity(e, s))
            got = reduce_selectors(locals_, strategy="tree").sorted_items()
            assert got == expected


class TestGangFailureHandling:
    def test_worker_exception_propagates_without_deadlock(self):
        from kghop.parallel import WorkerGang

        gang = WorkerGang(4)

        def work(wid):
            if wid == 2:
                raise ValueError("worker 2 exploded")
            gang.barrier.wait()  # peers must not hang once 2 dies

        with pytest.raises(ValueError, match="worker 2 exploded"):
            gang.run(work)

    def test_gang_usable_after_failure(self):
        from kghop.parallel import WorkerGang

        gang = WorkerGang(3)

        def boom(wid):
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            gang.run(boom)

        seen = []

        def ok(wid):
            gang.barrier.wait()
            seen.append(wid)

        gang.run(ok)
        assert sorted(seen) == [0, 1, 2]

    def test_thread_that_cannot_start_strands_no_worker(self):
        from kghop.parallel import WorkerGang

        gang = WorkerGang(4)
        real_start, started = threading.Thread.start, []

        def start(thread):  # the OS refuses the second thread
            started.append(thread)
            if len(started) == 2:
                raise RuntimeError("can't start new thread")
            real_start(thread)

        try:
            with mock.patch.object(threading.Thread, "start", start):
                with pytest.raises(CapacityError, match="1 of the 3 threads of a 4-worker gang"):
                    gang.run(lambda wid: gang.barrier.wait())
            assert not started[0].is_alive()
            assert gang.barrier.n_waiting == 0 and not gang.barrier.broken
        finally:
            gang.barrier.abort()  # a failing run must not leave worker 1 blocked
