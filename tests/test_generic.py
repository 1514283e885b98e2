"""Generic N-hop beam engine: capacity, expansion, full searches."""

import threading
from unittest import mock

import numpy as np
import pytest

from kghop.errors import ArgumentError, CapacityError, QueryError
from kghop.generic import (
    Path,
    expand_path,
    multihop_reasoning_generic,
    total_frontier_capacity,
)
from kghop.oracle import oracle_beam_paths
from kghop.topk import TopKSelector
from kghop.trace import Trace

from helpers import make_store, random_graph_store, ref_exhaustive_paths


class TestFrontierCapacity:
    def test_paper_default_sizing(self):
        assert total_frontier_capacity(50, 3) == 51

    def test_k1_limit(self):
        assert total_frontier_capacity(1, 4) == 3

    def test_k2_three_hops(self):
        assert total_frontier_capacity(2, 3) == 3

    def test_single_hop_needs_no_frontier(self):
        assert total_frontier_capacity(50, 1) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ArgumentError):
            total_frontier_capacity(0, 3)
        with pytest.raises(ArgumentError):
            total_frontier_capacity(2, 0)

    @pytest.mark.parametrize(
        "k, hops", [(2.5, 3), (None, 3), (True, 3), (3, 2.0), (3, "3"), (np.float64(2.0), 3)]
    )
    def test_non_integer_counts_rejected(self, k, hops):
        with pytest.raises(ArgumentError, match="must be an integer >= 1"):
            total_frontier_capacity(k, hops)

    def test_overflow_rejected(self):
        with pytest.raises(CapacityError):
            total_frontier_capacity(2**40, 4)

    @pytest.mark.parametrize(
        "k, hops",
        [(50, 100_000), (2, 66), (10**5000, 3)],
        ids=["hops-100000", "hops-66", "k-10**5000"],
    )
    def test_huge_capacity_rejected_without_forming_or_printing_it(self, k, hops):
        with pytest.raises(CapacityError, match="64-bit range"):
            total_frontier_capacity(k, hops)


class TestPathType:
    def test_interleaved_key(self):
        p = Path((5, 9, 2), (1, 0))
        assert p.interleaved() == (5, 1, 9, 0, 2)

    def test_render(self):
        assert Path((5, 9), (1,)).render() == "5,1,9"

    def test_extend(self):
        p = Path.start(4).extend(2, 7)
        assert p.nodes == (4, 7) and p.relations == (2,)


def entry(store, path):
    """A frontier entry for a source-only path: the path and its source's embedding."""
    return path, store.entity_embedding(path.nodes[0])


def expand_all(store, entries, target, k=5):
    """Expand each entry by one hop; the children, in frontier order."""
    children, results = [], TopKSelector(k)
    for e in entries:
        expand_path(e, children, store, target=target, k=k, results=results)
    return children


class TestPathComposite:
    """Each child carries its parent's composite plus its relation's embedding."""

    def store(self):
        rng = np.random.default_rng(21)
        embs = {i: rng.normal(0, 1, 3) for i in range(5)}
        rels = rng.normal(0, 1, (4, 3))
        triples = [(0, 3, 1), (1, 1, 2), (0, 1, 4), (4, 3, 2)]
        return make_store(3, 4, triples, embs, rels), embs, rels

    def test_single_node_is_source_embedding(self):
        store, embs, rels = self.store()
        src = store.entity_embedding(0).copy()
        children = dict(expand_all(store, [entry(store, Path.start(0))], target=9))
        assert np.array_equal(children[Path((0, 1), (3,))], embs[0] + rels[3])
        assert np.array_equal(children[Path((0, 4), (1,))], embs[0] + rels[1])
        assert np.array_equal(store.entity_embedding(0), src)  # the store is unchanged

    def test_chained_relations(self):
        store, embs, rels = self.store()
        level1 = expand_all(store, [entry(store, Path.start(0))], target=9)
        level2 = dict(expand_all(store, level1, target=9))
        expected = (embs[0] + rels[3]) + rels[1]
        assert np.array_equal(level2[Path((0, 1, 2), (3, 1))], expected)

    def test_relation_multiset_commutes(self):
        store, _, _ = self.store()
        level1 = expand_all(store, [entry(store, Path.start(0))], target=9)
        level2 = dict(expand_all(store, level1, target=9))
        a = level2[Path((0, 1, 2), (3, 1))]
        b = level2[Path((0, 4, 2), (1, 3))]
        assert np.allclose(a, b, atol=1e-12)


class TestExpandPath:
    def test_no_out_edges_is_noop(self):
        store = make_store(2, 1, [(1, 0, 2)], {0: [0.0, 0.0], 1: [0.0, 0.0], 2: [0.0, 0.0]}, [[0.0, 0.0]])
        frontier, results = [], TopKSelector(3)
        expand_path(entry(store, Path.start(0)), frontier, store, target=2, k=3, results=results)
        assert frontier == [] and len(results) == 0

    def test_star_with_planted_target(self):
        rng = np.random.default_rng(22)
        rel = np.array([[0.5, -1.0]])
        embs = {0: np.array([1.0, 2.0]), 1: rng.normal(0, 1, 2), 2: rng.normal(0, 1, 2)}
        embs[9] = embs[0] + rel[0]  # target matches the extended composite exactly
        triples = [(0, 0, 1), (0, 0, 2), (0, 0, 9)]
        store = make_store(2, 1, triples, embs, rel)
        frontier, results = [], TopKSelector(5)
        expand_path(entry(store, Path.start(0)), frontier, store, target=9, k=1, results=results)
        done = results.sorted_items()
        assert len(done) == 1
        assert done[0].score == 1.0
        assert done[0].path == Path((0, 9), (0,))
        assert len(frontier) == 1  # beam of 1: only the best non-target child

    def test_survivors_match_per_parent_reference(self):
        rng = np.random.default_rng(23)
        store = random_graph_store(rng, n_nodes=100, n_rels=3, n_edges=400, dim=4)
        parent = Path.start(17)
        frontier, results = [], TopKSelector(3)
        expand_path(entry(store, parent), frontier, store, target=55, k=3, results=results)

        comp = store.entity_embedding(17).tolist()
        children = []
        for rel in range(store.num_relations):
            rel_emb = store.relation_embedding(rel).tolist()
            ext = [a + b for a, b in zip(comp, rel_emb)]
            for tail in store.edge_tables[rel].tails(17).tolist():
                if tail == 17 or tail == 55:
                    continue
                emb = store.entity_embedding(tail)
                total = 0.0
                for a, b in zip(ext, emb.tolist()):
                    total += abs(a - b)
                children.append((1.0 - total, rel, tail))
        children.sort(key=lambda c: (-c[0], c[1], c[2]))
        expected = [Path((17, t), (r,)) for _, r, t in children[:3]]
        assert [p for p, _ in frontier] == expected

    def test_cycle_neighbors_skipped(self):
        embs = {i: [float(i), 0.0] for i in range(4)}
        triples = [(0, 0, 1), (1, 0, 0), (1, 0, 2)]
        store = make_store(2, 1, triples, embs, [[0.0, 0.0]])
        frontier, results = [], TopKSelector(5)
        composite = store.entity_embedding(0) + store.relation_embedding(0)
        parent = (Path((0, 1), (0,)), composite)
        expand_path(parent, frontier, store, target=3, k=5, results=results)
        assert [p for p, _ in frontier] == [Path((0, 1, 2), (0, 0))]  # back-edge to 0 skipped

    def test_missing_embedding_neighbor_skipped(self):
        embs = {0: [0.0, 0.0], 1: [1.0, 1.0]}  # node 2 has no embedding
        triples = [(0, 0, 1), (0, 0, 2)]
        store = make_store(2, 1, triples, embs, [[0.0, 0.0]])
        frontier, results = [], TopKSelector(5)
        expand_path(entry(store, Path.start(0)), frontier, store, target=9, k=5, results=results)
        assert [p for p, _ in frontier] == [Path((0, 1), (0,))]


class TestGenericSearch:
    def test_unique_chain_path(self):
        embs = {i: [float(i), 1.0] for i in range(3)}
        store = make_store(2, 1, [(0, 0, 1), (1, 0, 2)], embs, [[0.25, 0.5]])
        got = multihop_reasoning_generic(store, 0, 2, num_hops=2, k=5)
        assert len(got) == 1
        assert got[0].path == Path((0, 1, 2), (0, 0))

    def test_source_equals_target(self):
        store = make_store(2, 1, [(0, 0, 0)], {0: [0.0, 0.0]}, [[0.0, 0.0]])
        assert multihop_reasoning_generic(store, 0, 0, 2, 3) == []

    def test_missing_source_rejected(self):
        store = make_store(2, 1, [], {0: [0.0, 0.0]}, [[0.0, 0.0]])
        with pytest.raises(QueryError):
            multihop_reasoning_generic(store, 5, 0, 2, 3)

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_out_of_range_ids_are_query_errors(self, bad):
        store = make_store(2, 1, [(0, 0, 1)], {0: [0.0, 0.0], 1: [0.0, 0.0]}, [[0.0, 0.0]])
        for source, target in ((0, bad), (bad, 1), (bad, bad)):
            with pytest.raises(QueryError):
                multihop_reasoning_generic(store, source, target, 2, 3)
            with pytest.raises(QueryError):
                oracle_beam_paths(store, source, target, 2, 3)

    @pytest.mark.parametrize("bad", [0.0, 67.0, True, np.float64(1.0), "0"])
    def test_non_integer_ids_are_query_errors(self, bad):
        store = make_store(2, 1, [(0, 0, 1)], {0: [0.0, 0.0], 1: [0.0, 0.0]}, [[0.0, 0.0]])
        for source, target in ((0, bad), (bad, 1)):
            with pytest.raises(QueryError, match="unsigned 64-bit"):
                multihop_reasoning_generic(store, source, target, 2, 3)
            with pytest.raises(QueryError, match="unsigned 64-bit"):
                oracle_beam_paths(store, source, target, 2, 3)

    @pytest.mark.parametrize(
        "name, bad",
        [("k", 2.5), ("k", None), ("k", True), ("num_hops", 2.0), ("num_hops", None),
         ("workers", 1.5), ("workers", True), ("workers", "2")],
    )
    def test_non_integer_counts_are_argument_errors(self, name, bad):
        store = make_store(2, 1, [(0, 0, 1), (1, 0, 2)], {i: [0.0, 0.0] for i in range(3)},
                           [[0.0, 0.0]])
        args = {"num_hops": 2, "k": 2, name: bad}
        with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
            multihop_reasoning_generic(store, 0, 2, **args)
        if name != "workers":
            with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
                oracle_beam_paths(store, 0, 2, **args)

    @pytest.mark.parametrize("seed", range(8))
    def test_engine_equals_beam_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(20, 200))
        store = random_graph_store(
            rng, n_nodes=n, n_rels=int(rng.integers(1, 4)),
            n_edges=int(rng.integers(n, 4 * n)), dim=4,
        )
        source, target = 0, n - 1
        hops = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        engine = multihop_reasoning_generic(store, source, target, hops, k, workers=3)
        oracle = oracle_beam_paths(store, source, target, hops, k)
        assert engine == oracle

    def test_engine_equals_beam_oracle_under_forced_ties(self):
        # Embeddings on the grid {0, 0.5, 1} are sums of exact binary
        # fractions, so many candidate and path scores tie exactly and the
        # beam truncation and result order rest on the tie rules.
        grid = np.array([0.0, 0.5, 1.0])
        tied_seeds = 0
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            n, n_rels, dim = int(rng.integers(8, 20)), int(rng.integers(1, 4)), 3
            triples = list(zip(*(rng.integers(0, hi, 6 * n).tolist() for hi in (n, n_rels, n))))
            embs = {i: rng.choice(grid, dim) for i in range(n)}
            store = make_store(dim, n_rels, triples, embs, rng.choice(grid, (n_rels, dim)))
            hops, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            oracle = oracle_beam_paths(store, 0, n - 1, hops, k)
            for workers in (1, 2, 3, 4):
                got = multihop_reasoning_generic(store, 0, n - 1, hops, k, workers=workers)
                assert got == oracle, f"seed {seed} workers {workers}"
            scores = [score for _, score in ref_exhaustive_paths(store, 0, n - 1, hops)]
            tied_seeds += len(set(scores)) < len(scores)
        assert tied_seeds >= 15

    def test_worker_counts_agree(self):
        rng = np.random.default_rng(33)
        store = random_graph_store(rng, n_nodes=120, n_rels=2, n_edges=500, dim=4)
        runs = {
            w: multihop_reasoning_generic(store, 0, 119, 3, 4, workers=w)
            for w in (1, 4, 8)
        }
        assert runs[1] == runs[4] == runs[8]

    @pytest.mark.parametrize("workers", [1, 2, 4, 16])
    def test_levels_run_on_the_calling_thread(self, workers):
        store = random_graph_store(np.random.default_rng(37), n_nodes=60, n_rels=2, n_edges=300)
        oracle = oracle_beam_paths(store, 0, 59, 4, 4)
        assert len(oracle) == 4

        def refuse(thread):
            raise AssertionError(f"the generic engine started thread {thread.name}")

        with mock.patch.object(threading.Thread, "start", refuse):
            got = multihop_reasoning_generic(store, 0, 59, 4, 4, workers=workers)
        assert got == oracle

    def test_huge_k_equals_exhaustive_enumeration(self):
        rng = np.random.default_rng(34)
        store = random_graph_store(rng, n_nodes=25, n_rels=2, n_edges=60, dim=3)
        got = multihop_reasoning_generic(store, 0, 24, num_hops=3, k=1000)
        expected = ref_exhaustive_paths(store, 0, 24, num_hops=3)
        assert [(sp.path.interleaved(), sp.score) for sp in got] == expected

    def test_traced_result_equals_untraced(self):
        store = random_graph_store(np.random.default_rng(37), n_nodes=60, n_rels=2, n_edges=300)
        untraced = multihop_reasoning_generic(store, 0, 59, 4, 4, workers=2)
        assert len(untraced) == 4
        assert multihop_reasoning_generic(store, 0, 59, 4, 4, workers=2, trace=Trace()) == untraced

    def test_results_are_cycle_free_and_bounded(self):
        rng = np.random.default_rng(35)
        store = random_graph_store(rng, n_nodes=60, n_rels=2, n_edges=300, dim=3)
        trace = Trace()
        got = multihop_reasoning_generic(store, 0, 59, 4, 3, workers=2, trace=trace)
        assert len(got) <= 3
        for sp in got:
            assert len(set(sp.path.nodes)) == len(sp.path.nodes)
            assert sp.path.nodes[0] == 0 and sp.path.nodes[-1] == 59
            assert len(sp.path.relations) <= 4
        sizes = [s.counts["frontier"] for s in trace.spans if s.name == "level"]
        prev = 1
        for size in sizes:
            assert size <= prev * 3
            prev = size

    def test_scores_sorted_descending_with_path_tiebreak(self):
        rng = np.random.default_rng(36)
        store = random_graph_store(rng, n_nodes=40, n_rels=2, n_edges=200, dim=3)
        got = multihop_reasoning_generic(store, 0, 39, 3, 10)
        keys = [(-sp.score, sp.path.interleaved()) for sp in got]
        assert keys == sorted(keys)
