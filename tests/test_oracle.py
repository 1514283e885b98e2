"""The sequential references themselves, checked on hand-computable cases."""

import math

import pytest

from kghop.errors import ArgumentError
from kghop.oracle import oracle_beam_paths, oracle_three_hop, oracle_topk
from kghop.pipeline import ThreeHopQuery, three_hop_query
from kghop.generic import Path
from kghop.topk import ScoredEntity

from helpers import make_store, ref_exhaustive_paths


class TestOracleTopK:
    def test_tie_break_by_id(self):
        items = [ScoredEntity(1, 5.0), ScoredEntity(2, 9.0), ScoredEntity(3, 9.0)]
        assert oracle_topk(items, 2) == [ScoredEntity(2, 9.0), ScoredEntity(3, 9.0)]

    def test_empty(self):
        assert oracle_topk([], 4) == []

    def test_k_at_least_length_returns_whole_sorted_list(self):
        items = [ScoredEntity(5, 1.0), ScoredEntity(4, 2.0)]
        assert oracle_topk(items, 10) == [ScoredEntity(4, 2.0), ScoredEntity(5, 1.0)]

    @pytest.mark.parametrize("bad", [2.5, 0, True, None])
    def test_k_is_a_count(self, bad):
        with pytest.raises(ArgumentError, match="k must be an integer"):
            oracle_topk([ScoredEntity(1, 0.0)], bad)


def five_entity_instance():
    """anchors 0, 1; persons 2, 3; university 4; hand-checkable at k=1."""
    dim = 2
    embs = {
        0: [0.0, 0.0],
        1: [2.0, 2.0],
        2: [1.0, 0.5],
        3: [0.5, 1.5],
        4: [1.25, 2.0],
    }
    rel_embs = [[1.0, 1.0], [0.5, 0.5], [0.25, 0.75]]
    triples = [(0, 0, 2), (0, 0, 3), (2, 2, 4), (3, 2, 4)]
    store = make_store(dim, 3, triples, embs, rel_embs)
    q = ThreeHopQuery(anchor1=0, rel1=0, anchor2=1, rel2=1, rel3=2, k=1)
    return store, q, embs, rel_embs


class TestOracleThreeHop:
    def test_k1_degenerate_hand_checked(self):
        store, q, embs, rels = five_entity_instance()
        result = oracle_three_hop(store, q)

        # hop 1: composite [1,1]; person 2 distance |0|+|0.5| = 0.5,
        # person 3 distance 0.5+0.5 = 1.0 -> person 2 wins, score 0.5
        assert [p.entity for p in result.hop1_persons] == [2]
        assert result.hop1_persons[0].score == 0.5

        # hop 2 re-scores person 2 against [2.5, 2.5]
        exp2 = 1.0 - math.fsum((abs(2.5 - 1.0), abs(2.5 - 0.5)))
        assert result.ranked_persons == [ScoredEntity(2, exp2)]

        # hop 3: composite emb(2)+rel2 = [1.25, 1.25]; university 4 at [1.25, 2.0]
        exp3 = 1.0 - math.fsum((abs(1.25 - 1.25), abs(1.25 - 2.0)))
        assert result.affiliations == {2: [ScoredEntity(4, exp3)]}

    def test_matches_pipeline_on_same_instance(self):
        store, q, _, _ = five_entity_instance()
        assert oracle_three_hop(store, q) == three_hop_query(store, q, mode="optimized", workers=2)


class TestOracleBeamPaths:
    def test_unique_chain(self):
        embs = {i: [float(i), 0.0] for i in range(4)}
        store = make_store(2, 1, [(0, 0, 1), (1, 0, 2), (2, 0, 3)], embs, [[1.0, 1.0]])
        got = oracle_beam_paths(store, 0, 3, num_hops=3, k=2)
        assert len(got) == 1
        assert got[0].path == Path((0, 1, 2, 3), (0, 0, 0))

    def test_no_truncation_equals_exhaustive_dfs(self):
        import numpy as np
        from helpers import random_graph_store

        rng = np.random.default_rng(77)
        store = random_graph_store(rng, n_nodes=20, n_rels=2, n_edges=50, dim=3)
        got = oracle_beam_paths(store, 0, 19, num_hops=3, k=10_000)
        expected = ref_exhaustive_paths(store, 0, 19, num_hops=3)
        assert [(sp.path.interleaved(), sp.score) for sp in got] == expected
