"""Three-hop query: mode equivalence, hop semantics, rendering."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kghop.errors import ArgumentError, KghopError, QueryError
from kghop.generator import GeneratorSpec, generate
from kghop.generic import multihop_reasoning_generic, total_frontier_capacity
from kghop.oracle import oracle_beam_paths, oracle_three_hop, oracle_topk
from kghop.parallel import WorkerGang
from kghop.pipeline import (
    MODES,
    STAGE_HOP1,
    STAGE_HOP2,
    STAGE_HOP3,
    STAGE_TOTAL,
    AffiliationResult,
    ThreeHopQuery,
    rescore_with_relation,
    three_hop_query,
)
from kghop.scoring import score_candidates_topk, score_candidates_topk_many
from kghop.topk import ScoredEntity, TopKSelector, reduce_selectors
from kghop.trace import Trace

from helpers import make_store


def planted_instance(extra_triples=()):
    """Hand-built KG with exact-match plants at hop 1 and hop 3.

    Person 1 has embedding == emb(anchor1) + emb(rel1); university 10
    has embedding == emb(person 1) + emb(rel3). All other embeddings are
    fixed far-away vectors, so both plants are strict argmaxes.
    extra_triples are added to the edges.
    """
    dim = 4
    rel_embs = [
        [0.5, -0.25, 1.0, 0.0],   # rel 0: award edges
        [1.0, 1.0, -1.0, 0.5],    # rel 1: field edges
        [-0.5, 0.75, 0.25, 1.5],  # rel 2: affiliation edges
    ]
    a1, a2 = 100, 101
    embs = {
        a1: [0.1, 0.2, 0.3, 0.4],
        a2: [-1.0, 0.5, 0.0, 2.0],
        2: [4.0, -3.0, 2.5, -1.0],
        3: [-2.0, 5.0, -4.0, 3.0],
        11: [6.0, 6.0, -6.0, 6.0],
        12: [-7.0, 2.0, 7.0, -2.0],
    }
    embs[1] = [h + r for h, r in zip(embs[a1], rel_embs[0])]
    embs[10] = [p + r for p, r in zip(embs[1], rel_embs[2])]
    triples = [
        (a1, 0, 1), (a1, 0, 2), (a1, 0, 3),
        (1, 1, a2), (2, 1, a2), (3, 1, a2),
        (1, 2, 10), (1, 2, 11), (2, 2, 11), (3, 2, 12),
        *extra_triples,
    ]
    store = make_store(dim, 3, triples, embs, rel_embs)
    query = ThreeHopQuery(anchor1=a1, rel1=0, anchor2=a2, rel2=1, rel3=2, k=2)
    return store, query


def gen_store(seed=42, entities=2000, persons=400, universities=150, edges=1400, **kw):
    spec = GeneratorSpec(
        num_entities=entities, num_persons=persons, num_universities=universities,
        num_edges=edges, seed=seed, **kw,
    )
    ds = generate(spec)
    return ds, ds.build_store()


def assert_results_equal(a: AffiliationResult, b: AffiliationResult):
    """Bit-exact: every field and score (hop1_persons too), and the affiliation key order."""
    assert a == b
    assert list(a.affiliations) == list(b.affiliations)


class TestPlantedInstance:
    def test_planted_person_tops_hop1_with_gamma(self):
        store, query = planted_instance()
        result = three_hop_query(store, query, mode="optimized", workers=2)
        assert result.hop1_persons[0] == ScoredEntity(1, 1.0)

    def test_planted_university_tops_affiliations(self):
        store, query = planted_instance()
        result = three_hop_query(store, query, mode="optimized", workers=2)
        assert result.affiliations[1][0] == ScoredEntity(10, 1.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_only_hop3_fans_out(self, mode):
        store, query = planted_instance()
        sizes = []
        real_init = WorkerGang.__init__

        def init(gang, workers):
            sizes.append(workers)
            real_init(gang, workers)

        with mock.patch.object(WorkerGang, "__init__", init):
            three_hop_query(store, query, mode=mode, workers=3)
        hop3_calls = 1 if mode == "optimized" else 2  # simple: one scan per ranked person
        assert sizes == [1, 1] + [3] * hop3_calls

    def test_simple_mode_identical(self):
        store, query = planted_instance()
        opt = three_hop_query(store, query, mode="optimized", workers=3)
        simple = three_hop_query(store, query, mode="simple", workers=2)
        assert opt == simple


class TestModeEquivalence:
    def test_seed42_10k_simple_equals_optimized_field_for_field(self):
        spec = GeneratorSpec(
            num_entities=10_000, num_persons=2000, num_universities=500,
            num_edges=6000, seed=42,
        )
        ds = generate(spec)
        store = ds.build_store()
        q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=50)
        opt = three_hop_query(store, q, mode="optimized", workers=4)
        simple = three_hop_query(store, q, mode="simple", workers=4)
        assert opt == simple

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_three_way_equivalence(self, seed):
        ds, store = gen_store(seed=seed)
        q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=25)
        opt = three_hop_query(store, q, mode="optimized", workers=4)
        simple = three_hop_query(store, q, mode="simple", workers=3)
        orc = oracle_three_hop(store, q)
        assert_results_equal(opt, simple)
        assert_results_equal(opt, orc)

    def test_worker_count_invariance(self):
        ds, store = gen_store(seed=9)
        q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=20)
        baseline = three_hop_query(store, q, mode="optimized", workers=1)
        for w in (2, 4, 8, 16):
            assert three_hop_query(store, q, mode="optimized", workers=w) == baseline

    def test_locked_merge_equals_tree(self):
        ds, store = gen_store(seed=10)
        q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=20)
        tree = three_hop_query(store, q, mode="optimized", workers=4, merge="tree")
        locked = three_hop_query(store, q, mode="optimized", workers=4, merge="locked")
        assert tree == locked


class TestHopSemantics:
    def test_hop2_is_a_permutation_of_hop1(self):
        ds, store = gen_store(seed=11)
        q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=30)
        result = three_hop_query(store, q, mode="optimized", workers=2)
        assert sorted(p.entity for p in result.ranked_persons) == sorted(
            p.entity for p in result.hop1_persons
        )

    def test_hop3_work_bound_is_exact(self):
        ds, store = gen_store(seed=12)
        q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=15)
        for mode in ("optimized", "simple"):
            trace = Trace()
            result = three_hop_query(store, q, mode=mode, workers=3, trace=trace)
            n_unis = len(ds.university_ids)
            [hop3] = [s for s in trace.spans if s.name == STAGE_HOP3]
            assert hop3.counts["evals"] == len(result.ranked_persons) * n_unis

    def test_k_larger_than_candidates(self):
        store, query = planted_instance()
        q = ThreeHopQuery(
            query.anchor1, 0, query.anchor2, 1, 2, k=50, gamma=query.gamma
        )
        result = three_hop_query(store, q, mode="optimized", workers=2)
        assert len(result.ranked_persons) == 3  # every person, still ranked
        scores = [p.score for p in result.ranked_persons]
        assert scores == sorted(scores, reverse=True)
        assert len(result.affiliations[1]) == 3  # universities 10, 11, 12

    def test_missing_anchor_embedding(self):
        store, query = planted_instance()
        bad = ThreeHopQuery(999, 0, query.anchor2, 1, 2, k=2)
        with pytest.raises(QueryError):
            three_hop_query(store, bad)

    def test_unknown_relation(self):
        store, query = planted_instance()
        bad = ThreeHopQuery(query.anchor1, 0, query.anchor2, 1, 7, k=2)
        with pytest.raises(QueryError):
            three_hop_query(store, bad)

    def test_invalid_mode(self):
        store, query = planted_instance()
        with pytest.raises(ArgumentError):
            three_hop_query(store, query, mode="turbo")

    @pytest.mark.parametrize("mode", ["simple", "optimized"])
    def test_invalid_merge_rejected_in_both_modes(self, mode):
        store, query = planted_instance()
        persons = [ScoredEntity(1, 0.0), ScoredEntity(2, 0.0)]
        with pytest.raises(ArgumentError, match="merge"):
            three_hop_query(store, query, mode=mode, merge="bogus")
        with pytest.raises(ArgumentError, match="merge"):
            rescore_with_relation(persons, query.anchor2, 1, store, 2, mode=mode, merge="bogus")

    def test_invalid_mode_rejected_by_rescore(self):
        store, query = planted_instance()
        with pytest.raises(ArgumentError, match="mode"):
            rescore_with_relation([ScoredEntity(1, 0.0)], query.anchor2, 1, store, 2, mode="turbo")

    def test_invalid_k(self):
        with pytest.raises(ArgumentError):
            ThreeHopQuery(1, 0, 2, 1, 2, k=0)


class TestRescore:
    def test_single_person(self):
        store, query = planted_instance()
        got = rescore_with_relation(
            [ScoredEntity(1, 0.123)], query.anchor2, 1, store, k=5
        )
        emb1 = store.entity_embedding(1).tolist()
        comp = [a + b for a, b in zip(
            store.entity_embedding(query.anchor2).tolist(),
            store.relation_embedding(1).tolist(),
        )]
        expected = 1.0 - math.fsum(abs(a - b) for a, b in zip(comp, emb1))
        assert len(got) == 1
        assert got[0].entity == 1
        assert got[0].score == pytest.approx(expected, abs=1e-12)

    def test_hop2_scores_can_reverse_hop1_order(self):
        # hop-1 composite sits on person A; hop-2 composite sits on person B
        dim = 2
        rel_embs = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        embs = {
            50: [0.0, 0.0],            # anchor1
            51: [5.0, 5.0],            # anchor2
            1: [1.0, 0.0],             # A == anchor1 + rel0
            2: [5.0, 6.0],             # B == anchor2 + rel1
        }
        triples = [(50, 0, 1), (50, 0, 2), (1, 2, 3), (2, 2, 3)]
        store = make_store(dim, 3, triples, embs, rel_embs)
        q = ThreeHopQuery(50, 0, 51, 1, 2, k=2)
        result = three_hop_query(store, q, mode="optimized")
        assert [p.entity for p in result.hop1_persons] == [1, 2]
        assert [p.entity for p in result.ranked_persons] == [2, 1]
        assert result.ranked_persons[0].score == 1.0  # exact match on hop-2 plant

    def test_equal_hop2_scores_tie_break_by_id(self):
        dim = 2
        embs = {9: [0.0, 0.0], 8: [0.0, 0.0], 4: [1.0, 1.0], 6: [1.0, 1.0]}
        store = make_store(dim, 2, [(9, 0, 4), (9, 0, 6)], embs, [[0.0, 0.0], [0.0, 0.0]])
        got = rescore_with_relation(
            [ScoredEntity(6, 2.0), ScoredEntity(4, 1.0)], 8, 1, store, k=5
        )
        assert [p.entity for p in got] == [4, 6]
        assert got[0].score == got[1].score

    def test_too_many_persons_rejected(self):
        store, query = planted_instance()
        persons = [ScoredEntity(i, 0.0) for i in range(5)]
        with pytest.raises(ArgumentError):
            rescore_with_relation(persons, query.anchor2, 1, store, k=2)


class TestRendering:
    def test_machine_lines_format(self):
        store, query = planted_instance()
        result = three_hop_query(store, query, mode="optimized")
        lines = result.machine_lines()
        person_lines = [ln for ln in lines if ln.count("\t") == 2]
        affil_lines = [ln for ln in lines if ln.count("\t") == 3]
        assert len(person_lines) == len(result.ranked_persons)
        assert len(affil_lines) == sum(len(v) for v in result.affiliations.values())
        ent, score, rank = person_lines[0].split("\t")
        assert int(rank) == 1
        float(score)  # parseable
        pid, uid, uscore, urank = affil_lines[0].split("\t")
        assert int(urank) == 1
        float(uscore)

    def test_table_contains_ranks(self):
        store, query = planted_instance()
        result = three_hop_query(store, query, mode="optimized")
        text = result.table()
        assert "rank" in text
        assert "affiliations of person" in text

    def test_trace_covers_all_stages(self):
        store, query = planted_instance()
        trace = Trace()
        three_hop_query(store, query, mode="optimized", workers=2, trace=trace)
        assert {s.name for s in hop_spans(trace)} == {
            "computeScorePerPerson",
            "computeScoreBasedOnWorksInDL",
            "computeAffiliationScore",
        }
        assert all(s.end_ns >= s.start_ns for s in trace.spans)


def hop_spans(trace):
    """The root span's children; every span below them is a `layout` build inside one."""
    root = trace.spans[0]
    hops = [s for s in trace.spans if s.parent is root]
    below = [s for s in trace.spans[1:] if s.parent is not root]
    assert all(s.name == "layout" and any(s.parent is h for h in hops) for s in below)
    return hops


def run_three_hop(store, q, mode, trace=None):
    if mode == "oracle":
        return oracle_three_hop(store, q, trace=trace)
    return three_hop_query(store, q, mode=mode, workers=3, trace=trace)


class TestTrace:
    @pytest.mark.parametrize("mode", ["simple", "optimized", "oracle"])
    def test_traced_result_equals_untraced(self, mode):
        ds, store = gen_store(seed=13)
        q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=10)
        assert run_three_hop(store, q, mode, Trace()) == run_three_hop(store, q, mode)

    @pytest.mark.parametrize("mode", ["simple", "optimized", "oracle"])
    def test_hop_spans_are_disjoint_children_of_the_root(self, mode):
        store, query = planted_instance()
        trace = Trace()
        run_three_hop(store, query, mode, trace)
        root, hops = trace.spans[0], hop_spans(trace)
        assert (root.name, root.parent) == (STAGE_TOTAL, None)
        assert [s.name for s in hops] == [STAGE_HOP1, STAGE_HOP2, STAGE_HOP3]
        assert all(s.parent is root for s in hops)
        bounds = [root.start_ns, *(t for s in hops for t in (s.start_ns, s.end_ns)), root.end_ns]
        assert bounds == sorted(bounds)

    @pytest.mark.parametrize("mode", ["simple", "optimized"])
    def test_evals_per_hop(self, mode):
        # person 4 has no embedding: hops 1 and 2 score it, hop 3 cannot
        store, query = planted_instance(extra_triples=[(100, 0, 4), (4, 2, 12)])
        q = ThreeHopQuery(query.anchor1, 0, query.anchor2, 1, 2, k=50)
        trace = Trace()
        result = three_hop_query(store, q, mode=mode, workers=2, trace=trace)
        assert len(result.hop1_persons) == 4 and result.affiliations[4] == []
        evals = {s.name: s.counts["evals"] for s in (trace.spans[0], *hop_spans(trace))}
        assert evals == {STAGE_TOTAL: 0, STAGE_HOP1: 4, STAGE_HOP2: 4, STAGE_HOP3: 3 * 3}


@pytest.mark.parametrize(
    "gamma",
    [math.inf, -math.inf, math.nan, None, "x", True, 10**400],
    ids=["inf", "-inf", "nan", "None", "str", "True", "10**400"],
)
def test_non_finite_gamma_rejected(gamma):
    store, query = planted_instance()
    persons = [ScoredEntity(1, 0.0), ScoredEntity(2, 0.0)]
    for mode in ("simple", "optimized"):
        with pytest.raises(ArgumentError, match="gamma"):
            rescore_with_relation(persons, query.anchor2, 1, store, 2, mode=mode, gamma=gamma)
    for search in (multihop_reasoning_generic, oracle_beam_paths):
        with pytest.raises(ArgumentError, match="gamma"):
            search(store, query.anchor1, 10, 3, 2, gamma=gamma)


@pytest.mark.parametrize(
    "gamma",
    [np.float32(0.1), np.int8(1), np.uint64(3), 2**64],
    ids=["float32", "int8", "uint64", "2**64"],
)
def test_gamma_of_any_real_type_scores_as_the_oracles_do(gamma):
    store, query = planted_instance()
    q = ThreeHopQuery(**{**query.__dict__, "gamma": gamma})
    expected = oracle_three_hop(store, q).machine_lines()
    for mode in MODES:
        assert three_hop_query(store, q, mode=mode).machine_lines() == expected
    paths = multihop_reasoning_generic(store, q.anchor1, 10, 3, 2, gamma=gamma)
    assert paths and repr(paths) == repr(oracle_beam_paths(store, q.anchor1, 10, 3, 2, gamma=gamma))


class TestDegenerateStores:
    def test_no_candidate_persons(self):
        # rel 0 has no edges at all: every hop yields empty results
        store = make_store(
            2, 3, [(5, 2, 6)],
            {4: [0.0, 0.0], 5: [1.0, 1.0], 6: [2.0, 2.0]},
            [[0.0, 0.0], [0.1, 0.1], [0.2, 0.2]],
        )
        q = ThreeHopQuery(anchor1=4, rel1=0, anchor2=5, rel2=1, rel3=2, k=3)
        for mode in ("optimized", "simple"):
            result = three_hop_query(store, q, mode=mode, workers=2)
            assert result.ranked_persons == []
            assert result.affiliations == {}

    def test_invalid_store_rejected_at_construction(self):
        from kghop.errors import RelationRangeError
        from kghop.kgstore import KGStore

        import numpy as np

        with pytest.raises(RelationRangeError):
            KGStore([0], np.zeros((1, 2)), np.zeros((1, 2)), [0], [1], [0])

    @pytest.mark.parametrize("anchor", [-1, 2**64])
    def test_out_of_range_anchor_is_query_error(self, anchor):
        store, query = planted_instance()
        for bad in (dict(anchor1=anchor), dict(anchor2=anchor)):
            q = ThreeHopQuery(**{**query.__dict__, **bad})
            for mode in ("optimized", "simple"):
                with pytest.raises(QueryError):
                    three_hop_query(store, q, mode=mode)
            with pytest.raises(QueryError):
                oracle_three_hop(store, q)

    @pytest.mark.parametrize(
        "bad",
        [dict(anchor1=100.0), dict(anchor2=True), dict(rel1=0.0), dict(rel3="2"),
         dict(k=3.5), dict(k=True), dict(gamma=None), dict(gamma=True), dict(gamma="1")],
        ids=["anchor1-float", "anchor2-bool", "rel1-float", "rel3-str", "k-float", "k-bool",
             "gamma-None", "gamma-bool", "gamma-str"],
    )
    def test_non_integer_query_fields_are_kghop_errors(self, bad):
        store, query = planted_instance()
        simple = functools.partial(three_hop_query, mode="simple")
        for engine in (three_hop_query, simple, oracle_three_hop):
            with pytest.raises((ArgumentError, QueryError)):
                engine(store, ThreeHopQuery(**{**query.__dict__, **bad}))

    @pytest.mark.parametrize(
        "bad",
        [dict(workers=1.5), dict(workers="2"), dict(workers=None), dict(workers=True),
         dict(k=2.5), dict(k="a"), dict(rel=0.0), dict(rel=True)],
        ids=["workers-1.5", "workers-str", "workers-None", "workers-True",
             "k-2.5", "k-str", "rel-0.0", "rel-True"],
    )
    def test_non_integer_call_arguments_are_kghop_errors(self, bad):
        store, query = planted_instance()
        persons = [ScoredEntity(1, 0.0), ScoredEntity(2, 0.0)]
        args = {"rel": 1, "k": 2, "workers": 1, **bad}
        for mode in ("simple", "optimized"):
            with pytest.raises((ArgumentError, QueryError)):
                rescore_with_relation(persons, query.anchor2, store=store, mode=mode, **args)
            if "workers" in bad:
                with pytest.raises(ArgumentError, match="workers must be an integer"):
                    three_hop_query(store, query, mode=mode, workers=bad["workers"])

    def test_seal_is_idempotent(self):
        store, query = planted_instance()
        store.seal()
        store.seal()
        assert three_hop_query(store, query).ranked_persons


NUMPY_SCALARS = [np.int8(3), np.int64(-2), np.int64(2), np.uint64(2**64 - 1), np.float64(2.0),
                 np.float32(2.0), np.float32(np.nan), np.float32(np.inf), np.float64(np.inf),
                 np.bool_(True)]
HOSTILE = st.one_of(
    st.floats(),
    st.sampled_from([2.0, math.nan, math.inf, -math.inf, None, True, False, *NUMPY_SCALARS]),
    st.text(max_size=3),
    st.integers(max_value=-1),
    st.integers(min_value=2**64, max_value=2**200),
)
# A valid worker count really starts that many threads, so no int above 4 is drawn.
HOSTILE_WORKERS = st.one_of(
    st.floats(),
    st.sampled_from([None, True, False, 0, -1, 1, 2, 3, 4, np.int8(2), np.uint64(3),
                     np.float64(2.0), np.bool_(True)]),
    st.text(max_size=3),
)


def _three_hop_engines(store, **fields):
    """Build a ThreeHopQuery from fields and run it in both modes and in the oracle."""
    q = ThreeHopQuery(**fields)
    for mode in MODES:
        three_hop_query(store, q, mode=mode)
    oracle_three_hop(store, q)


def _entry_points(store, query):
    """(function, valid keyword arguments, scalar parameters) of each public entry point."""
    persons = [ScoredEntity(1, 0.0), ScoredEntity(2, 0.0)]
    scorer = dict(candidates=[1, 2, 3, 10, 11], store=store, k=2)
    search = dict(store=store, source=query.anchor1, target=10, num_hops=3, k=2)
    return [
        (three_hop_query, dict(store=store, q=query), ("mode", "workers", "merge")),
        (_three_hop_engines, dict(store=store, **query.__dict__),
         ("anchor1", "rel1", "anchor2", "rel2", "rel3", "k", "gamma")),
        (rescore_with_relation,
         dict(persons=persons, anchor=query.anchor2, rel=1, store=store, k=2),
         ("anchor", "rel", "k", "workers", "mode", "merge", "gamma")),
        (score_candidates_topk, dict(composite=np.zeros(4), **scorer),
         ("k", "workers", "gamma", "merge")),
        (score_candidates_topk_many, dict(composites=[np.zeros(4), None], **scorer),
         ("k", "workers", "gamma", "merge")),
        (multihop_reasoning_generic, search,
         ("source", "target", "num_hops", "k", "workers", "gamma")),
        (oracle_beam_paths, search, ("source", "target", "num_hops", "k", "gamma")),
        (oracle_topk, dict(items=persons, k=2), ("k",)),
        (TopKSelector, dict(k=2), ("k",)),
        (reduce_selectors, dict(selectors=[TopKSelector(2)] * 2), ("strategy",)),
        (total_frontier_capacity, dict(k=2, num_hops=3), ("k", "num_hops")),
    ]


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_hostile_scalar_raises_a_kghop_error_or_returns(data):
    store, query = planted_instance()
    fn, kwargs, params = data.draw(st.sampled_from(_entry_points(store, query)), label="entry")
    param = data.draw(st.sampled_from(params), label="parameter")
    value = data.draw(HOSTILE_WORKERS if param == "workers" else HOSTILE, label="value")
    try:
        fn(**{**kwargs, param: value})
    except KghopError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hostile_scalar_lookup_key_follows_the_id_rule(data):
    """A store lookup takes any int, and one outside the store finds nothing.

    Anything else, a bool included, is a QueryError.
    """
    store, _ = planted_instance()
    lookup = data.draw(
        st.sampled_from([store.entity_embedding, store.edge_table(0).tails]), label="lookup"
    )
    value = data.draw(HOSTILE, label="value")
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        got, want = lookup(value), lookup(int(value))
        assert got is want is None or np.array_equal(got, want)
    else:
        with pytest.raises(QueryError, match="not an unsigned 64-bit integer"):
            lookup(value)
