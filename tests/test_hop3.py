"""The compiled hop-3 leaf sweep against its numpy fallback, bit for bit."""

import gc
import subprocess
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kghop import _hop3, generic
from kghop.bench import kernel_name
from kghop.generator import GeneratorSpec, generate
from kghop.kgstore import EntitySet, KGStore
from kghop.pipeline import ThreeHopQuery, three_hop_query
from kghop.scoring import _row_topk, _score_block, score_candidates_topk_many
from kghop.trace import Trace, span

from helpers import make_store, ref_brute_force_scores, ref_topk

needs_compiler = pytest.mark.skipif(
    _hop3.compiler() is None,
    reason="no C compiler: sysconfig's CC names no program on PATH, so only numpy can run",
)


def numpy_only():
    """The loader reports no kernel, as on a host without a compiler."""
    return mock.patch.object(_hop3, "load", lambda: None)


def bits(results) -> list:
    """Per composite: None, or (ids, float bits as int64) best first."""
    return [
        None if row is None else (
            [it.entity for it in row],
            np.array([it.score for it in row], dtype=np.float64).view(np.int64).tolist(),
        )
        for row in results
    ]


@st.composite
def instances(draw):
    """A store, candidates (some without an embedding), composites, k, gamma, workers."""
    dim = draw(st.sampled_from([1, 8, 768]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tied = draw(st.booleans())

    def vectors(count):
        # few distinct components make exact ties at the top-k boundary common
        if tied:
            return rng.choice([-1.0, 0.0, 0.5, 1.0], (count, dim))
        return rng.normal(0, 1, (count, dim))

    n_store = draw(st.integers(0, 30))
    embs = dict(enumerate(vectors(n_store)))
    store = make_store(dim, 1, [], embs, [[0.0] * dim])
    cands = draw(st.lists(st.integers(0, 40), max_size=12, unique=True))
    comps = [None if draw(st.booleans()) and i else v for i, v in enumerate(vectors(3))]
    if tied and n_store and draw(st.booleans()):
        comps[0] = embs[0]  # zero distance: each score is gamma - 0.0 exactly
    n = len(cands)
    k = draw(st.sampled_from([1, 2, max(n, 1), n + 3, 2**64]))
    gamma = draw(st.sampled_from([1.0, -0.0, 0.0, 2.5, -3.0]))
    workers = draw(st.integers(1, 4))
    return comps, EntitySet(np.array(cands, dtype=np.uint64)), store, k, workers, gamma


@needs_compiler
@settings(max_examples=150, deadline=None)
@given(case=instances())
def test_compiled_kernel_matches_numpy_bit_for_bit(case):
    assert _hop3.load() is not None, "a compiler was found but the kernel did not build or load"
    compiled = score_candidates_topk_many(*case)
    with numpy_only():
        fallback = score_candidates_topk_many(*case)
    assert bits(compiled) == bits(fallback)


def tail_set_store(ids, found, matrix):
    """A store where ids[found] have rows matrix[found], and ids are the tails of relation 0.

    Returns the store and its own tail set, which it lays out in kd-tree order.
    """
    dim = matrix.shape[1]
    store = KGStore(ids[found], matrix[found], np.zeros((1, dim)),
                    np.zeros(len(ids), np.uint64), np.zeros(len(ids), np.uint64), ids)
    return store, store.edge_table(0).tail_set


@st.composite
def multi_leaf_instances(draw):
    """Like instances, but with n from 33 to 3,000 candidates, so the sweep spans many leaves.

    The candidates are the store's own tail set, laid out in kd-tree
    order, or a caller-made set in id order. Grid components put equal
    scores on both sides of leaf boundaries. A drawn share of the
    candidates has no embedding: those ids interleave with the found
    ones, and in leaf order they fill the last found leaf and the leaves
    after it.
    """
    n = draw(st.integers(33, 3000))
    dim = draw(st.sampled_from([1, 2, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tied = draw(st.booleans())

    def vectors(count):
        if tied:
            return rng.choice([-1.0, 0.0, 0.5, 1.0], (count, dim))
        return rng.normal(0, 1, (count, dim))

    ids = np.sort(rng.choice(4 * n, n, replace=False)).astype(np.uint64)
    found = rng.random(n) >= draw(st.sampled_from([0.0, 0.05, 0.5, 0.97]))
    matrix = vectors(n)
    store, cands = tail_set_store(ids, found, matrix)
    if not draw(st.booleans()):
        cands = EntitySet(ids)
    comps = [None if i and draw(st.booleans()) else v
             for i, v in enumerate(vectors(draw(st.integers(1, 6))))]
    if found.any() and draw(st.booleans()):
        comps[0] = matrix[np.flatnonzero(found)[0]]  # zero distance: a score of gamma exactly
    k = draw(st.sampled_from([1, 2, 50, n - 1, n, n + 3, 2**64]))
    gamma = draw(st.sampled_from([1.0, -0.0, 2.5]))
    workers = draw(st.integers(1, 4))
    merge = draw(st.sampled_from(["tree", "locked"]))
    return comps, cands, store, k, workers, gamma, merge


@needs_compiler
@settings(max_examples=300, deadline=None)
@given(case=multi_leaf_instances())
def test_leaf_sweep_matches_numpy_across_leaves(case):
    compiled = score_candidates_topk_many(*case)
    with numpy_only():
        fallback = score_candidates_topk_many(*case)
    assert bits(compiled) == bits(fallback)


@needs_compiler
def test_sweep_prunes_clustered_candidates_exactly():
    # tight clusters far apart: every composite's top k sits in one cluster
    rng = np.random.default_rng(16)
    centres = rng.normal(0, 10, (20, 8))
    matrix = np.repeat(centres, 100, axis=0) + rng.normal(0, 0.01, (2000, 8))
    ids = rng.permutation(2000).astype(np.uint64)
    store, cands = tail_set_store(ids, np.ones(2000, bool), matrix)
    comps = list(centres[:5] + 0.05)
    for workers in (1, 2):
        trace = Trace()
        with span(trace, "hop"):
            got = score_candidates_topk_many(comps, cands, store, 10, workers, trace=trace)
        hop = trace.spans[0]  # the first call adds a `layout` span below it
        assert hop.counts["evals"] == 5 * 2000
        assert hop.counts["pruned"] > 0.5 * 5 * 2000
        with numpy_only():
            assert bits(got) == bits(score_candidates_topk_many(comps, cands, store, 10, workers))


def test_layout_is_built_once_per_store_set():
    store = make_store(2, 1, [(1, 0, 2), (1, 0, 3)], {i: [float(i), 0.0] for i in range(4)},
                       [[0.0, 0.0]])
    tails = store.edge_table(0).tail_set
    with mock.patch.object(_hop3, "leaf_layout", wraps=_hop3.leaf_layout) as build:
        trace = Trace()
        assert store.layout(tails, trace) is store.layout(tails, trace)
        assert build.call_count == 1 and [s.name for s in trace.spans] == ["layout"]
        mine = EntitySet(tails.ids)  # a caller's set is cached too, while it lives
        assert store.layout(mine) is store.layout(mine) is not store.layout(tails)
        assert build.call_count == 2
    assert store.layout(tails).ids.tolist() == [2, 3]


def test_a_set_leaves_the_layout_cache_when_it_is_freed():
    store = make_store(2, 1, [(1, 0, 2), (1, 0, 3)], {i: [float(i), 0.0] for i in range(4)},
                       [[0.0, 0.0]])
    own = len(store._layouts)
    mine = EntitySet(np.arange(4, dtype=np.uint64))
    with mock.patch.object(_hop3, "leaf_layout", wraps=_hop3.leaf_layout) as build:
        for _ in range(3):
            score_candidates_topk_many([np.zeros(2)], mine, store, 2)
        assert build.call_count == (_hop3.load() is not None)
    assert len(store._layouts) == own + build.call_count
    del mine
    gc.collect()
    assert len(store._layouts) == own


def kd_layout_ids(store, ids):
    """ids in the order a layout holds them: the found ones in kd-tree order, then the rest."""
    rows, found = store._lookup(ids)
    present = np.flatnonzero(found)
    present = present[_hop3.kd_order(_hop3.load(), store._ent_matrix, rows[present])]
    return [*ids[present].tolist(), *ids[~found].tolist()]


@needs_compiler
def test_caller_made_set_is_kd_ordered_and_cached_while_it_lives():
    rng = np.random.default_rng(61)
    store = make_store(3, 1, [(0, 0, i) for i in range(100)],
                       {i: rng.choice([0.0, 1.0], 3) for i in range(100) if i % 9}, [[0.0] * 3])
    mine = EntitySet(np.arange(0, 120, dtype=np.uint64))
    comps = list(rng.choice([0.0, 1.0], (3, 3)))
    with mock.patch.object(_hop3, "leaf_layout", wraps=_hop3.leaf_layout) as build:
        got = [score_candidates_topk_many(comps, mine, store, 40, 2) for _ in range(2)]
        assert build.call_count == 1
    assert store.layout(mine).ids.tolist() == kd_layout_ids(store, mine.ids)
    with numpy_only():
        want = score_candidates_topk_many(comps, mine, store, 40, 2)
    assert bits(got[0]) == bits(got[1]) == bits(want)


def leaf_store(n, seed):
    """The store's own set of n candidates with grid embeddings, about a tenth without one."""
    rng = np.random.default_rng(seed)
    found = rng.random(n) > 0.1
    matrix = rng.choice([-0.5, 0.0, 0.25], (n, 8))
    return *tail_set_store(np.arange(n, dtype=np.uint64), found, matrix), rng


@needs_compiler
@pytest.mark.parametrize("n", [511, 512, 513, 1500])
@pytest.mark.parametrize("k", [1, 50, 600, 2000])
def test_block_topk_across_block_boundaries(n, k):
    # kd-tree leaves of LEAF rows, with grid ties and missing rows across their boundaries
    store, cands, rng = leaf_store(n, n * 7 + k)
    layout = store.layout(cands)
    comps = rng.choice([-0.5, 0.0, 0.25], (4, 8))
    pos, scores, _ = _hop3.leaf_topk(_hop3.load(), layout, comps, 1.0, k)
    emb_t, found = store.gather_entity_embeddings(cands.ids)
    for row, comp in enumerate(comps):
        want_ids, want = _row_topk(cands.ids, _score_block(emb_t, found, comp, 1.0), k)
        assert layout.ids[pos[row]].tolist() == want_ids.tolist()
        assert scores[row].view(np.int64).tolist() == want.view(np.int64).tolist()


def test_numpy_fallback_matches_the_reference():
    rng = np.random.default_rng(7)
    embs = {i: rng.choice([0.0, 1.0], 8) for i in range(60) if i % 7}
    store = make_store(8, 1, [], embs, [[0.0] * 8])
    cands = np.arange(64, dtype=np.uint64)
    comps = [rng.choice([0.0, 1.0], 8) for _ in range(5)]
    with numpy_only():
        assert kernel_name() == "numpy"
        for workers in (1, 3):
            got = score_candidates_topk_many(comps, cands, store, 10, workers, 0.5)
            want = [ref_topk(ref_brute_force_scores(store, c, cands, 0.5), 10) for c in comps]
            assert bits(got) == bits(want)


def test_no_compiler_means_no_kernel():
    with mock.patch("sysconfig.get_config_var", return_value="no-such-compiler-kghop"):
        assert _hop3.compiler() is None
        assert _hop3.load.__wrapped__() is None


@needs_compiler
def test_failed_compile_means_no_kernel(tmp_path):
    bad = tmp_path / "_hop3.c"
    bad.write_text("this is not C\n")
    with mock.patch.object(_hop3, "SOURCE", bad):
        assert _hop3.load.__wrapped__() is None
    assert list((tmp_path / "__pycache__").iterdir()) == []  # the temporary file is gone


@needs_compiler
def test_built_library_is_cached_by_source_and_command(tmp_path):
    src = tmp_path / "_hop3.c"
    src.write_bytes(_hop3.SOURCE.read_bytes())
    command = [*_hop3.compiler(), *_hop3.FLAGS]
    with mock.patch.object(_hop3, "SOURCE", src):
        built = _hop3._build(command)
        with mock.patch("subprocess.run", side_effect=subprocess.SubprocessError):
            assert _hop3._build(command) == built
    assert built.parent == tmp_path / "__pycache__" and built.name.startswith("_hop3-")
    assert sorted(p.name for p in built.parent.iterdir()) == [built.name]


def test_block_topk_rejects_a_mismatched_block():
    store, cands, _ = leaf_store(100, 3)
    layout = store.layout(cands)
    for comps, first, step in ((np.zeros((1, 7)), 0, 1), (np.zeros((1, 8)), 2, 2)):
        with pytest.raises(ValueError):
            _hop3.leaf_topk(None, layout, comps, 1.0, 4, first, step)


@needs_compiler
@pytest.mark.parametrize("m", [0, 1, 32, 33, 1000])
def test_kd_order_in_one_dimension_sorts_leaf_by_leaf(m):
    # with one dimension every split is on it, so each leaf holds no key above the next leaf's
    rng = np.random.default_rng(m)
    for values in (rng.normal(size=m), rng.choice([0.0, 1.0], m), np.zeros(m)):
        rows = rng.permutation(m)
        perm = _hop3.kd_order(_hop3.load(), values.reshape(m, 1), rows)
        assert sorted(perm.tolist()) == list(range(m))
        keys = values[rows[perm]]
        for cut in range(_hop3.LEAF, m, _hop3.LEAF):
            assert keys[:cut].max() <= keys[cut:].min()


@needs_compiler
def test_three_hop_query_gathers_nothing_and_lays_out_hop_1_and_3_once():
    ds = generate(GeneratorSpec(num_entities=3000, num_persons=400, num_universities=2000,
                                num_edges=3000, seed=16))
    store = ds.build_store()
    q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=20)
    persons, universities = (store.edge_table(r).tail_set for r in (0, 2))
    with (mock.patch.object(_hop3, "leaf_layout", wraps=_hop3.leaf_layout) as build,
          mock.patch.object(KGStore, "gather_entity_embeddings") as gather,
          mock.patch.object(generic, "expand_path") as expand):
        got = [three_hop_query(store, q) for _ in range(2)]
    assert gather.call_count == expand.call_count == 0
    # hops 1 and 3 lay out the store's own sets once, in kd order; hop 2 its K persons every query
    built = [c.args[1].tolist() for c in build.call_args_list]
    top_k = sorted(p.entity for p in got[0].hop1_persons)
    assert built == [persons.tolist(), top_k, universities.tolist(), top_k]
    for own in (persons, universities):
        assert store.layout(own).ids.tolist() == kd_layout_ids(store, own.ids)
    with numpy_only():
        assert got[0] == got[1] == three_hop_query(store, q)
