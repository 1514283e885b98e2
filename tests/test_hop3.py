"""The compiled hop-3 kernel against its numpy fallback, bit for bit."""

import subprocess
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kghop import _hop3
from kghop.bench import kernel_name
from kghop.kgstore import EntitySet
from kghop.scoring import _row_topk, _score_block, score_candidates_topk_many

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


@needs_compiler
@pytest.mark.parametrize("n", [511, 512, 513, 1500])
@pytest.mark.parametrize("k", [1, 50, 600, 2000])
def test_block_topk_across_block_boundaries(n, k):
    # the kernel walks candidates in blocks of 512; ties and missing rows cross them
    rng = np.random.default_rng(n * 7 + k)
    emb_t = rng.choice([-0.5, 0.0, 0.25], (8, n))
    found = rng.random(n) > 0.1
    comps = rng.choice([-0.5, 0.0, 0.25], (4, 8))
    kk = min(k, n)
    idx, scores = _hop3.block_topk(_hop3.load(), emb_t, found, comps, 1.0, kk)
    local = np.arange(n)
    for row, comp in enumerate(comps):
        want_idx, want = _row_topk(local, _score_block(emb_t, found, comp, 1.0), k)
        assert idx[row].tolist() == want_idx.tolist()
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
    with pytest.raises(ValueError):
        _hop3.block_topk(None, np.zeros((2, 3)), np.ones(3, bool), np.zeros((1, 2)), 1.0, 4)
