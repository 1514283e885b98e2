"""Engines and oracles agree bit for bit when embedding components are near float max."""

import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kghop import _hop3
from kghop.errors import EmbeddingValueError
from kghop.generic import multihop_reasoning_generic
from kghop.kgstore import KGStore, component_limit, load_entity_embeddings
from kghop.oracle import oracle_beam_paths, oracle_three_hop
from kghop.pipeline import ThreeHopQuery, three_hop_query

MAX = sys.float_info.max
NODES = 8


@st.composite
def huge_instances(draw):
    """Store arrays with components of up to float max / (4 dim), or one past it, gamma, k.

    Entities 0 and 1 (the anchors) always have an embedding; the others
    each may not. Relations are 0, 1 and 2.
    """
    dim = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.array([0, 1, *(i for i in range(2, NODES) if rng.random() < 0.8)], np.uint64)
    # magnitudes as shares of float max / dim; the store's limit is a share of 1/4
    shares = rng.choice([0.0, 0.01, 0.2, 0.25], (len(ids) + 3, dim))
    values = rng.choice([-1.0, 1.0], shares.shape) * (shares * MAX / dim)
    over = draw(st.booleans())
    if over:
        values.flat[rng.integers(values.size)] = draw(
            st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from([0.26, 0.5, 1.0])) * MAX / dim
    edges = rng.integers(0, [NODES, 3, NODES], (draw(st.integers(0, 40)), 3)).astype(np.uint64)
    gamma = draw(st.sampled_from([1.0, -0.0, MAX, -MAX / 4, -MAX]))
    arrays = (ids, values[3:], values[:3], edges[:, 0], edges[:, 1], edges[:, 2])
    return arrays, over, gamma, draw(st.integers(1, 4))


def paths(found):
    return [(sp.path, repr(sp.score)) for sp in found]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(case=huge_instances())
def test_engines_and_oracles_agree_near_float_max(case):
    arrays, over, gamma, k = case
    if over:
        with pytest.raises(EmbeddingValueError, match="not within"):
            KGStore(*arrays)
        return
    store = KGStore(*arrays)
    q = ThreeHopQuery(0, 0, 1, 1, 2, k=k, gamma=gamma)
    # machine lines print each score's repr, so equal lines hold equal float bits
    want = oracle_three_hop(store, q).machine_lines()
    for mode in ("simple", "optimized"):
        for workers in (1, 2):
            assert three_hop_query(store, q, mode, workers).machine_lines() == want
    with mock.patch.object(_hop3, "load", lambda: None):
        assert three_hop_query(store, q, "optimized", 2).machine_lines() == want
    for target in range(1, NODES):
        assert paths(multihop_reasoning_generic(store, 0, target, 3, k, gamma=gamma)) == paths(
            oracle_beam_paths(store, 0, target, 3, k, gamma))


def test_the_limit_is_the_largest_accepted_magnitude():
    limit = component_limit(2)
    assert limit == MAX / 8
    ids, matrix = load_entity_embeddings([f"6\t{limit!r} {-limit!r}"], dim=2)
    assert matrix.tolist() == [[limit, -limit]]
    above = float(np.nextafter(limit, np.inf))
    with pytest.raises(EmbeddingValueError, match=re.escape(f"line 2: component {above!r}")):
        load_entity_embeddings(["6\t1 2", f"7\t0 {above!r}"], dim=2)
    # dim 1: an entity and a relation of 1.7e308 used to overflow a composite to inf
    with pytest.raises(EmbeddingValueError, match="entity embeddings"):
        KGStore([0, 1], [[1.0], [1.7e308]], [[0.0]], [0], [0], [1])
    with pytest.raises(EmbeddingValueError, match="relation embeddings"):
        KGStore([0, 1], [[1.0], [2.0]], [[-1.7e308]], [0], [0], [1])
