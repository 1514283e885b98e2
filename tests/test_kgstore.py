"""Store construction, loaders, the strict input grammar, and immutability."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kghop.errors import (
    ArgumentError,
    CompletenessError,
    DimensionError,
    DuplicateIdError,
    EmbeddingValueError,
    KghopError,
    ParseError,
    QueryError,
    RelationRangeError,
)
from kghop import kgstore
from kghop.generator import GeneratorSpec, generate, load_labels
from kghop.kgstore import (
    U64_MAX,
    EntitySet,
    KGStore,
    extract_entities,
    ingest_edges,
    load_entity_embeddings,
    load_relation_embeddings,
)
from kghop.oracle import oracle_three_hop
from kghop.pipeline import ThreeHopQuery, three_hop_query
from kghop.scoring import score_candidates_topk_many

from helpers import make_store


def edge_tables(lines, num_relations):
    """Edge tables of a store built from edge lines alone (no entities)."""
    heads, rels, tails = ingest_edges(lines, num_relations)
    store = KGStore([], np.empty((0, 1)), np.zeros((num_relations, 1)), heads, rels, tails)
    return store.edge_tables


def assert_every_store_id_array_rejects(raw):
    """KGStore rejects raw as its entity, head, relation or tail ids by the id rule."""
    n = len(raw)
    with pytest.raises(QueryError, match="unsigned 64-bit"):
        KGStore(raw, np.zeros((n, 1)), np.zeros((1, 1)), [], [], [])
    for field in range(3):
        edges = [[0] * n for _ in range(3)]
        edges[field] = raw
        with pytest.raises(QueryError, match="unsigned 64-bit"):
            KGStore([], np.zeros((0, 1)), np.zeros((1, 1)), *edges)


def table_dict(table):
    return {h: tails.tolist() for h, tails in table.items()}


def random_edge_lines(rng, n, num_nodes, num_relations):
    return [
        f"{h}\t{r}\t{t}"
        for h, r, t in zip(
            rng.integers(0, num_nodes, n),
            rng.integers(0, num_relations, n),
            rng.integers(0, num_nodes, n),
        )
    ]


class TestIngestEdges:
    def test_two_triples_one_relation(self):
        tables = edge_tables(["0\t1\t2", "3\t1\t4"], num_relations=2)
        assert table_dict(tables[0]) == {}
        assert table_dict(tables[1]) == {0: [2], 3: [4]}

    def test_empty_stream(self):
        tables = edge_tables([], num_relations=3)
        assert all(table_dict(t) == {} for t in tables)

    def test_trailing_blank_line_tolerated(self):
        tables = edge_tables(["0\t0\t1\n", "\n"], num_relations=1)
        assert table_dict(tables[0]) == {0: [1]}

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            ingest_edges(["0\t0\t1", "0 0 1"], num_relations=1)

    def test_negative_id_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            ingest_edges(["-1\t0\t1"], num_relations=1)

    def test_relation_out_of_range(self):
        with pytest.raises(RelationRangeError, match="line 1"):
            ingest_edges(["0\t5\t1"], num_relations=2)

    @pytest.mark.parametrize("bad", [None, 1.5, True, "2", -1, np.float64(2.0)])
    def test_num_relations_is_a_non_bool_integer(self, bad):
        with pytest.raises(ArgumentError, match="num_relations"):
            ingest_edges(["0\t1\t0"], bad)

    def test_duplicate_triples_kept(self):
        tables = edge_tables(["0\t0\t1", "0\t0\t1"], num_relations=1)
        assert table_dict(tables[0]) == {0: [1, 1]}

    def test_tails_canonical_whatever_the_line_order(self):
        rng = np.random.default_rng(42)
        lines = random_edge_lines(rng, 10_000, 400, 5)
        shuffled = list(lines)
        rng.shuffle(shuffled)
        for a, b in zip(edge_tables(lines, 5), edge_tables(shuffled, 5)):
            assert table_dict(a) == table_dict(b)
            assert list(a.heads()) == sorted(a.heads())
            for _, tails in a.items():
                assert tails.tolist() == sorted(tails.tolist())

    def test_conservation_of_edge_count(self):
        lines = random_edge_lines(np.random.default_rng(1), 5000, 100, 4)
        tables = edge_tables(lines, num_relations=4)
        assert sum(t.num_edges for t in tables) == 5000


class TestEntityEmbeddings:
    @pytest.mark.parametrize("dim", [0, 2.0, None, True, "2"])
    def test_dim_is_a_count(self, dim):
        with pytest.raises(ArgumentError, match="dim must be an integer"):
            load_entity_embeddings(["7\t0.5 0.5"], dim)
        with pytest.raises(ArgumentError, match="dim must be an integer"):
            load_relation_embeddings(["0\t0.5 0.5"], dim, 1)

    def test_single_line(self):
        ids, matrix = load_entity_embeddings(["7\t0.5 0.5"], dim=2)
        assert ids.tolist() == [7]
        assert matrix.tolist() == [[0.5, 0.5]]

    def test_wrong_component_count(self):
        with pytest.raises(DimensionError, match="line 1"):
            load_entity_embeddings(["7\t0.5 0.5 0.5"], dim=2)

    def test_non_finite_component(self):
        with pytest.raises(EmbeddingValueError, match="line 2"):
            load_entity_embeddings(["6\t1 2", "7\tnan 0.5"], dim=2)

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError, match="line 3: duplicate entity id 7"):
            load_entity_embeddings(["7\t0.5 0.5", "5\t0 0", "7\t0.1 0.1", "5\t1 1"], dim=2)

    def test_round_trip_is_byte_exact(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(0, 1, (1000, 4))
        ids = rng.permutation(1000)
        lines = [
            f"{eid}\t{' '.join(repr(v) for v in vectors[eid].tolist())}" for eid in ids.tolist()
        ]
        got_ids, matrix = load_entity_embeddings(lines, dim=4)
        assert got_ids.tolist() == ids.tolist()
        assert matrix.tobytes() == vectors[ids].tobytes()
        store = KGStore(got_ids, matrix, np.zeros((0, 4)), [], [], [])
        for eid in range(1000):
            assert store.entity_embedding(eid).tobytes() == vectors[eid].tobytes()

    def test_sparse_64_bit_ids(self):
        big = 2**63 + 11
        ids, matrix = load_entity_embeddings([f"{big}\t1.0 2.0"], dim=2)
        assert ids.tolist() == [big]
        assert matrix.tolist() == [[1.0, 2.0]]


class TestRelationEmbeddings:
    def test_identity_pair(self):
        arr = load_relation_embeddings(["0\t1 0", "1\t0 1"], dim=2, num_relations=2)
        assert arr.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_missing_relation(self):
        with pytest.raises(CompletenessError, match="missing"):
            load_relation_embeddings(["0\t1 0"], dim=2, num_relations=2)

    def test_repeated_relation(self):
        with pytest.raises(CompletenessError, match="repeated"):
            load_relation_embeddings(["0\t1 0", "0\t0 1"], dim=2, num_relations=2)

    def test_out_of_range_relation(self):
        with pytest.raises(CompletenessError):
            load_relation_embeddings(["0\t1 0", "5\t0 1"], dim=2, num_relations=2)

    @pytest.mark.parametrize("bad", [None, 1.5, True, "2", -1, np.float64(2.0)])
    def test_num_relations_is_a_non_bool_integer(self, bad):
        with pytest.raises(ArgumentError, match="num_relations"):
            load_relation_embeddings(["0\t1 0"], dim=2, num_relations=bad)

    def test_shuffled_order_matches_sorted(self):
        rng = np.random.default_rng(3)
        rows = [
            f"{i}\t{' '.join(repr(v) for v in rng.normal(0, 1, 3).tolist())}"
            for i in range(6)
        ]
        shuffled = list(rows)
        rng.shuffle(shuffled)
        a = load_relation_embeddings(rows, dim=3, num_relations=6)
        b = load_relation_embeddings(shuffled, dim=3, num_relations=6)
        assert np.array_equal(a, b)


class TestExtractEntities:
    def test_tail_dedup(self):
        tables = edge_tables(["0\t0\t2", "3\t0\t2"], num_relations=1)
        assert extract_entities(tables[0]).tolist() == [2]

    def test_head_side(self):
        tables = edge_tables(["0\t0\t2", "3\t0\t4"], num_relations=1)
        assert list(tables[0].heads()) == [0, 3]

    def test_matches_raw_triple_scan(self):
        rng = np.random.default_rng(4)
        triples = list(
            zip(
                rng.integers(0, 50, 800).tolist(),
                [0] * 800,
                rng.integers(0, 50, 800).tolist(),
            )
        )
        lines = [f"{h}\t{r}\t{t}" for h, r, t in triples]
        tables = edge_tables(lines, num_relations=1)
        assert list(tables[0].heads()) == sorted({h for h, _, _ in triples})
        assert extract_entities(tables[0]).tolist() == sorted({t for _, _, t in triples})

    def test_returns_the_cached_set(self):
        tables = edge_tables(["0\t0\t2", "3\t0\t4"], num_relations=1)
        tails = extract_entities(tables[0])
        assert extract_entities(tables[0]) is tails
        assert not tails.ids.flags.writeable

    def test_entity_set_normalizes(self):
        es = EntitySet(ids=np.array([5, 1, 5, 3], dtype=np.uint64))
        assert es.tolist() == [1, 3, 5]
        assert len(es) == 3

    @pytest.mark.parametrize(
        "raw",
        [[1.5, 3], [-1, 3], [2**64], [3.0], ["3"], np.array([-1, 3]), np.array([2.0]), [10**5000],
         [0.5], [0.7]],
        ids=["1.5", "-1", "2**64", "3.0", "str", "int64-array--1", "float64-array", "10**5000",
             "0.5", "0.7"],
    )
    def test_entity_set_rejects_ids_outside_u64(self, raw):
        with pytest.raises(QueryError, match="unsigned 64-bit"):
            EntitySet(ids=raw)
        assert_every_store_id_array_rejects(raw)

    @pytest.mark.parametrize(
        "raw", [[True, 3], [False], np.array([True, False])], ids=["True", "False", "bool-array"]
    )
    def test_entity_set_rejects_bools(self, raw):
        with pytest.raises(QueryError, match="unsigned 64-bit"):
            EntitySet(ids=raw)
        assert_every_store_id_array_rejects(raw)

    def test_entity_set_keeps_ids_up_to_u64_max_exactly(self):
        es = EntitySet(ids=[2**64 - 1, 3, np.uint64(3), 0, 2**63 + 1])
        assert es.tolist() == [0, 3, 2**63 + 1, 2**64 - 1]
        assert EntitySet(ids=np.array([7, 2], dtype=np.uint32)).tolist() == [2, 7]

    def test_entity_set_is_equal_and_hashed_by_identity(self):
        a, b = EntitySet(ids=[1, 2, 3]), EntitySet(ids=[1, 2, 3])
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


class TestEntityIndex:
    def test_lookup_returns_the_given_row(self):
        store = make_store(2, 1, [], {9: [1.0, 2.0], 5: [3.0, 4.0]}, [[0.0, 0.0]])
        assert store.entity_embedding(5).tolist() == [3.0, 4.0]
        assert store.entity_embedding(9).tolist() == [1.0, 2.0]

    def test_absent_id_returns_none(self):
        store = make_store(2, 1, [], {5: [0.0, 0.0]}, [[0.0, 0.0]])
        for eid in (12345, -1, 2**64, -(2**70), 2**80):
            assert store.entity_embedding(eid) is None

    def test_write_after_build_rejected(self):
        store = make_store(2, 1, [(5, 0, 5)], {5: [0.0, 0.0]}, [[0.0, 0.0]])
        store.seal()
        with pytest.raises(ValueError):
            store.entity_embedding(5)[0] = 1.0
        assert store.entity_embedding(5).tolist() == [0.0, 0.0]

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateIdError, match="duplicate entity id 1"):
            KGStore([1, 2, 1], np.zeros((3, 2)), np.zeros((1, 2)), [], [], [])

    def test_hundred_thousand_ids_all_indexed(self):
        rng = np.random.default_rng(5)
        ids = rng.permutation(100_000).astype(np.uint64) * np.uint64(7)
        matrix = rng.normal(0, 1, (100_000, 2))
        store = KGStore(ids, matrix, np.zeros((0, 2)), [], [], [])
        for row in rng.integers(0, 100_000, 2_000).tolist():
            assert store.entity_embedding(int(ids[row])).tobytes() == matrix[row].tobytes()
        emb_t, found = store.gather_entity_embeddings(ids)
        assert found.all()
        assert emb_t.T.tobytes() == matrix.tobytes()


class TestKGStore:
    def test_signed_ids_are_checked_in_one_pass(self):
        store = make_store(2, 1, [], {1: [1.0, 2.0], 2**40: [3.0, 4.0]}, [[0.0, 0.0]])
        ids = np.array([2**40, 7, 1, 0], dtype=np.int64)
        with mock.patch.object(kgstore, "require_id", side_effect=AssertionError):
            signed = kgstore._u64_ids(ids)
            emb_t, found = store.gather_entity_embeddings(ids[:2])
        assert signed.dtype == np.uint64 and signed.tolist() == ids.astype(np.uint64).tolist()
        want_t, want_found = store.gather_entity_embeddings(ids[:2].astype(np.uint64))
        assert emb_t.tobytes() == want_t.tobytes() and found.tolist() == want_found.tolist()
        with pytest.raises(QueryError, match="entity id -5 is not"):
            kgstore._u64_ids(np.array([3, -5, -1], dtype=np.int32))

    def test_gather_found_and_missing(self):
        store = make_store(
            dim=2,
            num_relations=1,
            triples=[(0, 0, 1)],
            entity_embs={0: [1.0, 2.0], 1: [3.0, 4.0], 9: [5.0, 6.0]},
            rel_embs=[[0.0, 0.0]],
        )
        emb_t, found = store.gather_entity_embeddings(
            np.array([0, 1, 7, 9], dtype=np.uint64)
        )
        assert found.tolist() == [True, True, False, True]
        assert emb_t.shape == (2, 4)
        assert emb_t[:, 0].tolist() == [1.0, 2.0]
        assert emb_t[:, 3].tolist() == [5.0, 6.0]

    @pytest.mark.parametrize(
        "raw",
        [[1.5, 2.9], ["1"], np.array([True, False]), [True], [-1], [2**64], np.array([-1, 3]),
         np.array([2.0]), [None], [[1], [2, 3]]],
        ids=["1.5", "str", "bool-array", "True", "-1", "2**64", "int64-array--1", "float64-array",
             "None", "ragged"],
    )
    def test_gather_applies_the_id_rule(self, raw):
        store = make_store(2, 1, [], {1: [1.0, 2.0], 2: [3.0, 4.0]}, [[0.0, 0.0]])
        with pytest.raises(QueryError, match="unsigned 64-bit"):
            store.gather_entity_embeddings(raw)

    @pytest.mark.parametrize(
        "raw", [np.ones((2, 2), dtype=np.uint64), [[1, 2]], 1, np.uint64(1)],
        ids=["2-D-uint64", "2-D-list", "int", "uint64-scalar"],
    )
    def test_gather_takes_one_dimensional_ids(self, raw):
        store = make_store(2, 1, [], {1: [1.0, 2.0]}, [[0.0, 0.0]])
        with pytest.raises(ArgumentError, match="1-D"):
            store.gather_entity_embeddings(raw)
        with pytest.raises(ArgumentError, match="1-D"):
            EntitySet(raw)
        with pytest.raises(ArgumentError, match="1-D"):
            score_candidates_topk_many([np.zeros(2)], raw, store, 2)
        emb_t, found = store.gather_entity_embeddings([1, np.uint64(2), 2**64 - 1])
        assert found.tolist() == [True, False, False] and emb_t[:, 0].tolist() == [1.0, 2.0]

    def test_relation_range_checks(self):
        store = make_store(2, 1, [], {0: [0.0, 0.0]}, [[0.0, 0.0]])
        with pytest.raises(RelationRangeError):
            store.relation_embedding(1)
        with pytest.raises(RelationRangeError):
            store.edge_table(-1)

    @pytest.mark.parametrize(
        "bad", [0.0, 1.5, True, False, None, "0", np.float64(0.0), np.bool_(False), 2**64]
    )
    def test_relation_ids_are_non_bool_integers(self, bad):
        store = make_store(2, 2, [], {0: [0.0, 0.0]}, [[0.0, 0.0], [0.0, 0.0]])
        for lookup in (store.relation_embedding, store.edge_table, store.require_relation):
            with pytest.raises(RelationRangeError, match="not a relation id"):
                lookup(bad)
        assert store.edge_table(np.uint8(1)).relation == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["entity", "relation"])
    def test_non_finite_embedding_rejected(self, value, which):
        ent, rel = np.zeros((2, 2)), np.zeros((1, 2))
        (ent if which == "entity" else rel)[-1, 1] = value
        with pytest.raises(EmbeddingValueError, match=f"{which} embeddings"):
            KGStore([0, 1], ent, rel, [0], [0], [1])

    @pytest.mark.parametrize(
        "bad, error",
        [
            *((bad, EmbeddingValueError) for bad in (
                [["a", "b"]], [[None, 0.0]], [[1j, 0.0]], np.array([[1j, 0.0]]),
                [[10**400, 0.0]], [[True, False]], "x",
            )),
            ([[0.0], [0.0, 1.0]], DimensionError),
        ],
    )
    @pytest.mark.parametrize("which", ["entity", "relation"])
    def test_embeddings_must_be_a_rectangular_array_of_reals(self, bad, error, which):
        args = {"entity": np.zeros((1, 2)), "relation": np.zeros((1, 2)), which: bad}
        with pytest.raises(error, match=f"{which} embeddings"):
            KGStore([0], args["entity"], args["relation"], [], [], [])

    def test_edge_relation_out_of_range_rejected(self):
        with pytest.raises(RelationRangeError):
            KGStore([], np.empty((0, 2)), np.zeros((1, 2)), [0], [1], [0])

    def test_entity_matrix_shape_checked(self):
        with pytest.raises(DimensionError):
            KGStore([0, 1], np.zeros((2, 3)), np.zeros((1, 2)), [], [], [])

    def test_tails_of_absent_head_empty(self):
        store = make_store(2, 1, [(0, 0, 1)], {0: [0.0, 0.0]}, [[0.0, 0.0]])
        assert store.edge_table(0).tails(777).tolist() == []

    def test_from_files_roundtrip(self, tmp_path):
        edges = tmp_path / "e.tsv"
        ents = tmp_path / "v.tsv"
        rels = tmp_path / "r.tsv"
        edges.write_text("0\t0\t1\n1\t1\t2\n", encoding="utf-8")
        ents.write_text("0\t1.0 0.0\n1\t0.0 1.0\n2\t0.5 0.5\n", encoding="utf-8")
        rels.write_text("0\t0.1 0.2\n1\t0.3 0.4\n", encoding="utf-8")
        store = KGStore.from_files(edges, ents, rels)
        assert store.dim == 2
        assert store.num_relations == 2
        assert store.edge_table(0).tails(0).tolist() == [1]
        assert store.entity_embedding(2).tolist() == [0.5, 0.5]
        assert store.relation_embedding(1).tolist() == [0.3, 0.4]


class TestImmutability:
    def test_caller_edits_never_reach_the_store(self):
        spec = GeneratorSpec(num_entities=60, num_persons=20, num_universities=20,
                             num_edges=80, seed=3, noise=0.01, plants=5)
        ds = generate(spec)
        store = ds.build_store()
        q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=5)
        before = oracle_three_hop(store, q)

        ds.entity_embeddings[ds.plant_ids] += 5.0
        ds.relation_embeddings += 1.0
        ds.tails[:] = 0
        optimized = three_hop_query(store, q, mode="optimized")
        assert optimized == three_hop_query(store, q, mode="simple")
        assert optimized == oracle_three_hop(store, q) == before

        table = store.edge_table(2)
        head = next(table.heads())
        writes = [
            lambda: store.entity_embedding(int(ds.plant_ids[0])).__setitem__(0, 0.0),
            lambda: store.relation_embeddings.__setitem__((0, 0), 0.0),
            lambda: store.relation_embedding(0).__setitem__(0, 0.0),
            lambda: table.tails(head).__setitem__(0, 0),
            lambda: extract_entities(table).ids.__setitem__(0, 0),
        ]
        for write in writes:
            with pytest.raises(ValueError):
                write()

    def test_a_sealed_store_and_its_tables_refuse_assignment(self):
        store = make_store(2, 2, [(1, 0, 2), (2, 1, 3)], {i: [float(i), 0.0] for i in range(4)},
                           [[0.0, 0.0], [1.0, 1.0]])
        table, other = store.edge_tables
        public = {obj: sorted(n for n in vars(obj) if not n.startswith("_"))
                  for obj in (store, table)}
        assert public == {store: ["dim", "edge_tables", "relation_embeddings"],
                          table: ["relation", "tail_set"]}
        for obj, names in public.items():
            for name in names:
                with pytest.raises(AttributeError, match="sealed"):
                    setattr(obj, name, getattr(other, name, None))
                with pytest.raises(AttributeError, match="sealed"):
                    delattr(obj, name)
        with pytest.raises(TypeError):
            store.edge_tables[0] = other
        assert store.edge_table(0) is table and table.relation == 0 and store.dim == 2
        assert store.edge_table(0).tails(1).tolist() == [2]


def first_line_error(loader, lines):
    with pytest.raises(ParseError) as info:
        loader(lines)
    assert info.value.line_no == 2
    return info.value


EDGE_LOADER = lambda lines: ingest_edges(lines, num_relations=2)  # noqa: E731
ENTITY_LOADER = lambda lines: load_entity_embeddings(lines, dim=2)  # noqa: E731
RELATION_LOADER = lambda lines: load_relation_embeddings(lines, dim=2, num_relations=2)  # noqa: E731
BAD_IDS = ["1_0", "+7", " 5", "5 ", "٣", "５", "-1", "", "0x1", "1e3", str(2**64),
           "9" * 5000]


class TestStrictGrammar:
    @pytest.mark.parametrize("bad", BAD_IDS)
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_edge_ids_are_ascii_digits(self, bad, field):
        parts = ["0", "1", "0"]
        parts[field] = bad
        first_line_error(EDGE_LOADER, ["0\t0\t1", "\t".join(parts)])

    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_embedding_ids_are_ascii_digits(self, bad):
        first_line_error(ENTITY_LOADER, ["0\t1 2", f"{bad}\t1 2"])
        first_line_error(RELATION_LOADER, ["0\t1 2", f"{bad}\t1 2"])

    @pytest.mark.parametrize("bad", ["1_0", "1.5_0", "١", "１.0", "1.0²", "0x1p3", "1,5"])
    def test_float_components_are_ascii_without_underscores(self, bad):
        first_line_error(ENTITY_LOADER, ["0\t1 2", f"1\t{bad} 2"])
        first_line_error(RELATION_LOADER, ["0\t1 2", f"1\t2 {bad}"])

    def test_id_range_ends_at_u64_max(self):
        ids, _ = load_entity_embeddings([f"{U64_MAX}\t1 2", "007\t1 2"], dim=2)
        assert ids.tolist() == [U64_MAX, 7]
        heads, _, _ = ingest_edges([f"{U64_MAX}\t0\t0"], num_relations=1)
        assert heads.tolist() == [U64_MAX]
        err = first_line_error(EDGE_LOADER, ["0\t0\t0", f"0\t0\t{U64_MAX + 1}"])
        assert "outside unsigned 64-bit range" in str(err)


def load_labels_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.tsv"
        path.write_text(text, encoding="utf-8")
        return load_labels(path)


def assert_valid_or_kghop_error(load, check):
    try:
        result = load()
    except ParseError as exc:
        assert isinstance(exc.line_no, int) and exc.line_no >= 1
        return
    except KghopError:
        return
    check(result)


def check_edges(result):
    heads, rels, tails = result
    assert len(heads) == len(rels) == len(tails)
    assert all(r < 2 for r in rels.tolist())


def check_entities(result):
    ids, matrix = result
    assert matrix.shape == (len(ids), 2)
    assert np.isfinite(matrix).all()
    assert len(set(ids.tolist())) == len(ids)


def check_relations(result):
    assert result.shape == (2, 2)
    assert np.isfinite(result).all()


def check_labels(result):
    assert all(isinstance(v, int) and 0 <= v <= U64_MAX for v in result.values())


GRAMMAR_TEXT = st.one_of(
    st.text(),
    st.text(alphabet="0123456789\t\n .e-+_naif٣"),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(-1, 2), st.integers(0, 2**65),
                  st.floats(), st.floats()),
        max_size=6,
    ).map(lambda rows: "\n".join(f"{a}\t{r}\t{b}" if b % 2 else f"{a}\t{x!r} {y!r}"
                                 for a, r, b, x, y in rows)),
)


class TestLoaderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(GRAMMAR_TEXT)
    def test_ingest_edges(self, text):
        assert_valid_or_kghop_error(
            lambda: ingest_edges(text.splitlines(keepends=True), 2), check_edges)

    @settings(max_examples=150, deadline=None)
    @given(GRAMMAR_TEXT)
    def test_load_entity_embeddings(self, text):
        assert_valid_or_kghop_error(
            lambda: load_entity_embeddings(text.splitlines(keepends=True), 2), check_entities)

    @settings(max_examples=150, deadline=None)
    @given(GRAMMAR_TEXT)
    def test_load_relation_embeddings(self, text):
        assert_valid_or_kghop_error(
            lambda: load_relation_embeddings(text.splitlines(keepends=True), 2, 2),
            check_relations)

    @settings(max_examples=100, deadline=None)
    @given(GRAMMAR_TEXT)
    def test_load_labels(self, text):
        assert_valid_or_kghop_error(lambda: load_labels_text(text), check_labels)
