"""Synthetic dataset generator: determinism, plants, file round trips."""

import numpy as np
import pytest

from kghop.errors import ArgumentError, DuplicateIdError, ParseError
from kghop.generator import (
    DATASET_FILES,
    GeneratorSpec,
    generate,
    load_dataset_dir,
    load_labels,
)
from kghop.oracle import oracle_three_hop
from kghop.pipeline import ThreeHopQuery, three_hop_query


def small_spec(**kw):
    defaults = dict(
        num_entities=400, num_persons=80, num_universities=40,
        num_edges=320, dim=8, seed=42, noise=0.01, plants=10,
    )
    defaults.update(kw)
    return GeneratorSpec(**defaults)


# One appended line per dataset file, each with a byte sequence that is not UTF-8.
NOT_UTF8_LINES = {
    "edges": b"\xff\xfe\t0\t1\n",
    "entities": b"399\t" + b"0.5 " * 7 + b"0.\xff\n",
    "relations": b"\xff\t" + b"0 " * 7 + b"0\n",
    "labels": b"caf\xe9\t5\n",
}


class TestSpecValidation:
    def test_entities_must_hold_schema(self):
        with pytest.raises(ArgumentError):
            small_spec(num_entities=50, num_persons=40, num_universities=20)

    def test_edge_budget_must_cover_base(self):
        with pytest.raises(ArgumentError):
            small_spec(num_edges=10)

    def test_plants_bounded_by_persons(self):
        with pytest.raises(ArgumentError):
            small_spec(plants=81)

    def test_negative_noise_rejected(self):
        with pytest.raises(ArgumentError):
            small_spec(noise=-0.5)

    def test_needs_three_relations(self):
        with pytest.raises(ArgumentError):
            small_spec(num_relations=2)

    @pytest.mark.parametrize(
        "field",
        ["num_entities", "num_persons", "num_universities", "num_edges", "num_relations",
         "dim", "seed", "plants"],
    )
    @pytest.mark.parametrize("bad", [2.5, None, "8", True, np.float64(8.0)])
    def test_counts_are_non_bool_integers(self, field, bad):
        with pytest.raises(ArgumentError, match=field):
            small_spec(**{field: bad})

    @pytest.mark.parametrize("field", ["num_persons", "num_universities", "dim"])
    def test_counts_are_at_least_one(self, field):
        with pytest.raises(ArgumentError, match=field):
            small_spec(**{field: 0})

    def test_seed_and_plants_may_be_zero_but_not_negative(self):
        assert small_spec(seed=0, plants=0).plants == 0
        for field in ("seed", "plants"):
            with pytest.raises(ArgumentError, match=field):
                small_spec(**{field: -1})

    @pytest.mark.parametrize("bad", [None, "0.1", True, float("nan"), float("inf"), 10**400])
    def test_noise_is_a_finite_real(self, bad):
        with pytest.raises(ArgumentError, match="noise"):
            small_spec(noise=bad)


class TestDeterminism:
    def test_same_seed_same_arrays(self):
        a, b = generate(small_spec()), generate(small_spec())
        assert np.array_equal(a.heads, b.heads)
        assert np.array_equal(a.entity_embeddings, b.entity_embeddings)
        assert np.array_equal(a.plant_ids, b.plant_ids)

    def test_same_seed_byte_identical_files(self, tmp_path):
        generate(small_spec()).write(tmp_path / "one")
        generate(small_spec()).write(tmp_path / "two")
        for fname in DATASET_FILES.values():
            first = (tmp_path / "one" / fname).read_bytes()
            second = (tmp_path / "two" / fname).read_bytes()
            assert first == second, fname

    def test_different_seed_differs(self):
        a, b = generate(small_spec()), generate(small_spec(seed=43))
        assert not np.array_equal(a.entity_embeddings, b.entity_embeddings)


class TestSchema:
    def test_edge_count_matches_spec(self):
        ds = generate(small_spec())
        assert len(ds.heads) == ds.spec.num_edges

    def test_every_person_is_hop1_candidate(self):
        ds = generate(small_spec())
        store = ds.build_store()
        from kghop.kgstore import extract_entities

        persons = extract_entities(store.edge_table(0))
        assert persons.tolist() == ds.person_ids.tolist()

    def test_every_university_reachable(self):
        ds = generate(small_spec())
        store = ds.build_store()
        from kghop.kgstore import extract_entities

        unis = extract_entities(store.edge_table(2))
        assert unis.tolist() == ds.university_ids.tolist()

    def test_extra_relations_get_edges(self):
        ds = generate(small_spec(num_relations=5, num_edges=500))
        assert set(np.unique(ds.rels).tolist()) == {0, 1, 2, 3, 4}


class TestPlants:
    def test_zero_noise_plants_are_exact_topk(self):
        k = 12
        ds = generate(small_spec(noise=0.0, plants=k))
        store = ds.build_store()
        q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=k)
        result = three_hop_query(store, q, mode="optimized", workers=2)
        top = result.hop1_persons
        assert sorted(p.entity for p in top) == ds.plant_ids.tolist()
        assert all(p.score == q.gamma for p in top)

    def test_small_noise_plants_dominate_verified_by_oracle(self):
        ds = generate(small_spec(num_entities=2000, num_persons=400,
                                 num_universities=100, num_edges=1100,
                                 noise=0.01, plants=10))
        store = ds.build_store()
        q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=50)
        result = oracle_three_hop(store, q)
        top_ids = {p.entity for p in result.hop1_persons}
        assert set(ds.plant_ids.tolist()) <= top_ids


class TestRoundTrip:
    def test_files_load_back_to_identical_store(self, tmp_path):
        ds = generate(small_spec())
        ds.write(tmp_path)
        loaded, labels = load_dataset_dir(tmp_path)
        direct = ds.build_store()

        assert loaded.dim == direct.dim
        assert loaded.num_relations == direct.num_relations
        assert labels == ds.labels
        assert np.array_equal(loaded.relation_embeddings, direct.relation_embeddings)
        for eid in range(ds.spec.num_entities):
            assert np.array_equal(
                loaded.entity_embedding(eid), direct.entity_embedding(eid)
            ), eid
        for rel in range(ds.spec.num_relations):
            a = {h: t.tolist() for h, t in loaded.edge_table(rel).items()}
            b = {h: t.tolist() for h, t in direct.edge_table(rel).items()}
            assert a == b

    def test_query_results_identical_after_round_trip(self, tmp_path):
        ds = generate(small_spec())
        ds.write(tmp_path)
        loaded, _ = load_dataset_dir(tmp_path)
        q = ThreeHopQuery(ds.award_anchor, 0, ds.field_anchor, 1, 2, k=10)
        assert three_hop_query(loaded, q) == three_hop_query(ds.build_store(), q)

    def test_labels_file(self, tmp_path):
        ds = generate(small_spec())
        paths = ds.write(tmp_path)
        labels = load_labels(paths["labels"])
        assert labels == {"TURING_AWARD": 0, "DEEP_LEARNING": 1}

    def test_duplicate_label_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("A\t1\nA\t2\n", encoding="utf-8")
        with pytest.raises(DuplicateIdError, match="line 2: duplicate label 'A'"):
            load_labels(path)

    @pytest.mark.parametrize("bad", ["+1", " 1", "1_0", "٣", "-1", str(2**64)])
    def test_label_ids_use_the_strict_grammar(self, tmp_path, bad):
        path = tmp_path / "labels.tsv"
        path.write_text(f"A\t1\nB\t{bad}\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_labels(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("name", ["edges", "entities", "relations", "labels"])
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, tmp_path, name):
        paths = generate(small_spec()).write(tmp_path)
        lines = paths[name].read_bytes().count(b"\n")
        with open(paths[name], "ab") as fh:
            fh.write(NOT_UTF8_LINES[name])
        with pytest.raises(ParseError) as info:
            load_dataset_dir(tmp_path)
        assert info.value.line_no == lines + 1

    def test_plants_file_lists_planted_ids(self, tmp_path):
        ds = generate(small_spec())
        paths = ds.write(tmp_path)
        content = paths["plants"].read_text().split()
        assert [int(x) for x in content] == ds.plant_ids.tolist()
