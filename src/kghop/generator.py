"""Seeded synthetic knowledge-graph generator.

Produces a desk-scale stand-in for a large academic KG with a fixed
relation schema:

  relation 0   award anchor -> person          (hop-1 candidate edges)
  relation 1   person -> field anchor          (hop-2 relation)
  relation 2   person -> university            (hop-3 candidate edges)
  relations 3+ random filler edges between arbitrary entities

Entity layout: id 0 is the award anchor (label TURING_AWARD), id 1 the
field anchor (label DEEP_LEARNING), then persons, then universities,
then unaffiliated filler entities. A configurable number of persons are
"planted": their embedding equals emb(anchor0) + emb(relation 0) plus
gaussian noise of scale sigma, so the expected hop-1 top-k is known by
construction (exactly known at sigma = 0). The plant list is written out
for tests.

Everything is a pure function of the spec (seed included): generating
twice yields byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, DuplicateIdError, ParseError
from .kgstore import TEXT, KGStore, parse_uint, require_count, require_real

AWARD_ANCHOR_LABEL = "TURING_AWARD"
FIELD_ANCHOR_LABEL = "DEEP_LEARNING"

REL_AWARD = 0
REL_FIELD = 1
REL_AFFILIATION = 2

DATASET_FILES = {
    "edges": "edges.tsv",
    "entities": "entity_embeddings.tsv",
    "relations": "relation_embeddings.tsv",
    "labels": "labels.tsv",
    "plants": "plants.tsv",
}


@dataclass(frozen=True)
class GeneratorSpec:
    num_entities: int = 12000
    num_persons: int = 2000
    num_universities: int = 5000
    num_edges: int = 12000
    num_relations: int = 3
    dim: int = 8
    seed: int = 42
    noise: float = 0.01
    plants: int = 10

    def __post_init__(self):
        for name in ("num_entities", "num_persons", "num_universities", "num_edges",
                     "num_relations", "dim"):
            require_count(getattr(self, name), name)
        require_count(self.seed, "seed", minimum=0)
        require_count(self.plants, "plants", minimum=0)
        require_real(self.noise, "noise")
        if self.num_relations < 3:
            raise ArgumentError("schema needs at least 3 relations")
        if self.num_persons + self.num_universities + 2 > self.num_entities:
            raise ArgumentError(
                f"{self.num_entities} entities cannot hold 2 anchors + "
                f"{self.num_persons} persons + {self.num_universities} universities"
            )
        if self.noise < 0:
            raise ArgumentError(f"noise must be a finite non-negative scale, got {self.noise}")
        if self.plants > self.num_persons:
            raise ArgumentError(f"plants must be in 0..num_persons, got {self.plants}")
        base = 2 * self.num_persons + self.num_universities
        if self.num_edges < base:
            raise ArgumentError(
                f"num_edges must cover the base schema ({base} edges), got {self.num_edges}"
            )


@dataclass
class SyntheticDataset:
    spec: GeneratorSpec
    heads: np.ndarray
    rels: np.ndarray
    tails: np.ndarray
    entity_embeddings: np.ndarray
    relation_embeddings: np.ndarray
    labels: dict[str, int]
    person_ids: np.ndarray
    university_ids: np.ndarray
    plant_ids: np.ndarray

    @property
    def award_anchor(self) -> int:
        return self.labels[AWARD_ANCHOR_LABEL]

    @property
    def field_anchor(self) -> int:
        return self.labels[FIELD_ANCHOR_LABEL]

    def build_store(self) -> KGStore:
        """KGStore directly from the in-memory arrays (no text round trip).

        The store copies the arrays, so later edits to the dataset do not
        reach it.
        """
        return KGStore(
            np.arange(self.spec.num_entities, dtype=np.uint64),
            self.entity_embeddings,
            self.relation_embeddings,
            self.heads,
            self.rels,
            self.tails,
        )

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        """Emit the dataset files; returns name -> path."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {name: out / fname for name, fname in DATASET_FILES.items()}

        with open(paths["edges"], "w", encoding="utf-8", newline="\n") as fh:
            for h, r, t in zip(self.heads.tolist(), self.rels.tolist(), self.tails.tolist()):
                fh.write(f"{h}\t{r}\t{t}\n")
        with open(paths["entities"], "w", encoding="utf-8", newline="\n") as fh:
            for eid in range(self.spec.num_entities):
                row = " ".join(repr(v) for v in self.entity_embeddings[eid].tolist())
                fh.write(f"{eid}\t{row}\n")
        with open(paths["relations"], "w", encoding="utf-8", newline="\n") as fh:
            for rid in range(self.spec.num_relations):
                row = " ".join(repr(v) for v in self.relation_embeddings[rid].tolist())
                fh.write(f"{rid}\t{row}\n")
        with open(paths["labels"], "w", encoding="utf-8", newline="\n") as fh:
            for label, eid in sorted(self.labels.items()):
                fh.write(f"{label}\t{eid}\n")
        with open(paths["plants"], "w", encoding="utf-8", newline="\n") as fh:
            for pid in self.plant_ids.tolist():
                fh.write(f"{pid}\n")
        return paths


def generate(spec: GeneratorSpec) -> SyntheticDataset:
    """Deterministically generate a dataset from the spec."""
    rng = np.random.default_rng(spec.seed)
    n_p, n_u = spec.num_persons, spec.num_universities
    persons = np.arange(2, 2 + n_p, dtype=np.uint64)
    universities = np.arange(2 + n_p, 2 + n_p + n_u, dtype=np.uint64)

    entity_embs = rng.normal(0.0, 1.0, (spec.num_entities, spec.dim))
    relation_embs = rng.normal(0.0, 1.0, (spec.num_relations, spec.dim))

    plant_ids = np.sort(persons[rng.choice(n_p, size=spec.plants, replace=False)])
    if spec.plants:
        noise = rng.normal(0.0, spec.noise, (spec.plants, spec.dim))
        entity_embs[plant_ids] = entity_embs[0] + relation_embs[REL_AWARD] + noise

    # Base schema: every person is a hop-1 candidate and linked to the
    # field anchor; every university has at least one affiliation edge.
    head_parts = [np.zeros(n_p, dtype=np.uint64), persons,
                  persons[rng.integers(0, n_p, n_u)]]
    rel_parts = [np.full(n_p, REL_AWARD, dtype=np.uint64),
                 np.full(n_p, REL_FIELD, dtype=np.uint64),
                 np.full(n_u, REL_AFFILIATION, dtype=np.uint64)]
    tail_parts = [persons, np.ones(n_p, dtype=np.uint64), universities]

    extras = spec.num_edges - (2 * n_p + n_u)
    extra_other = extras // 2 if spec.num_relations > 3 else 0
    extra_aff = extras - extra_other
    if extra_aff:
        head_parts.append(persons[rng.integers(0, n_p, extra_aff)])
        rel_parts.append(np.full(extra_aff, REL_AFFILIATION, dtype=np.uint64))
        tail_parts.append(universities[rng.integers(0, n_u, extra_aff)])
    if extra_other:
        head_parts.append(rng.integers(0, spec.num_entities, extra_other).astype(np.uint64))
        rel_parts.append(rng.integers(3, spec.num_relations, extra_other).astype(np.uint64))
        tail_parts.append(rng.integers(0, spec.num_entities, extra_other).astype(np.uint64))

    return SyntheticDataset(
        spec=spec,
        heads=np.concatenate(head_parts),
        rels=np.concatenate(rel_parts),
        tails=np.concatenate(tail_parts),
        entity_embeddings=entity_embs,
        relation_embeddings=relation_embs,
        labels={AWARD_ANCHOR_LABEL: 0, FIELD_ANCHOR_LABEL: 1},
        person_ids=persons,
        university_ids=universities,
        plant_ids=plant_ids,
    )


def load_labels(path: str | Path) -> dict[str, int]:
    """Parse a label<TAB>entity_id map file; a repeated label is an error."""
    labels: dict[str, int] = {}
    for i, raw in enumerate(Path(path).read_text(**TEXT).splitlines()):
        line = raw.strip()
        if not line:
            continue
        try:
            line.encode("utf-8")  # a label may be any text, so check it here
        except UnicodeEncodeError:
            raise ParseError(i + 1, "not valid UTF-8") from None
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(i + 1, f"expected label<TAB>id, got {line!r}")
        label = parts[0]
        if label in labels:
            raise DuplicateIdError(f"line {i + 1}: duplicate label {label!r}")
        labels[label] = parse_uint(parts[1], i + 1, "entity id")
    return labels


def load_dataset_dir(data_dir: str | Path) -> tuple[KGStore, dict[str, int]]:
    """Load a generated dataset directory into a store plus labels."""
    d = Path(data_dir)
    store = KGStore.from_files(
        d / DATASET_FILES["edges"],
        d / DATASET_FILES["entities"],
        d / DATASET_FILES["relations"],
    )
    labels_path = d / DATASET_FILES["labels"]
    labels = load_labels(labels_path) if labels_path.exists() else {}
    return store, labels
