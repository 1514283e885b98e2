"""Knowledge-graph storage: one immutable store of edge and embedding arrays.

A KGStore is built once, from arrays, and then only read. It copies
every array it is given, so later edits to the caller's arrays cannot
reach it, and every array it exposes is read-only. It holds:

  * the entity ids, sorted, and an (n, dim) entity-embedding matrix
    whose row i belongs to ids[i] (the only copy of each embedding);
  * the (num_relations, dim) relation-embedding matrix;
  * per relation, an EdgeTable in CSR form: tails sorted by (head,
    tail), a head -> tails-view index, and the cached head and tail sets;
  * a cache of the leaf layout (`_hop3.Layout`) of each candidate set a
    hop has scored, built on first use and kept while the set lives.

Scalar lookups (one entity's embedding, one head's tails) go through
dicts; the sorted arrays back the vectorized gather.

File formats (UTF-8, LF, no header):
  edge list:  head<TAB>relation<TAB>tail        ASCII decimal integers
  embeddings: id<TAB>v0 v1 ... v{dim-1}          components whitespace-separated floats
Ids are ASCII digits only (no sign, '_' or spaces) and at most 2**64-1.
Float components are ASCII without '_', and their magnitude is at most
component_limit(dim).
"""

from __future__ import annotations

import math
import sys
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import _hop3
from .errors import (
    ArgumentError,
    CompletenessError,
    DimensionError,
    DuplicateIdError,
    EmbeddingValueError,
    ParseError,
    QueryError,
    RelationRangeError,
    shown,
)
from .trace import Trace, span

U64_MAX = 2**64 - 1
# How dataset files are opened. An undecodable byte becomes a lone
# surrogate instead of raising UnicodeDecodeError, so it reaches the line
# grammar, which accepts only ASCII ids and floats and rejects it with a
# ParseError naming the line.
TEXT = {"encoding": "utf-8", "errors": "surrogateescape"}
_U64_DIGITS = len(str(U64_MAX))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


_EMPTY_U64 = _frozen(np.empty(0, dtype=np.uint64))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_id(value, what: str = "entity id") -> None:
    """QueryError unless value is an int or numpy integer, not a bool, in 0..2**64-1."""
    if not (_is_int(value) and 0 <= value <= U64_MAX):
        raise QueryError(f"{what} {shown(value)} is not an unsigned 64-bit integer")


def _require_int_key(value, what: str) -> None:
    """The id rule's type half, for scalar lookups: QueryError unless an int, not a bool.

    Lookups skip this call for an exact int: engines make thousands per query.
    """
    if not _is_int(value):
        raise QueryError(f"{what} {shown(value)} is not an unsigned 64-bit integer")


def require_count(value, name: str, minimum: int = 1) -> int:
    """int(value); ArgumentError unless value is an int or numpy integer, not a bool, >= minimum."""
    if not (_is_int(value) and value >= minimum):
        raise ArgumentError(f"{name} must be an integer >= {minimum}, got {shown(value)}")
    return int(value)


def require_real(value, name: str) -> float:
    """float(value); ArgumentError unless a finite float, or a non-bool int in the float range."""
    if isinstance(value, (float, np.floating)):
        finite = math.isfinite(value)
    else:
        finite = _is_int(value) and abs(value) <= sys.float_info.max
    if not finite:
        raise ArgumentError(f"{name} must be a finite real number, got {shown(value)}")
    return float(value)


def component_limit(dim: int) -> float:
    """The largest magnitude a store accepts for an embedding component: float max / (4 dim).

    Within it, an entity plus a relation (2x the limit) minus an entity
    (3x) summed over dim components stays below 3/4 of float max, so a
    three-hop score can overflow only where gamma minus that sum does.
    """
    return sys.float_info.max / (4 * dim)


def _within(matrix: np.ndarray, limit: float) -> bool:
    """True unless a component of matrix is NaN or beyond +-limit; no temporaries."""
    return matrix.size == 0 or bool(matrix.max() <= limit and matrix.min() >= -limit)


def _float_matrix(values, what: str) -> np.ndarray:
    """values as float64: DimensionError if ragged, EmbeddingValueError unless real numbers."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise DimensionError(f"{what} embeddings are not a rectangular array: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise EmbeddingValueError(f"{what} embeddings are not real numbers (dtype {arr.dtype})")
    return arr.astype(np.float64, copy=False)


def _u64_ids(ids, what: str = "entity id") -> np.ndarray:
    """ids as a uint64 array of the same shape; every id must pass require_id.

    An unsigned array passes unchanged, and a signed integer array is
    checked in one pass and cast. Anything else is checked per element,
    so ids above 2**63 are not rounded through float64.
    """
    if isinstance(ids, np.ndarray) and ids.dtype.kind == "u":
        return ids.astype(np.uint64, copy=False)
    if isinstance(ids, np.ndarray) and ids.dtype.kind == "i":
        flat = ids.ravel()
        if flat.size and flat.min() < 0:
            require_id(flat[np.argmax(flat < 0)].item(), what)
        return ids.astype(np.uint64)
    ids = np.asarray(ids, dtype=object)
    for v in ids.ravel().tolist():
        require_id(v, what)
    return ids.astype(np.uint64)


@dataclass(frozen=True, eq=False)
class EntitySet:
    """Deduplicated, ascending-sorted, read-only entity ids; each passes require_id.

    Equal and hashed by identity, so a set can key its cached layout.
    """

    ids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", _frozen(np.unique(_u64_ids(self.ids))))

    def __len__(self) -> int:
        return len(self.ids)

    def tolist(self) -> list[int]:
        return self.ids.tolist()


class EdgeTable:
    """Multi-map head -> tails of one relation, in CSR form.

    Tails are sorted by (head, tail), so the table is canonical whatever
    order the edges came in; duplicates are kept (the graph is a
    multigraph). tails(head) returns a read-only view into that array.
    """

    def __init__(self, relation: int, heads: np.ndarray, tails: np.ndarray):
        self.relation = relation
        order = np.lexsort((tails, heads))
        heads = heads[order]
        self._tails = _frozen(tails[order])
        uniq, starts = np.unique(heads, return_index=True)
        ends = np.append(starts[1:], len(heads))
        self._index: dict[int, np.ndarray] = {
            h: self._tails[lo:hi]
            for h, lo, hi in zip(uniq.tolist(), starts.tolist(), ends.tolist())
        }
        self.head_set = EntitySet(uniq)
        self.tail_set = EntitySet(self._tails)

    def tails(self, head: int) -> np.ndarray:
        """Sorted tails for head: empty if absent, QueryError unless an int (not a bool)."""
        if type(head) is not int:
            _require_int_key(head, "head id")
        return self._index.get(head, _EMPTY_U64)

    def heads(self) -> Iterator[int]:
        return iter(self._index.keys())

    def items(self) -> Iterator[tuple[int, np.ndarray]]:
        return iter(self._index.items())

    @property
    def num_edges(self) -> int:
        return len(self._tails)


def parse_uint(text: str, line_no: int, what: str) -> int:
    """An unsigned 64-bit id written as ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(line_no, f"invalid {what} {text!r}")
    if len(text) > _U64_DIGITS:
        text = text.lstrip("0") or "0"  # int() refuses strings of over 4300 digits
        if len(text) > _U64_DIGITS:
            raise ParseError(line_no, f"{what} of {len(text)} digits outside unsigned 64-bit range")
    value = int(text)
    if value > U64_MAX:
        raise ParseError(line_no, f"{what} {value} outside unsigned 64-bit range")
    return value


def _first_repeat(ids: np.ndarray) -> int | None:
    """Position of the earliest entry of ids that repeats an earlier one, or None."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    repeats = order[1:][sorted_ids[1:] == sorted_ids[:-1]]
    return int(repeats.min()) if len(repeats) else None


def ingest_edges(
    edge_stream: Iterable[str], num_relations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse edge lines into (heads, rels, tails) uint64 arrays, in file order.

    Blank lines are skipped (trailing newline). A malformed line raises
    ParseError with its 1-based line number; a relation id outside
    0..num_relations-1 raises RelationRangeError naming the line.
    """
    num_relations = require_count(num_relations, "num_relations", minimum=0)
    heads, rels, tails = array("Q"), array("Q"), array("Q")
    for line_no, raw in enumerate(edge_stream, 1):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(line_no, f"expected head<TAB>relation<TAB>tail, got {line!r}")
        head = parse_uint(parts[0], line_no, "head id")
        rel = parse_uint(parts[1], line_no, "relation id")
        tail = parse_uint(parts[2], line_no, "tail id")
        if rel >= num_relations:
            raise RelationRangeError(
                f"line {line_no}: relation {rel} out of range [0, {num_relations})"
            )
        heads.append(head)
        rels.append(rel)
        tails.append(tail)
    return tuple(np.frombuffer(buf, dtype=np.uint64) for buf in (heads, rels, tails))


def _parse_vectors(stream: Iterable[str], dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, (n, dim) matrix, line numbers) of id<TAB>components lines, in file order.

    The first component outside component_limit(dim), or NaN, raises
    EmbeddingValueError naming its line.
    """
    dim = require_count(dim, "dim")
    ids, values, line_nos = array("Q"), array("d"), array("Q")
    for line_no, raw in enumerate(stream, 1):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(line_no, f"expected id<TAB>components, got {line!r}")
        eid = parse_uint(parts[0], line_no, "id")
        comps = parts[1].split()
        if len(comps) != dim:
            raise DimensionError(f"line {line_no}: expected {dim} components, got {len(comps)}")
        if not parts[1].isascii() or "_" in parts[1]:
            raise ParseError(line_no, "invalid float component")
        try:
            values.extend(map(float, comps))
        except ValueError:
            raise ParseError(line_no, "invalid float component") from None
        ids.append(eid)
        line_nos.append(line_no)
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(ids), dim)
    limit = component_limit(dim)
    if not _within(matrix, limit):
        bad = ~(np.abs(matrix) <= limit)
        row = np.flatnonzero(bad.any(axis=1))[0]
        value = float(matrix[row][bad[row]][0])
        raise EmbeddingValueError(
            f"line {line_nos[row]}: component {value!r} is not within +-{limit!r}")
    return np.frombuffer(ids, dtype=np.uint64), matrix, np.frombuffer(line_nos, dtype=np.uint64)


def load_entity_embeddings(stream: Iterable[str], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse entity embedding lines into (ids, (n, dim) matrix), in file order.

    A repeated id raises DuplicateIdError naming the line of the repeat.
    """
    ids, matrix, line_nos = _parse_vectors(stream, dim)
    row = _first_repeat(ids)
    if row is not None:
        raise DuplicateIdError(f"line {line_nos[row]}: duplicate entity id {ids[row]}")
    return ids, matrix


def load_relation_embeddings(
    stream: Iterable[str], dim: int, num_relations: int
) -> np.ndarray:
    """Load the dense relation-embedding array; ids must cover 0..num_relations-1 exactly once."""
    num_relations = require_count(num_relations, "num_relations", minimum=0)
    ids, matrix, line_nos = _parse_vectors(stream, dim)
    out = np.zeros((num_relations, dim), dtype=np.float64)
    seen = np.zeros(num_relations, dtype=bool)
    for rid, line_no, vec in zip(ids.tolist(), line_nos.tolist(), matrix):
        if rid >= num_relations:
            raise CompletenessError(
                f"line {line_no}: relation id {rid} out of range [0, {num_relations})"
            )
        if seen[rid]:
            raise CompletenessError(f"line {line_no}: relation id {rid} repeated")
        seen[rid] = True
        out[rid] = vec
    if not seen.all():
        missing = np.flatnonzero(~seen)[:8].tolist()
        raise CompletenessError(f"missing relation ids {missing}")
    return out


def extract_entities(table: EdgeTable, side: str) -> EntitySet:
    """The cached deduplicated sorted ids of one side of an edge table."""
    if side == "head":
        return table.head_set
    if side == "tail":
        return table.tail_set
    raise ArgumentError(f"side must be 'head' or 'tail', got {side!r}")


class KGStore:
    """Relation-grouped edge tables plus entity and relation embeddings.

    Every way of building a store (text files, the synthetic generator,
    explicit arrays) ends here. The constructor runs seal(), which
    copies, sorts, indexes and freezes the inputs.
    """

    def __init__(
        self,
        entity_ids,
        entity_matrix,
        relation_embeddings,
        heads,
        rels,
        tails,
    ):
        self._inputs = (entity_ids, entity_matrix, relation_embeddings, heads, rels, tails)
        self.seal()

    def seal(self) -> None:
        """Validate, copy, sort, index and freeze the constructor's arrays.

        The constructor calls it; any later call does nothing.
        """
        if self._inputs is None:
            return
        entity_ids, entity_matrix, relation_embeddings, heads, rels, tails = self._inputs
        self._inputs = None

        rel_emb = _float_matrix(relation_embeddings, "relation").copy()
        if rel_emb.ndim != 2 or rel_emb.shape[1] < 1:
            raise DimensionError(
                f"relation embeddings must be (num_relations, dim >= 1), got {rel_emb.shape}"
            )
        self.dim = rel_emb.shape[1]
        self.relation_embeddings = _frozen(rel_emb)

        ids = _u64_ids(entity_ids)
        matrix = _float_matrix(entity_matrix, "entity")
        if ids.ndim != 1 or matrix.shape != (len(ids), self.dim):
            raise DimensionError(
                f"{ids.shape} entity ids need a ({len(ids)}, {self.dim}) matrix, got {matrix.shape}"
            )
        limit = component_limit(self.dim)
        for what, emb in (("entity", matrix), ("relation", rel_emb)):
            if not _within(emb, limit):
                raise EmbeddingValueError(
                    f"{what} embeddings hold a component not within +-{limit!r}")
        row = _first_repeat(ids)
        if row is not None:
            raise DuplicateIdError(f"duplicate entity id {ids[row]}")
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        self._ent_ids = _frozen(ids)
        self._ent_matrix = _frozen(matrix[order])
        self._rows = dict(zip(ids.tolist(), range(len(ids))))

        heads, rels, tails = (
            _u64_ids(a, what)
            for a, what in ((heads, "head id"), (rels, "relation id"), (tails, "tail id"))
        )
        if not (heads.ndim == rels.ndim == tails.ndim == 1 and len(heads) == len(rels) == len(tails)):
            raise ArgumentError("heads, rels and tails must be 1-D arrays of one length")
        if len(rels):
            self.require_relation(int(rels.max()))
        by_rel = np.argsort(rels, kind="stable")
        bounds = np.searchsorted(rels[by_rel], np.arange(self.num_relations + 1)).tolist()
        self.edge_tables = [
            EdgeTable(r, heads[by_rel[lo:hi]], tails[by_rel[lo:hi]])
            for r, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]
        # EntitySet -> _hop3.Layout; an entry goes when its set is freed.
        self._layouts = weakref.WeakKeyDictionary()

    @property
    def num_relations(self) -> int:
        return len(self.relation_embeddings)

    def require_relation(self, relation_id, name: str = "relation") -> None:
        """RelationRangeError unless relation_id is a non-bool integer in 0..num_relations-1."""
        if not (_is_int(relation_id) and 0 <= relation_id < self.num_relations):
            raise RelationRangeError(
                f"{name} {shown(relation_id)} is not a relation id in [0, {self.num_relations})"
            )

    def entity_embedding(self, entity_id: int) -> np.ndarray | None:
        """Read-only embedding row of entity_id, or None if it has none; the id must be an int."""
        if type(entity_id) is not int:
            _require_int_key(entity_id, "entity id")
        row = self._rows.get(entity_id)
        return None if row is None else self._ent_matrix[row]

    def relation_embedding(self, relation_id: int) -> np.ndarray:
        self.require_relation(relation_id)
        return self.relation_embeddings[relation_id]

    def edge_table(self, relation_id: int) -> EdgeTable:
        self.require_relation(relation_id)
        return self.edge_tables[relation_id]

    def _lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, found) of a uint64 id vector.

        rows[i] is the matrix row of ids[i] where found[i], and 0 or
        another entity's row elsewhere.
        """
        if self._ent_ids.size == 0:
            return np.zeros(len(ids), np.intp), np.zeros(len(ids), bool)
        rows = np.minimum(np.searchsorted(self._ent_ids, ids), len(self._ent_ids) - 1)
        return rows, self._ent_ids[rows] == ids

    def layout(self, candidates: EntitySet, trace: Trace | None = None) -> _hop3.Layout:
        """candidates as a leaf layout, built on first use and cached while the set lives.

        The store holds its own edge-table sets, so theirs last as long as
        the store. A build is timed as a `layout` span of trace. Concurrent
        first uses may each build one; they are equal.
        """
        built = self._layouts.get(candidates)
        if built is None:
            with span(trace, "layout"):
                built = _hop3.leaf_layout(self._ent_matrix, candidates.ids,
                                          *self._lookup(candidates.ids))
            self._layouts[candidates] = built
        return built

    def gather_entity_embeddings(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized embedding fetch for a 1-D array of ids, sorted or not.

        Each id must pass require_id (an unsigned array passes unchanged),
        and ids that are not 1-D raise ArgumentError. Returns (emb_t,
        found): emb_t is a fresh C-contiguous (dim, n) transposed block
        (missing ids get a zero row, masked out by found).
        """
        ids = _u64_ids(ids)
        if ids.ndim != 1:
            raise ArgumentError(f"ids to gather must be 1-D, got shape {ids.shape}")
        n = len(ids)
        if self._ent_ids.size == 0 or n == 0:
            return (
                np.zeros((self.dim, n), dtype=np.float64),
                np.zeros(n, dtype=bool),
            )
        idx_c, found = self._lookup(ids)
        rows = self._ent_matrix[np.where(found, idx_c, 0)]
        return np.ascontiguousarray(rows.T), found

    @classmethod
    def from_files(
        cls,
        edges_path: str | Path,
        entities_path: str | Path,
        relations_path: str | Path,
    ) -> "KGStore":
        """Load a store from the three text files.

        dim and num_relations are inferred from the relation-embedding
        file (line count and component count of the first line).
        """
        rel_lines = Path(relations_path).read_text(**TEXT).splitlines()
        content = [ln for ln in rel_lines if ln.strip()]
        if not content:
            raise CompletenessError("relation embedding file is empty")
        first = content[0].split("\t")
        if len(first) != 2:
            raise ParseError(1, f"expected id<TAB>components, got {content[0]!r}")
        dim = len(first[1].split())
        num_relations = len(content)
        relation_embeddings = load_relation_embeddings(rel_lines, dim, num_relations)
        with open(entities_path, **TEXT) as fh:
            ids, matrix = load_entity_embeddings(fh, dim)
        with open(edges_path, **TEXT) as fh:
            heads, rels, tails = ingest_edges(fh, num_relations)
        return cls(ids, matrix, relation_embeddings, heads, rels, tails)
