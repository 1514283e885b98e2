"""Parallel multi-hop reasoning over knowledge graphs.

Answers chained relational top-K queries with TransE-style embedding
scores: a fixed three-hop affiliation pipeline in naive and optimized
parallel variants, a generic N-hop beam engine, sequential oracles, a
seeded synthetic dataset generator, and a scaling benchmark harness.
"""

from .bench import BenchRecord, BenchSpec, run_bench
from .errors import KghopError
from .generator import GeneratorSpec, SyntheticDataset, generate, load_dataset_dir
from .generic import (
    Path,
    ScoredPath,
    expand_path,
    multihop_reasoning_generic,
    total_frontier_capacity,
)
from .kgstore import (
    EdgeTable,
    EntitySet,
    KGStore,
    extract_entities,
    ingest_edges,
    load_entity_embeddings,
    load_relation_embeddings,
)
from .oracle import oracle_beam_paths, oracle_three_hop, oracle_topk
from .pipeline import (
    AffiliationResult,
    ThreeHopQuery,
    rescore_with_relation,
    three_hop_query,
)
from .scoring import (
    embedding_aggregation,
    score_candidates_topk,
    transe_score,
)
from .topk import (
    ScoredEntity,
    TopKSelector,
    locked_merge_reduce,
    reduce_selectors,
    reduce_topk_tree,
    selector_merge,
)

__version__ = "0.1.0"
