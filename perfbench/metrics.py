"""What every benchmark metric means, in what unit, and what should move it.

BENCHMARK.json lists the metrics with the fields the benchmark contract
allows (name, unit, direction, bound). This table carries the rest: the
layer each metric measures, the end-to-end metric a change to that layer
should move, and the workloads on which it should or must not move.
`run.py` prints it beside the values, and the tests keep it in step with
BENCHMARK.json.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    layer: str
    moves: str
    on: str
    what: str


END_TO_END = [
    Metric("query_ms.p50", "ms", "end to end", "-", "all",
           "median wall latency of one query in the untraced timed loop"),
    Metric("query_ms.p90", "ms", "end to end", "-", "all",
           "nearest-rank 90th percentile; the loop runs >= 100 queries, so >= 10 lie beyond it"),
    Metric("queries_per_s", "1/s", "end to end", "-", "all",
           "correctly answered queries / summed wall time of the timed queries"),
    Metric("setup_s", "s", "kgstore", "-", "all",
           "median wall time of load_dataset_dir over the run's loads (text parse + seal)"),
    Metric("peak_rss_mb", "MB", "end to end", "-", "all",
           "peak resident memory of the benchmark process (getrusage ru_maxrss)"),
]

# Not in BENCHMARK.json, whose end-to-end metrics must never be 0: it is
# failed / attempted of the result line, printed in the report.
FAIL_RATIO = Metric("fail_ratio", "ratio", "end to end", "-", "all",
                    "queries that raised or failed the answer check / queries attempted")

PER_LAYER = [
    Metric("kgstore.parse_entities_s", "s", "kgstore", "setup_s", "all",
           "load_entity_embeddings, median over the run's loads"),
    Metric("kgstore.parse_edges_s", "s", "kgstore", "setup_s", "all",
           "ingest_edges, median over the run's loads"),
    Metric("kgstore.seal_s", "s", "kgstore", "setup_s, peak_rss_mb", "all",
           "KGStore.seal, median over the run's loads"),
    Metric("kgstore.extract_ms", "ms", "kgstore", "query_ms.p50",
           "query3-w1, query3-w2; none on pathq-w1",
           "extract_entities called from pipeline, summed per query"),
    Metric("kgstore.gather_calls", "count", "kgstore", "query_ms.p50", "pathq-w1",
           "KGStore.gather_entity_embeddings calls per query"),
    Metric("kgstore.gather_ms", "ms", "kgstore", "query_ms.p50", "query3-w1",
           "gather time per query, summed over worker threads"),
    Metric("pipeline.hop1_ms", "ms", "pipeline", "query_ms.p50, queries_per_s",
           "query3-w1, query3-w2", "hop-1 score_candidates_topk called from three_hop_query"),
    Metric("pipeline.hop2_ms", "ms", "pipeline", "query_ms.p50, queries_per_s",
           "query3-w1, query3-w2", "rescore_with_relation called from three_hop_query"),
    Metric("pipeline.hop3_ms", "ms", "pipeline", "query_ms.p50, queries_per_s",
           "query3-w1, query3-w2", "score_candidates_topk_many called from three_hop_query"),
    Metric("pipeline.uncovered_ms", "ms", "pipeline", "query_ms.p50", "query3-w1",
           "query span minus its three hop spans"),
    Metric("scoring.evals", "count", "scoring", "none: must stay fixed", "query3-w1, query3-w2",
           "candidates x composites offered to the score kernels per query"),
    Metric("scoring.hop3_ns_per_eval", "ns", "scoring", "query_ms.p50",
           "query3-w1; none on pathq-w1",
           "hop-3 self time (without gather, reduce, fork, barrier spans) / hop-3 evals"),
    Metric("topk.merges", "count", "topk", "query_ms.p90", "query3-w2 (not gated); ~0 at 1 worker",
           "selector_merge calls per query"),
    Metric("topk.reduce_ms", "ms", "topk", "query_ms.p90", "query3-w2 (not gated); ~0 at 1 worker",
           "reduce_topk_tree + locked_merge_reduce per query, summed over worker threads;"
           " the hop-3 matrix reduction runs inline in scoring and counts as hop-3 self time"),
    Metric("parallel.forks", "count", "parallel", "query_ms.p50", "query3-w2 (not gated)",
           "WorkerGang.run calls per query"),
    Metric("parallel.fork_ms", "ms", "parallel", "query_ms.p50", "query3-w2 (not gated)",
           "WorkerGang.run minus the region it runs on the calling thread: thread start + join wait"),
    Metric("parallel.barrier_wait_ms", "ms", "parallel", "query_ms.p90", "query3-w2 (not gated)",
           "time blocked in the gang barrier per query, summed over worker threads"),
    Metric("generic.expand_calls", "count", "generic", "query_ms.p50",
           "pathq-w1; none on query3-*", "expand_path calls per query"),
    Metric("generic.expand_ms", "ms", "generic", "query_ms.p50", "pathq-w1; none on query3-*",
           "expand_path self time (without gathers) per query"),
    Metric("generic.useful_expand_ratio", "ratio", "generic", "query_ms.p50", "pathq-w1",
           "expansions that add a child or offer a completed path / all expansions, whole run"),
    Metric("trace.overhead_frac", "ratio", "trace", "none: it is the cost of tracing", "all",
           "(traced - untraced median latency) / untraced, over the replayed queries"),
]
