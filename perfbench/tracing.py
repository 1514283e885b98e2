"""Span recording around kghop's public entry points, from outside the library.

`installed(recorder)` swaps module and class attributes of kghop for
wrappers that open a span on entry and close it on exit, and restores
the originals on leaving the block. Untraced runs never enter it, so
they execute the library unchanged.

A span is a list [name, start_ns, end_ns, parent_span, query_id,
thread, count]; thread is the recording thread's span stack, which
identifies the thread without a system call. Spans live in memory
until `write_tsv` dumps them.
Parent links follow the calling thread's stack of open spans; a worker
thread started by `WorkerGang.run` takes that run's span as its parent,
so every span of a query hangs off the query's root span.
"""

from __future__ import annotations

import functools
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from kghop import generic, kgstore, parallel, pipeline, scoring, topk

NAME, START, END, PARENT, QID, TID, COUNT = range(7)

ROOT = "query"
REGION = "parallel.region"
FORK = "parallel.run"
BARRIER = "parallel.barrier_wait"
HOP1 = "scoring.score_candidates_topk"
HOP2 = "pipeline.rescore_with_relation"
HOP3 = "scoring.score_candidates_topk_many"
EXTRACT = "kgstore.extract_entities"
GATHER = "kgstore.gather_entity_embeddings"
PARSE_ENTITIES = "kgstore.load_entity_embeddings"
PARSE_EDGES = "kgstore.ingest_edges"
SEAL = "kgstore.seal"
MERGE = "topk.selector_merge"
REDUCERS = ("topk.reduce_topk_tree", "topk.locked_merge_reduce")
EXPAND = "generic.expand_path"


class TraceError(RuntimeError):
    """The library no longer has an entry point the traced run wraps."""


class Recorder:
    """In-memory span store shared by every thread of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.query_id = None
        self._local = threading.local()

    def stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str, count: int = 0) -> list:
        stack = self.stack()
        span = [name, perf_counter_ns(), 0, stack[-1] if stack else None,
                self.query_id, stack, count]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self.stack().pop()

    def offers(self) -> int:
        return getattr(self._local, "offers", 0)

    def count_offer(self) -> None:
        self._local.offers = self.offers() + 1


class _TimedBarrier(threading.Barrier):
    def __init__(self, parties: int, recorder: Recorder):
        super().__init__(parties)
        self._recorder = recorder

    def wait(self, timeout=None):
        span = self._recorder.begin(BARRIER)
        try:
            return super().wait(timeout)
        finally:
            self._recorder.end(span)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _spanned(rec: Recorder, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name, count(args, kwargs) if count else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(span)

    return wrapper


def _wrap_gang_run(rec: Recorder, run):
    @functools.wraps(run)
    def wrapper(gang, fn):
        fork = rec.begin(FORK)

        def region(wid: int) -> None:
            stack = rec.stack()
            adopt = not stack or stack[-1] is not fork
            if adopt:
                stack.append(fork)
            span = rec.begin(REGION)
            try:
                fn(wid)
            finally:
                rec.end(span)
                if adopt:
                    stack.pop()

        try:
            return run(gang, region)
        finally:
            rec.end(fork)

    return wrapper


def _wrap_gang_init(rec: Recorder, init):
    @functools.wraps(init)
    def wrapper(gang, workers):
        init(gang, workers)
        if not isinstance(getattr(gang, "barrier", None), threading.Barrier):
            raise TraceError("WorkerGang no longer exposes a threading.Barrier as .barrier")
        gang.barrier = _TimedBarrier(gang.workers, rec)

    return wrapper


def _wrap_offer(rec: Recorder, offer):
    @functools.wraps(offer)
    def wrapper(self, item):
        rec.count_offer()
        return offer(self, item)

    return wrapper


def _wrap_expand(rec: Recorder, expand):
    @functools.wraps(expand)
    def wrapper(*args, **kwargs):
        frontier = _arg(args, kwargs, 1, "next_frontier")
        children, offers = len(frontier), rec.offers()
        span = rec.begin(EXPAND)
        try:
            return expand(*args, **kwargs)
        finally:
            rec.end(span)
            span[COUNT] = int(len(frontier) > children or rec.offers() > offers)

    return wrapper


def _candidates(args, kwargs) -> int:
    return len(_arg(args, kwargs, 1, "candidates"))


def _candidates_times_composites(args, kwargs) -> int:
    composites = _arg(args, kwargs, 0, "composites")
    return _candidates(args, kwargs) * sum(c is not None for c in composites)


def _targets(rec: Recorder) -> list[tuple]:
    """(owner, attribute, wrapper factory) for every wrapped entry point.

    Functions are wrapped where their callers look them up: pipeline
    imports the scoring kernels and extract_entities by name, scoring
    imports the reduction collectives, and KGStore.from_files calls the
    loaders through the kgstore module.
    """
    def spanned(name, count=None):
        return lambda fn: _spanned(rec, name, fn, count)

    return [
        (kgstore, "load_entity_embeddings", spanned(PARSE_ENTITIES)),
        (kgstore, "ingest_edges", spanned(PARSE_EDGES)),
        (kgstore.KGStore, "seal", spanned(SEAL)),
        (kgstore.KGStore, "gather_entity_embeddings", spanned(GATHER)),
        (pipeline, "extract_entities", spanned(EXTRACT)),
        (pipeline, "score_candidates_topk", spanned(HOP1, _candidates)),
        (pipeline, "rescore_with_relation", spanned(HOP2)),
        (pipeline, "score_candidates_topk_many",
         spanned(HOP3, _candidates_times_composites)),
        (topk, "selector_merge", spanned(MERGE)),
        (scoring, "reduce_topk_tree", spanned(REDUCERS[0])),
        (scoring, "locked_merge_reduce", spanned(REDUCERS[1])),
        (parallel.WorkerGang, "run", lambda fn: _wrap_gang_run(rec, fn)),
        (parallel.WorkerGang, "__init__", lambda fn: _wrap_gang_init(rec, fn)),
        (generic, "expand_path", lambda fn: _wrap_expand(rec, fn)),
        (generic.SharedResults, "offer", lambda fn: _wrap_offer(rec, fn)),
    ]


@contextmanager
def installed(rec: Recorder):
    """Wrap every entry point for the duration of the block.

    Raises TraceError naming each entry point that no longer exists,
    before anything is wrapped, so no metric silently disappears.
    """
    targets = _targets(rec)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if not callable(getattr(owner, attr, None))]
    if missing:
        raise TraceError(f"wrapped entry points no longer exist: {', '.join(missing)}")
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, make in targets:
            setattr(owner, attr, make(getattr(owner, attr)))
        yield rec
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def _dur(span) -> int:
    return span[END] - span[START]


def exclusive_ns(spans: list[list]) -> dict[int, int]:
    """Self time of each span, keyed by id(span).

    A span's self time is its duration minus the time its child spans on
    the same thread cover. A worker region is bookkeeping, not a layer:
    its self time is credited to the span that called WorkerGang.run, so
    a scoring kernel running inside a gang keeps its compute time, and
    the run span keeps only thread start and join wait.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        parent = span[PARENT]
        if parent is not None and parent[TID] is span[TID]:
            child_ns[id(parent)] += _dur(span)
    excl: dict[int, int] = defaultdict(int)
    for span in spans:
        owner = span
        if span[NAME] == REGION:
            owner = span[PARENT][PARENT]
            if owner is None:
                continue
        excl[id(owner)] += _dur(span) - child_ns[id(span)]
    return excl


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class ConsistencyError(RuntimeError):
    """Layer spans of a query do not add up to the query's span."""


def layer_metrics(rec: Recorder, query_ids: list, setup_ids: list) -> dict[str, tuple[float, int]]:
    """Per-layer metrics as name -> (value, samples).

    Query metrics are per-query medians over `query_ids`; load metrics
    are medians over the traced loads in `setup_ids`.
    uncovered is the root span minus its hop spans; that hop1 + hop2 +
    hop3 + uncovered equals the query's span therefore holds exactly when
    the hop spans lie inside the root span without overlapping, which is
    checked: a violation raises ConsistencyError.
    """
    excl = exclusive_ns(rec.spans)
    by_qid: dict = defaultdict(list)
    for span in rec.spans:
        by_qid[span[QID]].append(span)

    per_query: dict[str, list[float]] = defaultdict(list)
    expand_calls = useful = 0
    for qid in query_ids:
        spans = by_qid[qid]
        roots = [s for s in spans if s[NAME] == ROOT]
        if len(roots) != 1:
            raise ConsistencyError(f"query {qid}: expected one root span, got {len(roots)}")
        root = roots[0]
        names: dict[str, list] = defaultdict(list)
        for s in spans:
            names[s[NAME]].append(s)
        hops = {name: [s for s in names[name] if s[PARENT] is root]
                for name in (HOP1, HOP2, HOP3)}
        covered = sorted((s for group in hops.values() for s in group), key=lambda s: s[START])
        edge = root[START]
        for s in covered:
            if s[START] < edge or s[END] > root[END]:
                raise ConsistencyError(f"query {qid}: hop span {s[NAME]} overlaps or leaves the query")
            edge = s[END]
        hop_ns = {name: sum(map(_dur, group)) for name, group in hops.items()}
        uncovered = _dur(root) - sum(hop_ns.values())
        hop3 = hops[HOP3]
        hop3_evals = sum(s[COUNT] for s in hop3)
        expands = names[EXPAND]
        expand_calls += len(expands)
        useful += sum(s[COUNT] for s in expands)

        per_query["kgstore.extract_ms"].append(sum(map(_dur, names[EXTRACT])) / 1e6)
        per_query["kgstore.gather_calls"].append(len(names[GATHER]))
        per_query["kgstore.gather_ms"].append(sum(map(_dur, names[GATHER])) / 1e6)
        per_query["pipeline.hop1_ms"].append(hop_ns[HOP1] / 1e6)
        per_query["pipeline.hop2_ms"].append(hop_ns[HOP2] / 1e6)
        per_query["pipeline.hop3_ms"].append(hop_ns[HOP3] / 1e6)
        per_query["pipeline.uncovered_ms"].append(uncovered / 1e6 if covered else 0.0)
        per_query["scoring.evals"].append(sum(s[COUNT] for s in names[HOP1] + names[HOP3]))
        per_query["scoring.hop3_ns_per_eval"].append(
            sum(excl[id(s)] for s in hop3) / hop3_evals if hop3_evals else 0.0)
        per_query["topk.merges"].append(len(names[MERGE]))
        per_query["topk.reduce_ms"].append(sum(_dur(s) for r in REDUCERS for s in names[r]) / 1e6)
        per_query["parallel.forks"].append(len(names[FORK]))
        per_query["parallel.fork_ms"].append(sum(excl[id(s)] for s in names[FORK]) / 1e6)
        per_query["parallel.barrier_wait_ms"].append(sum(map(_dur, names[BARRIER])) / 1e6)
        per_query["generic.expand_calls"].append(len(expands))
        per_query["generic.expand_ms"].append(sum(excl[id(s)] for s in expands) / 1e6)

    out = {name: (_median(values), len(values)) for name, values in per_query.items()}
    out["generic.useful_expand_ratio"] = (useful / expand_calls if expand_calls else 0.0,
                                          expand_calls)
    for metric, span_name in (("kgstore.parse_entities_s", PARSE_ENTITIES),
                              ("kgstore.parse_edges_s", PARSE_EDGES),
                              ("kgstore.seal_s", SEAL)):
        loads = [sum(_dur(s) for s in by_qid[sid] if s[NAME] == span_name) / 1e9
                 for sid in setup_ids]
        out[metric] = (_median(loads), len(loads))
    return out


def write_tsv(rec: Recorder, path: Path) -> None:
    """Dump every span, one per line, parents referenced by line index."""
    index = {id(span): i for i, span in enumerate(rec.spans)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span\tparent\tquery\tthread\tname\tstart_ns\tend_ns\tcount\n")
        for i, s in enumerate(rec.spans):
            parent = "" if s[PARENT] is None else index[id(s[PARENT])]
            qid = "" if s[QID] is None else s[QID]
            fh.write(f"{i}\t{parent}\t{qid}\t{id(s[TID])}\t{s[NAME]}\t{s[START]}\t{s[END]}\t{s[COUNT]}\n")
