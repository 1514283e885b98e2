"""Workloads, timed loop and answer checks of the kghop benchmark.

A run generates the paper-scale dataset from its seed with
kghop.generator and writes it as text files; kghop sees only those
files. Set-up is `load_dataset_dir` on them, repeated SETUP_LOADS times.
Then one client sends a stream of distinct queries in a closed loop: the
next query goes out when the previous answer is back. Every answer is
checked bit for bit outside the timed region, and a query that raises
or fails its check counts as failed without stopping the run.

A traced run measures half its time untraced, then replays the first
TRACED_QUERIES of those queries with span wrappers installed. The replay
must return identical answers, and the difference between the medians
of the replayed queries, traced and untraced, is the cost of tracing.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from itertools import chain
from math import ceil
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import kghop
from kghop import generator, generic, oracle, pipeline
from kghop.generator import REL_AFFILIATION, REL_AWARD, REL_FIELD, GeneratorSpec
from kghop.pipeline import ThreeHopQuery
from kghop.scoring import transe_score

import tracing
from metrics import PER_LAYER

SETUP_LOADS = 9
WARMUP_QUERIES = 2
# The nearest-rank p90 of n samples leaves n - ceil(0.9 n) samples beyond
# it, which is at least ten once n >= 100.
MIN_SAMPLES = 100
PATH_HOPS = 3
MAX_LOGGED_FAILURES = 5
# The traced replay covers at most this many queries: a pathq query
# records about 1,400 spans, and all of them stay in memory until the end.
TRACED_QUERIES = 200


@dataclass(frozen=True)
class Scale:
    """Dataset size and query parameters shared by every workload."""

    entities: int
    persons: int
    universities: int
    edges: int
    dim: int = 8
    noise: float = 0.01
    plants: int = 10
    k: int = 50
    gamma: float = 1.0

    def generator_spec(self, seed: int) -> GeneratorSpec:
        return GeneratorSpec(
            num_entities=self.entities, num_persons=self.persons,
            num_universities=self.universities, num_edges=self.edges,
            num_relations=3, dim=self.dim, seed=seed, noise=self.noise,
            plants=self.plants,
        )


PAPER = Scale(entities=43_000, persons=2_000, universities=40_000, edges=48_000)

# name -> (query kind, worker count); the worker count is capped at nproc.
# query3-w2 is runnable but not listed in BENCHMARK.json: on a shared
# 2-core host its run-to-run spread (p90 IQR/median up to 0.54 over ten
# seeds) is wider than any bound the benchmark may set.
WORKLOADS = {
    "query3-w1": ("query3", 1),
    "query3-w2": ("query3", 2),
    "pathq-w1": ("pathq", 1),
}


def _bits(x: float) -> str:
    return float(x).hex()


def _ranked_key(items) -> tuple:
    return tuple((e.entity, _bits(e.score)) for e in items)


def _tail_set(store, rel: int) -> set[int]:
    tails: set[int] = set()
    for _, ts in store.edge_table(rel).items():
        tails.update(ts.tolist())
    return tails


def _permuted_forever(pool: np.ndarray, rng: np.random.Generator):
    while True:
        yield from rng.permutation(pool).tolist()


class ThreeHop:
    """The award -> field -> affiliation query with varying anchors."""

    def __init__(self, store, ds, scale: Scale, workers: int):
        self.store, self.scale, self.workers = store, scale, workers
        self.persons = _tail_set(store, REL_AWARD)
        self.universities = _tail_set(store, REL_AFFILIATION)
        self.planted = self._query(ds.award_anchor, ds.field_anchor)
        self.leading = [self.planted]

    def _query(self, anchor1: int, anchor2: int) -> ThreeHopQuery:
        return ThreeHopQuery(anchor1, REL_AWARD, anchor2, REL_FIELD, REL_AFFILIATION,
                             k=self.scale.k, gamma=self.scale.gamma)

    def stream(self, rng: np.random.Generator):
        while True:
            a1, a2 = rng.integers(0, self.scale.entities, 2).tolist()
            yield self._query(a1, a2)

    def execute(self, q: ThreeHopQuery):
        return pipeline.three_hop_query(self.store, q, mode="optimized", workers=self.workers)

    def canonical(self, res) -> tuple:
        return (_ranked_key(res.hop1_persons), _ranked_key(res.ranked_persons),
                tuple((pid, _ranked_key(unis)) for pid, unis in res.affiliations.items()))

    def _composite(self, entity: int, rel: int) -> list[float]:
        emb = self.store.entity_embedding(entity).tolist()
        return [a + b for a, b in zip(emb, self.store.relation_embedding(rel).tolist())]

    def _check_ranked(self, what, items, length, allowed, composite) -> str | None:
        if len(items) != length:
            return f"{what}: {len(items)} entries, expected {length}"
        prev = None
        for item in items:
            key = (-item.score, item.entity)
            if prev is not None and not prev < key:
                return f"{what}: not ordered by (score desc, id asc) at {item.entity}"
            prev = key
            if item.entity not in allowed:
                return f"{what}: {item.entity} is not a candidate"
            want = transe_score(composite, self.store.entity_embedding(item.entity),
                                self.scale.gamma)
            if _bits(item.score) != _bits(want):
                return f"{what}: score of {item.entity} is {item.score!r}, recomputed {want!r}"
        return None

    def check(self, q: ThreeHopQuery, res) -> str | None:
        """Cheap bit-exact checks on every answer; the planted query also against the oracle."""
        k = q.k
        hop1_ids = {p.entity for p in res.hop1_persons}
        reason = (
            self._check_ranked("hop1", res.hop1_persons, min(k, len(self.persons)),
                               self.persons, self._composite(q.anchor1, q.rel1))
            or self._check_ranked("hop2", res.ranked_persons, len(res.hop1_persons),
                                  hop1_ids, self._composite(q.anchor2, q.rel2))
        )
        if reason:
            return reason
        ranked = [p.entity for p in res.ranked_persons]
        if list(res.affiliations) != ranked:
            return "affiliations are not keyed by the hop-2 ranking"
        for pid in ranked:
            reason = self._check_ranked(
                f"hop3 of {pid}", res.affiliations[pid], min(k, len(self.universities)),
                self.universities, self._composite(pid, q.rel3))
            if reason:
                return reason
        if q == self.planted and self.canonical(res) != self.canonical(
                oracle.oracle_three_hop(self.store, q)):
            return "planted query differs from oracle_three_hop"
        return None


class PathQuery:
    """The generic 3-hop beam search from the award anchor to a university."""

    leading: list = []

    def __init__(self, store, ds, scale: Scale, workers: int):
        self.store, self.scale, self.workers = store, scale, workers
        self.source = ds.award_anchor
        planted = np.isin(ds.heads, ds.plant_ids) & (ds.rels == REL_AFFILIATION)
        self.planted_targets = np.unique(ds.tails[planted])
        self.universities = ds.university_ids.copy()

    def stream(self, rng: np.random.Generator):
        """Alternate targets affiliated with planted persons (non-empty
        answers) and uniform universities (mostly empty answers)."""
        planted = _permuted_forever(self.planted_targets, rng)
        uniform = _permuted_forever(self.universities, rng)
        for pair in zip(planted, uniform):
            for target in pair:
                yield (self.source, int(target))

    def execute(self, q: tuple[int, int]):
        source, target = q
        return generic.multihop_reasoning_generic(
            self.store, source, target, PATH_HOPS, self.scale.k,
            workers=self.workers, gamma=self.scale.gamma)

    def canonical(self, paths) -> tuple:
        return tuple((sp.path.nodes, sp.path.relations, _bits(sp.score)) for sp in paths)

    def check(self, q: tuple[int, int], paths) -> str | None:
        source, target = q
        want = oracle.oracle_beam_paths(self.store, source, target, PATH_HOPS,
                                        self.scale.k, gamma=self.scale.gamma)
        if self.canonical(paths) != self.canonical(want):
            return f"paths to {target} differ from oracle_beam_paths"
        return None


@dataclass
class Phase:
    latencies_ns: list[int] = field(default_factory=list)
    queries: list = field(default_factory=list)
    digests: list[bytes] = field(default_factory=list)
    ok: int = 0
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def median_ms(self) -> float:
        return statistics.median(self.latencies_ns) / 1e6


def _digest(workload, answer) -> bytes:
    return hashlib.sha256(repr(workload.canonical(answer)).encode()).digest()


def _timed_loop(workload, queries, budget_ns: float, min_samples: int, *,
                keep_digests: bool = False, expected: list | None = None,
                recorder: tracing.Recorder | None = None) -> Phase:
    """Run queries back to back until their summed latency reaches the
    budget and at least min_samples ran (or the queries run out).

    Only the query call is timed. Answers are checked after the clock
    stops: by workload.check, or, when `expected` holds digests of an
    earlier phase, by comparing digests with it.
    """
    phase = Phase()
    total_ns = 0
    for i, q in enumerate(queries):
        if total_ns >= budget_ns and phase.attempted >= min_samples:
            break
        error = answer = None
        if recorder is not None:
            recorder.query_id = i
        t0 = perf_counter_ns()
        root = recorder.begin(tracing.ROOT) if recorder is not None else None
        try:
            answer = workload.execute(q)
        except Exception as exc:  # a failing query is counted, not fatal
            error = exc
        finally:
            if root is not None:
                recorder.end(root)
        t1 = perf_counter_ns()
        if recorder is not None:
            recorder.query_id = None
        phase.latencies_ns.append(t1 - t0)
        phase.queries.append(q)
        total_ns += t1 - t0

        reason = None
        if error is not None:
            reason = "raised " + "".join(traceback.format_exception(error)).strip()
        else:
            try:
                if expected is not None:
                    if _digest(workload, answer) != expected[i]:
                        reason = "traced answer differs from the untraced answer"
                else:
                    reason = workload.check(q, answer)
                    if keep_digests:
                        phase.digests.append(_digest(workload, answer))
            except Exception:  # a malformed answer fails its check
                reason = "check raised " + traceback.format_exc().strip()
        if reason is None:
            phase.ok += 1
        else:
            phase.failed += 1
            if keep_digests:
                phase.digests.append(b"")
            if phase.failed <= MAX_LOGGED_FAILURES:
                print(f"perfbench: query {i} {q!r} failed: {reason}", file=sys.stderr)
    return phase


def _setup(data_dir: Path, loads: int, recorder: tracing.Recorder | None):
    times, store = [], None
    for i in range(loads):
        store = None
        gc.collect()
        if recorder is not None:
            recorder.query_id = f"setup-{i}"
        t0 = perf_counter_ns()
        store, _labels = generator.load_dataset_dir(data_dir)
        times.append(perf_counter_ns() - t0)
    if recorder is not None:
        recorder.query_id = None
    return store, times


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str, int]]  # name -> (value, unit, samples)
    provenance: dict


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        scale: Scale = PAPER, out_dir: Path) -> Report:
    """Run one workload once; see the module docstring."""
    kind, wanted = WORKLOADS[workload]
    nproc = len(os.sched_getaffinity(0))
    workers = min(wanted, nproc)
    spec = scale.generator_spec(seed)
    recorder = tracing.Recorder() if trace else None

    out_dir.mkdir(parents=True, exist_ok=True)
    data_dir = Path(tempfile.mkdtemp(prefix="data-", dir=out_dir))
    try:
        ds = generator.generate(spec)
        ds.write(data_dir)
        with tracing.installed(recorder) if trace else nullcontext():
            store, setup_ns = _setup(data_dir, SETUP_LOADS, recorder)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    wl = (ThreeHop if kind == "query3" else PathQuery)(store, ds, scale, workers)
    del ds

    warm = _timed_loop(wl, wl.stream(np.random.default_rng([seed, 2])), 0, WARMUP_QUERIES)
    queries = chain(wl.leading, wl.stream(np.random.default_rng([seed, 1])))
    gc.collect()
    consistent = True
    if not trace:
        main = _timed_loop(wl, queries, seconds * 1e9, MIN_SAMPLES)
        phases = [warm, main]
        lat = sorted(main.latencies_ns)
        n = len(lat)
        metrics = {
            "query_ms.p50": (main.median_ms(), "ms", n),
            "query_ms.p90": (lat[ceil(0.9 * n) - 1] / 1e6, "ms", n),
            "queries_per_s": (main.ok / (sum(lat) / 1e9), "1/s", n),
            "setup_s": (statistics.median(setup_ns) / 1e9, "s", len(setup_ns)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }
    else:
        plain = _timed_loop(wl, queries, seconds * 1e9 / 2, 1, keep_digests=True)
        gc.collect()
        replay = plain.queries[:TRACED_QUERIES]
        with tracing.installed(recorder):
            traced = _timed_loop(wl, replay, 0, len(replay),
                                 expected=plain.digests, recorder=recorder)
        phases = [warm, plain, traced]
        tracing.write_tsv(recorder, out_dir / f"trace-{workload}.tsv")
        try:
            layers = tracing.layer_metrics(recorder, list(range(traced.attempted)),
                                           [f"setup-{i}" for i in range(SETUP_LOADS)])
        except tracing.ConsistencyError as exc:
            print(f"perfbench: trace inconsistent: {exc}", file=sys.stderr)
            consistent, layers = False, {}
        untraced_ms = statistics.median(plain.latencies_ns[:len(replay)]) / 1e6
        layers["trace.overhead_frac"] = (
            (traced.median_ms() - untraced_ms) / untraced_ms, traced.attempted)
        metrics = {m.name: (layers[m.name][0], m.unit, layers[m.name][1])
                   for m in PER_LAYER if m.name in layers}

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "dataset": asdict(spec), "k": scale.k, "gamma": scale.gamma,
        "path_hops": PATH_HOPS if kind == "pathq" else None,
        "workers": workers, "workers_wanted": wanted, "nproc": nproc,
        "setup_loads": SETUP_LOADS, "warmup_queries": WARMUP_QUERIES,
        "python": platform.python_version(), "numpy": np.__version__,
        "kghop": kghop.__version__, "machine": platform.machine(),
    }
    return Report(correct=failed == 0 and consistent, attempted=attempted, failed=failed,
                  metrics=metrics, provenance=provenance)
