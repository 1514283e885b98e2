"""Strong-scaling and mode-comparison benchmark harness.

Times the three-hop query end to end (multiHopReasoning) and per stage
(computeScorePerPerson, computeScoreBasedOnWorksInDL,
computeAffiliationScore), plus the generic path engine (genericMHR),
for each requested mode and worker count, as spans of a Trace. The
three-hop query and the generic engine each run in their own loop of
warmups, which are discarded, and repetitions, whose median is
reported, with speedup relative to the same mode and stage at one
worker.

Before any timing, the harness runs all three three-hop implementations
(optimized, simple, oracle) plus the generic engine against its oracle
once on the generated dataset and aborts if they disagree, so a timing
run can never report numbers for divergent code paths. Every record names
the kernel this process ran for the optimized scorer: `compiled`
(`_hop3.c`) or `numpy`, its fallback.
"""

from __future__ import annotations

import csv
import os
import statistics
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from . import _hop3
from .errors import ArgumentError, BenchError
from .generator import REL_AFFILIATION, REL_AWARD, REL_FIELD, GeneratorSpec, generate
from .generic import multihop_reasoning_generic
from .oracle import oracle_beam_paths, oracle_three_hop
from .pipeline import (
    MODES,
    STAGE_HOP1,
    STAGE_HOP2,
    STAGE_HOP3,
    STAGE_TOTAL,
    AffiliationResult,
    ThreeHopQuery,
    three_hop_query,
)
from .trace import Trace, span

STAGE_GENERIC = "genericMHR"
STAGES = (STAGE_TOTAL, STAGE_HOP1, STAGE_HOP2, STAGE_HOP3, STAGE_GENERIC)

CSV_HEADER = ["stage", "mode", "workers", "runtime_ms", "speedup", "kernel"]

MODES_AND_ORACLE = (*MODES, "oracle")

@dataclass(frozen=True)
class BenchSpec:
    """The generated dataset plus the benchmark grid."""

    dataset: GeneratorSpec = field(default_factory=GeneratorSpec)
    k: int = ThreeHopQuery.k
    gamma: float = ThreeHopQuery.gamma
    modes: tuple[str, ...] = MODES
    workers: tuple[int, ...] = (1, 2, 4, 8)
    repetitions: int = 5
    warmups: int = 1
    generic_hops: int = 3

    def __post_init__(self):
        if self.repetitions < 3:
            raise ArgumentError("repetitions must be >= 3 for a meaningful median")
        if self.warmups < 0:
            raise ArgumentError("warmups must be >= 0")
        if not self.workers or list(self.workers) != sorted(set(self.workers)):
            raise ArgumentError("worker counts must be ascending and unique")
        if self.workers[0] != 1:
            raise ArgumentError("worker counts must start at 1 (speedup baseline)")
        bad = [m for m in self.modes if m not in MODES_AND_ORACLE]
        if bad:
            raise ArgumentError(f"unknown modes {bad}")


def kernel_name() -> str:
    """The optimized scorer's kernel in this process: "compiled" or "numpy"."""
    return "numpy" if _hop3.load() is None else "compiled"


@dataclass
class BenchRecord:
    stage: str
    mode: str
    workers: int
    runtime_ms: float
    speedup: float
    kernel: str = field(default_factory=kernel_name)


def _results_match(a: AffiliationResult, b: AffiliationResult) -> bool:
    """Bit-exact equality: every field, every score, and the order of the affiliation keys."""
    return a == b and list(a.affiliations) == list(b.affiliations)


def _cross_check(store, query, source, target, hops, k, gamma, check_workers) -> None:
    reference = oracle_three_hop(store, query)
    for mode in ("optimized", "simple"):
        got = three_hop_query(store, query, mode=mode, workers=check_workers)
        if not _results_match(reference, got):
            raise BenchError(f"correctness cross-check failed: {mode} != oracle")
    engine_paths = multihop_reasoning_generic(
        store, source, target, hops, k, workers=check_workers, gamma=gamma
    )
    oracle_paths = oracle_beam_paths(store, source, target, hops, k, gamma=gamma)
    if engine_paths != oracle_paths:
        raise BenchError("correctness cross-check failed: generic engine != oracle")


def run_bench(
    spec: BenchSpec, csv_path: str | Path | None = None, echo: bool = False
) -> list[BenchRecord]:
    """Run the benchmark grid; returns records and optionally appends CSV."""
    hw = os.cpu_count() or 1
    if max(spec.workers) > hw:
        warnings.warn(
            f"requested {max(spec.workers)} workers on {hw} CPUs; "
            "running oversubscribed",
            stacklevel=2,
        )

    dataset = generate(spec.dataset)
    store = dataset.build_store()
    query = ThreeHopQuery(
        anchor1=dataset.award_anchor,
        rel1=REL_AWARD,
        anchor2=dataset.field_anchor,
        rel2=REL_FIELD,
        rel3=REL_AFFILIATION,
        k=spec.k,
        gamma=spec.gamma,
    )
    source = dataset.award_anchor
    target = int(dataset.university_ids[0])
    check_workers = min(4, max(spec.workers))
    _cross_check(
        store, query, source, target, spec.generic_hops, spec.k, spec.gamma, check_workers
    )

    records: list[BenchRecord] = []
    base_ms: dict[tuple[str, str], float] = {}

    for mode in spec.modes:
        worker_counts = (1,) if mode == "oracle" else spec.workers
        for w in worker_counts:

            def three_hop(trace: Trace) -> None:
                if mode == "oracle":
                    oracle_three_hop(store, query, trace=trace)
                else:
                    three_hop_query(store, query, mode=mode, workers=w, trace=trace)

            def generic(trace: Trace) -> None:
                with span(trace, STAGE_GENERIC):
                    if mode == "oracle":
                        oracle_beam_paths(
                            store, source, target, spec.generic_hops, spec.k, gamma=spec.gamma
                        )
                    else:
                        multihop_reasoning_generic(
                            store, source, target, spec.generic_hops, spec.k,
                            workers=w, gamma=spec.gamma, trace=trace,
                        )

            # Each engine warms up and repeats in its own loop, so no generic
            # sample runs right after a three-hop query's worker threads.
            samples: dict[str, list[float]] = {}
            for run_once in (three_hop,) if mode == "simple" else (three_hop, generic):
                for _ in range(spec.warmups):
                    run_once(Trace())
                for _ in range(spec.repetitions):
                    trace = Trace()
                    run_once(trace)
                    for s in trace.spans:
                        if s.name in STAGES:
                            samples.setdefault(s.name, []).append((s.end_ns - s.start_ns) / 1e6)

            for stage, values in samples.items():
                ms = statistics.median(values)
                key = (mode, stage)
                if w == 1:
                    base_ms[key] = ms
                speedup = base_ms[key] / ms if ms > 0 else float("inf")
                records.append(BenchRecord(stage, mode, w, ms, speedup))

    if csv_path is not None:
        write_csv(records, csv_path)
    if echo:
        print(format_table(records))
    return records


def write_csv(records: list[BenchRecord], path: str | Path) -> None:
    """Append records; the header is written only when the file is new/empty."""
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [r.stage, r.mode, r.workers, f"{r.runtime_ms:.6f}", f"{r.speedup:.6f}", r.kernel]
            )


def read_csv(path: str | Path) -> list[BenchRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            BenchRecord(
                row["stage"], row["mode"], int(row["workers"]),
                float(row["runtime_ms"]), float(row["speedup"]), row["kernel"],
            )
            for row in reader
        ]


def format_table(records: list[BenchRecord]) -> str:
    lines = [
        f"{'stage':<34} {'mode':<10} {'workers':>7} {'runtime_ms':>14} {'speedup':>9} kernel"
    ]
    for r in records:
        lines.append(
            f"{r.stage:<34} {r.mode:<10} {r.workers:>7d} {r.runtime_ms:>14.3f} {r.speedup:>9.2f}"
            f" {r.kernel}"
        )
    return "\n".join(lines)
