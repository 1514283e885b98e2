"""Benchmark harness: spec validation, CSV emission, speedup bookkeeping."""

import os
import warnings
from unittest import mock

import numpy as np
import pytest

from kghop import _hop3
from kghop.bench import (
    CSV_HEADER,
    BenchRecord,
    BenchSpec,
    _results_match,
    format_table,
    kernel_name,
    read_csv,
    run_bench,
    write_csv,
)
from kghop.errors import ArgumentError
from kghop.generator import GeneratorSpec
from kghop.pipeline import AffiliationResult
from kghop.topk import ScoredEntity


def tiny_spec(**kw):
    defaults = dict(
        dataset=GeneratorSpec(
            num_entities=300, num_persons=60, num_universities=30, num_edges=220, seed=5
        ),
        k=10, workers=(1,), modes=("simple", "optimized"),
        repetitions=3, warmups=0,
    )
    defaults.update(kw)
    return BenchSpec(**defaults)


class TestSpecValidation:
    def test_too_few_repetitions(self):
        with pytest.raises(ArgumentError):
            tiny_spec(repetitions=2)

    def test_workers_must_ascend(self):
        with pytest.raises(ArgumentError):
            tiny_spec(workers=(1, 4, 2))

    def test_workers_must_start_at_one(self):
        with pytest.raises(ArgumentError):
            tiny_spec(workers=(2, 4))

    def test_unknown_mode(self):
        with pytest.raises(ArgumentError):
            tiny_spec(modes=("fast",))


class TestRunBench:
    def test_single_worker_speedups_are_one(self):
        records = run_bench(tiny_spec())
        assert records
        assert all(r.speedup == 1.0 for r in records)
        assert all(r.workers == 1 for r in records)

    def test_stage_and_mode_coverage(self):
        records = run_bench(tiny_spec(modes=("simple", "optimized", "oracle")))
        stages = {(r.mode, r.stage) for r in records}
        for mode in ("simple", "optimized", "oracle"):
            for stage in (
                "multiHopReasoning",
                "computeScorePerPerson",
                "computeScoreBasedOnWorksInDL",
                "computeAffiliationScore",
            ):
                assert (mode, stage) in stages
        assert ("optimized", "genericMHR") in stages
        assert ("oracle", "genericMHR") in stages
        assert ("simple", "genericMHR") not in stages
        assert {stage for _, stage in stages} == {
            "multiHopReasoning",
            "computeScorePerPerson",
            "computeScoreBasedOnWorksInDL",
            "computeAffiliationScore",
            "genericMHR",
        }

    def test_multi_worker_speedup_definition(self):
        records = run_bench(tiny_spec(workers=(1, 2)))
        base = {
            (r.mode, r.stage): r.runtime_ms for r in records if r.workers == 1
        }
        for r in records:
            if r.workers == 2:
                assert r.speedup == pytest.approx(base[(r.mode, r.stage)] / r.runtime_ms)

    def test_oversubscription_warns_but_runs(self):
        cpus = os.cpu_count() or 1
        spec = tiny_spec(workers=(1, cpus * 4), modes=("optimized",))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_bench(spec)
        assert any("oversubscribed" in str(w.message) for w in caught)
        assert any(r.workers == cpus * 4 for r in records)

    def test_generic_stage_is_timed_in_its_own_loop(self):
        # a generic sample timed right after a threaded hop 3 reads that hop's cost
        calls = []
        spec = tiny_spec(modes=("optimized",), workers=(1, 2), warmups=1)
        with mock.patch("kghop.bench._cross_check"), \
                mock.patch("kghop.bench.three_hop_query",
                           lambda *a, **kw: calls.append(("three_hop", kw["workers"]))), \
                mock.patch("kghop.bench.multihop_reasoning_generic",
                           lambda *a, **kw: calls.append(("generic", kw["workers"]))):
            run_bench(spec)
        runs = spec.warmups + spec.repetitions
        assert calls == [(engine, w) for w in (1, 2) for engine in ("three_hop", "generic")
                         for _ in range(runs)]

    def test_same_seed_same_grid(self):
        a = run_bench(tiny_spec())
        b = run_bench(tiny_spec())
        assert [(r.stage, r.mode, r.workers) for r in a] == [
            (r.stage, r.mode, r.workers) for r in b
        ]


def affiliation_result(ranked_score=0.5, hop1=(2, 1), affiliation_keys=(1, 2)):
    affiliations = {1: [ScoredEntity(10, 0.75), ScoredEntity(11, -1.0)], 2: []}
    return AffiliationResult(
        ranked_persons=[ScoredEntity(1, ranked_score), ScoredEntity(2, 0.25)],
        affiliations={pid: affiliations[pid] for pid in affiliation_keys},
        hop1_persons=[ScoredEntity(pid, 0.1 * pid) for pid in hop1],
    )


class TestCrossCheck:
    def test_identical_results_match(self):
        assert _results_match(affiliation_result(), affiliation_result())

    @pytest.mark.parametrize(
        "changed",
        [
            dict(ranked_score=np.nextafter(0.5, 1.0)),
            dict(hop1=(1, 2)),
            dict(affiliation_keys=(2, 1)),
        ],
        ids=["score-one-ulp", "hop1-reordered", "affiliation-keys-reordered"],
    )
    def test_any_difference_is_a_mismatch(self, changed):
        assert not _results_match(affiliation_result(), affiliation_result(**changed))


class TestCsv:
    def test_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "bench.csv"
        records = run_bench(tiny_spec(), csv_path=path)
        text = path.read_text().splitlines()
        assert text[0] == ",".join(CSV_HEADER)
        parsed = read_csv(path)
        assert len(parsed) == len(records)
        assert parsed[0].stage == records[0].stage
        assert parsed[0].runtime_ms == pytest.approx(records[0].runtime_ms, abs=1e-3)

    def test_append_keeps_single_header(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_csv([BenchRecord("s", "optimized", 1, 1.0, 1.0)], path)
        write_csv([BenchRecord("s", "optimized", 2, 0.5, 2.0)], path)
        lines = path.read_text().splitlines()
        assert lines.count(",".join(CSV_HEADER)) == 1
        assert len(read_csv(path)) == 2

    def test_every_record_and_row_names_the_kernel(self, tmp_path):
        path = tmp_path / "bench.csv"
        records = run_bench(tiny_spec(), csv_path=path)
        expected = "numpy" if _hop3.load() is None else "compiled"
        assert {r.kernel for r in records} == {expected} and kernel_name() == expected
        assert [r.kernel for r in read_csv(path)] == [expected] * len(records)
        assert format_table(records).splitlines()[1].endswith(f" {expected}")
        with mock.patch.object(_hop3, "load", lambda: None):
            assert BenchRecord("s", "optimized", 1, 1.0, 1.0).kernel == "numpy"

    def test_format_table_lists_every_record(self):
        records = [BenchRecord("stageA", "optimized", 1, 12.5, 1.0)]
        table = format_table(records)
        assert "stageA" in table and "12.5" in table
