"""Tests of the benchmark itself, at a tiny scale through the same code path.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kghop import generic, pipeline
from kghop.topk import ScoredEntity

import harness
import metrics
import tracing

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = harness.Scale(entities=400, persons=60, universities=300, edges=500, plants=5, k=10)


def _run(tmp_path, workload, trace=False, seed=5):
    return harness.run(workload, seed, 0.05, trace, scale=TINY, out_dir=tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_smoke_run_reports_every_metric(tmp_path, workload, trace):
    report = _run(tmp_path, workload, trace)
    assert report.correct and report.failed == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(report.metrics) == [m["name"] for m in listed]
    for m in listed:
        value, unit, samples = report.metrics[m["name"]]
        assert unit == m["unit"] and math.isfinite(value)
    if not trace:
        assert report.metrics["query_ms.p50"][2] >= harness.MIN_SAMPLES
        assert all(report.metrics[m["name"]][0] > 0 for m in listed)
    else:
        assert (tmp_path / f"trace-{workload}.tsv").is_file()
    assert report.provenance["seed"] == 5 and report.provenance["nproc"] >= 1


def test_traced_query3_counts_match_the_query_shape(tmp_path):
    report = _run(tmp_path, "query3-w1", trace=True)
    evals = TINY.persons + TINY.k + TINY.k * TINY.universities
    assert report.metrics["scoring.evals"][0] == evals
    assert report.metrics["kgstore.gather_calls"][0] == 3
    assert report.metrics["generic.expand_calls"][0] == 0


def test_injected_wrong_score_fails_the_run(tmp_path, monkeypatch):
    real = pipeline.three_hop_query
    calls = []

    def tampered(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 7:
            pid = res.ranked_persons[0].entity
            first = res.affiliations[pid][0]
            res.affiliations[pid][0] = ScoredEntity(first.entity, math.nextafter(first.score, 0))
        return res

    monkeypatch.setattr(pipeline, "three_hop_query", tampered)
    report = _run(tmp_path, "query3-w1")
    assert report.failed == 1 and not report.correct
    assert report.provenance["workload"] == "query3-w1"


def test_injected_wrong_path_fails_the_run(tmp_path, monkeypatch):
    real = generic.multihop_reasoning_generic

    def tampered(*args, **kwargs):
        return real(*args, **kwargs)[1:]

    monkeypatch.setattr(generic, "multihop_reasoning_generic", tampered)
    report = _run(tmp_path, "pathq-w1")
    assert report.failed > 0 and not report.correct


def test_raising_query_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    real = pipeline.three_hop_query
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 10:
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "three_hop_query", flaky)
    report = _run(tmp_path, "query3-w1")
    assert report.failed == 1 and report.attempted > harness.MIN_SAMPLES


def test_traced_answer_differing_from_untraced_fails(tmp_path, monkeypatch):
    real = pipeline.three_hop_query

    def differs_when_traced(*args, **kwargs):
        res = real(*args, **kwargs)
        if hasattr(pipeline.extract_entities, "__wrapped__"):
            res.hop1_persons.reverse()
        return res

    monkeypatch.setattr(pipeline, "three_hop_query", differs_when_traced)
    report = _run(tmp_path, "query3-w1", trace=True)
    assert report.failed > 0 and not report.correct


def test_missing_entry_point_fails_loudly(tmp_path, monkeypatch):
    monkeypatch.delattr(pipeline, "extract_entities")
    with pytest.raises(tracing.TraceError, match="extract_entities"):
        _run(tmp_path, "query3-w1", trace=True)


def test_untraced_run_installs_no_wrappers(tmp_path, monkeypatch):
    seen = []
    real = pipeline.three_hop_query

    def spy(*args, **kwargs):
        seen.append(hasattr(pipeline.score_candidates_topk, "__wrapped__"))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "three_hop_query", spy)
    _run(tmp_path, "query3-w1")
    assert seen and not any(seen)


def _span(rec, name, start, end, parent=None, thread=None, qid=0, count=0):
    span = [name, start, end, parent, qid, thread if thread is not None else rec.stack(), count]
    rec.spans.append(span)
    return span


def test_self_time_credits_worker_regions_to_the_caller():
    rec = tracing.Recorder()
    root = _span(rec, tracing.ROOT, 0, 100)
    hop3 = _span(rec, tracing.HOP3, 10, 90, root, count=1000)
    fork = _span(rec, tracing.FORK, 12, 88, hop3)
    region0 = _span(rec, tracing.REGION, 14, 80, fork)
    _span(rec, tracing.GATHER, 20, 30, region0)
    _span(rec, tracing.REGION, 15, 85, fork, thread=[])
    excl = tracing.exclusive_ns(rec.spans)
    assert excl[id(fork)] == (88 - 12) - (80 - 14)
    assert excl[id(hop3)] == (90 - 10) - (88 - 12) + (80 - 14 - 10) + (85 - 15)
    layers = tracing.layer_metrics(rec, [0], [])
    assert layers["pipeline.hop3_ms"][0] == 80 / 1e6
    assert layers["pipeline.uncovered_ms"][0] == 20 / 1e6
    assert layers["scoring.hop3_ns_per_eval"][0] == excl[id(hop3)] / 1000


def test_overlapping_hop_spans_are_inconsistent():
    rec = tracing.Recorder()
    root = _span(rec, tracing.ROOT, 0, 100)
    _span(rec, tracing.HOP1, 10, 50, root)
    _span(rec, tracing.HOP2, 40, 60, root)
    with pytest.raises(tracing.ConsistencyError):
        tracing.layer_metrics(rec, [0], [])


def test_benchmark_json_matches_the_metric_table():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(harness.WORKLOADS)
    for listed, table in ((BENCHMARK["end_to_end"], metrics.END_TO_END),
                          (BENCHMARK["per_layer"], metrics.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in listed] == [(m.name, m.unit) for m in table]
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query3-w1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
