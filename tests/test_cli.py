"""End-to-end CLI behavior through main(argv)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kghop
from kghop import cli
from kghop.bench import BenchSpec
from kghop.cli import main
from kghop.generator import DATASET_FILES, GeneratorSpec


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main([
        "gen", "--out", str(out), "--entities", "600", "--persons", "120",
        "--universities", "60", "--edges", "450", "--seed", "42", "--dim", "8",
    ])
    assert rc == 0
    return out


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGen:
    def test_writes_all_files(self, dataset_dir):
        for fname in DATASET_FILES.values():
            assert (dataset_dir / fname).exists()

    def test_regeneration_is_byte_identical(self, tmp_path, dataset_dir):
        rc = main([
            "gen", "--out", str(tmp_path), "--entities", "600", "--persons", "120",
            "--universities", "60", "--edges", "450", "--seed", "42", "--dim", "8",
        ])
        assert rc == 0
        for fname in DATASET_FILES.values():
            assert (tmp_path / fname).read_bytes() == (dataset_dir / fname).read_bytes()

    def test_inconsistent_spec_fails_nonzero(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, [
            "gen", "--out", str(tmp_path), "--entities", "10", "--persons", "120",
            "--universities", "60", "--edges", "450",
        ])
        assert rc == 1
        assert "error" in err


class TestQuery3:
    def test_prints_persons_and_affiliations(self, dataset_dir, capsys):
        rc, out, _ = run_cli(capsys, [
            "query3", "--data", str(dataset_dir), "--topk", "5", "--mode", "optimized",
        ])
        assert rc == 0
        lines = out.splitlines()
        person_lines = [ln for ln in lines if ln.count("\t") == 2]
        affil_lines = [ln for ln in lines if ln.count("\t") == 3]
        assert len(person_lines) == 5
        assert affil_lines

    def test_modes_print_identical_results(self, dataset_dir, capsys):
        outputs = {}
        for mode in ("simple", "optimized", "oracle"):
            rc, out, _ = run_cli(capsys, [
                "query3", "--data", str(dataset_dir), "--topk", "7",
                "--mode", mode, "--threads", "2",
            ])
            assert rc == 0
            outputs[mode] = out
        assert outputs["simple"] == outputs["optimized"] == outputs["oracle"]

    def test_repeat_invocation_deterministic(self, dataset_dir, capsys):
        args = ["query3", "--data", str(dataset_dir), "--topk", "4"]
        _, first, _ = run_cli(capsys, args)
        _, second, _ = run_cli(capsys, args)
        assert first == second

    def test_locked_merge_matches_tree(self, dataset_dir, capsys):
        base = ["query3", "--data", str(dataset_dir), "--topk", "6", "--threads", "3"]
        _, tree, _ = run_cli(capsys, base + ["--merge", "tree"])
        _, locked, _ = run_cli(capsys, base + ["--merge", "locked"])
        assert tree == locked

    def test_table_format(self, dataset_dir, capsys):
        rc, out, _ = run_cli(capsys, [
            "query3", "--data", str(dataset_dir), "--topk", "3", "--format", "table",
        ])
        assert rc == 0
        assert "rank" in out

    def test_unknown_label_fails_nonzero(self, dataset_dir, capsys):
        rc, _, err = run_cli(capsys, [
            "query3", "--data", str(dataset_dir), "--anchor1", "NOBEL_PRIZE",
        ])
        assert rc == 1
        assert "NOBEL_PRIZE" in err

    def test_labels_resolve(self, dataset_dir, capsys):
        by_label = ["query3", "--data", str(dataset_dir), "--topk", "3",
                    "--anchor1", "TURING_AWARD", "--anchor2", "DEEP_LEARNING"]
        by_id = ["query3", "--data", str(dataset_dir), "--topk", "3",
                 "--anchor1", "0", "--anchor2", "1"]
        _, out_label, _ = run_cli(capsys, by_label)
        _, out_id, _ = run_cli(capsys, by_id)
        assert out_label == out_id


class TestPathq:
    @pytest.fixture()
    def chain_dir(self, tmp_path):
        """Hand-written 4-node chain 0 -(r0)-> 1 -(r0)-> 2 -(r0)-> 3."""
        (tmp_path / "edges.tsv").write_text("0\t0\t1\n1\t0\t2\n2\t0\t3\n")
        (tmp_path / "entity_embeddings.tsv").write_text(
            "0\t0.0 0.0\n1\t1.0 0.5\n2\t2.0 1.0\n3\t3.0 1.5\n"
        )
        (tmp_path / "relation_embeddings.tsv").write_text("0\t1.0 0.5\n")
        return tmp_path

    def test_chain_fixture_prints_single_path(self, chain_dir, capsys):
        rc, out, _ = run_cli(capsys, [
            "pathq", "--data", str(chain_dir), "--source", "0", "--target", "3",
            "--hops", "3", "--topk", "2",
        ])
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 1
        score, path = lines[0].split("\t")
        assert path == "0,0,1,0,2,0,3"
        assert float(score) == 1.0  # chain embeddings follow the relation exactly

    def test_oracle_mode_agrees(self, chain_dir, capsys):
        base = ["pathq", "--data", str(chain_dir), "--source", "0", "--target", "3",
                "--hops", "3", "--topk", "2"]
        _, engine, _ = run_cli(capsys, base + ["--mode", "optimized"])
        _, oracle, _ = run_cli(capsys, base + ["--mode", "oracle"])
        assert engine == oracle

    def test_out_of_range_target_fails_cleanly(self, chain_dir, capsys):
        rc, out, err = run_cli(capsys, [
            "pathq", "--data", str(chain_dir), "--source", "0", "--target", "-1",
        ])
        assert rc == 1
        assert out == ""
        assert err.startswith("kghop: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["optimized", "oracle"])
    def test_huge_hops_fail_cleanly(self, chain_dir, capsys, mode):
        # the frontier capacity 50**99999 is rejected without being formed or printed
        rc, out, err = run_cli(capsys, [
            "pathq", "--data", str(chain_dir), "--source", "0", "--target", "3",
            "--hops", "100000", "--mode", mode,
        ])
        assert rc == 1
        assert out == ""
        assert err.startswith("kghop: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["+7", "+0", "\u0663", " 0 ", "1_0", str(2**64)])
    def test_source_outside_the_id_grammar_fails_cleanly(self, chain_dir, capsys, value):
        # not ASCII digits (or above 2**64 - 1) and not a label: no id is guessed
        rc, out, err = run_cli(capsys, [
            "pathq", "--data", str(chain_dir), "--source", value, "--target", "3",
        ])
        assert rc == 1
        assert out == ""
        assert err.startswith("kghop: error:")

    def test_simple_mode_rejected(self, chain_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "pathq", "--data", str(chain_dir), "--source", "0", "--target", "3",
                "--mode", "simple",
            ])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        rc, out, _ = run_cli(capsys, [
            "bench", "--entities", "300", "--persons", "60", "--universities", "30",
            "--edges", "220", "--topk", "10", "--workers", "1", "--reps", "3",
            "--warmups", "0", "--csv", str(csv_path),
        ])
        assert rc == 0
        assert "multiHopReasoning" in out
        assert csv_path.read_text().startswith("stage,mode,workers,runtime_ms,speedup")


# Every flag each subcommand declares, and so reads.
FLAGS = {
    "gen": {"--out", "--entities", "--persons", "--universities", "--edges", "--relations",
            "--dim", "--seed", "--noise", "--plants"},
    "query3": {"--data", "--anchor1", "--rel1", "--anchor2", "--rel2", "--rel3", "--threads",
               "--topk", "--gamma", "--mode", "--merge", "--format"},
    "pathq": {"--data", "--source", "--target", "--hops", "--topk", "--gamma", "--mode"},
    "bench": {"--entities", "--persons", "--universities", "--edges", "--relations", "--dim",
              "--seed", "--noise", "--plants", "--topk", "--gamma", "--workers", "--modes",
              "--reps", "--warmups", "--hops", "--csv"},
}

# The required arguments of each subcommand, so that a usage error can only be the flag tried.
REQUIRED = {
    "gen": ["--out", "x"],
    "query3": ["--data", "x"],
    "pathq": ["--data", "x", "--source", "0", "--target", "1"],
    "bench": [],
}

# Flags each subcommand once accepted and never read.
UNREAD = [
    ("gen", "--threads", "8"), ("gen", "--topk", "5"), ("gen", "--gamma", "2.0"),
    ("gen", "--mode", "simple"), ("gen", "--merge", "locked"),
    ("query3", "--dim", "16"), ("query3", "--seed", "7"),
    ("pathq", "--dim", "16"), ("pathq", "--seed", "7"), ("pathq", "--merge", "locked"),
    ("pathq", "--threads", "2"),
    ("bench", "--threads", "2"), ("bench", "--mode", "simple"), ("bench", "--merge", "locked"),
]


class TestFlags:
    def test_each_subcommand_declares_exactly_its_flags(self):
        subparsers = cli._build_parser()._subparsers._group_actions[0].choices
        declared = {
            name: {a.option_strings[-1] for a in sub._actions if a.dest != "help"}
            for name, sub in subparsers.items()
        }
        assert declared == FLAGS
        assert sum(map(len, declared.values())) == 46

    @pytest.mark.parametrize("command,flag,value", UNREAD, ids=[f"{c}{f}" for c, f, _ in UNREAD])
    def test_unread_flag_is_a_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED[command], flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_bench_defaults_build_the_default_spec(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_bench", lambda spec, **kw: seen.append(spec))
        assert main(["bench"]) == 0
        expected = BenchSpec(
            entities=12000, persons=2000, universities=5000, edges=12000, relations=3,
            dim=8, seed=42, noise=0.01, plants=10, k=50, gamma=1.0,
            modes=("simple", "optimized"), workers=(1, 2, 4, 8), repetitions=5, warmups=1,
            generic_hops=3,
        )
        assert seen == [expected] and BenchSpec() == expected

    def test_gen_defaults_build_the_default_spec(self, monkeypatch, tmp_path):
        seen = []
        tiny = GeneratorSpec(num_entities=60, num_persons=20, num_universities=20, num_edges=80)
        real = cli.generate
        monkeypatch.setattr(cli, "generate", lambda spec: seen.append(spec) or real(tiny))
        assert main(["gen", "--out", str(tmp_path)]) == 0
        assert seen == [GeneratorSpec()]
        assert GeneratorSpec() == GeneratorSpec(12000, 2000, 5000, 12000, 3, 8, 42, 0.01, 10)

    def test_query3_default_relations_are_the_generator_schema(self, dataset_dir, monkeypatch):
        seen = []
        real = cli.three_hop_query
        monkeypatch.setattr(
            cli, "three_hop_query", lambda store, q, **kw: seen.append(q) or real(store, q, **kw)
        )
        assert main(["query3", "--data", str(dataset_dir), "--topk", "3"]) == 0
        assert [(q.rel1, q.rel2, q.rel3) for q in seen] == [(0, 1, 2)]

    @pytest.mark.parametrize("value", ["a", "1,x", "2.5"])
    def test_bench_workers_not_integers_is_a_usage_error(self, value):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--workers", value])
        assert exc.value.code == 2


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["query3", "--data", "x", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_console_script_invocable(self, tmp_path):
        out = tmp_path / "d"
        # the child imports kghop from where this process found it
        src = str(Path(kghop.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "kghop.cli", "gen", "--out", str(out),
             "--entities", "120", "--persons", "20", "--universities", "10",
             "--edges", "60"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert (out / "edges.tsv").exists()
