"""End-to-end CLI behavior through main(argv)."""

import subprocess
import sys

import pytest

from kghop.cli import main
from kghop.generator import DATASET_FILES


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
        rc, _, err = run_cli(capsys, [
            "pathq", "--data", str(chain_dir), "--source", "0", "--target", "3",
            "--mode", "simple",
        ])
        assert rc == 1
        assert "pathq" in err


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
        proc = subprocess.run(
            [sys.executable, "-m", "kghop.cli", "gen", "--out", str(out),
             "--entities", "120", "--persons", "20", "--universities", "10",
             "--edges", "60"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (out / "edges.tsv").exists()
