"""Command line behavior: reports, exit codes, config files, determinism."""

import io
import json

import pytest

from kklab import cli
from kklab.cli import load_graph, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == "kklab/1"
    return doc


class TestReports:
    def test_cycle_count_on_k4(self, capsys, tmp_path):
        path = tmp_path / "host.g6"
        path.write_text("C~\n")
        doc = run_json(capsys, "count", "--graph", str(path), "--family", "cycle", "--param", "4")
        assert doc["count"] == "3"

    def test_qmin_triangle_edge_list(self, capsys, tmp_path):
        path = tmp_path / "triangle.el"
        path.write_text("0 1\n1 2\n2 0\n")
        doc = run_json(capsys, "qmin", "--graph", str(path), "--n", "10")
        assert doc["base_pair"] == ["120", 3]
        assert doc["enclosure"][0].startswith("0.202740")

    def test_props_all_pass(self, capsys):
        doc = run_json(capsys, "verify", "props", "--graph", "K3", "--n", "10", "--q", "1/4")
        assert doc["all_pass"] is True
        assert len(doc["reports"]) == 5

    def test_named_pattern_tokens(self, capsys):
        assert run_json(capsys, "aut", "--graph", "petersen")["aut"] == "120"
        assert run_json(capsys, "density", "--graph", "bowtie")["density"] == "6/5"

    def test_pattern_count(self, capsys):
        doc = run_json(capsys, "count", "--graph", "K5", "--pattern", "K3")
        assert doc["count"] == "10"

    def test_labeled_count(self, capsys):
        doc = run_json(capsys, "count", "--graph", "K3", "--pattern", "P2", "--labeled")
        assert doc["count"] == "6"

    def test_expect_via_l_times_q(self, capsys):
        doc = run_json(
            capsys, "expect", "--pattern", "K3", "--n", "10",
            "--q", "root:120:3", "--L", "2",
        )
        assert doc["expectation"] == "8"

    def test_sparse_check_witness(self, capsys):
        doc = run_json(capsys, "sparse-check", "--graph", "K3", "--n", "10", "--q", "1/10")
        assert doc["sparse"] is False
        assert doc["witness_edges"] == [[0, 1], [0, 2], [1, 2]]
        assert doc["expectation"] == "3/25"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "aut", "--graph", "K4", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["aut"] == "24"

    def test_text_format_flattens(self, capsys):
        code, out, _ = run(capsys, "density", "--graph", "K4", "--format", "text")
        assert code == 0
        assert "density = 6/4" in out
        assert "witness[3] = 3" in out

    def test_csv_trace(self, capsys):
        code, out, _ = run(
            capsys, "pc", "--pattern", "P1", "--n", "3", "--trials", "100",
            "--seed", "1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "probe,p,successes,trials,wilson_low,wilson_high"

    def test_csv_unavailable_elsewhere(self, capsys):
        code, _, err = run(capsys, "aut", "--graph", "K3", "--format", "csv")
        assert code == 1 and "csv" in err


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "aut", "--graph", "K3", "--mystery")
        assert code == 1 and err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "density", "--graph", "/nonexistent/h.g6")
        assert code == 1 and "cannot read graph" in err

    def test_malformed_graph(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("totally not a graph @@@\n")
        code, _, err = run(capsys, "density", "--graph", str(path))
        assert code == 1 and "malformed" in err

    def test_precondition_violation_prints_witness(self, capsys):
        code, _, err = run(capsys, "verify", "props", "--graph", "K4", "--n", "4", "--q", "1/100")
        assert code == 2
        assert "witness" in err

    def test_resource_guard(self, capsys):
        code, _, err = run(capsys, "qmin", "--graph", "petersen", "--n", "50", "--edge-cap", "10")
        assert code == 3 and "resource guard" in err

    def test_bad_value_token(self, capsys):
        assert run(capsys, "sparse-check", "--graph", "K3", "--n", "10", "--q", "root:120")[0] == 1

    def test_expect_requires_one_probability(self, capsys):
        code, _, err = run(capsys, "expect", "--pattern", "K3", "--n", "10", "--p", "1/4", "--L", "2")
        assert code == 1 and "exactly one" in err

    def test_precision_floor(self, capsys):
        assert run(capsys, "qmin", "--graph", "K3", "--n", "10", "--precision", "3")[0] == 1


class TestInputForms:
    def test_stdin_graph(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
        doc = run_json(capsys, "aut", "--graph", "-")
        assert doc["aut"] == "6"

    def test_inline_graph6(self, capsys):
        assert run_json(capsys, "aut", "--graph", "g6:C~")["aut"] == "24"

    def test_file_beats_name(self, tmp_path, monkeypatch):
        # a file literally called K3 holding a different graph wins
        monkeypatch.chdir(tmp_path)
        (tmp_path / "K3").write_text("C~\n")
        assert load_graph("K3").n == 4

    def test_structured_tokens(self):
        assert load_graph("theta:1:2:2").edge_count == 5
        assert load_graph("spider:1:2:2").n == 6
        assert load_graph("pathpower:6:2").edge_count == 9
        assert load_graph("empty5").edge_count == 0

    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nn = 10\nprecision = 6\n")
        doc = run_json(capsys, "qmin", "--graph", "K3", "--config", str(cfg))
        assert len(doc["enclosure"][0].split(".")[1]) == 6

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=10\nprecision=6\n")
        doc = run_json(
            capsys, "qmin", "--graph", "K3", "--config", str(cfg), "--precision", "8"
        )
        assert len(doc["enclosure"][0].split(".")[1]) == 8

    def test_missing_config(self, capsys):
        code, _, err = run(capsys, "qmin", "--graph", "K3", "--n", "10", "--config", "/nope.cfg")
        assert code == 1 and "config" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("pc", "--pattern", "P1", "--n", "3", "--trials", "150", "--seed", "5"),
            (
                "search", "--pattern", "K3", "--n", "8", "--q", "1/2",
                "--budget", "400", "--seed", "7", "--host-cap", "5", "--chains", "2",
            ),
            ("sweep", "--pattern", "P2", "--n", "8", "--q", "1/2", "--v-cap", "4"),
            ("required-l", "--graph", "bowtie", "--pattern", "K3", "--n", "10", "--q", "1/2"),
        ],
    )
    def test_byte_identical_across_threads(self, capsys, argv):
        outputs = []
        for threads in ("1", "4"):
            code, out, err = run(capsys, *argv, "--threads", threads)
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_gen_rerun_identical(self, capsys):
        argv = ("gen", "--family", "gnp-repair", "--n", "10", "--q", "2/5",
                "--vertices", "5", "--seed", "3")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first[0] == 0 and first == second


class TestRefusals:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--graph", "K8", "--family", "clique", "--param", "4", "--node-budget", "60"),
            ("count", "--graph", "K6", "--pattern", "K3", "--node-budget", "150"),
            ("count", "--graph", "K8", "--family", "cycle", "--param", "4", "--node-budget", "500"),
        ],
    )
    def test_refusal_independent_of_threads(self, capsys, argv):
        results = [run(capsys, *argv, "--threads", threads) for threads in ("1", "4")]
        code, out, err = results[0]
        assert code == 3 and out == "" and "resource guard" in err
        assert results[1] == results[0]

    def test_repair_budget_exhaustion_is_a_refusal(self, capsys):
        code, _, err = run(
            capsys, "gen", "--family", "gnp-repair", "--n", "10", "--q", "1/10",
            "--vertices", "7", "--repair-budget", "0", "--seed", "0",
        )
        assert code == 3 and "resource guard" in err

    def test_internal_error_is_not_a_refusal(self, monkeypatch):
        def broken(args):
            raise RuntimeError("internal failure")

        monkeypatch.setattr(cli, "_cmd_aut", broken)
        with pytest.raises(RuntimeError, match="internal failure"):
            main(["aut", "--graph", "K2"])
