"""Command line behavior: reports, exit codes, config files, determinism."""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import kklab
from kklab import cli, util
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


def readme_commands() -> list:
    """The argv of each kklab line in the README's command-line block."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("kklab ")]


README_COMMANDS = readme_commands()


class TestReadmeCommands:
    def test_block_is_read(self):
        assert len(README_COMMANDS) >= 12
        assert any("heuristic" in argv for argv in README_COMMANDS)

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_runs_to_a_report(self, capsys, argv):
        run_json(capsys, *argv)


def roundtrip(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


class TestHandlerRuns:
    """Each report equals the library call that its handler wraps."""

    def test_gamma(self, capsys):
        doc = run_json(capsys, "gamma", "--graph", "petersen", "--length", "3")
        value, pair = kklab.max_xy_paths(kklab.petersen_graph(), 3)
        assert doc == {"schema": "kklab/1", "gamma": str(value), "pair": list(pair)}

    def test_count_xy_paths(self, capsys):
        doc = run_json(
            capsys, "count", "--graph", "K5", "--family", "xy-path",
            "--param", "3", "--x", "0", "--y", "4",
        )
        assert doc["count"] == str(kklab.count_xy_paths(kklab.complete_graph(5), 0, 4, 3))

    def test_verify_fit(self, capsys):
        doc = run_json(
            capsys, "verify", "fit", "--graph", "C5", "--pattern", "P2",
            "--eps", "1", "--d", "3",
        )
        report = kklab.verify_fit_partition(kklab.cycle_graph(5), kklab.path_graph(2), 1, 3)
        assert doc["reports"] == [roundtrip(report.to_json())]
        assert doc["all_pass"] is report.verdict

    def test_verify_legal(self, capsys):
        doc = run_json(
            capsys, "verify", "legal", "--f", "1,1,0", "--eps", "1", "--d", "4",
            "--D", "9", "--d-cap", "9",
        )
        result = kklab.count_legal_sequences((1, 1, 0), 1, 4, 9, 9)
        assert doc == {
            "schema": "kklab/1",
            "count": str(result.count),
            "big_threshold": result.big_threshold,
            "bound": str(result.bound),
            "bound_applicable": result.bound_applicable,
            "bound_holds": result.bound_holds,
        }

    def test_verify_main(self, capsys):
        doc = run_json(
            capsys, "verify", "main", "--graph", "C5", "--pattern", "P2",
            "--n", "10", "--q", "1/4", "--L", "3",
        )
        report = kklab.verify_main_inequality(
            kklab.cycle_graph(5), kklab.path_graph(2), 10, Fraction(1, 4), 3
        )
        assert doc["reports"] == [roundtrip(report.to_json())]
        assert doc["all_pass"] is report.verdict

    def test_ellhat(self, capsys):
        doc = run_json(capsys, "ellhat", "--n", "1000", "--q", "1/10", "--delta", "1/3")
        result = kklab.ell_hat(1000, Fraction(1, 10), Fraction(1, 3))
        assert doc == {
            "schema": "kklab/1",
            "ell_hat": str(result.value),
            "n": result.n,
            "delta": "1/3",
            "at_value_ok": result.at_value_ok,
            "above_value_fails": result.above_value_fails,
        }


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


class TestPreconditionRefusals:
    """Inputs that once escaped as uncaught exceptions exit 2 instead."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("qmin", "--graph", "K4", "--n", "8", "--mode", "heuristic",
             "--heuristic-vertex-cap", cap)
            for cap in ("1", "0", "-1")
        ] + [
            ("search", "--pattern", "P2", "--n", "8", "--q", "1/2", "--host-cap", "5",
             "--budget", "300", *extra)
            for extra in (("--top-k", "0"), ("--top-k", "-1"), ("--cooling", "0"),
                          ("--cooling", "-0.5"), ("--cooling", "nan"), ("--cooling", "inf"))
        ],
    )
    def test_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "precondition violated" in err and "Traceback" not in err

    def test_heuristic_cap_is_checked_in_heuristic_mode_only(self, capsys):
        doc = run_json(capsys, "qmin", "--graph", "K4", "--n", "8", "--heuristic-vertex-cap", "1")
        assert doc["base_pair"]

    def test_cooled_to_zero_keeps_going(self, capsys):
        # at cooling 0.1 the temperature underflows to 0.0 within the run
        doc = run_json(
            capsys, "search", "--pattern", "P2", "--n", "10", "--q", "1/2", "--budget", "8000",
            "--cooling", "0.1", "--host-cap", "6",
        )
        assert doc["metadata"]["chain_stats"][0]["final_temperature"] == 0.0
        assert doc["leaderboard"]

    @pytest.mark.parametrize(
        "params",
        [("--family", "theta", "--a", "0", "--b", "2", "--c", "2"),
         ("--family", "path-power", "--vertices", "5", "--power", "0")],
    )
    def test_gen_refuses_an_explicit_zero(self, capsys, params):
        code, out, err = run(capsys, "gen", *params, "--n", "12", "--q", "1/4")
        assert code == 1 and out == "" and "Traceback" not in err


class TestPrecision:
    """Every root a sweep or search record prints carries --precision digits."""

    def test_sweep_at_20_digits(self, capsys):
        doc = run_json(
            capsys, "sweep", "--pattern", "C4", "--n", "10", "--q", "root:50:3", "--v-cap", "5",
            "--precision", "20",
        )
        assert doc["score_enclosure"] == ["0.96776187951486914303", "0.96776187951486914304"]
        assert doc["E_q"] == {
            "kind": "root", "base": "250047/6250", "exp": 3,
            "decimal_lo": "3.42016619690958228011", "decimal_hi": "3.42016619690958228012",
        }

    def test_search_at_20_digits(self, capsys):
        doc = run_json(
            capsys, "search", "--pattern", "P2", "--n", "8", "--q", "root:50:3",
            "--host-cap", "5", "--budget", "50", "--precision", "20",
        )
        roots = [doc["metadata"]["q"], doc["metadata"]["expectation"]]
        roots += [entry["E_q"] for entry in doc["leaderboard"]]
        for root in roots:
            assert root["kind"] == "root"
            assert len(root["decimal_lo"].split(".")[1]) == 20
        assert doc["metadata"]["expectation"]["decimal_lo"] == "12.37834583543169899542"

    def test_default_digits_unchanged(self, capsys):
        doc = run_json(
            capsys, "sweep", "--pattern", "C4", "--n", "10", "--q", "root:50:3", "--v-cap", "5",
        )
        assert doc["E_q"]["decimal_lo"] == "3.420166196909"


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


# sha256 of the stdout of seeded extremal runs; the aut caps and memos
# may change how fast these run, never what they print
SEEDED_OUTPUTS = {
    "search-K3": (
        ("search", "--pattern", "K3", "--n", "10", "--q", "root:120:3",
         "--host-cap", "8", "--budget", "400", "--seed", "3"),
        "eb6efcdcd8b4978ca7570341b1434932b1a2b10b5ddedfa0c2e1429d77d17445",
    ),
    "search-P3": (
        ("search", "--pattern", "P3", "--n", "10", "--q", "root:120:3",
         "--host-cap", "8", "--budget", "400", "--seed", "3"),
        "084f6d13e83db6c8ec185829c3b36878852a11868a21e3da539a584268cc2871",
    ),
    "sweep-K3": (
        ("sweep", "--pattern", "K3", "--n", "10", "--q", "root:120:3", "--v-cap", "7"),
        "19df1ebce00571e0c495d42ba4d017df1cf34d85c431c406065e13d0628e915c",
    ),
    # three chains merged into one leaderboard
    "search-K3-chains": (
        ("search", "--pattern", "K3", "--n", "10", "--q", "root:120:3",
         "--host-cap", "8", "--budget", "600", "--seed", "5", "--chains", "3"),
        "1354ce7bb74ebae287dd7d614edd57cd89c993dc9b4f8233fee88ed286970e2b",
    ),
    # 35 additions rejected because the edge cap forbids certifying them
    "search-K3-edge-cap": (
        ("search", "--pattern", "K3", "--n", "10", "--q", "root:120:3",
         "--host-cap", "8", "--budget", "400", "--seed", "3", "--edge-cap", "9"),
        "ef7d8ccdfa054c7a5dcbcfc6aedb3766d5badbc8c7d7e2d2564796ec42e06f8e",
    ),
}


class TestSeededOutputPins:
    @pytest.mark.parametrize("name", sorted(SEEDED_OUTPUTS))
    def test_stdout_digest(self, capsys, name):
        argv, want = SEEDED_OUTPUTS[name]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == want



# sha256 of the stdout of report commands whose handlers and CSV renderers
# the other tests never run in-process: a pruned p_E table (15 edges), an
# exact packing, and the search and sweep results as CSV
REPORT_OUTPUTS = {
    "pe-petersen": (
        ("pe", "--graph", "petersen", "--n", "12"),
        "acd314f781b9fc7e231d9bb9da01e7d8f13667085a2a8f494c7abbdbbc5490fe",
    ),
    "pack-petersen-P3": (
        ("pack", "--graph", "petersen", "--pattern", "P3"),
        "86b91409ca9d1a4265ae8ffe3941356053c391409aa55dba90f1b543bbca8c4b",
    ),
    "search-K3-csv": (
        ("search", "--pattern", "K3", "--n", "10", "--q", "root:120:3",
         "--host-cap", "8", "--budget", "400", "--seed", "3", "--format", "csv"),
        "f91826d039ba4b1ba288af4a3aef544d6a6773510daa21e4c3529bd0762b6e19",
    ),
    "sweep-K3-csv": (
        ("sweep", "--pattern", "K3", "--n", "10", "--q", "root:120:3", "--v-cap", "6",
         "--format", "csv"),
        "4e79ce66e26e04a026960daac05ba3d43c1715fa88e4496f34371546c8e91097",
    ),
}


class TestReportOutputPins:
    @pytest.mark.parametrize("name", sorted(REPORT_OUTPUTS))
    def test_stdout_digest(self, capsys, name):
        argv, want = REPORT_OUTPUTS[name]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == want


# sha256 of the stdout of seeded G(n,p) sampling: the pc trace, a
# gnp-repair sample at p0 = 1/2 (bulk word draws) and one at a Root p0
SAMPLER_OUTPUTS = {
    "pc-C4-csv": (
        ("pc", "--pattern", "C4", "--n", "24", "--trials", "250",
         "--seed", "1748025857", "--format", "csv"),
        "a280fd8adfe6f9060b0a5e8eecaf1baadc9da7595ba6a61c976d50097bc0fd79",
    ),
    "gen-gnp-repair-rational": (
        ("gen", "--family", "gnp-repair", "--n", "12", "--q", "1/4",
         "--vertices", "6", "--seed", "7"),
        "e98f1e3039f756706d127c65a703df967957dd59794fa9b3f82fcb96893356fa",
    ),
    "gen-gnp-repair-root": (
        ("gen", "--family", "gnp-repair", "--n", "12", "--q", "root:120:3",
         "--vertices", "6", "--seed", "7"),
        "212de93aac8c1ad784c74714b61317547420d14bef6c699c1e3e977b4bb0634a",
    ),
}


class TestSamplerOutputPins:
    @pytest.mark.parametrize("name", sorted(SAMPLER_OUTPUTS))
    def test_stdout_digest(self, capsys, name):
        argv, want = SAMPLER_OUTPUTS[name]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == want

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

    def test_sweep_edge_cap_refusal(self, capsys):
        # a 4-edge one-vertex extension of a sparse class on 3 vertices
        code, out, err = run(
            capsys, "sweep", "--pattern", "K3", "--n", "10", "--q", "root:120:3",
            "--v-cap", "6", "--edge-cap", "3",
        )
        assert code == 3 and out == "" and "cannot certify 4 edges" in err

    def test_sweep_past_the_edge_cap_on_hosts_the_disproof_decides(self, capsys):
        # every extension past the cap of 2 violates on its full edge set,
        # so none needs the scan the cap forbids
        doc = run_json(
            capsys, "sweep", "--pattern", "K2", "--n", "10", "--q", "1/20",
            "--v-cap", "4", "--edge-cap", "2",
        )
        assert doc["graph6"] == "CQ" and doc["N"] == "2"

    def test_gamma_spends_one_budget(self, capsys):
        # the 45 endpoint pairs of the Petersen graph visit 795 nodes in all
        code, out, err = run(
            capsys, "gamma", "--graph", "petersen", "--length", "3", "--node-budget", "19"
        )
        assert code == 3 and out == "" and "resource guard" in err

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


# -- start-up: what each command imports ---------------------------------------

SRC = str(pathlib.Path(kklab.__file__).resolve().parents[1])

_LOADED_BY = """
import contextlib, io, json, sys
from kklab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("kklab."))]))
"""

# the stdlib modules a graph-level command has no use for, if it loads them
_STDLIB_LOADED_BY = """
import contextlib, io, json, sys
from kklab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted({"dataclasses", "csv"} & set(sys.modules))]))
"""

BASE_LAYERS = {"kklab.cli", "kklab.util", "kklab.graphs", "kklab.counting"}


def fresh_python(code: str, *args) -> str:
    """stdout of ``code`` run in a new interpreter that imports this kklab."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportBoundaries:
    def test_package_import_loads_no_submodule(self):
        out = fresh_python("import kklab, sys; print([m for m in sys.modules if m.startswith('kklab.')])")
        assert out.strip() == "[]"

    def test_submodule_attribute_without_import(self):
        out = fresh_python("import kklab; print(kklab.search.SWEEP_VERTEX_CAP)")
        assert out.strip() == "8"

    @pytest.mark.parametrize(
        "argv, upper",
        [
            (["aut", "--graph", "K2"], set()),
            (["count", "--graph", "K5", "--pattern", "K3"], set()),
            (["pack", "--graph", "K4", "--pattern", "P2"], set()),
            (["sparse-check", "--graph", "K3", "--n", "10", "--q", "1/10"],
             {"kklab.exact", "kklab.expectation"}),
            (["qmin", "--graph", "K3", "--n", "10"], {"kklab.exact", "kklab.expectation"}),
            (["pe", "--graph", "K3", "--n", "10"], {"kklab.exact", "kklab.expectation"}),
            (["pc", "--pattern", "K3", "--n", "8", "--trials", "20"],
             {"kklab.exact", "kklab.montecarlo"}),
        ],
        ids=["aut", "count", "pack", "sparse-check", "qmin", "pe", "pc"],
    )
    def test_command_loads_only_its_layers(self, argv, upper):
        code, loaded = json.loads(fresh_python(_LOADED_BY, json.dumps(argv)))
        assert code == 0
        assert set(loaded) == BASE_LAYERS | upper
        assert not (set(loaded) - upper) & {
            "kklab.search", "kklab.montecarlo", "kklab.verifier", "kklab.catalog"
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["aut", "--graph", "K2"],
            ["count", "--graph", "K5", "--pattern", "K3"],
            ["pack", "--graph", "K4", "--pattern", "P2"],
        ],
        ids=["aut", "count", "pack"],
    )
    def test_graph_level_commands_load_no_dataclasses_or_csv(self, argv):
        code, loaded = json.loads(fresh_python(_STDLIB_LOADED_BY, json.dumps(argv)))
        assert code == 0 and loaded == []


# -- the package's lazy exports --------------------------------------------------

# every public name the package exported when it imported all its modules
# eagerly, under the module it was imported from then
PACKAGE_EXPORTS = {
    "catalog": ("graphs_on", "graphs_up_to", "trees_on", "trees_up_to"),
    "counting": (
        "ResourceGuardError", "copies_as_edge_masks", "count_cliques", "count_copies",
        "count_cycles", "count_labeled", "count_xy_paths", "frontier_estimate",
        "iter_labeled", "max_xy_paths", "packing_number",
    ),
    "exact": (
        "Root", "cmp_with_e_power", "decimal_enclosure", "format_fraction", "make_value",
        "parse_exact", "parse_rational", "value_cmp", "value_div", "value_float",
        "value_mul", "value_pow", "value_root", "value_to_json",
    ),
    "expectation": (
        "DEFAULT_EDGE_CAP", "EdgeCapError", "RequiredL", "SparseCheck", "SparsityReport",
        "ThresholdClass", "expectation_threshold", "expected_copies",
        "falling_factorial_bound_check", "is_q_sparse", "peel_threshold_a", "q_min",
        "required_L", "safe_edge_bound", "violation_scan",
    ),
    "graphs": (
        "DensityValue", "Graph", "GraphParseError", "automorphism_count", "bowtie_graph",
        "canonical_form", "canonical_key", "complete_graph", "cycle_graph", "density",
        "disjoint_union", "empty_graph", "max_density", "max_density_bruteforce",
        "parse_edge_list", "parse_graph", "parse_graph6", "path_graph", "path_power_graph",
        "petersen_graph", "spider_graph", "star_graph", "theta_graph", "to_edge_list",
        "to_graph6",
    ),
    "montecarlo": (
        "EstimateResult", "GENERATOR_FAMILIES", "Probe", "TrialPlan", "bernoulli",
        "derive_rng", "estimate_pc", "generate_sparse", "sample_gnp", "wilson_interval",
    ),
    "search": (
        "LeaderboardEntry", "SearchResult", "SweepResult", "certified_sparse",
        "exhaustive_sweep", "extremal_search", "score_pair_cmp",
    ),
    "util": ("PreconditionError",),
    "verifier": (
        "EllHatResult", "FitRecord", "LegalCount", "PeelResult", "PropositionReport",
        "count_legal_sequences", "ell_hat", "fit_decompose", "peel_min_degree",
        "verify_fit_partition", "verify_main_inequality", "verify_packing", "verify_structure",
    ),
}

# names that moved into util so the CLI parser needs no upper layer
MOVED_TO_UTIL = {
    "EdgeCapError": ("expectation", "search"),
    "DEFAULT_EDGE_CAP": ("expectation", "search"),
    "DEFAULT_HEURISTIC_VERTEX_CAP": ("expectation",),
    "DEFAULT_TRIALS": ("montecarlo",),
    "DEFAULT_TOLERANCE": ("montecarlo",),
    "DEFAULT_CONFIDENCE": ("montecarlo",),
    "GENERATOR_FAMILIES": ("montecarlo",),
    "DEFAULT_TOP_K": ("search",),
    "DEFAULT_COOLING": ("search",),
    "SWEEP_VERTEX_CAP": ("search",),
}


class TestLazyExports:
    def test_all_is_the_old_export_list(self):
        names = sorted(name for names in PACKAGE_EXPORTS.values() for name in names)
        assert len(names) == 100
        assert sorted(kklab.__all__) == names

    def test_each_name_is_its_module_object(self):
        for module, names in PACKAGE_EXPORTS.items():
            home = importlib.import_module(f"kklab.{module}")
            for name in names:
                assert getattr(kklab, name) is getattr(home, name), name

    def test_submodules_and_dir(self):
        listed = dir(kklab)
        for module in PACKAGE_EXPORTS:
            assert getattr(kklab, module) is importlib.import_module(f"kklab.{module}")
            assert module in listed
        assert set(kklab.__all__) <= set(listed)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            kklab.no_such_name

    def test_moved_names_keep_one_object(self):
        for name, old_homes in MOVED_TO_UTIL.items():
            for module in old_homes:
                old = importlib.import_module(f"kklab.{module}")
                assert getattr(old, name) is getattr(util, name), (module, name)


# -- the parser ----------------------------------------------------------------

# sha256 of each subcommand's format_help() at COLUMNS=120, a width at which
# argparse wraps the same on Python 3.10-3.13 (at 100, 3.13 keeps pc's
# "--n N" on one line); guards the defaults, choices and help texts shown
HELP_SHA256 = {
    "count": "55b52c6c07e19041adffbf9af28805f24c1f00c75a8aaad04d6d5cadccf2f7e2",
    "gamma": "073d37ff2c2de5d68776aeeb292b36e07c41bb09d0db611ded2418d90d64fff4",
    "pack": "f39af43bf0f68c57119d2390a2abfbe8a4eea58aceea8852ef3e5af9580990aa",
    "density": "2d7450d3f2a73363ae0a80e8c331bd8e8c22c41ad371abac98b45b0c1615adcb",
    "aut": "2b7cf98570cdf5bfe9036e2f029a7dcf8ec3e21ade7d0626982753933e1c5a2b",
    "qmin": "667a4665ce1bf8ae941fdd047b7680d4777d7b66d995a9b1eacdb97b234fbb01",
    "pe": "18871b76c4d374d53850eccb9f02b8b9adab0ea224135708bc841caaefc74e4a",
    "sparse-check": "204c3398a74b89d5cad4c93219ba0f3575370d988fbdb917965f69d700fdcac9",
    "expect": "1cc6442c3feef4ad6bde5bab9e54fac192796276c953f4f1f5706330417005dd",
    "required-l": "0cb5e643db04d8bd85ca33ab753563bf9e467f59468e4a419bf34bdd0e5305d1",
    "verify": "2ac2c17c6c006c646973ea9a2497d095b883529ccdf0c61ea3fe0661deb8780e",
    "verify props": "d7cdb18dbc3658483908751af833b81572689900fe95d71960737e308ced2421",
    "verify fit": "5f75e8d1b47f13e032e8f6ee983d208d7a5c926e391f9ce028a84c97b1eba3fb",
    "verify legal": "96b231498a7122a9040b64e580acf5f33e3f6a45a32b5b585082d6e2fa75777a",
    "verify main": "d7d8f49a84986cfda414dab64f0c9dccc66b3ba98ac631b6eed27c90371bf7df",
    "peel": "02c438db295b5432c35df975a75e16194be9719affad3c83b38af70b6303532a",
    "ellhat": "2111f6e4552e94db77137bc4db5b1d6a4de02702ec4b48d2ce8ab09d9e8a881a",
    "pc": "a6979d2e10533d0b0ac603bdc1eff3074788ff8511f71f06d98276f5e951a2e8",
    "gen": "f3bd9f4724c20c8650350f533585d433b91f0cb4df279075433a398acecbb668",
    "search": "43a3ff9d70dcb23daadef3a6890cc95716984159e43611f3635404f64cc09765",
    "sweep": "45da6361fc2ee7da10c9f6156d9256caf5ee236b144ee650dcbf1f336dc6b93d",
}


def _subparsers(parser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


class TestParser:
    def test_help_is_pinned(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "120")
        digests = {}
        for name, sub in _subparsers(cli.build_parser()).items():
            digests[name] = hashlib.sha256(sub.format_help().encode()).hexdigest()
            for mode, vsub in _subparsers(sub).items():
                digests[f"{name} {mode}"] = hashlib.sha256(vsub.format_help().encode()).hexdigest()
        assert digests == HELP_SHA256

    def test_edge_cap_refusal_exits_3(self, capsys):
        code, out, err = run(capsys, "qmin", "--graph", "K3", "--n", "10", "--edge-cap", "-1")
        assert code == 3 and out == "" and "resource guard" in err


# one argv per perfbench job shape, the setup probe included
_G = "g6:G@ttDg"
PERFBENCH_ARGVS = [
    ["aut", "--graph", "K2"],
    ["qmin", "--graph", _G, "--n", "20"],
    ["pe", "--graph", _G, "--n", "20"],
    ["sparse-check", "--graph", _G, "--n", "20", "--q", "1/5"],
    ["pc", "--pattern", "C4", "--n", "24", "--trials", "250", "--seed", "1804289383"],
    ["sweep", "--pattern", "K3", "--n", "10", "--q", "root:120:3", "--v-cap", "7"],
    ["search", "--pattern", "P3", "--n", "10", "--q", "root:120:3", "--budget", "400",
     "--seed", "846930886", "--host-cap", "8"],
    ["sparse-check", "--graph", "g6:DR{", "--n", "10", "--q", "root:120:3"],
    ["count", "--graph", _G, "--family", "cycle", "--param", "5"],
    ["count", "--graph", _G, "--pattern", "C5"],
    ["count", "--graph", _G, "--pattern", "P3", "--labeled"],
    ["verify", "fit", "--graph", _G, "--pattern", "P2", "--eps", "1", "--d", "3"],
    ["gen", "--family", "gnp-repair", "--vertices", "6", "--n", "12", "--q", "1/4",
     "--seed", "1681692777"],
    ["verify", "props", "--graph", _G, "--n", "12", "--q", "1/4", "--pattern", "P2"],
    ["pack", "--graph", _G, "--pattern", "P2"],
]

# usage errors (those above in this file and more), help, and no command
USAGE_ARGVS = [
    ["aut", "--graph", "K3", "--mystery"],
    ["frobnicate"],
    ["sparse-check", "--graph", "K3", "--n", "10", "--q", "root:120"],
    ["qmin", "--graph", "K3", "--n", "10", "--precision", "3"],
    ["aut"],
    ["aut", "--graph"],
    ["aut", "--gr", "K2"],
    ["pack", "--graph", "K4"],
    ["count", "--graph", "K4", "--family", "star"],
    ["pc", "--pattern", "K3", "--n", "x"],
    ["verify"],
    ["verify", "bogus"],
    ["verify", "legal", "--f", "1,x", "--eps", "1", "--d", "3", "--D", "2", "--d-cap", "1"],
    ["--graph", "K2", "aut"],
    [],
    ["-h"],
    ["--help"],
    ["aut", "-h"],
    ["verify", "-h"],
    ["verify", "fit", "--help"],
]


def parse_outcome(parser, argv):
    """What parsing argv gives: the namespace, the usage error, or the exit
    code with what was printed before it."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        try:
            return "namespace", vars(parser.parse_args(argv))
        except cli._InputError as exc:
            return "error", str(exc)
        except SystemExit as exc:
            return "exit", exc.code, printed.getvalue()


def main_outcome(argv):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        try:
            return main(list(argv)), printed.getvalue()
        except SystemExit as exc:
            return f"exit {exc.code}", printed.getvalue()


class TestOneSubcommandParser:
    """main builds only the subparser of the command it runs; what it parses
    and prints is what the full parser would."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "120")

    def test_every_parser_formats_the_same_help(self):
        full = _subparsers(cli.build_parser())
        assert len(full) == 17
        seen = 0
        for name, sub in full.items():
            one = _subparsers(cli._parser_for([name]))
            assert list(one) == [name]
            assert one[name].format_help() == sub.format_help(), name
            seen += 1
            for mode, vsub in _subparsers(sub).items():
                assert _subparsers(one[name])[mode].format_help() == vsub.format_help()
                seen += 1
        assert seen == 21

    @pytest.mark.parametrize("argv", PERFBENCH_ARGVS + USAGE_ARGVS, ids=" ".join)
    def test_same_outcome_as_the_full_parser(self, argv):
        assert parse_outcome(cli._parser_for(argv), argv) == parse_outcome(cli.build_parser(), argv)

    @pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
    def test_main_prints_and_exits_as_with_the_full_parser(self, monkeypatch, argv):
        got = main_outcome(argv)
        monkeypatch.setattr(cli, "_parser_for", lambda argv: cli.build_parser())
        assert got == main_outcome(argv)

    def test_main_builds_one_subparser(self, monkeypatch, capsys):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        assert run(capsys, "aut", "--graph", "K2")[:2] == (0, '{\n  "schema": "kklab/1",\n  "aut": "2"\n}\n')
        assert built == ["aut"]
