"""Command line behavior: reports, exit codes, config files, determinism."""

import argparse
import hashlib
import importlib
import io
import json
import os
import pathlib
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

BASE_LAYERS = {"kklab.cli", "kklab.util", "kklab.exact", "kklab.graphs", "kklab.counting"}


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
            (["sparse-check", "--graph", "K3", "--n", "10", "--q", "1/10"], {"kklab.expectation"}),
            (["qmin", "--graph", "K3", "--n", "10"], {"kklab.expectation"}),
            (["pe", "--graph", "K3", "--n", "10"], {"kklab.expectation"}),
        ],
        ids=["aut", "count", "pack", "sparse-check", "qmin", "pe"],
    )
    def test_command_loads_only_its_layers(self, argv, upper):
        code, loaded = json.loads(fresh_python(_LOADED_BY, json.dumps(argv)))
        assert code == 0
        assert set(loaded) == BASE_LAYERS | upper
        assert not set(loaded) & {"kklab.search", "kklab.montecarlo", "kklab.verifier", "kklab.catalog"}


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

# sha256 of each subcommand's format_help() at COLUMNS=100 (argparse as in
# Python 3.11); guards the defaults, choices and help texts the parser shows
HELP_SHA256 = {
    "count": "3f406b08ed356506927a41c581ef446f1e19941dbec45f9117d3e0d9372aa6a0",
    "gamma": "8ec30ae0c5030f990b193f5762bc0e195841ebefb3b1362eeda4d486da8a58ee",
    "pack": "05ae53e1c3d14b02150787734bc0bb4a9eaa3c7e541bdccd75c2827b95a0d841",
    "density": "2d7450d3f2a73363ae0a80e8c331bd8e8c22c41ad371abac98b45b0c1615adcb",
    "aut": "2b7cf98570cdf5bfe9036e2f029a7dcf8ec3e21ade7d0626982753933e1c5a2b",
    "qmin": "f71540a8bd8981ef33b25804d26802cab280a43bee1e5667c10e957955fad2d2",
    "pe": "f566c33aeaa2f2283ad87344f36b82cabb5c5683cfebefc09e66943e5c40a058",
    "sparse-check": "e727db3f538fa00ad30910ca4bd1f28d66c0cb9630cf6bfb48b02757479926f2",
    "expect": "268fd50c679aa31efbbce6a3206d68cea925169e7b63720a575f4aa13a776026",
    "required-l": "0abdef43c5b8d4a43c22365c2a5b003c2b389349bcd061dfbf0a3fe1bf4e2013",
    "verify": "2ac2c17c6c006c646973ea9a2497d095b883529ccdf0c61ea3fe0661deb8780e",
    "verify props": "a1130d3c586c930be863503ccaf4913dcb80993693189985edd2af841589c501",
    "verify fit": "12f322ddceca2cf0188f63bac8275945433bb6bb27db236fab8559cc65d23f2b",
    "verify legal": "eedbc76c0f9622e06396257cc844a65f5f32ff8cb9097a2d97eb774d16b7e519",
    "verify main": "db1bdb9159e1cab69c6c1ac2eb7921fbddc4cc775fc5fcf0cd1cefab64b1e448",
    "peel": "acb2eaba89f308def012e799f0cdfd9567717469f740be133d57fb554dfef22d",
    "ellhat": "35a82fffbe9efe145bc008a5d653ec7d686a03db518855bb65d3176745e58af4",
    "pc": "85ab60db628aa5412027399b541e56991181e35e2698eefcd4950fffb6df37d6",
    "gen": "7e824528693648c0fb2881a2377e819bef30ab6629f289df0f58154260e244f0",
    "search": "4db1421db72de1d11975245f79edecb6d72c71ef27ac32fd531b93f017122b67",
    "sweep": "954be5e00383a8cdc3ad1714de01384075f5858edbf007b50d2e9dcbcee6237c",
}


def _subparsers(parser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


class TestParser:
    def test_help_is_pinned(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        digests = {}
        for name, sub in _subparsers(cli.build_parser()).items():
            digests[name] = hashlib.sha256(sub.format_help().encode()).hexdigest()
            for mode, vsub in _subparsers(sub).items():
                digests[f"{name} {mode}"] = hashlib.sha256(vsub.format_help().encode()).hexdigest()
        assert digests == HELP_SHA256

    def test_edge_cap_refusal_exits_3(self, capsys):
        code, out, err = run(capsys, "qmin", "--graph", "K3", "--n", "10", "--edge-cap", "-1")
        assert code == 3 and out == "" and "resource guard" in err
