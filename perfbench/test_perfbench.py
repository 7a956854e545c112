"""Tests of the benchmark itself: inputs, output checks, replay and tracing.

Run from the repository root:

    python3 -m unittest discover -s perfbench -t perfbench

The workload checks are driven by a fake CLI that answers consistently;
each test then corrupts one answer and expects exactly one failed job.
"""

from __future__ import annotations

import json
import random
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from jobs import Result, Runner, digest  # noqa: E402
from workloads import PLANS, connected_host, execute, gnm, graph6  # noqa: E402


def reply(argv: list, doc: dict) -> Result:
    return Result(list(argv), 0, 0.01, 0.01, 1.0, (json.dumps(doc, indent=2) + "\n").encode())


# q_min = 120^(-1/3) with a six-digit enclosure; p_E = 240^(-1/3) lies below it
Q_BASE, Q_EXP = 120, 3
Q_LO = Fraction(int(120 ** (-1 / 3) * 10**6), 10**6)
Q_HI = Q_LO + Fraction(1, 10**6)


def fake_cli(argv: list) -> dict:
    """Consistent answers for every command the workloads run."""
    cmd = argv[0]
    args = dict(zip(argv[1::2], argv[2::2])) if cmd != "verify" else dict(zip(argv[2::2], argv[3::2]))
    if cmd == "qmin":
        return {"base_pair": [str(Q_BASE), Q_EXP], "enclosure": [f"{float(Q_LO):.6f}", f"{float(Q_HI):.6f}"]}
    if cmd == "pe":
        return {"base_pair": ["240", 3]}
    if cmd == "sparse-check":
        if args["--q"].startswith("root:"):
            return {"sparse": True}
        return {"sparse": Fraction(args["--q"]) ** Q_EXP * Q_BASE >= 1}
    if cmd == "pc":
        return {"p_hat": "1/8", "interval": ["3/32", "5/32"]}
    if cmd == "sweep":
        return {"N": "1", "candidates": 10, "sparse_candidates": 4}
    if cmd == "search":
        return {"leaderboard": [{"graph6": "Bw", "N": "1"}, {"graph6": "Cr", "N": "1"}],
                "metadata": {"chain_stats": [{"budget": 10, "accepted": 5, "repaired_moves": 1}]}}
    if cmd == "count":
        pattern = args.get("--pattern") or {"cycle": "C", "clique": "K"}[args["--family"]] + args["--param"]
        copies = {"C5": 10, "K4": 3, "P3": 4}[pattern]
        return {"count": str(copies * 2 if "--labeled" in argv else copies)}
    if cmd == "gen":
        return {"graph6": "FUscG"}
    if cmd == "pack":
        return {"packing": "3"}
    if argv[:2] == ["verify", "fit"]:
        return {"all_pass": True}
    if argv[:2] == ["verify", "props"]:
        return {"all_pass": True, "reports": [{"prop_id": "packing-expectation-bound", "lhs": "3"}]}
    raise AssertionError(f"no fake answer for {argv}")


def drive(workload: str, corrupt=None) -> list:
    """Run a workload plan against the fake CLI.  The first job for which
    ``corrupt(argv, doc)`` returns a report gets that report instead."""
    pending = [corrupt] if corrupt else []

    def answer(job):
        doc = fake_cli(job.argv)
        bad = pending[0](job.argv, doc) if pending else None
        if bad is not None:
            pending.clear()
            doc = bad
        return reply(job.argv, doc)
    return execute(PLANS[workload](7), answer)


def failures(results: list) -> list:
    return [res for res in results if res.failure is not None]


class InputTests(unittest.TestCase):
    def test_graph6_matches_kklab(self):
        from kklab.graphs import Graph, to_graph6
        rng = random.Random(3)
        for n in (1, 2, 5, 9, 44):
            edges = gnm(rng, n, min(n * (n - 1) // 2, 2 * n))
            self.assertEqual(graph6(n, edges), to_graph6(Graph(n, edges)))

    def test_connected_host_has_fixed_shape(self):
        for seed in range(20):
            edges = connected_host(random.Random(seed), 9, 15)
            self.assertEqual(len(set(edges)), 15)
            seen, stack = {0}, [0]
            while stack:
                u = stack.pop()
                for a, b in edges:
                    for x, y in ((a, b), (b, a)):
                        if x == u and y not in seen:
                            seen.add(y)
                            stack.append(y)
            self.assertEqual(seen, set(range(9)))

    def test_same_seed_same_jobs(self):
        for workload in PLANS:
            first = [r.argv for r in drive(workload)]
            self.assertEqual(first, [r.argv for r in drive(workload)])
            self.assertTrue(first)

    def test_seed_changes_hosts(self):
        a = [r.argv for r in execute(PLANS["thresholds"](1), lambda job: reply(job.argv, fake_cli(job.argv)))]
        b = [r.argv for r in execute(PLANS["thresholds"](2), lambda job: reply(job.argv, fake_cli(job.argv)))]
        self.assertNotEqual(a[0], b[0])


class BenchmarkJsonTests(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_workloads_and_reasons(self):
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]}, workloads.WHY)
        self.assertEqual(set(workloads.WHY), set(PLANS))

    def test_end_to_end_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)

    def test_per_layer_names_and_units(self):
        emitted = run.layer_metrics([], [], 1.0, 1.0, 1.0)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         {name: unit for name, (_, unit) in emitted.items()})


class CheckTests(unittest.TestCase):
    def assert_one_failure(self, workload, corrupt):
        self.assertEqual(failures(drive(workload)), [])
        bad = failures(drive(workload, corrupt))
        self.assertEqual(len(bad), 1, [r.failure for r in bad])
        return bad[0]

    def test_thresholds_sparse_below_q_min(self):
        def corrupt(argv, doc):
            if argv[0] == "sparse-check" and Fraction(argv[-1]) ** Q_EXP * Q_BASE < 1:
                return {"sparse": True}
        bad = self.assert_one_failure("thresholds", corrupt)
        self.assertIn("below q_min", bad.failure)

    def test_thresholds_p_e_above_q_min(self):
        bad = self.assert_one_failure(
            "thresholds", lambda argv, doc: {"base_pair": ["60", 3]} if argv[0] == "pe" else None)
        self.assertEqual(bad.argv[0], "pe")

    def test_thresholds_enclosure_must_bracket(self):
        def corrupt(argv, doc):
            if argv[0] == "qmin":
                return {"base_pair": ["100", 3], "enclosure": doc["enclosure"]}
        results = drive("thresholds", corrupt)
        # the qmin fails, and its two sparse-checks are not run
        self.assertEqual([r.argv[0] for r in failures(results)], ["qmin", "sparse-check", "sparse-check"])

    def test_montecarlo_p_hat_outside_interval(self):
        self.assert_one_failure(
            "montecarlo",
            lambda argv, doc: {"p_hat": "1/4", "interval": ["3/32", "5/32"]}
            if "K3" in argv else None)

    def test_extremal_annealer_beats_sweep(self):
        def corrupt(argv, doc):
            if argv[0] == "search" and argv[argv.index("--host-cap") + 1] == "7":
                return {"leaderboard": [{"graph6": "Bw", "N": "2"}], "metadata": doc["metadata"]}
        bad = self.assert_one_failure("extremal", corrupt)
        self.assertIn("sweep maximum", bad.failure)

    def test_extremal_leaderboard_host_not_sparse(self):
        self.assert_one_failure(
            "extremal",
            lambda argv, doc: {"sparse": False} if argv[0] == "sparse-check" and argv[2] == "g6:Cr" else None)

    def test_counting_family_disagrees_with_pattern(self):
        self.assert_one_failure(
            "counting", lambda argv, doc: {"count": "11"} if argv[-1] == "C5" else None)

    def test_counting_labeled_not_copies_times_aut(self):
        self.assert_one_failure(
            "counting", lambda argv, doc: {"count": "9"} if "--labeled" in argv else None)

    def test_string_verdict_is_not_a_boolean(self):
        self.assert_one_failure(
            "counting", lambda argv, doc: {"all_pass": "true"} if argv[:2] == ["verify", "fit"] else None)

    def test_counting_pack_disagrees_with_props(self):
        self.assert_one_failure(
            "counting", lambda argv, doc: {"packing": "2"} if argv[0] == "pack" else None)

    def test_unparsable_output_fails(self):
        def answer(job):
            res = reply(job.argv, fake_cli(job.argv))
            if job.argv[0] == "pc":
                res.stdout = b"Traceback (most recent call last):\n"
            return res
        results = execute(PLANS["montecarlo"](7), answer)
        self.assertEqual(len(failures(results)), len(workloads.MC_PLANS))


class ProcessTests(unittest.TestCase):
    """These spawn real kklab processes (a few tenths of a second each)."""

    def setUp(self):
        self.runner = Runner(ROOT, time.perf_counter() + 120)

    def test_digest_ignores_elapsed(self):
        a = b'{\n  "count": "5",\n  "elapsed_s": 0.25\n}\n'
        b = b'{\n  "count": "5",\n  "elapsed_s": 0.31\n}\n'
        self.assertEqual(digest(a), digest(b))
        self.assertNotEqual(digest(a), digest(a.replace(b'"5"', b'"6"')))

    def test_job_measures_and_checks(self):
        res = run.setup_probe(self.runner)
        self.assertIsNone(res.failure)
        self.assertEqual(res.rc, 0)
        self.assertGreater(res.wall_s, 0)
        self.assertGreater(res.rss_mb, 0)

    def test_nonzero_exit_fails(self):
        res = self.runner.run(["aut", "--graph", "not-a-graph"], 20)
        self.assertEqual(res.rc, 1)
        self.assertIn("exit code 1", res.failure)

    def test_replay_flags_changed_output(self):
        ref = run.setup_probe(self.runner)
        corrupted = Result(ref.argv, 0, ref.wall_s, ref.cpu_s, ref.rss_mb,
                           ref.stdout.replace(b'"2"', b'"3"'))
        [res] = run.replay(self.runner, [corrupted])
        self.assertEqual(res.failure, "output differs from the first pass")

    def test_traced_output_is_byte_identical(self):
        ref = self.runner.run(["count", "--graph", "petersen", "--pattern", "C5"], 20)
        self.assertIsNone(ref.failure)
        run.OUT.mkdir(exist_ok=True)
        spans = run.OUT / "spans-test.json"
        res = self.runner.run(ref.argv, 20, [str(HERE / "tracer.py"), str(spans)])
        try:
            summary = json.loads(spans.read_text())
        finally:
            spans.unlink()
        self.assertEqual(digest(res.stdout), digest(ref.stdout))
        count = summary["funcs"]["counting.count_copies"]
        self.assertEqual(count["calls"], 1)
        self.assertEqual(summary["calls_by_importer"]["counting.count_copies"], {"cli": 1})
        for row in summary["funcs"].values():
            self.assertGreaterEqual(row["self_s"], -1e-6)
            self.assertLessEqual(row["self_s"], row["incl_s"] + 1e-6)
        self.assertLessEqual(summary["top_s"], summary["main_s"])


if __name__ == "__main__":
    unittest.main()
