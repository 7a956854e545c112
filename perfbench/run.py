"""kklab end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a seeded list of ``kklab`` command lines (see
``workloads.py``).  Jobs run one at a time as fresh CLI processes, at the
CLI's default ``--threads`` (the machine's core count), in a closed loop
with one client.  Every output is checked; a non-zero exit, a timeout or
a failed check counts the job as failed.

``--trace 0`` first times a trivial call (``kklab aut --graph K2``)
several times for ``setup_s``, then runs the job list, and runs it again
while another full pass fits in ``--seconds``; replays must reproduce the
first pass's outputs.  It reports the end-to-end metrics: medians over
passes of wall and CPU time, the set-up median and the peak RSS.

``--trace 1`` runs the job list three times: untraced, traced (each job
through ``tracer.py``, which wraps the library's public functions with
span recorders) and untraced at ``--threads 1``.  Both replays must give
byte-identical outputs.  It reports per-layer call counts and self times,
work ratios, per-command times, the tracing overhead and the thread
speed-up.

A human-readable table goes first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A record
of the run (machine, commit, every job's argv, exit code, costs and
stdout digest) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import THREADED, Result, Runner, command_of, digest, skipped  # noqa: E402
from workloads import PLANS, execute  # noqa: E402

SETUP_ARGV = ["aut", "--graph", "K2"]
SETUP_REPEATS = 7       # at least this many set-up probes per run
SETUP_INTERVAL_S = 2.5  # and one before the next job once this much time has passed
WARMUP_REPEATS = 2
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# every job's timeout is cut to fit this, so a run always ends inside 180 s
RUN_DEADLINE_S = 172.0
OUT = HERE / "out"

COMMAND_METRICS = {
    "qmin": "qmin_s", "pe": "pe_s", "sparse-check": "sparse_check_s", "pc": "pc_s",
    "sweep": "sweep_s", "search": "search_s", "count": "count_s",
    "verify fit": "verify_s", "verify props": "verify_s",
}

# per-layer functions reported as <layer>.<function>.calls and .self_s
LAYER_FUNCTIONS = {
    "graphs": ("automorphism_count", "canonical_key", "canonical_form", "max_density"),
    "expectation": ("q_min", "expectation_threshold", "scan_subgraph_classes",
                    "violation_scan", "is_q_sparse"),
    "exact": ("value_mul", "value_cmp", "decimal_enclosure"),
    "catalog": ("graphs_on",),
    "counting": ("count_labeled", "count_copies", "contains", "count_cliques",
                 "count_cycles", "iter_labeled", "packing_number"),
    "montecarlo": ("sample_gnp", "derive_rng", "estimate_pc"),
    "search": ("certified_sparse", "exhaustive_sweep", "extremal_search"),
    "verifier": ("verify_structure", "verify_fit_partition", "verify_packing"),
    "util": ("parallel_map",),
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- passes -------------------------------------------------------------------------


def first_pass(runner: Runner, workload: str, seed: int, before_job=None) -> list:
    """Run the plan once; ``before_job()`` is called ahead of every job."""
    def run_job(job):
        if before_job:
            before_job()
        return runner.run(job.argv, job.timeout)
    return execute(PLANS[workload](seed), run_job)


def replay(runner: Runner, reference: list, argv_of=lambda argv: argv,
           launcher_of=None, before_job=None) -> list:
    """Re-run the reference jobs; an output that differs from the reference
    (exit code or stdout digest) fails."""
    results = []
    for ref in reference:
        if ref.rc is None:
            results.append(skipped(ref.argv, ref.failure))
            continue
        if before_job:
            before_job()
        launcher = launcher_of() if launcher_of else None
        res = runner.run(argv_of(ref.argv), max(ref.wall_s * 4, 20.0), launcher)
        if launcher:
            res.spans = launcher[-1]
        if res.failure is None:
            if res.rc != ref.rc or digest(res.stdout) != digest(ref.stdout):
                res.fail("output differs from the first pass")
            elif ref.failure is not None:
                res.fail("same output as the first pass, which failed: " + ref.failure)
        results.append(res)
    return results


def job_wall(results: list) -> float:
    """Time to finish a pass: the sum of its jobs' wall times."""
    return sum(res.wall_s for res in results)


def setup_probe(runner: Runner) -> Result:
    """One trivial CLI call: interpreter start, imports, parser, one report."""
    res = runner.run(SETUP_ARGV, 20.0)
    if res.failure is None:
        try:
            ok = json.loads(res.stdout).get("aut") == "2"
        except ValueError:
            ok = False
        if not ok:
            res.fail("check failed: aut of K2 is not 2")
    return res


class Prober:
    """Set-up probes spread over the run: the machine's speed drifts on a
    scale of seconds, so probes taken back to back would all sample one
    moment of it."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.results: list = []
        self.last = None

    def __call__(self) -> None:
        now = time.perf_counter()
        if self.last is None or now - self.last >= SETUP_INTERVAL_S:
            self.results.append(setup_probe(self.runner))
            self.last = time.perf_counter()

    def top_up(self, count: int) -> None:
        while len(self.results) < count:
            self.results.append(setup_probe(self.runner))


def with_threads_1(argv: list) -> list:
    return argv + ["--threads", "1"] if command_of(argv) in THREADED else argv


def command_times(results: list) -> dict:
    out = {name: 0.0 for name in dict.fromkeys(COMMAND_METRICS.values())}
    for res in results:
        name = COMMAND_METRICS.get(res.command)
        if name:
            out[name] += res.wall_s
    return out


# -- metrics ------------------------------------------------------------------------


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> tuple:
    probe = Prober(runner)
    start = time.perf_counter()
    passes = [first_pass(runner, workload, seed, probe)]
    while time.perf_counter() - start + statistics.mean(map(job_wall, passes)) <= seconds:
        passes.append(replay(runner, passes[0], before_job=probe))
    probe.top_up(SETUP_REPEATS)
    setup = probe.results
    everything = setup + [res for results in passes for res in results]
    metrics = {
        "wall_s": statistics.median(map(job_wall, passes)),
        "cpu_s": statistics.median(sum(r.cpu_s for r in results) for results in passes),
        "setup_s": statistics.median(r.wall_s for r in setup),
        "peak_rss_mb": max(r.rss_mb for r in everything),
    }
    metrics = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
    return metrics, everything, {"passes": len(passes), "setup_probes": len(setup)}


def per_layer(runner: Runner, workload: str, seed: int) -> tuple:
    OUT.mkdir(exist_ok=True)
    warm = [setup_probe(runner) for _ in range(WARMUP_REPEATS)]
    reference = first_pass(runner, workload, seed)
    spans_files = itertools.count()

    def tracer_launcher():
        return [str(HERE / "tracer.py"), str(OUT / f"spans-{os.getpid()}-{next(spans_files)}.json")]

    traced = replay(runner, reference, launcher_of=tracer_launcher)
    single = replay(runner, reference, argv_of=with_threads_1)
    walls = [job_wall(reference), job_wall(traced), job_wall(single)]
    metrics = layer_metrics(reference, traced, *walls)
    info = dict(zip(("wall_default_s", "wall_traced_s", "wall_threads1_s"), walls))
    return metrics, warm + reference + traced + single, info


def layer_metrics(reference: list, traced: list, wall_default: float,
                  wall_traced: float, wall_single: float) -> dict:
    """Per-layer metrics from the traced jobs' span summaries, plus
    per-command times and ratios from the untraced first pass."""
    funcs: dict = {}
    aut_from_expectation = 0
    counters: dict = {}
    cli_self = 0.0
    imports = []
    for res in traced:
        path = res.spans
        if path is None:
            continue
        try:
            with open(path) as fh:
                spans = json.load(fh)
        except (OSError, ValueError):
            res.fail("tracer wrote no span summary")
            continue
        finally:
            if os.path.exists(path):
                os.remove(path)
        for name, row in spans["funcs"].items():
            acc = funcs.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        aut_from_expectation += spans["calls_by_importer"].get(
            "graphs.automorphism_count", {}).get("expectation", 0)
        for name, value in spans["counters"].items():
            counters[name] = counters.get(name, 0) + value
        cli_self += spans["main_s"] - spans["top_s"]
        imports.append(spans["import_s"])

    def func(name):
        return funcs.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    metrics = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for fn in names:
            row = func(f"{layer}.{fn}")
            metrics[f"{layer}.{fn}.calls"] = (row["calls"], "count")
            metrics[f"{layer}.{fn}.self_s"] = (row["self_s"], "s")
    aut = func("graphs.automorphism_count")
    metrics["graphs.automorphism_count.per_s"] = (ratio(aut["calls"], aut["incl_s"]), "1/s")
    metrics["expectation.aut_calls"] = (aut_from_expectation, "count")
    metrics["expectation.aut_per_subset"] = (
        ratio(aut_from_expectation, counters.get("expectation.subsets", 0)), "ratio")
    metrics["counting.count_labeled.per_s"] = (
        ratio(counters.get("counting.embeddings", 0), func("counting.count_labeled")["incl_s"]), "1/s")
    metrics["montecarlo.pairs_per_s"] = (
        ratio(counters.get("montecarlo.pairs", 0), func("montecarlo.sample_gnp")["incl_s"]), "1/s")
    metrics.update(search_ratios(reference))
    metrics["util.parallel_map.pooled_calls"] = (counters.get("util.parallel_map.pooled_calls", 0), "count")
    metrics["util.parallel_map.items"] = (counters.get("util.parallel_map.items", 0), "count")
    metrics["cli.self_s"] = (cli_self, "s")
    metrics["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    for name, value in command_times(reference).items():
        metrics[name] = (value, "s")
    metrics["trace.overhead_frac"] = (ratio(wall_traced, wall_default) - 1.0, "ratio")
    metrics["threads.speedup"] = (ratio(wall_single, wall_default), "ratio")
    return metrics


def search_ratios(results: list) -> dict:
    """Annealer move ratios (per proposed move) and the sweep's sparse share."""
    budget = accepted = repaired = candidates = sparse = 0
    for res in results:
        if res.failure is not None or res.command not in ("search", "sweep"):
            continue
        try:
            doc = json.loads(res.stdout)
            if res.command == "search":
                chains = doc["metadata"]["chain_stats"]
                budget += sum(int(chain["budget"]) for chain in chains)
                accepted += sum(int(chain["accepted"]) for chain in chains)
                repaired += sum(int(chain["repaired_moves"]) for chain in chains)
            else:
                candidates += int(doc["candidates"])
                sparse += int(doc["sparse_candidates"])
        except (KeyError, TypeError, ValueError):
            res.fail("report lacks the annealer or sweep statistics")
    return {
        "search.accept_ratio": (ratio(accepted, budget), "ratio"),
        "search.repair_ratio": (ratio(repaired, budget), "ratio"),
        "search.sparse_frac": (ratio(sparse, candidates), "ratio"),
    }


# -- record -------------------------------------------------------------------------


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    uname = os.uname()
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "os": f"{uname.sysname} {uname.release} {uname.machine}"}


def git_commit() -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_record(args, metrics: dict, results: list, info: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "machine": machine(),
        "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "jobs": [res.record() for res in results],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


# -- entry point --------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long (at least one full pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kklab" / "cli.py").is_file():
        print(f"error: no kklab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    runner = Runner(ROOT, time.perf_counter() + RUN_DEADLINE_S)
    if args.trace:
        metrics, results, info = per_layer(runner, args.workload, args.seed)
    else:
        metrics, results, info = end_to_end(runner, args.workload, args.seed, args.seconds)
    failed = [res for res in results if res.failure is not None]
    record = write_record(args, metrics, results, info)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(results)} failed_frac={ratio(len(failed), len(results)):.4f} record={record.relative_to(ROOT)}")
    for res in failed:
        print(f"# FAILED {' '.join(res.argv)}: {res.failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
