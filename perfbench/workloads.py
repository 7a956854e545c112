"""Seeded inputs, job lists and output checks for each benchmark workload.

A workload is a plan: a generator that yields ``Job``s one at a time and
receives each job's ``Result`` back, so later jobs can be built from
earlier outputs (a sparse-check at the q_min a qmin job reported, a
verify on the host a gen job emitted).  The plan checks every output it
receives and marks the result failed when a check does not hold.  The
program only ever sees ``g6:`` tokens, names and flags.

Host shapes (vertex and edge counts) are fixed per workload so the seed
changes a host's structure but not the size of the scan over it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from jobs import Result, skipped

# one-line reasons, mirrored in BENCHMARK.json
WHY = {
    "thresholds": "qmin, pe and sparse-check on 13- and 15-edge hosts: automorphism counts "
                  "inside the full-table, pruned and violation subset scans",
    "montecarlo": "pc bisections for K3 and C4: G(n,p) sampling and containment; "
                  "no automorphism count or subset scan, so the control for those layers",
    "extremal": "K3 sweep at v-cap 7 plus K3/P3 anneals: catalog build, memoised aut "
                "on tiny graphs, Root arithmetic and the annealer",
    "counting": "count, verify fit/props and pack on G(n,m) and gen hosts: "
                "the embedding walker and the proposition verifier",
}

HEAVY_TIMEOUT = 60.0
LIGHT_TIMEOUT = 20.0


@dataclass
class Job:
    argv: list
    timeout: float = LIGHT_TIMEOUT
    skip: str | None = None  # set when an earlier failure left no input for this job


# -- seeded graphs -------------------------------------------------------------


def graph6(n: int, edges) -> str:
    """graph6 encoding of a simple graph on vertices 0..n-1 (n < 63)."""
    if not 0 <= n < 63:
        raise ValueError(f"graph6 short form needs n < 63, got {n}")
    edge_set = {(min(a, b), max(a, b)) for a, b in edges}
    bits = [1 if (i, j) in edge_set else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k:k + 6]:
            value = value * 2 + bit
        chars.append(chr(63 + value))
    return "".join(chars)


def connected_host(rng: random.Random, v: int, e: int) -> list:
    """A connected graph with exactly v vertices and e edges: a random
    recursive tree on a shuffled vertex order plus e - v + 1 random chords."""
    order = list(range(v))
    rng.shuffle(order)
    edges = set()
    for i in range(1, v):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    rest = [(a, b) for a in range(v) for b in range(a + 1, v) if (a, b) not in edges]
    edges.update(rng.sample(rest, e - len(edges)))
    return sorted(edges)


def gnm(rng: random.Random, n: int, m: int) -> list:
    """G(n, m): m distinct vertex pairs drawn uniformly."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return sorted(rng.sample(pairs, m))


def token(n: int, edges) -> str:
    return "g6:" + graph6(n, edges)


def frac_arg(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# -- output helpers ------------------------------------------------------------------


def parse(res: Result):
    """The job's JSON report, or None (and the job failed) if there is none."""
    if res.failure is not None:
        return None
    try:
        doc = json.loads(res.stdout)
    except ValueError:
        res.fail("stdout is not a JSON report")
        return None
    if not isinstance(doc, dict):
        res.fail("stdout is not a JSON object")
        return None
    return doc


def expect(res: Result, ok: bool, reason: str) -> bool:
    if not ok:
        res.fail("check failed: " + reason)
    return ok


def strict_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"not a JSON boolean: {value!r}")
    return value


def field(res: Result, doc, key: str, kind=str):
    """doc[key] converted by kind, or None (and the job failed)."""
    if doc is None:
        return None
    try:
        return kind(doc[key])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        res.fail(f"report has no usable {key!r}")
        return None


# -- thresholds ---------------------------------------------------------------------

THRESH_N = 20
# (vertices, edges): 13 edges takes the full-table scan, 15 the pruned one
THRESH_SHAPES = ((8, 13), (9, 15))


def _q_min(res: Result):
    """(base, k, lo, hi) from a qmin report whose enclosure [lo, hi] must
    bracket q_min = base^(-1/k); None (and the job failed) otherwise."""
    doc = parse(res)
    pair = field(res, doc, "base_pair", list)
    enclosure = field(res, doc, "enclosure", list)
    if pair is None or enclosure is None:
        return None
    base, k = Fraction(pair[0]), int(pair[1])
    lo, hi = Fraction(enclosure[0]), Fraction(enclosure[1])
    if not expect(res, lo ** k * base <= 1 <= hi ** k * base,
                  "q_min enclosure does not bracket base^(-1/k)"):
        return None
    return base, k, lo, hi


def thresholds(seed: int):
    rng = random.Random(f"thresholds/{seed}")
    for v, e in THRESH_SHAPES:
        base_args = ["--graph", token(v, connected_host(rng, v, e)), "--n", str(THRESH_N)]
        qres = yield Job(["qmin", *base_args], HEAVY_TIMEOUT)
        q_min = _q_min(qres)
        pres = yield Job(["pe", *base_args], HEAVY_TIMEOUT)
        pe_pair = field(pres, parse(pres), "base_pair", list)
        if q_min is None:
            for _ in range(2):
                yield Job(["sparse-check", *base_args], skip="no q_min to bracket")
            continue
        base, k, lo, hi = q_min
        if pe_pair is not None:
            # p_E = pe_base^(-1/pe_k) <= q_min = base^(-1/k)
            pe_base, pe_k = Fraction(pe_pair[0]), int(pe_pair[1])
            expect(pres, pe_base ** k >= base ** pe_k, "p_E exceeds q_min")
        below = lo if lo ** k * base < 1 else lo - Fraction(1, 10 ** 12)
        for q, want in ((hi, True), (below, False)):
            res = yield Job(["sparse-check", *base_args, "--q", frac_arg(q)], HEAVY_TIMEOUT)
            sparse = field(res, parse(res), "sparse", strict_bool)
            if sparse is not None:
                expect(res, sparse is want,
                       "not sparse at the top of the q_min enclosure" if want
                       else "sparse strictly below q_min")


# -- montecarlo ----------------------------------------------------------------------

MC_TRIALS = 250
MC_PLANS = (("K3", 20), ("C4", 24))


def montecarlo(seed: int):
    rng = random.Random(f"montecarlo/{seed}")
    for pattern, n in MC_PLANS:
        pc_seed = rng.randrange(1 << 31)
        res = yield Job(["pc", "--pattern", pattern, "--n", str(n),
                         "--trials", str(MC_TRIALS), "--seed", str(pc_seed)], HEAVY_TIMEOUT)
        doc = parse(res)
        p_hat = field(res, doc, "p_hat", Fraction)
        interval = field(res, doc, "interval", list)
        if p_hat is not None and interval is not None:
            lo, hi = Fraction(interval[0]), Fraction(interval[1])
            expect(res, lo <= p_hat <= hi, "p_hat outside its interval")


# -- extremal -----------------------------------------------------------------------

EXT_N = 10
EXT_Q = "root:120:3"  # q_min of K3 at n = 10: (3!/(10*9*8))^(1/3)
EXT_V_CAP = 7
EXT_BUDGET = 400
EXT_SEARCHES = (("K3", 7), ("K3", 8), ("P3", 8))


def extremal(seed: int):
    rng = random.Random(f"extremal/{seed}")
    common = ["--n", str(EXT_N), "--q", EXT_Q]
    res = yield Job(["sweep", "--pattern", "K3", *common, "--v-cap", str(EXT_V_CAP)],
                    HEAVY_TIMEOUT)
    sweep_max = field(res, parse(res), "N", int)
    hosts = {}
    for pattern, cap in EXT_SEARCHES:
        res = yield Job(["search", "--pattern", pattern, *common, "--budget", str(EXT_BUDGET),
                         "--seed", str(rng.randrange(1 << 31)), "--host-cap", str(cap)],
                        HEAVY_TIMEOUT)
        board = field(res, parse(res), "leaderboard", list)
        if board is None:
            continue
        try:
            copies = [int(entry["N"]) for entry in board]
            hosts.update(dict.fromkeys(entry["graph6"] for entry in board))
        except (KeyError, TypeError, ValueError):
            res.fail("leaderboard entries lack N or graph6")
            continue
        if pattern == "K3" and cap <= EXT_V_CAP and sweep_max is not None:
            expect(res, max(copies, default=0) <= sweep_max,
                   "annealer beat the exhaustive sweep maximum")
    for g6 in hosts:
        res = yield Job(["sparse-check", "--graph", "g6:" + g6, *common])
        sparse = field(res, parse(res), "sparse", strict_bool)
        if sparse is not None:
            expect(res, sparse, "leaderboard host is not q-sparse")


# -- counting -----------------------------------------------------------------------

COUNT_N, COUNT_M = 44, 300
# (specialised family, its parameter, the same pattern by name)
COUNT_FAMILIES = (("cycle", 5, "C5"), ("clique", 4, "K4"))
LABELED = ("P3", 2)  # pattern and its automorphism count
FIT = ("P2", "1", "3")  # tree pattern, eps, d
GEN_N, GEN_Q, GEN_VERTICES = 12, "1/4", 6
PACK_PATTERN = "P2"


def counting(seed: int):
    rng = random.Random(f"counting/{seed}")
    host = token(COUNT_N, gnm(rng, COUNT_N, COUNT_M))
    for family, param, name in COUNT_FAMILIES:
        fres = yield Job(["count", "--graph", host, "--family", family, "--param", str(param)])
        fam = field(fres, parse(fres), "count", int)
        pres = yield Job(["count", "--graph", host, "--pattern", name])
        generic = field(pres, parse(pres), "count", int)
        if fam is not None and generic is not None:
            expect(pres, fam == generic, f"{family} counter disagrees with --pattern {name}")

    pattern, aut = LABELED
    lres = yield Job(["count", "--graph", host, "--pattern", pattern, "--labeled"])
    labeled = field(lres, parse(lres), "count", int)
    cres = yield Job(["count", "--graph", host, "--pattern", pattern])
    copies = field(cres, parse(cres), "count", int)
    if labeled is not None and copies is not None:
        expect(lres, labeled == copies * aut, "labeled count is not copies x aut")

    tree, eps, d = FIT
    res = yield Job(["verify", "fit", "--graph", host, "--pattern", tree, "--eps", eps, "--d", d])
    all_pass = field(res, parse(res), "all_pass", strict_bool)
    if all_pass is not None:
        expect(res, all_pass, "fit-partition identity failed")

    res = yield Job(["gen", "--family", "gnp-repair", "--vertices", str(GEN_VERTICES),
                     "--n", str(GEN_N), "--q", GEN_Q, "--seed", str(rng.randrange(1 << 31))])
    sparse_host = field(res, parse(res), "graph6")
    props = ["verify", "props", "--graph", f"g6:{sparse_host}", "--n", str(GEN_N),
             "--q", GEN_Q, "--pattern", PACK_PATTERN]
    pack = ["pack", "--graph", f"g6:{sparse_host}", "--pattern", PACK_PATTERN]
    if sparse_host is None:
        yield Job(props, skip="gen emitted no host")
        yield Job(pack, skip="gen emitted no host")
        return
    res = yield Job(props)
    doc = parse(res)
    all_pass = field(res, doc, "all_pass", strict_bool)
    packing_lhs = None
    if all_pass is not None and expect(res, all_pass, "a structure proposition failed"):
        lhs = [r.get("lhs") for r in doc.get("reports", [])
               if isinstance(r, dict) and r.get("prop_id") == "packing-expectation-bound"]
        if expect(res, len(lhs) == 1, "no packing report"):
            packing_lhs = lhs[0]
    res = yield Job(pack)
    packing = field(res, parse(res), "packing")
    if packing is not None and packing_lhs is not None:
        expect(res, packing == packing_lhs, "pack disagrees with verify props")


PLANS = {
    "thresholds": thresholds,
    "montecarlo": montecarlo,
    "extremal": extremal,
    "counting": counting,
}


def execute(plan, run) -> list:
    """Drive a plan to the end; ``run(job)`` returns the job's Result."""
    results = []
    try:
        job = next(plan)
        while True:
            res = skipped(job.argv, job.skip) if job.skip else run(job)
            results.append(res)
            job = plan.send(res)
    except StopIteration:
        pass
    return results
