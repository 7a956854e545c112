"""Random-graph sampling and Monte Carlo estimation of containment thresholds.

Two jobs live here.  First, seeded G(n,p) sampling with exact Bernoulli
draws (p may be rational or an exact root value) feeding a bisection
estimator for the median containment probability: the p at which a random
graph contains a target pattern with probability one half.  Second, seeded
generators that emit graphs certified q-sparse, either by repairing a
random sample or by checking a structured family.

Every stream is a Mersenne Twister ``random.Random`` seeded with the
sha256 of a master seed and a task label (``derive_rng``), so each trial's
sample depends only on its label and seeded runs are byte-identical.

``sample_gnp`` keeps each pair, in lexicographic order, exactly when
``bernoulli`` would: ``randrange(den) < num`` for a rational p = num/den
(no draw at p = 0 or 1), the dyadic refinement for a Root p.  For a plain
``random.Random`` and den < 256 it reads the same stream in bulk.
CPython's ``randrange(den)`` takes the top k = den.bit_length() bits of one
32-bit word and draws again while they are at least den, so with k <= 8
each draw is decided by a word's top byte: the sampler asks
``getrandbits`` for one word per draw still missing, drops the words whose
top byte is rejected, and repeats until every pair has its accepted byte.
It never draws a word the per-pair loop would not, so the pairs kept and
the generator's end state are the same.  Subclasses (whose ``randrange``
may not run on ``getrandbits``) and den >= 256 draw per pair.

``estimate_pc``'s trials run on the same sampler core but keep no
``Graph``: each trial ORs its kept pairs into adjacency masks and runs the
walker's existence check on them, and only when it kept at least as many
pairs as the pattern has edges.  Its batched rounds read ahead, asking
for about twice the words still missing and keeping the first C(n,2)
accepted bytes.  That is exact: ``getrandbits(32k)`` returns the same k
words, least significant first, as k separate 32-bit draws, so the
accepted prefix is the one the per-pair loop would see.  Only the
generator's end state differs, and each trial's stream is derived for it
alone and dropped afterwards.

Import layers: this module loads ``util``, ``graphs``, ``counting`` and
``exact``.  The generators import ``expectation`` (for its sparsity check)
when they run, ``trace_csv`` renders through ``util.csv_text``, and the
result records are ``util.Record``s, so ``kklab pc`` starts up without
the subset-scan layer, ``csv`` or ``dataclasses``.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from statistics import NormalDist

from .counting import DEFAULT_NODE_BUDGET, ResourceGuardError, _has_copy
from .exact import Root, format_fraction, value_cmp, value_mul
from .graphs import (
    Graph,
    complete_graph,
    disjoint_union,
    path_power_graph,
    spider_graph,
    theta_graph,
    to_graph6,
)
from .util import (
    DEFAULT_CONFIDENCE,
    DEFAULT_TOLERANCE,
    DEFAULT_TRIALS,
    GENERATOR_FAMILIES,
    PreconditionError,
    Record,
    csv_text,
)


def derive_rng(master_seed: int, *path) -> random.Random:
    """Independent RNG stream keyed by a master seed and a task path.

    Hashing the label instead of sharing one generator makes each
    consumer's stream depend only on its label, not on what ran before it.
    """
    tag = "|".join(str(part) for part in (master_seed,) + path)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _dyadic_draw(rng: random.Random, p: Root) -> bool:
    # u lies in [num/den, (num+1)/den); one more bit per round until p
    # leaves the interval.  Unchecked: callers validate p first.
    num, den = 0, 1
    while True:
        num = num * 2 + rng.getrandbits(1)
        den *= 2
        if p >= Fraction(num + 1, den):
            return True
        if p <= Fraction(num, den):
            return False


def bernoulli(rng: random.Random, p) -> bool:
    """One exact Bernoulli(p) draw; the per-pair reference for ``sample_gnp``.

    Rational p = num/den costs a single ``randrange(den) < num`` draw, and
    none at p = 0 or 1.  Root-valued p is decided by refining a random
    dyadic interval until it separates from p; comparisons against the root
    are exact.
    """
    if value_cmp(p, 0) < 0 or value_cmp(p, 1) > 0:
        raise PreconditionError(f"p={p} is not a probability")
    if isinstance(p, Root):
        return _dyadic_draw(rng, p)
    p = Fraction(p)
    if p == 0:
        return False
    if p == 1:
        return True
    return rng.randrange(p.denominator) < p.numerator


# the most pairs one G(n,p) sample draws: n = 1448 vertices
_GNP_PAIR_CAP = 1 << 20


@lru_cache(maxsize=32, typed=True)
def _gnp_plan(n: int, p) -> tuple:
    # (pairs, p, byte tables), checked and built once per (n, p); typed,
    # because a Root equal to a rational still draws dyadically.  The
    # tables exist only where one word's top byte decides a draw.
    if n < 0:
        raise PreconditionError(f"vertex count {n} is negative")
    if value_cmp(p, 0) < 0 or value_cmp(p, 1) > 0:
        raise PreconditionError(f"p={p} is not a probability")
    size = math.comb(n, 2)
    if size > _GNP_PAIR_CAP:
        raise ResourceGuardError(
            f"a G(n,p) sample on {n} vertices draws {size} pairs, "
            f"past the cap of {_GNP_PAIR_CAP}"
        )
    pairs = tuple(combinations(range(n), 2))
    if isinstance(p, Root):
        return pairs, p, None
    p = Fraction(p)
    num, den = p.numerator, p.denominator
    if not 0 < p < 1 or den >= 256:
        return pairs, p, None
    # randrange(den) reads the top k bits of a word: byte b gives b >> shift
    shift = 8 - den.bit_length()
    reject = bytes(b for b in range(256) if b >> shift >= den)
    keep = bytes(b >> shift < num for b in range(256))
    return pairs, p, (reject, keep)


def _kept_pairs(pairs: tuple, p, tables, rng: random.Random, read_ahead: bool = False):
    # the pairs G(n,p) keeps, in lexicographic order, from the plan's pairs,
    # p and byte tables.  read_ahead asks each batched round for about
    # twice the words still missing: the accepted prefix is the same, only
    # the generator's end state differs (see the module docstring)
    if isinstance(p, Root):
        return [e for e in pairs if _dyadic_draw(rng, p)]
    if p == 0 or p == 1:
        return pairs if p else ()
    if tables is None or type(rng) is not random.Random:
        num, den, randrange = p.numerator, p.denominator, rng.randrange
        return [e for e in pairs if randrange(den) < num]
    reject, keep = tables
    getrandbits, accepted = rng.getrandbits, b""
    while need := len(pairs) - len(accepted):
        ask = 2 * need + 16 if read_ahead else need
        # word i of the draw is the i-th least significant 32 bits
        words = getrandbits(32 * ask).to_bytes(4 * ask, "little")
        accepted = (accepted + words[3::4].translate(None, reject))[:len(pairs)]
    return compress(pairs, accepted.translate(keep))


def sample_gnp(n: int, p, rng: random.Random) -> Graph:
    """Sample G(n,p): each of the C(n,2) pairs kept independently.

    The pairs, in lexicographic order, are kept exactly as ``bernoulli``
    would keep them from the same stream, and the generator ends in the
    same state: rational p makes one ``randrange(den)`` draw per pair and
    none at p = 0 or 1; a Root p runs the dyadic refinement per pair.  For
    a plain ``random.Random`` and den < 256 the draws are read in bulk,
    one 32-bit word per draw still missing (see the module docstring).
    p is checked and the pair list built once per (n, p).
    """
    return Graph(n, _kept_pairs(*_gnp_plan(n, p), rng))


# -- threshold estimation ----------------------------------------------------------


class TrialPlan(Record):
    """Everything that determines an estimation run; equal plans give equal output."""

    n: int
    pattern: Graph
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    tolerance: Fraction = DEFAULT_TOLERANCE
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self):
        if self.trials < 1:
            raise PreconditionError(f"trials={self.trials} must be at least 1")
        if self.tolerance <= 0:
            raise PreconditionError(f"tolerance={self.tolerance} must be positive")
        if not 0 < self.confidence < 1:
            raise PreconditionError(f"confidence={self.confidence} must lie in (0,1)")
        if self.pattern.edge_count == 0:
            raise PreconditionError("pattern needs at least one edge")
        if self.pattern.n > self.n:
            raise PreconditionError(
                f"pattern on {self.pattern.n} vertices cannot embed in n={self.n}"
            )


class Probe(Record):
    p: Fraction
    successes: int
    trials: int
    wilson_low: float
    wilson_high: float


class EstimateResult(Record):
    """Bisection outcome: point estimate, p-interval, and the full probe trace."""

    plan: TrialPlan
    p_hat: Fraction
    interval: tuple
    probes: tuple

    def to_json(self) -> dict:
        return {
            "n": self.plan.n,
            "pattern": to_graph6(self.plan.pattern),
            "trials": self.plan.trials,
            "seed": self.plan.seed,
            "tolerance": format_fraction(self.plan.tolerance),
            "confidence": self.plan.confidence,
            "p_hat": format_fraction(self.p_hat),
            "interval": [format_fraction(self.interval[0]), format_fraction(self.interval[1])],
            "probes": [
                {
                    "p": format_fraction(pr.p),
                    "successes": pr.successes,
                    "trials": pr.trials,
                    "wilson_low": pr.wilson_low,
                    "wilson_high": pr.wilson_high,
                }
                for pr in self.probes
            ],
        }

    def trace_csv(self) -> str:
        return csv_text(
            ["probe", "p", "successes", "trials", "wilson_low", "wilson_high"],
            ([idx, format_fraction(pr.p), pr.successes, pr.trials, pr.wilson_low, pr.wilson_high]
             for idx, pr in enumerate(self.probes)),
        )


def wilson_interval(successes: int, trials: int, confidence: float) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if not 0 <= successes <= trials:
        raise PreconditionError(f"successes={successes} outside [0, {trials}]")
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _trial(n: int, gnp: tuple, F: Graph, rng: random.Random) -> bool:
    # contains(sample_gnp(n, p, rng), F) for gnp = _gnp_plan(n, p), with
    # the sample kept only as adjacency masks and its draws read ahead
    adj, e = [0] * n, 0
    for a, b in _kept_pairs(*gnp, rng, read_ahead=True):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        e += 1
    return e >= F.edge_count and _has_copy(adj, F)


def estimate_pc(plan: TrialPlan, threads: int = 1) -> EstimateResult:
    """Bisect for the p where containment probability crosses one half.

    Each probe runs ``plan.trials`` independent samples on its own derived
    streams.  Bisection stops once the bracket is narrower than the plan
    tolerance.  The reported interval inverts the per-probe Wilson bounds
    through monotonicity: its low end is the largest probe shown below the
    crossing with confidence, its high end the smallest probe shown above.
    That interval always contains the point estimate.  ``threads`` is
    accepted for compatibility and ignored: trials run serially.  A probe
    of more than ``DEFAULT_NODE_BUDGET`` pair draws (trials * C(n,2)) is
    refused before any sample is drawn.
    """
    draws = plan.trials * math.comb(plan.n, 2)
    if draws > DEFAULT_NODE_BUDGET:
        raise ResourceGuardError(
            f"a probe of {plan.trials} samples draws {draws} pairs, "
            f"past the budget of {DEFAULT_NODE_BUDGET}"
        )
    lo, hi = Fraction(0), Fraction(1)
    probes = []
    while hi - lo >= plan.tolerance:
        p = (lo + hi) / 2
        i = len(probes)
        gnp = _gnp_plan(plan.n, p)
        # trial t of probe i draws from the stream labeled ("pc", i, t)
        successes = sum(
            _trial(plan.n, gnp, plan.pattern, derive_rng(plan.seed, "pc", i, t))
            for t in range(plan.trials)
        )
        w_lo, w_hi = wilson_interval(successes, plan.trials, plan.confidence)
        probes.append(Probe(p, successes, plan.trials, w_lo, w_hi))
        if 2 * successes >= plan.trials:
            hi = p
        else:
            lo = p
    p_hat = (lo + hi) / 2
    ci_lo = max((pr.p for pr in probes if pr.wilson_high < 0.5), default=Fraction(0))
    ci_hi = min((pr.p for pr in probes if pr.wilson_low > 0.5), default=Fraction(1))
    return EstimateResult(plan=plan, p_hat=p_hat, interval=(ci_lo, ci_hi), probes=tuple(probes))


# -- certified sparse instance generators ------------------------------------------


def _repair_edge(g: Graph, witness_edges: tuple) -> tuple:
    # degree measured inside the witness: violations are density driven,
    # so peel where the witness is thickest; ties go to the smallest edge
    deg = {}
    for a, b in witness_edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    return min(witness_edges, key=lambda e: (-(deg[e[0]] + deg[e[1]]), e))


def _gnp_repair(n: int, q, rng: random.Random, params: dict, repair_budget) -> Graph:
    from .expectation import is_q_sparse

    # 7 vertices keep even a complete sample inside the exact-scan edge cap
    nv = int(params.get("vertices", min(n, 7)))
    if not 1 <= nv <= n:
        raise PreconditionError(f"gnp-repair vertex count {nv} outside [1, {n}]")
    boost = Fraction(params.get("boost", 2))
    p0 = value_mul(q, boost)
    if value_cmp(p0, 1) > 0:
        p0 = Fraction(1)
    g = sample_gnp(nv, p0, rng)
    steps = 0
    while True:
        check = is_q_sparse(g, n, q)
        if check.sparse:
            return g
        if repair_budget is not None and steps >= repair_budget:
            raise ResourceGuardError(
                f"sparsity repair did not converge within {repair_budget} removals"
            )
        drop = _repair_edge(g, check.witness_edges)
        g = Graph(g.n, [e for e in g.edges if e != drop])
        steps += 1


def _clique_union(n: int, rng: random.Random, params: dict) -> Graph:
    sizes = params.get("sizes")
    if sizes is None:
        sizes = [rng.randrange(3, 6) for _ in range(rng.randrange(1, 3))]
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise PreconditionError(f"clique sizes {sizes} must all be positive")
    return disjoint_union(*(complete_graph(s) for s in sizes))


def _theta(n: int, rng: random.Random, params: dict) -> Graph:
    # draw only what is absent: an explicit 0 meets theta_graph's refusal
    a = int(params["a"]) if "a" in params else rng.randrange(1, 4)
    b = int(params["b"]) if "b" in params else rng.randrange(2, 5)
    c = int(params["c"]) if "c" in params else rng.randrange(2, 5)
    return theta_graph(a, b, c)


def _spider(n: int, rng: random.Random, params: dict) -> Graph:
    legs = params.get("legs")
    if legs is None:
        legs = [rng.randrange(1, 4) for _ in range(rng.randrange(2, 5))]
    return spider_graph(legs)


def _path_power(n: int, rng: random.Random, params: dict) -> Graph:
    hi = max(5, min(n, 9))
    vertices = int(params["vertices"]) if "vertices" in params else rng.randrange(4, hi)
    power = int(params["power"]) if "power" in params else rng.randrange(1, 3)
    return path_power_graph(vertices, power)


_STRUCTURED = {
    "clique-union": _clique_union,
    "theta": _theta,
    "spider": _spider,
    "path-power": _path_power,
}


def generate_sparse(
    n: int,
    q,
    family: str,
    rng: random.Random | None = None,
    params: dict | None = None,
    repair_budget: int | None = None,
) -> Graph:
    """Emit a graph certified q-sparse against an n-vertex ambient host.

    gnp-repair samples a boosted random graph on a few vertices, then
    deletes one witness edge at a time until the sparsity check passes.
    The structured families build a parameterized instance and reject it
    outright (with the violating witness) if the check fails.
    """
    if rng is None:
        rng = derive_rng(0, "gen", family)
    params = dict(params or {})
    if family == "gnp-repair":
        return _gnp_repair(n, q, rng, params, repair_budget)
    builder = _STRUCTURED.get(family)
    if builder is None:
        raise PreconditionError(
            f"unknown family {family!r}; choose from {GENERATOR_FAMILIES}"
        )
    from .expectation import _require_sparse

    host = builder(n, rng, params)
    _require_sparse(host, n, q)
    return host
