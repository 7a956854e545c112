"""Extremal search over q-sparse hosts for the scale constant.

The objective is required_L(H, F, n, q): how far the pattern expectation at
q must be scaled before it matches the copy count of F inside H.  Within a
run, n, q, and F are fixed, so the expectation E is one constant and the
score orders exactly like the copy count N.  Two engines live here: an
exhaustive sweep over every q-sparse graph on a few vertices (the oracle),
which builds only the sparse classes by the catalog's vertex-augmentation
step, and a simulated annealer over edge toggles on a fixed vertex budget
(the explorer).  Both keep every reported host certified q-sparse.
"""

from __future__ import annotations

import math

from .catalog import _GRAPH_COUNTS, _hereditary_levels
from .counting import count_cliques, count_copies, count_cycles
from .exact import DEFAULT_DIGITS, _power_sign, value_cmp, value_float, value_to_json
from .expectation import _VerdictMemo, _check_sparse_input, _required_L_of, expected_copies
from .graphs import Graph, canonical_form, parse_graph6, to_graph6
from .montecarlo import _repair_edge, derive_rng
from .util import (
    DEFAULT_COOLING,
    DEFAULT_EDGE_CAP,
    DEFAULT_SWEEP_V_CAP,
    DEFAULT_TOP_K,
    SWEEP_VERTEX_CAP,
    EdgeCapError,  # re-exported from its old home
    PreconditionError,
    Record,
    _int_text,
    iter_bits,
)

DEFAULT_HOST_CAP = 12
WARMUP_DOWNHILL = 32


def score_pair_cmp(pair_a: tuple, pair_b: tuple, pattern_edges: int) -> int:
    """Order two (copies, expectation) score pairs without extracting roots.

    The scores are (N/E)^(1/e), so the sign test decides
    N_1^e * E_2 / (N_2^e * E_1) against 1 without building either side.
    With a shared expectation this collapses to comparing copy counts,
    which is the hot-loop case.
    """
    n1, e1 = pair_a
    n2, e2 = pair_b
    if e1 is e2 or value_cmp(e1, e2) == 0:
        return (n1 > n2) - (n1 < n2)
    if not (n1 and n2 and e1 and e2):  # a side is zero
        return bool(n1 and e2) - bool(n2 and e1)
    return _power_sign(((n1, pattern_edges), (e2, 1), (n2, -pattern_edges), (e1, -1)))


def _require_feasible(n: int, q) -> None:
    # a single edge is the least demanding nonempty host: C(n,2) q >= 1
    pairs = math.comb(n, 2)
    if not pairs or value_cmp(q, 0) <= 0 or _power_sign(((pairs, 1), (q, 1))) < 0:
        raise PreconditionError(
            f"no nonempty graph is q-sparse at n={n}: a single edge already has "
            f"expectation C({n},2)*q below 1",
            witness=((0, 1),),
        )


def _check_pattern(F: Graph) -> None:
    if F.edge_count == 0:
        raise PreconditionError("pattern needs at least one edge")


def _make_counter(F: Graph):
    """Route clique and cycle patterns to their specialized counters."""
    if F.n >= 2 and F.edge_count == math.comb(F.n, 2):
        r = F.n
        return lambda H: count_cliques(H, r)
    if (
        F.n >= 3
        and F.edge_count == F.n
        and all(d == 2 for d in F.degrees())
        and F.is_connected()
    ):
        k = F.n
        return lambda H: count_cycles(H, k)
    return lambda H: count_copies(H, F)


def certified_sparse(g: Graph, n: int, q, edge_cap: int = DEFAULT_EDGE_CAP) -> bool:
    """Sparsity verdict that stays cheap on easy instances: one
    ``_VerdictMemo.certify`` on a fresh memo at (n, q), after the input
    check ``is_q_sparse`` makes."""
    _check_sparse_input(g, n, q)
    return _VerdictMemo(n, q, g.edge_count).certify(g, edge_cap)


# -- exhaustive sweep ---------------------------------------------------------------


class SweepResult(Record):
    """Exact argmax of required_L over the q-sparse graphs on at most v_cap
    vertices.

    ``candidates`` is the number of graphs on at most v_cap vertices up to
    isomorphism, the set the answer ranges over; it comes from a table of
    those counts, since the sweep builds only the sparse ones.
    ``sparse_candidates`` is the number of q-sparse classes among them, each
    built, certified and scored once.
    """

    graph: Graph
    copies: int
    score: object
    enclosure: tuple
    expectation: object
    pattern_edges: int
    candidates: int
    sparse_candidates: int
    digits: int

    def to_json(self) -> dict:
        return {
            "graph6": to_graph6(self.graph),
            "score_enclosure": list(self.enclosure),
            "N": _int_text(self.copies),
            "E_q": value_to_json(self.expectation, self.digits),
            "candidates": self.candidates,
            "sparse_candidates": self.sparse_candidates,
        }


def exhaustive_sweep(
    n: int,
    q,
    F: Graph,
    v_cap: int = DEFAULT_SWEEP_V_CAP,
    threads: int = 1,
    edge_cap: int = DEFAULT_EDGE_CAP,
    digits: int = DEFAULT_DIGITS,
) -> SweepResult:
    """Return the exact maximizer of required_L over the q-sparse graphs on
    at most v_cap vertices, with its score enclosure.

    q-sparseness is closed under subgraphs, so every sparse graph on v
    vertices is a one-vertex extension of a sparse graph on v - 1 vertices:
    each level is the catalog's extension step applied to the previous
    sparse level, and each class it builds is certified once, by one memo
    for all levels.  A non-sparse graph whose one-vertex-deleted subgraphs
    are all non-sparse is never examined, so it cannot trigger the
    edge-cap refusal.

    Ties in the copy count go to the smallest graph6 string, so reruns and
    the annealer agree on one canonical winner.  ``threads`` is accepted
    for compatibility and ignored: candidates are examined serially.
    """
    if not 1 <= v_cap <= SWEEP_VERTEX_CAP:
        raise PreconditionError(f"v_cap={v_cap} outside [1, {SWEEP_VERTEX_CAP}]")
    if v_cap > n:
        raise PreconditionError(f"v_cap={v_cap} exceeds the ambient n={n}")
    _check_pattern(F)
    _require_feasible(n, q)
    counter = _make_counter(F)
    memo = _VerdictMemo(n, q, math.comb(v_cap, 2))
    sparse_count = 0
    best = None
    # levels come in graph6 order (v, then _packed_key: graph6's body bits),
    # so the first class with the most copies has the smallest graph6 string
    for level in _hereditary_levels(v_cap, lambda g: memo.certify(g, edge_cap)):
        sparse_count += len(level)
        for g in level:
            copies = counter(g)
            if best is None or copies > best[0]:
                best = (copies, g)
    # feasibility guarantees at least the single edge survives
    copies, graph = best
    rl = _required_L_of(copies, expected_copies(n, q, F), F.edge_count, digits)
    return SweepResult(
        graph=graph,
        copies=copies,
        score=rl.value,
        enclosure=rl.enclosure,
        expectation=rl.expectation,
        pattern_edges=F.edge_count,
        candidates=sum(_GRAPH_COUNTS[:v_cap]),
        sparse_candidates=sparse_count,
        digits=digits,
    )


# -- simulated annealing ------------------------------------------------------------


class LeaderboardEntry(Record):
    graph: Graph
    copies: int
    score: object
    enclosure: tuple
    expectation: object
    moves: int
    seed: int
    chain: int
    digits: int

    def to_json(self) -> dict:
        return {
            "graph6": to_graph6(self.graph),
            "score_enclosure": list(self.enclosure),
            "N": _int_text(self.copies),
            "E_q": value_to_json(self.expectation, self.digits),
            "moves": self.moves,
            "seed": self.seed,
            "chain": self.chain,
        }


class SearchResult(Record):
    entries: tuple
    metadata: dict

    def to_json(self) -> dict:
        return {
            "leaderboard": [entry.to_json() for entry in self.entries],
            "metadata": self.metadata,
        }


def extremal_search(
    n: int,
    q,
    F: Graph,
    budget: int,
    seed: int,
    host_cap: int | None = None,
    chains: int = 1,
    top_k: int = DEFAULT_TOP_K,
    threads: int = 1,
    cooling: float = DEFAULT_COOLING,
    edge_cap: int = DEFAULT_EDGE_CAP,
    digits: int = DEFAULT_DIGITS,
) -> SearchResult:
    """Annealing search for sparse hosts with many pattern copies.

    Moves toggle one vertex pair on a host of host_cap labeled vertices.
    Deletions keep sparsity automatically (subsets only shrink); additions
    are scanned for violations through the new edge and repaired by edge
    removal, or rejected when the repair would undo the toggle.  During
    warmup, downhill moves accept at one half; the initial temperature is
    then set to the median warmup loss so that acceptance continues near
    one half, and cooling is geometric per accepted move.  Each chain
    draws from its own seeded stream, so identical arguments and seed give
    an identical leaderboard.  The chains run one after another and record
    into one shared leaderboard, where a host class keeps its first record
    in chain order.  ``threads`` is accepted for compatibility and ignored.
    """
    _check_pattern(F)
    if budget < 0:
        raise PreconditionError(f"budget={budget} must be nonnegative")
    if chains < 1:
        raise PreconditionError(f"chains={chains} must be at least 1")
    if top_k < 1:
        raise PreconditionError(f"top_k={top_k} must be at least 1")
    if not (math.isfinite(cooling) and cooling > 0):
        raise PreconditionError(f"cooling={cooling} must be finite and positive")
    if host_cap is None:
        host_cap = min(DEFAULT_HOST_CAP, n)
    if not 2 <= host_cap <= n:
        raise PreconditionError(f"host_cap={host_cap} outside [2, n={n}]")
    if F.n > host_cap:
        raise PreconditionError(
            f"pattern on {F.n} vertices can never embed under host_cap={host_cap}"
        )
    _require_feasible(n, q)
    expectation = expected_copies(n, q, F)
    e_float = value_float(expectation)
    counter = _make_counter(F)
    # verdicts at (n, q) do not depend on the chain, so the chains share one memo
    memo = _VerdictMemo(n, q, math.comb(host_cap, 2))
    report_strippable = all(F.adj[v] for v in range(F.n))
    # the host is its pair mask: bit idx stands for pairs[idx], so the set
    # bits in increasing order list the host's edges sorted
    pairs = [(i, j) for i in range(host_cap) for j in range(i + 1, host_cap)]

    def host(mask: int) -> Graph:
        return Graph(host_cap, [pairs[idx] for idx in iter_bits(mask)])

    def score_float(copies: int) -> float:
        if copies == 0:
            return 0.0
        return (copies / e_float) ** (1.0 / F.edge_count)

    def settle_addition(mask: int, bit: int):
        """(mask, None) on success, else (None, rejection reason)."""
        while True:
            size = mask.bit_count()
            if size <= memo.safe_edges(host_cap):
                return mask, None
            if size > edge_cap:
                return None, "cap"
            probe = host(mask)
            # the toggled edge's index among the sorted edges
            hit = next(memo.violators(probe, (mask & (bit - 1)).bit_count()), None)
            if hit is None:
                return mask, None
            drop = 1 << pairs.index(_repair_edge(probe, hit[1]))
            if drop == bit:
                return None, "untoggle"
            mask ^= drop

    # graph6 -> (copies, chain, moves), shared by all chains
    records: dict = {}

    def ranked(limit: int) -> list:
        return sorted(records.items(), key=lambda kv: (-kv[1][0], kv[0]))[:limit]

    def record(mask: int, copies: int, chain_idx: int, moves: int) -> None:
        shape = host(mask)
        if report_strippable:
            # the edgeless host reports as K1
            shape = shape.induced([v for v in range(shape.n) if shape.adj[v]] or [0])
        g6 = to_graph6(canonical_form(shape))
        # copy counts are isomorphism invariant: a class keeps its first
        # record in chain order
        if g6 not in records:
            records[g6] = (copies, chain_idx, moves)
        if len(records) > 8 * top_k:
            kept = ranked(4 * top_k)
            records.clear()
            records.update(kept)

    # a host below the top_k-th recorded count can never reach the top_k
    record_gate = 0
    chain_stats = []
    base, extra = divmod(budget, chains)
    for chain_idx in range(chains):
        rng = derive_rng(seed, "search", chain_idx)
        chain_budget = base + (chain_idx < extra)
        # mask of H+uv -> settle_addition's outcome, emptied per chain.  The
        # key leaves out the toggled edge, which settle_addition also reads,
        # so the first outcome per added host wins whichever edge was toggled.
        add_cache: dict = {}
        cur_mask = 0
        cur_copies = 0
        record(cur_mask, 0, chain_idx, 0)
        temperature = None
        calibrated_t0 = None
        warmup: list = []
        accepted = 0
        audited = 0
        repaired_moves = 0
        repair_rejections = 0
        unverifiable = 0

        for step in range(1, chain_budget + 1):
            bit = 1 << rng.randrange(len(pairs))
            if cur_mask & bit:
                cand_mask = cur_mask ^ bit
            else:
                key = cur_mask | bit
                if key not in add_cache:
                    add_cache[key] = settle_addition(key, bit)
                cand_mask, why = add_cache[key]
                if cand_mask is None:
                    if why == "cap":
                        unverifiable += 1
                    else:
                        repair_rejections += 1
                    continue
                if cand_mask != key:
                    repaired_moves += 1
            cand_copies = counter(host(cand_mask))
            delta = score_float(cand_copies) - score_float(cur_copies)
            if delta >= 0:
                accept = True
            elif temperature is None:
                warmup.append(-delta)
                accept = rng.random() < 0.5
                if len(warmup) >= WARMUP_DOWNHILL:
                    mid = sorted(warmup)[len(warmup) // 2]
                    calibrated_t0 = mid / math.log(2) if mid > 0 else 1.0
                    temperature = calibrated_t0
            else:
                # a temperature cooled to 0.0 rejects every downhill move, after the
                # same draw, so the stream does not depend on the underflow
                draw = rng.random()
                accept = temperature > 0.0 and draw < math.exp(delta / temperature)
            if not accept:
                continue
            cur_mask, cur_copies = cand_mask, cand_copies
            accepted += 1
            if temperature is not None:
                temperature *= cooling
            if accepted % 100 == 0:
                audited += 1
                if not memo.certify(host(cur_mask), edge_cap):
                    raise RuntimeError(
                        f"audit failed: accepted host is not q-sparse after move {step}"
                    )
            if cur_copies >= record_gate:
                record(cur_mask, cur_copies, chain_idx, step)
                if len(records) >= top_k:
                    record_gate = sorted(
                        (r[0] for r in records.values()), reverse=True
                    )[top_k - 1]

        chain_stats.append({
            "chain": chain_idx,
            "budget": chain_budget,
            "accepted": accepted,
            "audited": audited,
            "repaired_moves": repaired_moves,
            "repair_rejections": repair_rejections,
            "unverifiable_rejections": unverifiable,
            "initial_temperature": calibrated_t0,
            "final_temperature": temperature,
        })

    entries = []
    for g6, (copies, chain_idx, moves) in ranked(top_k):
        rl = _required_L_of(copies, expectation, F.edge_count, digits)
        entries.append(
            LeaderboardEntry(
                graph=parse_graph6(g6),
                copies=copies,
                score=rl.value,
                enclosure=rl.enclosure,
                expectation=expectation,
                moves=moves,
                seed=seed,
                chain=chain_idx,
                digits=digits,
            )
        )
    metadata = {
        "n": n,
        "q": value_to_json(q, digits),
        "pattern": to_graph6(F),
        "budget": budget,
        "seed": seed,
        "chains": chains,
        "host_cap": host_cap,
        "top_k": top_k,
        "cooling": cooling,
        "edge_cap": edge_cap,
        "safe_edge_bound": memo.safe_edges(host_cap),
        "expectation": value_to_json(expectation, digits),
        "chain_stats": chain_stats,
    }
    return SearchResult(entries=tuple(entries), metadata=metadata)
