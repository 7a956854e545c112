"""Reproduce the extremal-search regression constants.

Runs the exhaustive small-host sweep for each canonical pattern at the
pattern's own sparsity threshold, then checks that simulated annealing
recovers the same maximizer score.  The printed table is the source of
the frozen values asserted by the acceptance suite: the graph count
(cands), the q-sparse class count (sparse), the maximizer and its
copies.  Exits 1 when any row's annealer disagrees with its sweep.
"""

import argparse
import time

from kklab import (
    complete_graph,
    cycle_graph,
    exhaustive_sweep,
    extremal_search,
    path_graph,
    q_min,
    score_pair_cmp,
    to_graph6,
)

CASES = (
    ("K3", complete_graph(3), 10, 7),
    ("C4", cycle_graph(4), 12, 11),
    ("P3", path_graph(3), 12, 11),
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=10**5, help="annealing move budget")
    ap.add_argument("--v-cap", type=int, default=6, help="host order cap for the sweep")
    args = ap.parse_args(argv)

    header = (
        f"{'pattern':8} {'n':>3} {'cands':>6} {'sparse':>6} {'maximizer':>10} {'copies':>7} "
        f"{'score':>16} {'anneal':>10} {'moves':>6} {'agree':>6}"
    )
    print(header)
    print("-" * len(header))
    disagreements = 0
    for label, pattern, n, seed in CASES:
        q = q_min(pattern, n).threshold
        t0 = time.monotonic()
        sweep = exhaustive_sweep(n, q, pattern, v_cap=args.v_cap)
        result = extremal_search(
            n, q, pattern, budget=args.budget, seed=seed, host_cap=args.v_cap
        )
        best = result.entries[0]
        agree = score_pair_cmp(
            (best.copies, best.expectation),
            (sweep.copies, sweep.expectation),
            pattern.edge_count,
        ) == 0
        disagreements += not agree
        print(
            f"{label:8} {n:>3} {sweep.candidates:>6} {sweep.sparse_candidates:>6} "
            f"{to_graph6(sweep.graph):>10} {sweep.copies:>7} "
            f"{sweep.enclosure[0]:>16} {to_graph6(best.graph):>10} {best.moves:>6} "
            f"{'yes' if agree else 'NO':>6}  ({time.monotonic() - t0:.1f}s)"
        )
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
