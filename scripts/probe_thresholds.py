"""Compare exact sparsity thresholds with Monte Carlo containment estimates.

For each named pattern the script prints the expectation threshold p_E,
the sparsity threshold q_min (both exact, shown as decimal enclosures),
and a bisection estimate of the containment threshold with its
confidence interval.  The ordering p_E <= q_min is checked exactly, and
the script exits 1 when any row breaks it; the estimate column gives a
sense of how far the exact quantities sit below the empirical threshold
at small n.
"""

import argparse

from kklab import (
    TrialPlan,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    decimal_enclosure,
    estimate_pc,
    expectation_threshold,
    path_graph,
    q_min,
    star_graph,
    value_cmp,
)

PATTERNS = {
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "P2": path_graph(2),
    "P3": path_graph(3),
    "star3": star_graph(3),
    "bowtie": bowtie_graph(),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20, help="ambient vertex count")
    ap.add_argument("--patterns", default="K3,C4,P3",
                    help="comma list from: " + ",".join(PATTERNS))
    ap.add_argument("--trials", type=int, default=2000, help="samples per probe")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    names = [s.strip() for s in args.patterns.split(",") if s.strip()]
    unknown = [s for s in names if s not in PATTERNS]
    if unknown:
        ap.error(f"unknown patterns: {unknown}")

    print(f"{'pattern':8} {'p_E':>14} {'q_min':>14} {'p_c interval':>24} {'order':>6}")
    disorders = 0
    for name in names:
        pattern = PATTERNS[name]
        pe = expectation_threshold(pattern, args.n)
        qm = q_min(pattern, args.n)
        plan = TrialPlan(
            n=args.n, pattern=pattern, trials=args.trials, seed=args.seed
        )
        est = estimate_pc(plan)
        lo = decimal_enclosure(est.interval[0], 4)[0]
        hi = decimal_enclosure(est.interval[1], 4)[1]
        ordered = value_cmp(pe.threshold, qm.threshold) <= 0
        disorders += not ordered
        print(
            f"{name:8} {pe.enclosure[0][:14]:>14} {qm.enclosure[0][:14]:>14} "
            f"{f'[{lo}, {hi}]':>24} {'ok' if ordered else 'NO':>6}"
        )
    return 1 if disorders else 0


if __name__ == "__main__":
    raise SystemExit(main())
