#!/usr/bin/env python3
"""End-to-end guarantee suite for the three proved bounds.

Generates seeded instances, runs the matching algorithm, checks each run
against its closed-form threshold, and prints one verdict row per instance.
Exits 2 if any proved bound is violated (it should never be).
"""

import argparse
import sys

from submodlab.algorithms import frank_wolfe, masked_frank_wolfe, multipass_greedy
from submodlab.continuous import (CardinalityPolytope, SumOracle,
                                  random_quadratic_dr, random_weak_quadratic,
                                  unit_box, weak_dr_gamma)
from submodlab.matroids import PSystem, random_partition_matroid
from submodlab.oracles import random_coverage
from submodlab.verify import (brute_force_opt_set, grid_opt, problem1_report,
                              problem2_report, problem3_report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=0.25)
    args = parser.parse_args()

    reports = []
    print("instance,bound,measured,threshold,slack,verdict")
    for t in range(args.instances):
        seed = args.seed * 1_000_003 + t
        n = 3 + t % 2

        g = random_quadratic_dr(n, seed, monotone=True)
        h = random_quadratic_dr(n, seed + 1, monotone=False)
        poly = CardinalityPolytope(n, max(1, n // 2)) if t % 2 else unit_box(n)
        trace = masked_frank_wolfe(g, h, poly, 0.02)
        cert = grid_opt(SumOracle([g, h]), poly, 0.05)
        reports.append(problem1_report(trace, g, h, poly, cert,
                                       instance_id=f"split-{t}"))

        f = random_coverage(8, seed + 2)
        system = PSystem([random_partition_matroid(8, seed + 3),
                          random_partition_matroid(8, seed + 4)])
        trace = multipass_greedy(f, system, args.epsilon)
        opt = brute_force_opt_set(f, system.indep_table())
        reports.append(problem2_report(trace, f, opt, system,
                                       instance_id=f"bicriteria-{t}"))

        fc = random_quadratic_dr(n, seed + 5, monotone=True) if t % 2 \
            else random_weak_quadratic(n, seed + 5)
        gamma = weak_dr_gamma(fc, samples=2000, seed=seed)
        trace = frank_wolfe(fc, poly, 200, declared_gamma=gamma)
        cert = grid_opt(fc, poly, 0.05)
        reports.append(problem3_report(trace, gamma, fc, cert,
                                       instance_id=f"weak-dr-{t}"))

    violated = False
    for r in reports:
        print(f"{r.instance_id},{r.bound_id},{r.measured!r},"
              f"{r.threshold!r},{r.slack!r},{r.verdict}")
        violated |= r.verdict == "violated"
    return 2 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
