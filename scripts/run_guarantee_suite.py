#!/usr/bin/env python3
"""End-to-end guarantee suite for the three proved bounds.

Builds seeded instances of problems 1-3 with verify's problem table, runs
the matching algorithm, checks each run as `submodlab verify` does, and
prints one verdict row per instance. Exits 2 if any proved bound is
violated (it should never be).
"""

import argparse
import sys

from submodlab.verify import PROBLEMS, instance_seed

# problem -> instance-id prefix of its rows
NAMES = {1: "split", 2: "bicriteria", 3: "weak-dr"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float,
                        default=PROBLEMS[2].flags["run"]["epsilon"],
                        help="bicriteria epsilon of problem 2")
    args = parser.parse_args()

    reports = []
    print("instance,bound,measured,threshold,slack,verdict")
    for t in range(args.instances):
        for k, name in NAMES.items():
            problem = PROBLEMS[k]
            # the entry's gen, run and verify defaults, then the suite's own
            # n, seed and (problem 2) epsilon
            flags = {flag: default for command in problem.flags.values()
                     for flag, default in command.items()}
            flags |= {"n": 8 if k == 2 else 3 + t % 2,
                      "seed": instance_seed(args.seed, t)}
            if k == 2:
                flags["epsilon"] = args.epsilon
            flags = argparse.Namespace(**flags)
            comp = problem.build(flags)
            traces = problem.run(comp, flags)
            reports += problem.check(comp, traces, flags, f"{name}-{t}")

    violated = False
    for r in reports:
        print(f"{r.instance_id},{r.bound_id},{r.measured!r},"
              f"{r.threshold!r},{r.slack!r},{r.verdict}")
        violated |= r.verdict == "violated"
    return 2 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
