#!/usr/bin/env python3
"""Round-count head-to-head for the bicriteria multi-pass greedy.

Compares the conjectured ceil(log_{p+1}(1/eps)) pass count against the
proved ceil(ln(1/eps)/ln((p+1)/p)) passes on seeded coverage instances and
prints per-instance rows plus each p's audit summary. The conjecture is
the authors', so a row that falls short of (1-eps) * OPT is a violation
of it, never an error: the script exits 0.
"""

import argparse
import json
import sys

from submodlab.verify import run_audit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rows", action="store_true",
                        help="print per-instance rows too")
    args = parser.parse_args()

    for p in args.p:
        report = run_audit("problem2-authors-conjecture", args.trials,
                           args.seed, p=p, epsilon=args.epsilon)
        if args.rows:
            print("instance,opt,rounds_conjecture,rounds_multipass,"
                  "value_at_conjecture,value_at_multipass,first_round_reaching")
            for r in report.rows:
                q = r.params
                print(f"{r.instance_id},{r.opt!r},{q['rounds_conjecture']},"
                      f"{q['rounds_multipass']},{r.measured!r},"
                      f"{q['value_at_multipass']!r},"
                      f"{q['first_round_reaching']}")
        print(json.dumps({"p": p} | report.summary(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
