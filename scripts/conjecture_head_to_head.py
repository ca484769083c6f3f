#!/usr/bin/env python3
"""Round-count head-to-head for the bicriteria multi-pass greedy.

Compares the conjectured ceil(log_{p+1}(1/eps)) pass count against the
proved ceil(ln(1/eps)/ln((p+1)/p)) passes on seeded coverage instances and
prints each p's audit summary and, with --rows, its audit CSV's lines.
The conjecture is the authors', so a row that falls short of
(1-eps) * OPT is a violation of it, never an error: the script exits 0.
"""

import argparse
import csv
import json
import sys

from submodlab.verify import AUDITS, run_audit

BOUND = "problem2-authors-conjecture"


def main() -> int:
    entry = AUDITS[BOUND]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--epsilon", type=float,
                        default=entry.flags["epsilon"])
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rows", action="store_true",
                        help="print per-instance rows too")
    args = parser.parse_args()

    for p in args.p:
        report = run_audit(BOUND, args.trials, args.seed, p=p,
                           epsilon=args.epsilon)
        if args.rows:  # the lines of `submodlab audit --bound` BOUND's CSV
            rows = csv.writer(sys.stdout, lineterminator="\n")
            rows.writerow(entry.columns.split(","))
            rows.writerows(entry.row(r) for r in report.rows)
        print(json.dumps({"p": p} | report.summary(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
