#!/usr/bin/env python3
"""Audit the two claimed bounds whose proofs are documented as flawed.

Computes exact expectations over every uniform draw, measures (gamma, m)
per instance, and prints min-ratio summaries plus a bucketed (m, gamma)
grid. Violating instances (if any turn up) are written as replayable JSON.
Always exits 0: these are audits, not assertions.
"""

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from submodlab import serialization
from submodlab.verify import AUDITS, BOUNDS, CLAIMED_FLAWED, run_audit


def bucket_grid(rows, key2="m"):
    grid = defaultdict(list)
    for row in rows:
        if row.ratio is None:
            continue
        g = round(row.params["gamma"], 1)
        m = round(row.params.get(key2, 1.0), 1)
        grid[(m, g)].append(row.ratio)
    return {f"m={m},gamma={g}": round(min(v), 4)
            for (m, g), v in sorted(grid.items())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="submodlab-out")
    args = parser.parse_args()
    out = Path(args.out_dir)

    for name, entry in AUDITS.items():
        if BOUNDS[name].provenance != CLAIMED_FLAWED:
            continue
        report = run_audit(name, args.trials, args.seed)
        print(json.dumps(report.summary(), sort_keys=True))
        print("min ratios on the measured (m, gamma) grid:")
        print(json.dumps(bucket_grid(report.rows), indent=2, sort_keys=True))
        # `submodlab audit`'s file names at the entry's default flags
        stem = entry.stem.format(bound=name, seed=args.seed, **entry.flags)
        for i, doc in enumerate(report.violations):
            path = out / "violations" / f"{stem}-v{i}.json"
            serialization.save(doc, path)
            print(f"violating instance written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
