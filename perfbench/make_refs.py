#!/usr/bin/env python3
"""Regenerate the reference digests of one workload.

    python3 perfbench/make_refs.py <workload> [<workload> ...]

Run it from the repository root at the commit whose results are the
reference, and commit the files it writes under perfbench/refs/. Each file
maps every instance seed of the workload's pool to the digest of its
result and to its run time in ms; the benchmark sorts the pool by that
time to draw cost-stratified instance samples from a workload seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, cli_audit, digest  # noqa: E402


def commit() -> str:
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def make(name: str, out_dir: Path) -> dict:
    w = WORKLOADS[name]
    instances = {}
    for seed in range(w.pool):
        t0 = time.perf_counter()
        result = w.run(seed, out_dir)
        ms = (time.perf_counter() - t0) * 1e3
        instances[str(seed)] = {"digest": digest(w.collect(result)),
                                "ms": round(ms, 3)}
    doc = {"workload": name, "commit": commit(), "instances": instances}
    if w.audit_seeds:
        rows = {}
        t0 = time.perf_counter()
        for seed in range(w.audit_seeds):
            lines = cli_audit(seed, w.audit_rows, out_dir)
            header = digest([lines[0]])
            rows[str(seed)] = [digest([line]) for line in lines[1:]]
        ms = (time.perf_counter() - t0) * 1e3
        doc["audit"] = {"header": header, "rows": rows, "ms_per_row":
                        round(ms / (w.audit_seeds * w.audit_rows), 3)}
    return doc


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in WORKLOADS]
    if not names or unknown:
        print(f"usage: make_refs.py {{{','.join(WORKLOADS)}}} ...",
              file=sys.stderr)
        return 1
    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    for name in names:
        out_dir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            doc = make(name, out_dir)
        finally:
            shutil.rmtree(out_dir)
        path = Path(__file__).resolve().parent / "refs" / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
