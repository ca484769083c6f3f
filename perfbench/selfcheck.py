#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seconds S] [--seed N] [workload ...]

1. Two traced runs of each workload report identical per-layer counts.
2. A corrupted reference digest is reported as a failed instance.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits with a non-zero code and prints no result.

Copies for checks 2 and 3 live under .perfbench/selfcheck/ and are removed
afterwards. Prints one PASS or FAIL line per check; exits 1 on any FAIL.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS  # noqa: E402
from worker import make_plan  # noqa: E402


def bench(cwd: Path, workload: str, seed: int, seconds: int, trace: int):
    """Run the benchmark command in `cwd`; return (exit code, last JSON
    line or None, stdout)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def report(ok: bool, what: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    return ok


def counts_repeat(workload: str, seed: int, seconds: int) -> bool:
    counted = [name for name, spec in LAYER_METRICS.items() if spec[0] != "s"]
    runs = [bench(ROOT, workload, seed, seconds, 1) for _ in range(2)]
    if any(code != 0 or res is None for code, res, _ in runs):
        return report(False, f"{workload}: traced run failed")
    a, b = ({n: res["metrics"][n]["value"] for n in counted}
            for _, res, _ in runs)
    diff = sorted(n for n in counted if a[n] != b[n])
    return report(not diff and runs[0][1]["correct"],
                  f"{workload}: {len(counted)} per-layer counts repeat "
                  f"exactly over two traced runs" +
                  (f" (differ: {diff})" if diff else ""))


def copy_tree(dest: Path, with_src: bool) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def corrupted_digest_fails(workload: str, seed: int, seconds: int,
                           scratch: Path) -> bool:
    copy_tree(scratch, with_src=True)
    path = scratch / "perfbench" / "refs" / f"{workload}.json"
    refs = json.loads(path.read_text())
    plan = make_plan(refs, seed, seconds, 1)
    victim = refs["instances"][str(plan[0])]
    victim["digest"] = victim["digest"][::-1]
    path.write_text(json.dumps(refs))
    code, result, stdout = bench(scratch, workload, seed, seconds, 0)
    named = f"FAILED {workload}/{plan[0]}:" in stdout
    return report(code == 0 and result is not None
                  and result["correct"] is False
                  and result["failed"] == plan.count(plan[0]) and named,
                  f"{workload}: a corrupted digest for instance {plan[0]} "
                  f"is reported as a named failure")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    names = args.workloads or sorted(p.stem for p in
                                     (HERE / "refs").glob("*.json"))
    scratch = ROOT / ".perfbench" / "selfcheck"
    ok = True
    try:
        for name in names:
            ok &= counts_repeat(name, args.seed, args.seconds)
        ok &= corrupted_digest_fails(names[0], args.seed, 1, scratch)
        copy_tree(scratch, with_src=False)
        code, result, _ = bench(scratch, names[0], args.seed, 1, 0)
        ok &= report(code != 0 and result is None,
                     f"without src/ the benchmark exits {code} "
                     f"and prints no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
