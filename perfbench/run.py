#!/usr/bin/env python3
"""The submodlab benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. Each run starts fresh workload processes
(one OpenBLAS/OMP thread each, set in their environment only), checks every
result against the reference digests in perfbench/refs/, prints each metric
by name with its unit, writes a stamped result file under .perfbench/
results/ and ends with one JSON line. `--trace 0` reports the end-to-end
metrics; `--trace 1` reports the per-layer metrics of a traced run and
the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import CAL_REF_S, CAL_WINDOW, Calibrator, scaled  # noqa: E402
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5      # set-up-only processes, besides the measuring one
DEADLINE_S = 170       # the whole run, all processes included

END_TO_END_UNITS = {"instances_per_s": "1/s", "instance_ms_p50": "ms",
                    "instance_ms_tail": "ms", "setup_s": "s",
                    "peak_rss_mb": "MiB"}


class WorkerError(RuntimeError):
    pass



def run_worker(mode: str, args, env: dict, deadline: float,
               spans: Path | None = None) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time (process start to "ready")
    and, unless mode is setup, its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--tmp", str(OUT / "tmp")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise WorkerError(f"{mode} worker exited with code {code}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten instances beyond it, as
    (percentile, value); the maximum when there are ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def main() -> int:
    workloads = sorted(p.stem for p in (HERE / "refs").glob("*.json"))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "submodlab" / "__init__.py").is_file():
        print(f"error: no submodlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SUBMODLAB_OUT")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    calibrate = Calibrator()  # set-up times are calibrated like instances
    cals = [calibrate()]
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            setups.append((run_worker("setup", args, env, deadline)[0],
                           len(cals) - 1))
            cals.append(calibrate())
        mode = "trace" if args.trace else "measure"
        setup_s, out = run_worker(mode, args, env, deadline,
                                  spans=results / f"{stem}-spans.json"
                                  if args.trace else None)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setups.append((setup_s, len(cals) - 1))
    cals += [calibrate() for _ in range(CAL_WINDOW)]

    from spans import LAYER_METRICS
    failed = len(out["failures"])
    if args.trace:
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        units["trace_overhead"] = "ratio"
        values = out["layers"]
        extra = {}
    else:
        lat, raw = out["latencies_ms"], out["raw_latencies_ms"]
        tail_pct, tail_ms = tail(lat) if lat else (100.0, 0.0)
        units = END_TO_END_UNITS
        values = {
            "instances_per_s": out["ok"] / out["busy_s"] if lat else 0.0,
            "instance_ms_p50": statistics.median(lat) if lat else 0.0,
            "instance_ms_tail": tail_ms,
            "setup_s": statistics.median(scaled(t, cals) for t in setups),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        extra = {"tail_percentile": tail_pct, "latency_samples": len(lat),
                 "raw_instances_per_s": len(raw) / (sum(raw) / 1e3)
                 if raw else 0.0,
                 "raw_instance_ms_p50": statistics.median(raw) if raw
                 else 0.0,
                 "raw_instance_ms_tail": tail(raw)[1] if raw else 0.0,
                 "raw_setup_s": statistics.median(t for t, _ in setups),
                 "audit_s": out["audit_s"]}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    failed_frac = failed / out["attempted"]

    stamp = {"commit": git_commit(), **out["env"],
             "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "instances_planned": out["planned"],
             "instances_attempted": out["attempted"],
             "instances_ok": out["ok"]}
    (results / f"{stem}.json").write_text(json.dumps({
        "stamp": stamp, "metrics": metrics, "failed_frac": failed_frac,
        "failures": out["failures"],
        "setup_samples_s": [t for t, _ in setups],
        "calibration_ref_s": CAL_REF_S, **extra,
    }, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for key, value in extra.items():
        print(f"{key} = {value!r}")
    print(f"failed_frac = {failed_frac!r} ({failed} of {out['attempted']})")
    for failure in out["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
