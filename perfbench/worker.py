#!/usr/bin/env python3
"""One workload process of the benchmark; run.py starts it.

    worker.py --workload W --seed S --seconds T --mode {setup,measure,trace}
              --tmp DIR [--spans FILE]

Every mode imports submodlab, loads the workload's reference digests,
draws the instance plan from the seed and prints "ready"; that is the end
of set-up. `setup` then exits. `measure` runs the plan untraced and prints
one JSON line with the per-instance latencies. `trace` runs the first third
of the plan untraced, then again with every layer wrapped, and prints the
per-layer metrics and the tracing overhead.

A run is a closed loop: one client, single-threaded, instances back to
back. Its size is fixed by the plan, not by the clock, so the same seed
gives the same work and the same counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_INSTANCES = 20  # the tail percentile needs ten instances beyond it
HEAVY = 5.0
CAL_WINDOW = 3
CAL_REF_S = 0.0066  # a Calibrator() call on a quiet 2-core x86-64 VM


class Calibrator:
    """Times a fixed pure-Python probe: the machine's speed right now.

    On a shared host the same instance can take up to twice as long from
    one minute to the next, because of load outside this process. The
    probe runs between instances, and each timing is scaled by CAL_REF_S
    over the probe times around it (see `scaled`), which cancels most of
    that drift. The probe mixes a tight arithmetic loop with random reads
    from a list and a dict of a few MB, because load from neighbours slows
    cache-bound interpreter code more than a tight loop."""

    def __init__(self):
        rng = random.Random(0)
        self.data = [float(i) for i in range(1 << 17)]
        self.reads = [rng.randrange(len(self.data)) for _ in range(20_000)]
        self.table = {i: float(i) for i in range(1 << 15)}
        self.keys = [rng.randrange(len(self.table)) for _ in range(10_000)]
        self.flush = bytearray(b"\x01") * (4 << 20)

    def __call__(self) -> float:
        # copying a buffer twice the size of a core's L2 cache evicts the
        # probe's data from it first, so the probe's reads start from the
        # shared cache whatever the program left behind
        bytes(self.flush)
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i
        total = 0.0
        for j in self.reads:
            total += self.data[j]
        for k in self.keys:
            total += self.table[k]
        return time.perf_counter() - t0


def scaled(timing: tuple[float, int], cals: list[float]) -> float:
    """A call's time at the reference speed. `timing` is its raw seconds
    and the index of the calibration taken just before it; the median of
    the CAL_WINDOW calibrations on each side estimates the machine's speed
    during the call, where one sample alone jitters by about 10%."""
    seconds, i = timing
    near = cals[max(0, i + 1 - CAL_WINDOW):i + 1 + CAL_WINDOW]
    return seconds * CAL_REF_S / statistics.median(near)


def make_plan(refs: dict, seed: int, seconds: int, step: int) -> list[int]:
    """Instance seeds drawn from the reference pool by `seed`.

    Instances costing more than HEAVY times the pool's mean reference run
    time are in every plan: a sample would hold zero or one of them and
    swing the run's throughput by their cost. The rest of the pool is
    sorted by reference run time and cut into strata of neighbouring cost;
    one seed is drawn from each, so every plan has the pool's cost profile
    while the instances differ from seed to seed. The sampled instances
    take about `seconds` at the reference commit (an audit sweep adds one
    row per instance); there are at least MIN_INSTANCES of them, and the
    plan length is a multiple of `step`. A plan longer than the pool
    repeats the whole pool first."""
    ms = {int(s): inst["ms"] for s, inst in refs["instances"].items()}
    mean = sum(ms.values()) / len(ms)
    heavy = sorted(s for s, t in ms.items() if t > HEAVY * mean)
    pool = sorted((s for s in ms if s not in heavy),
                  key=lambda s: (ms[s], s))
    per_pick = sum(ms[s] for s in pool) / len(pool) \
        + refs.get("audit", {}).get("ms_per_row", 0.0)
    count = len(heavy) + max(MIN_INSTANCES, round(seconds * 1e3 / per_pick))
    picks = -(-count // step) * step - len(heavy)

    rng = random.Random(seed)
    plan = heavy + pool * (picks // len(pool))
    rest = picks % len(pool)
    for j in range(rest):
        lo, hi = j * len(pool) // rest, (j + 1) * len(pool) // rest
        plan.append(pool[rng.randrange(lo, hi)])
    rng.shuffle(plan)
    return plan


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_version, "nproc": os.cpu_count(),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_plan(w, plan: list[int], refs: dict, seed: int, out_dir: Path,
             calibrate: Calibrator, tracer=None) -> dict:
    from workloads import cli_audit, digest

    def span(instance_id):
        return tracer.instance(instance_id) if tracer else \
            contextlib.nullcontext()

    failures = []
    attempted = 0
    timings = []  # (seconds, index into cals just before), certified only
    audit = None
    cals = [calibrate()]

    def timed(instance_id, fn, *args):
        try:
            with span(instance_id):
                t0 = time.perf_counter()
                result = fn(*args)
                return result, (time.perf_counter() - t0, len(cals) - 1)
        finally:
            cals.append(calibrate())

    for inst in plan:
        instance_id = f"{w.name}/{inst}"
        attempted += 1
        try:
            result, timing = timed(instance_id, w.run, inst, out_dir)
            got = digest(w.collect(result))
        except Exception as exc:  # a failed instance must not stop the run
            failures.append(f"{instance_id}: {type(exc).__name__}: {exc}")
            continue
        want = refs["instances"][str(inst)]["digest"]
        if got != want:
            failures.append(f"{instance_id}: digest {got} != reference {want}")
            continue
        timings.append(timing)
    if w.audit_seeds:
        # one audit sweep over as many trials as the plan has instances; it
        # is checked and timed, but it is one multi-second call that the
        # probes around it cannot calibrate well, so it is no instance
        a, trials = seed % w.audit_seeds, len(plan)
        instance_id = f"{w.name}/audit-s{a}-trials{trials}"
        attempted += 1
        try:
            if trials > w.audit_rows:
                raise ValueError(f"only {w.audit_rows} reference rows")
            lines, audit = timed(instance_id, cli_audit, a, trials, out_dir)
            ref = refs["audit"]
            want = [ref["header"]] + ref["rows"][str(a)][:trials]
            got = [digest([line]) for line in lines]
            bad = [i for i, (g, r) in enumerate(zip(got, want)) if g != r]
            if len(got) != len(want) or bad:
                raise ValueError(f"CSV lines {bad} differ from the reference"
                                 f" ({len(got)} lines, {len(want)} expected)")
        except Exception as exc:  # a failed sweep must not stop the run
            failures.append(f"{instance_id}: {type(exc).__name__}: {exc}")
            audit = None
    cals += [calibrate() for _ in range(CAL_WINDOW)]
    latencies = [scaled(t, cals) for t in timings]
    return {"latencies_ms": [x * 1e3 for x in latencies],
            "raw_latencies_ms": [t * 1e3 for t, _ in timings],
            "busy_s": sum(latencies),
            "audit_s": scaled(audit, cals) if audit else 0.0,
            "attempted": attempted, "ok": len(timings), "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=["setup", "measure", "trace"])
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    src = (HERE.parent / "src").resolve()
    import submodlab
    if src not in Path(submodlab.__file__).resolve().parents:
        raise SystemExit(f"submodlab imported from {submodlab.__file__}, "
                         f"not from {src}")
    from workloads import WORKLOADS
    w = WORKLOADS[args.workload]
    refs = json.loads((HERE / "refs" / f"{w.name}.json").read_text())
    plan = make_plan(refs, args.seed, args.seconds, w.plan_step)
    Path(args.tmp).mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=args.tmp))
    print("ready", flush=True)
    try:
        if args.mode == "setup":
            return 0
        # let lazy imports and first-call set-up finish before timing
        calibrate = Calibrator()
        run_plan(w, plan[:1], refs, args.seed, out_dir, calibrate)
        if args.mode == "measure":
            out = run_plan(w, plan, refs, args.seed, out_dir, calibrate)
            out["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            from spans import Tracer
            prefix = plan[:max(MIN_INSTANCES, len(plan) // 3)]
            plain = run_plan(w, prefix, refs, args.seed, out_dir, calibrate)
            tracer = Tracer().install()
            try:
                out = run_plan(w, prefix, refs, args.seed, out_dir,
                               calibrate, tracer)
            finally:
                tracer.uninstall()
            out["attempted"] += plain["attempted"]
            out["failures"] += plain["failures"]
            out["layers"] = tracer.metrics()
            traced, untraced = (r["busy_s"] + r["audit_s"]
                                for r in (out, plain))
            out["layers"]["trace_overhead"] = \
                traced / untraced if untraced else 0.0
            if args.spans:
                tracer.dump(Path(args.spans))
    finally:
        shutil.rmtree(out_dir)
    out["planned"] = len(plan)
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
