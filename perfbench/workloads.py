"""The four benchmark workloads.

Each workload turns one instance seed into a run of the whole user path
(generate -> measure (gamma, m) -> run -> certify -> verdict) and reduces
the result to the strings or bytes that the correctness gate digests.
Every call into submodlab goes through a module attribute, so the traced
run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from submodlab import algorithms, cli, continuous, verify


def digest(parts) -> str:
    """Length-prefixed SHA-256 over a sequence of str/bytes parts."""
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else part.encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()[:32]


def _row(measured, opt, threshold, verdict) -> list[str]:
    return [repr(measured), repr(opt), repr(threshold), verdict]


def audit_p4_deep(seed: int, out_dir: Path) -> list[str]:
    # k = 6 makes the 6^6 = 46,656-leaf exact-expectation walk the bulk
    row = verify.audit_problem4(1, seed, n=10, k=6).rows[0]
    return _row(row.measured, row.opt, row.threshold, row.verdict)


def audit_p5_intersection(seed: int, out_dir: Path) -> list[str]:
    row = verify.audit_problem5(1, seed, n=12).rows[0]
    return _row(row.measured, row.opt, row.threshold, row.verdict)


CONTINUOUS_DIMS = (3, 4, 5)


def proved_continuous(seed: int, out_dir: Path) -> list[str]:
    """The problem-1 and problem-3 legs of scripts/run_guarantee_suite.py,
    with the dimension cycling through 3, 4, 5 by instance seed."""
    n = CONTINUOUS_DIMS[seed % len(CONTINUOUS_DIMS)]
    poly = continuous.CardinalityPolytope(n, max(1, n // 2)) if seed % 2 \
        else continuous.unit_box(n)

    g = continuous.random_quadratic_dr(n, seed, monotone=True)
    h = continuous.random_quadratic_dr(n, seed + 1, monotone=False)
    trace = algorithms.masked_frank_wolfe(g, h, poly, 0.02)
    cert1 = verify.grid_opt(continuous.SumOracle([g, h]), poly, 0.05)
    r1 = verify.problem1_report(trace, g, h, poly, cert1)

    fc = continuous.random_quadratic_dr(n, seed + 5, monotone=True) \
        if seed % 2 else continuous.random_weak_quadratic(n, seed + 5)
    gamma = continuous.weak_dr_gamma(fc, samples=2000, seed=seed)
    trace = algorithms.frank_wolfe(fc, poly, 200, declared_gamma=gamma)
    cert3 = verify.grid_opt(fc, poly, 0.05)
    r3 = verify.problem3_report(trace, gamma, fc, cert3)
    return (_row(r1.measured, cert1.value, r1.threshold, r1.verdict)
            + _row(r3.measured, cert3.value, r3.threshold, r3.verdict))


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"submodlab {argv[2]} exited with code {code}")


CLI_N, CLI_P = 14, 3


def cli_bicriteria(seed: int, out_dir: Path) -> list[Path]:
    """gen -> run -> verify for one problem-2 instance, in process, into an
    explicit --out-dir. Returns the files written, in a fixed order."""
    out = str(out_dir)
    stem = f"problem2-n{CLI_N}-s{seed}"
    instance = out_dir / "instances" / f"{stem}.json"
    trace = out_dir / "traces" / f"{stem}-p2-t0.json"
    _cli(["--out-dir", out, "gen", "--family", "problem2", "--n", str(CLI_N),
          "--p", str(CLI_P), "--seed", str(seed)])
    _cli(["--out-dir", out, "run", "--problem", "2", "--instance",
          str(instance), "--epsilon", "0.1"])
    _cli(["--out-dir", out, "verify", "--problem", "2", "--instance",
          str(instance), "--trace", str(trace)])
    return [instance, trace, out_dir / f"run-{stem}-p2.csv",
            out_dir / f"verify-{stem}-p2.csv"]


def collect_files(paths: list[Path]) -> list[bytes]:
    """Name and bytes of every file an instance wrote; the files are then
    removed so the output directory stays small."""
    parts = []
    for path in paths:
        parts += [path.name.encode(), path.read_bytes()]
        path.unlink()
    return parts


def cli_audit(seed: int, trials: int, out_dir: Path) -> list[bytes]:
    """One `audit --bound problem2-authors-conjecture` sweep; returns the
    CSV lines (header first), whose rows depend only on (seed, trial)."""
    _cli(["--out-dir", str(out_dir), "audit", "--bound",
          "problem2-authors-conjecture", "--p", str(CLI_P), "--n", str(CLI_N),
          "--trials", str(trials), "--seed", str(seed)])
    path = out_dir / f"audit-problem2-authors-conjecture-p{CLI_P}-s{seed}.csv"
    lines = path.read_bytes().split(b"\r\n")
    path.unlink()
    if lines[-1] != b"":
        raise ValueError("audit CSV does not end with a line break")
    return lines[:-1]


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, Path], object]
    pool: int          # instance seeds 0..pool-1 have reference digests
    # plan sizes are rounded to a multiple of this; proved-continuous uses
    # it to hold as many instances of each dimension
    plan_step: int = 1
    collect: Callable[[object], list] = lambda result: result
    audit_seeds: int = 0   # cli only: audit sweeps use seed % audit_seeds
    audit_rows: int = 0    # cli only: reference rows per audit seed


WORKLOADS = {w.name: w for w in (
    Workload("audit-p4-deep", audit_p4_deep, pool=176),
    Workload("audit-p5-intersection", audit_p5_intersection, pool=240),
    Workload("proved-continuous", proved_continuous, pool=96,
             plan_step=len(CONTINUOUS_DIMS)),
    Workload("cli-bicriteria", cli_bicriteria, pool=300,
             collect=collect_files, audit_seeds=2, audit_rows=480),
)}
