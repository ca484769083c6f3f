"""Command-line entry point: instance generation, algorithm runs, guarantee
verification, and audits, all replayable from (config, seed).

Each of the five problems is defined once, in the PROBLEMS table: how
`gen --family problem<k>` builds its bundle, how `run` runs its algorithm,
and how `verify` certifies the runs through verify's problem<k>_report
steps. FAMILIES holds the seven other `gen` families.

Exit codes: 0 success (including audited or inconclusive verdicts), 1 usage
error, 2 a proved bound violated (by `verify`, or by
`audit --bound problem2-bicriteria`), 3 capability limit. The default
output directory is ./submodlab-out, overridable with --out-dir or the
SUBMODLAB_OUT environment variable. A --config JSON file maps flag names to
values; they are read as if given ahead of the command line's own flags, so
argparse checks them and explicit flags win.

Summary tables are CSV with fixed column orders:
  run:    trial,problem,algorithm,seed,value,final,detail
  verify: instance,algorithm,bound,provenance,measured,half_width,threshold,slack,verdict
  audit:  instance,measured,opt,threshold,ratio,verdict,params
  audit (conjecture): instance,p,epsilon,opt,rounds_conjecture,rounds_multipass,
                      value_at_conjecture,value_at_multipass,first_round_reaching,
                      conjecture_sufficient
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import serialization, verify
from .algorithms import (frank_wolfe, masked_frank_wolfe, multipass_greedy,
                         random_greedy_dummies, random_greedy_intersection)
from .continuous import (CardinalityPolytope, SumOracle, dr_check,
                         random_quadratic_dr, random_sqrt_linear,
                         random_weak_quadratic, unit_box, weak_dr_gamma)
from .matroids import random_partition_matroid, random_partition_psystem
from .oracles import (GAMMA_LIMIT, MONOTONICITY_LIMIT, CapabilityError,
                      measure_ratios, random_coverage, random_cut,
                      random_modular, random_perturbed)

OUT_ENV = "SUBMODLAB_OUT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_CAPABILITY = 3

# options of the top-level parser; each takes exactly one value
TOP_LEVEL_FLAGS = ("--config", "--out-dir")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _measure_if_small(f):
    if f.n <= min(GAMMA_LIMIT, MONOTONICITY_LIMIT):
        r = measure_ratios(f)
        return {"gamma": r.gamma, "m": r.m,
                "nonmonotone_caveat": r.nonmonotone_caveat}
    return {}


def _or(value, default):
    return default if value is None else value


# ---------------------------------------------------------------------------
# the seven plain `gen` families


def _set_function_family(make):
    def gen(a):
        f = make(a)
        return serialization.to_doc(f) | {"measured": _measure_if_small(f)}
    return gen


def _weak_dr_family(make):
    def gen(a):
        f = make(a)
        gamma = weak_dr_gamma(f, samples=1500, seed=a.seed)
        return serialization.to_doc(f) | {
            "measured": {"monotone": True, "gamma": gamma}}
    return gen


def _gen_quadratic_dr(a):
    f = random_quadratic_dr(a.n, a.seed, monotone=a.monotone)
    ok, _ = dr_check(f, samples=200, seed=a.seed)
    if not ok:
        raise ValueError("generated quadratic failed its DR precheck")
    measured = {"monotone": f.monotone, "dr": True}
    if f.monotone:
        measured["gamma"] = weak_dr_gamma(f, samples=1500, seed=a.seed)
    return serialization.to_doc(f) | {"measured": measured}


FAMILIES = {
    "modular": _set_function_family(lambda a: random_modular(a.n, a.seed)),
    "coverage": _set_function_family(lambda a: random_coverage(a.n, a.seed)),
    "cut": _set_function_family(lambda a: random_cut(a.n, a.seed)),
    "perturbed": _set_function_family(
        lambda a: random_perturbed(a.n, a.delta, a.seed, monotone=a.monotone)),
    "quadratic-dr": _gen_quadratic_dr,
    "quadratic-weak": _weak_dr_family(
        lambda a: random_weak_quadratic(a.n, a.seed)),
    "sqrt-linear": _weak_dr_family(lambda a: random_sqrt_linear(a.n, a.seed)),
}


# ---------------------------------------------------------------------------
# the five problems


class Problem(NamedTuple):
    generate: Callable  # gen flags -> bundle document
    run: Callable       # (bundle components, run flags) -> traces
    check: Callable     # (components, verify flags, instance id) -> reports
    bare_objective: bool = False  # a plain set-function file also loads


def _traces(a):
    if not a.trace:
        raise UsageError("problems 1-3 need --trace files to verify")
    return [serialization.load(p) for p in a.trace]


def _gen_problem1(a):
    g = random_quadratic_dr(a.n, a.seed, monotone=True)
    h = random_quadratic_dr(a.n, a.seed + 1, monotone=False)
    poly = CardinalityPolytope(a.n, max(1, a.n // 2)) if a.seed % 2 \
        else unit_box(a.n)
    return serialization.bundle_doc(
        1, {"g": g, "h": h, "polytope": poly}, meta={"seed": a.seed})


def _check_problem1(c, a, stem):
    traces = _traces(a)
    cert = verify.grid_opt(SumOracle([c["g"], c["h"]]), c["polytope"],
                           a.resolution)
    return [verify.problem1_report(t, c["g"], c["h"], c["polytope"], cert,
                                   instance_id=stem) for t in traces]


def _gen_problem2(a):
    f = random_coverage(a.n, a.seed)
    system = random_partition_psystem(a.n, a.p, a.seed)
    return serialization.bundle_doc(
        2, {"objective": f, "system": system},
        measured=_measure_if_small(f), meta={"seed": a.seed, "p": a.p})


def _check_problem2(c, a, stem):
    traces = _traces(a)
    opt = verify.brute_force_opt_set(c["objective"], c["system"].indep_mask)
    return [verify.problem2_report(t, opt, system=c["system"],
                                   instance_id=stem) for t in traces]


def _gen_problem3(a):
    f = random_quadratic_dr(a.n, a.seed, monotone=True) if a.seed % 2 == 0 \
        else random_weak_quadratic(a.n, a.seed)
    poly = CardinalityPolytope(a.n, max(1, a.n // 2)) if a.seed % 4 >= 2 \
        else unit_box(a.n)
    gamma = weak_dr_gamma(f, samples=1500, seed=a.seed)
    return serialization.bundle_doc(
        3, {"objective": f, "polytope": poly},
        measured={"gamma": gamma}, meta={"seed": a.seed})


def _check_problem3(c, a, stem):
    traces = _traces(a)
    cert = verify.grid_opt(c["objective"], c["polytope"], a.resolution)
    gamma = c["_measured"].get("gamma")
    if gamma is None:
        gamma = weak_dr_gamma(c["objective"], samples=1500, seed=a.seed)
    return [verify.problem3_report(t, gamma, c["objective"], cert,
                                   instance_id=stem) for t in traces]


def _gen_problem4(a):
    f = random_perturbed(a.n, a.delta, a.seed, monotone=a.monotone)
    return serialization.bundle_doc(
        4, {"objective": f}, measured=_measure_if_small(f),
        meta={"seed": a.seed, "k": a.k})


def _budget(c, a) -> int:
    return _or(a.k, c["_meta"].get("k", 2))


def _gen_problem5(a):
    f = random_perturbed(a.n, a.delta, a.seed, monotone=True)
    m1 = random_partition_matroid(a.n, a.seed + 1)
    m2 = random_partition_matroid(a.n, a.seed + 2)
    return serialization.bundle_doc(
        5, {"objective": f, "matroid1": m1, "matroid2": m2},
        measured=_measure_if_small(f), meta={"seed": a.seed})


PROBLEMS = {
    1: Problem(_gen_problem1,
               lambda c, a: [masked_frank_wolfe(c["g"], c["h"], c["polytope"],
                                                _or(a.epsilon, 0.02))],
               _check_problem1),
    2: Problem(_gen_problem2,
               lambda c, a: [multipass_greedy(c["objective"], c["system"],
                                              _or(a.epsilon, 0.25))],
               _check_problem2),
    3: Problem(_gen_problem3,
               lambda c, a: [frank_wolfe(
                   c["objective"], c["polytope"], _or(a.iterations, 200),
                   declared_gamma=c["_measured"].get("gamma"))],
               _check_problem3),
    4: Problem(_gen_problem4,
               lambda c, a: [random_greedy_dummies(c["objective"],
                                                   _budget(c, a),
                                                   seed=a.seed + t)
                             for t in range(a.trials)],
               lambda c, a, stem: [verify.problem4_report(
                   c["objective"], _budget(c, a), instance_id=stem)],
               bare_objective=True),
    5: Problem(_gen_problem5,
               lambda c, a: [random_greedy_intersection(
                   c["objective"], c["matroid1"], c["matroid2"],
                   seed=a.seed + t) for t in range(a.trials)],
               lambda c, a, stem: [verify.problem5_report(
                   c["objective"], c["matroid1"], c["matroid2"],
                   instance_id=stem)]),
}

GENERATORS = FAMILIES | {f"problem{k}": p.generate for k, p in PROBLEMS.items()}

AUDITS = {
    "problem2-bicriteria": lambda a: verify.audit_problem2(
        a.trials, a.seed, p=a.p, epsilon=a.epsilon, n=a.n or 8),
    "problem2-authors-conjecture": lambda a: verify.audit_problem2_conjecture(
        a.trials, a.seed, p=a.p, epsilon=a.epsilon, n=a.n or 8),
    "problem4-claimed": lambda a: verify.audit_problem4(
        a.trials, a.seed, n=a.n or 5, k=a.k),
    "problem5-claimed": lambda a: verify.audit_problem5(
        a.trials, a.seed, n=a.n or 6),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="submodlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out-dir", help="output directory "
                        f"(default $%s or ./submodlab-out)" % OUT_ENV)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate and serialize instances")
    gen.add_argument("--family", required=True, choices=list(GENERATORS))
    gen.add_argument("--n", type=int, default=6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--delta", type=float, default=0.4)
    gen.add_argument("--monotone", action="store_true")
    gen.add_argument("--p", type=int, default=2)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--out", help="output file path")

    run = sub.add_parser("run", help="run an algorithm on an instance file")
    run.add_argument("--problem", type=int, required=True,
                     choices=list(PROBLEMS))
    run.add_argument("--instance", required=True)
    run.add_argument("--epsilon", type=float)
    run.add_argument("--iterations", type=int, help="iteration count K")
    run.add_argument("--k", type=int, help="cardinality budget")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trials", type=int, default=1)

    ver = sub.add_parser("verify", help="check runs against bound formulas")
    ver.add_argument("--problem", type=int, required=True,
                     choices=list(PROBLEMS))
    ver.add_argument("--instance", required=True)
    ver.add_argument("--trace", action="append", default=[],
                     help="trace file (repeatable); required for problems 1-3")
    ver.add_argument("--k", type=int, help="cardinality budget (problem 4)")
    ver.add_argument("--resolution", type=float, default=0.05)
    ver.add_argument("--seed", type=int, default=0)

    aud = sub.add_parser("audit", help="search instances for bound violations")
    aud.add_argument("--bound", required=True, choices=list(AUDITS))
    aud.add_argument("--trials", type=int, default=100)
    aud.add_argument("--seed", type=int, default=0)
    aud.add_argument("--p", type=int, default=2)
    aud.add_argument("--epsilon", type=float, default=0.1)
    aud.add_argument("--n", type=int)
    aud.add_argument("--k", type=int, default=2)
    return parser


def _with_config(argv: list[str], path: str) -> list[str]:
    """argv with the config file's values spliced in as flags: top-level
    ones first, the command's own right after the command token. The
    command line's flags come later, so they win."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    top, below = [], []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            tokens = [flag] if value else []
        else:
            values = value if isinstance(value, list) else [value]
            tokens = [t for v in values for t in (flag, str(v))]
        (top if flag in TOP_LEVEL_FLAGS else below).extend(tokens)
    i = 0  # the command is the first token that is no top-level option
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return top + argv[:i + 1] + below + argv[i + 1:]


def _out_dir(args) -> Path:
    root = args.out_dir or os.environ.get(OUT_ENV) or "submodlab-out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _exit_code(reports) -> int:
    """Exit code 2 when any report violates a proved bound."""
    return EXIT_VIOLATION if any(
        r.provenance == verify.PROVED and r.verdict == verify.VIOLATED
        for r in reports) else EXIT_OK


def cmd_gen(args) -> int:
    doc = GENERATORS[args.family](args)
    out = Path(args.out) if args.out else \
        _out_dir(args) / "instances" / f"{args.family}-n{args.n}-s{args.seed}.json"
    serialization.save(doc, out)
    print(out)
    return EXIT_OK


def _load_problem_components(args):
    doc = serialization.load_doc(args.instance)
    if doc.get("kind") == "bundle":
        if doc.get("problem") != args.problem:
            raise UsageError(
                f"instance file is a problem-{doc.get('problem')} bundle")
        return serialization.load_bundle(doc)
    if PROBLEMS[args.problem].bare_objective and \
            doc.get("kind") == "set-function":
        return {"objective": serialization.from_doc(doc),
                "_measured": doc.get("measured", {}), "_meta": {}}
    raise UsageError("instance file does not match the selected problem")


def cmd_run(args) -> int:
    comp = _load_problem_components(args)
    traces = PROBLEMS[args.problem].run(comp, args)
    out = _out_dir(args)
    stem = Path(args.instance).stem
    rows = []
    for t, trace in enumerate(traces):
        trace_path = out / "traces" / f"{stem}-p{args.problem}-t{t}.json"
        serialization.save(trace, trace_path)
        detail = {k: v for k, v in trace.meta.items() if k != "value"}
        rows.append([t, args.problem, trace.algorithm, trace.seed,
                     repr(trace.value), json.dumps(trace.final),
                     json.dumps(detail, sort_keys=True)])
        print(f"trial {t}: {trace.algorithm} value={trace.value!r} "
              f"final={trace.final}")
    summary = _write_csv(out / f"run-{stem}-p{args.problem}.csv",
                         ["trial", "problem", "algorithm", "seed", "value",
                          "final", "detail"], rows)
    print(summary)
    return EXIT_OK


def cmd_verify(args) -> int:
    comp = _load_problem_components(args)
    stem = Path(args.instance).stem
    reports = PROBLEMS[args.problem].check(comp, args, stem)
    out = _out_dir(args)
    rows = [[r.instance_id, r.algorithm_id, r.bound_id, r.provenance,
             repr(r.measured), "" if r.half_width is None else repr(r.half_width),
             repr(r.threshold), repr(r.slack), r.verdict] for r in reports]
    path = _write_csv(out / f"verify-{stem}-p{args.problem}.csv",
                      ["instance", "algorithm", "bound", "provenance",
                       "measured", "half_width", "threshold", "slack",
                       "verdict"], rows)
    for r in reports:
        print(f"{r.bound_id} [{r.provenance}]: verdict={r.verdict} "
              f"measured={r.measured!r} threshold={r.threshold!r}")
    print(path)
    return _exit_code(reports)


def cmd_audit(args) -> int:
    out = _out_dir(args)
    report = AUDITS[args.bound](args)
    if isinstance(report, verify.ConjectureReport):
        rows = [[r.instance_id, r.p, repr(r.epsilon), repr(r.opt),
                 r.rounds_conjecture, r.rounds_multipass,
                 repr(r.value_at_conjecture), repr(r.value_at_multipass),
                 "" if r.first_round_reaching is None else r.first_round_reaching,
                 r.conjecture_sufficient] for r in report.rows]
        path = _write_csv(
            out / f"audit-{args.bound}-p{args.p}-s{args.seed}.csv",
            ["instance", "p", "epsilon", "opt", "rounds_conjecture",
             "rounds_multipass", "value_at_conjecture", "value_at_multipass",
             "first_round_reaching", "conjecture_sufficient"], rows)
        print(json.dumps(report.summary(), sort_keys=True))
        print(path)
        return EXIT_OK  # exploratory: the conjecture rows carry no verdict

    rows = [[r.instance_id, repr(r.measured), repr(r.opt), repr(r.threshold),
             "" if r.ratio is None else repr(r.ratio), r.verdict,
             json.dumps(r.params, sort_keys=True)] for r in report.rows]
    path = _write_csv(out / f"audit-{args.bound}-s{args.seed}.csv",
                      ["instance", "measured", "opt", "threshold", "ratio",
                       "verdict", "params"], rows)
    for i, doc in enumerate(report.violations):
        serialization.save(doc, out / "violations"
                           / f"{args.bound}-s{args.seed}-v{i}.json")
    print(json.dumps(report.summary(), sort_keys=True))
    print(path)
    return _exit_code(report.rows)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_with_config(argv, args.config))
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "audit":
            return cmd_audit(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as exc:
        print(f"capability limit: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    raise SystemExit(main())
