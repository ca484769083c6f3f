"""Command-line entry point: instance generation, algorithm runs, guarantee
verification, and audits, all replayable from (config, seed).

Exit codes: 0 success (including audited or inconclusive verdicts), 1 usage
error, 2 proved-bound violation, 3 capability limit. The default output
directory is ./submodlab-out, overridable with --out-dir or the
SUBMODLAB_OUT environment variable.

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

from . import serialization, verify
from .algorithms import (frank_wolfe, masked_frank_wolfe, multipass_greedy,
                         random_greedy_dummies, random_greedy_intersection)
from .continuous import (CardinalityPolytope, random_quadratic_dr,
                         random_sqrt_linear, random_weak_quadratic, unit_box,
                         weak_dr_gamma, dr_check)
from .matroids import PSystem, random_partition_matroid
from .oracles import (GAMMA_LIMIT, MONOTONICITY_LIMIT, CapabilityError,
                      measure_ratios, random_coverage, random_cut,
                      random_modular, random_perturbed)

OUT_ENV = "SUBMODLAB_OUT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_CAPABILITY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="submodlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out-dir", help="output directory "
                        f"(default $%s or ./submodlab-out)" % OUT_ENV)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate and serialize instances")
    gen.add_argument("--family", required=True,
                     choices=["modular", "coverage", "cut", "perturbed",
                              "quadratic-dr", "quadratic-weak", "sqrt-linear",
                              "problem1", "problem2", "problem3", "problem4",
                              "problem5"])
    gen.add_argument("--n", type=int, default=6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--delta", type=float, default=0.4)
    gen.add_argument("--monotone", action="store_true")
    gen.add_argument("--p", type=int, default=2)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--out", help="output file path")

    run = sub.add_parser("run", help="run an algorithm on an instance file")
    run.add_argument("--problem", type=int, required=True, choices=[1, 2, 3, 4, 5])
    run.add_argument("--instance", required=True)
    run.add_argument("--epsilon", type=float)
    run.add_argument("--iterations", type=int, help="iteration count K")
    run.add_argument("--k", type=int, help="cardinality budget")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trials", type=int, default=1)

    ver = sub.add_parser("verify", help="check runs against bound formulas")
    ver.add_argument("--problem", type=int, required=True, choices=[1, 2, 3, 4, 5])
    ver.add_argument("--instance", required=True)
    ver.add_argument("--trace", action="append", default=[],
                     help="trace file (repeatable); required for problems 1-3")
    ver.add_argument("--k", type=int, help="cardinality budget (problem 4)")
    ver.add_argument("--resolution", type=float, default=0.05)
    ver.add_argument("--seed", type=int, default=0)

    aud = sub.add_parser("audit", help="search instances for bound violations")
    aud.add_argument("--bound", required=True,
                     choices=["problem2-bicriteria", "problem2-authors-conjecture",
                              "problem4-claimed", "problem5-claimed"])
    aud.add_argument("--trials", type=int, default=100)
    aud.add_argument("--seed", type=int, default=0)
    aud.add_argument("--p", type=int, default=2)
    aud.add_argument("--epsilon", type=float, default=0.1)
    aud.add_argument("--n", type=int)
    aud.add_argument("--k", type=int, default=2)
    return parser


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> argparse.Namespace:
    if not args.config:
        return args
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise UsageError(f"unknown config key {key!r}")
        # flags explicitly given on the command line win over the config file
        if getattr(args, attr) == parser_defaults.get(attr):
            setattr(args, attr, value)
    return args


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


def _measure_if_small(f):
    if f.n <= min(GAMMA_LIMIT, MONOTONICITY_LIMIT):
        r = measure_ratios(f)
        return {"gamma": r.gamma, "m": r.m,
                "nonmonotone_caveat": r.nonmonotone_caveat}
    return {}


def _gen_object(args):
    n, seed = args.n, args.seed
    if args.family == "modular":
        f = random_modular(n, seed)
        return serialization.to_doc(f) | {"measured": _measure_if_small(f)}
    if args.family == "coverage":
        f = random_coverage(n, seed)
        return serialization.to_doc(f) | {"measured": _measure_if_small(f)}
    if args.family == "cut":
        f = random_cut(n, seed)
        return serialization.to_doc(f) | {"measured": _measure_if_small(f)}
    if args.family == "perturbed":
        f = random_perturbed(n, args.delta, seed, monotone=args.monotone)
        return serialization.to_doc(f) | {"measured": _measure_if_small(f)}
    if args.family == "quadratic-dr":
        f = random_quadratic_dr(n, seed, monotone=args.monotone)
        ok, _ = dr_check(f, samples=200, seed=seed)
        if not ok:
            raise ValueError("generated quadratic failed its DR precheck")
        doc = serialization.to_doc(f)
        doc["measured"] = {"monotone": f.monotone, "dr": True}
        if f.monotone:
            doc["measured"]["gamma"] = weak_dr_gamma(f, samples=1500, seed=seed)
        return doc
    if args.family == "quadratic-weak":
        f = random_weak_quadratic(n, seed)
        doc = serialization.to_doc(f)
        doc["measured"] = {"monotone": True,
                           "gamma": weak_dr_gamma(f, samples=1500, seed=seed)}
        return doc
    if args.family == "sqrt-linear":
        f = random_sqrt_linear(n, seed)
        doc = serialization.to_doc(f)
        doc["measured"] = {"monotone": True,
                           "gamma": weak_dr_gamma(f, samples=1500, seed=seed)}
        return doc
    if args.family == "problem1":
        g = random_quadratic_dr(n, seed, monotone=True)
        h = random_quadratic_dr(n, seed + 1, monotone=False)
        poly = CardinalityPolytope(n, max(1, n // 2)) if seed % 2 else unit_box(n)
        return serialization.bundle_doc(
            1, {"g": g, "h": h, "polytope": poly}, meta={"seed": seed})
    if args.family == "problem2":
        f = random_coverage(n, seed)
        system = PSystem.from_matroids(
            [random_partition_matroid(n, seed + 7 * (j + 1))
             for j in range(args.p)])
        return serialization.bundle_doc(
            2, {"objective": f, "system": system},
            measured=_measure_if_small(f), meta={"seed": seed, "p": args.p})
    if args.family == "problem3":
        f = random_quadratic_dr(n, seed, monotone=True) if seed % 2 == 0 \
            else random_weak_quadratic(n, seed)
        poly = CardinalityPolytope(n, max(1, n // 2)) if seed % 4 >= 2 \
            else unit_box(n)
        gamma = weak_dr_gamma(f, samples=1500, seed=seed)
        return serialization.bundle_doc(
            3, {"objective": f, "polytope": poly},
            measured={"gamma": gamma}, meta={"seed": seed})
    if args.family == "problem4":
        f = random_perturbed(n, args.delta, seed, monotone=args.monotone)
        return serialization.bundle_doc(
            4, {"objective": f}, measured=_measure_if_small(f),
            meta={"seed": seed, "k": args.k})
    if args.family == "problem5":
        f = random_perturbed(n, args.delta, seed, monotone=True)
        m1 = random_partition_matroid(n, seed + 1)
        m2 = random_partition_matroid(n, seed + 2)
        return serialization.bundle_doc(
            5, {"objective": f, "matroid1": m1, "matroid2": m2},
            measured=_measure_if_small(f), meta={"seed": seed})
    raise UsageError(f"unknown family {args.family!r}")


def cmd_gen(args) -> int:
    doc = _gen_object(args)
    out = Path(args.out) if args.out else \
        _out_dir(args) / "instances" / f"{args.family}-n{args.n}-s{args.seed}.json"
    serialization.save(doc, out)
    print(out)
    return EXIT_OK


def _load_problem_components(args, problem: int):
    doc = serialization.load_doc(args.instance)
    if doc.get("kind") == "bundle":
        if doc.get("problem") != problem:
            raise UsageError(
                f"instance file is a problem-{doc.get('problem')} bundle")
        return serialization.load_bundle(doc)
    if problem == 4 and doc.get("kind") == "set-function":
        return {"objective": serialization.from_doc(doc),
                "_measured": doc.get("measured", {}), "_meta": {}}
    raise UsageError("instance file does not match the selected problem")


def _run_traces(args, problem: int):
    comp = _load_problem_components(args, problem)
    traces = []
    if problem == 1:
        eps = args.epsilon if args.epsilon is not None else 0.02
        traces.append(masked_frank_wolfe(comp["g"], comp["h"],
                                         comp["polytope"], eps))
    elif problem == 2:
        eps = args.epsilon if args.epsilon is not None else 0.25
        traces.append(multipass_greedy(comp["objective"], comp["system"], eps))
    elif problem == 3:
        iters = args.iterations if args.iterations is not None else 200
        gamma = comp["_measured"].get("gamma")
        traces.append(frank_wolfe(comp["objective"], comp["polytope"], iters,
                                  declared_gamma=gamma))
    elif problem == 4:
        k = args.k if args.k is not None else comp["_meta"].get("k", 2)
        for t in range(args.trials):
            traces.append(random_greedy_dummies(comp["objective"], k,
                                                seed=args.seed + t))
    elif problem == 5:
        for t in range(args.trials):
            traces.append(random_greedy_intersection(
                comp["objective"], comp["matroid1"], comp["matroid2"],
                seed=args.seed + t))
    return comp, traces


def cmd_run(args) -> int:
    comp, traces = _run_traces(args, args.problem)
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


def _verify_reports(args, problem: int):
    comp = _load_problem_components(args, problem)
    stem = Path(args.instance).stem
    reports = []
    if problem in (1, 2, 3):
        if not args.trace:
            raise UsageError("problems 1-3 need --trace files to verify")
        traces = [serialization.load(p) for p in args.trace]
        if problem == 1:
            from .continuous import SumOracle
            cert = verify.grid_opt(SumOracle([comp["g"], comp["h"]]),
                                   comp["polytope"], args.resolution)
            for trace in traces:
                reports.append(verify.problem1_report(
                    trace, comp["g"], comp["h"], comp["polytope"], cert,
                    instance_id=stem))
        elif problem == 2:
            opt = verify.brute_force_opt_set(comp["objective"],
                                             comp["system"].indep_mask)
            for trace in traces:
                reports.append(verify.problem2_report(
                    trace, opt, system=comp["system"], instance_id=stem))
        else:
            cert = verify.grid_opt(comp["objective"], comp["polytope"],
                                   args.resolution)
            gamma = comp["_measured"].get("gamma")
            if gamma is None:
                gamma = weak_dr_gamma(comp["objective"], samples=1500,
                                      seed=args.seed)
            for trace in traces:
                reports.append(verify.problem3_report(
                    trace, gamma, comp["objective"], cert, instance_id=stem))
    elif problem == 4:
        from .algorithms import DummyGreedyProcess
        f = comp["objective"]
        k = args.k if args.k is not None else comp["_meta"].get("k", 2)
        ratios = measure_ratios(f)
        opt = verify.brute_force_opt_set(
            f, lambda mask: mask.bit_count() <= k)
        measured = verify.expected_value_exact(DummyGreedyProcess(f, k))
        reports.append(verify.check_bound(
            measured, verify.BOUNDS["problem4-claimed"],
            {"m": ratios.m, "gamma": ratios.gamma, "opt": opt.value},
            instance_id=stem, algorithm_id="random-greedy-dummies"))
    elif problem == 5:
        from .algorithms import IntersectionGreedyProcess
        f = comp["objective"]
        ratios = measure_ratios(f)
        system = PSystem.from_matroids([comp["matroid1"], comp["matroid2"]])
        opt = verify.brute_force_opt_set(f, system.indep_mask)
        proc = IntersectionGreedyProcess(f, comp["matroid1"], comp["matroid2"])
        measured = verify.expected_value_exact(proc)
        reports.append(verify.check_bound(
            measured, verify.BOUNDS["problem5-claimed"],
            {"gamma": ratios.gamma, "opt": opt.value},
            instance_id=stem, algorithm_id="random-greedy-intersection"))
    return reports


def cmd_verify(args) -> int:
    reports = _verify_reports(args, args.problem)
    out = _out_dir(args)
    stem = Path(args.instance).stem
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
    proved_violation = any(r.provenance == verify.PROVED
                           and r.verdict == verify.VIOLATED for r in reports)
    return EXIT_VIOLATION if proved_violation else EXIT_OK


def _audit_problem2_proved(args) -> verify.AuditReport:
    bound = verify.BOUNDS["problem2-bicriteria"]
    n = args.n or 8

    def make_case(seed, trial):
        inst_seed = seed * 1_000_003 + trial
        f = random_coverage(n, inst_seed)
        system = PSystem.from_matroids(
            [random_partition_matroid(n, inst_seed + 7 * (j + 1))
             for j in range(args.p)])
        trace = multipass_greedy(f, system, args.epsilon)
        opt = verify.brute_force_opt_set(f, system.indep_mask)
        return {
            "instance_id": f"p2-s{seed}-t{trial}",
            "doc": serialization.bundle_doc(
                2, {"objective": f, "system": system},
                meta={"seed": inst_seed, "p": args.p,
                      "epsilon": args.epsilon}),
            "params": {"epsilon": args.epsilon, "p": args.p},
            "measured": trace.value,
            "opt": opt.value,
        }

    return verify.audit(bound, make_case, args.trials, args.seed)


def cmd_audit(args) -> int:
    out = _out_dir(args)
    if args.bound == "problem2-authors-conjecture":
        report = verify.audit_problem2_conjecture(
            args.trials, args.seed, p=args.p, epsilon=args.epsilon,
            n=args.n or 8)
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
        return EXIT_OK

    if args.bound == "problem2-bicriteria":
        report = _audit_problem2_proved(args)
    elif args.bound == "problem4-claimed":
        report = verify.audit_problem4(args.trials, args.seed,
                                       n=args.n or 5, k=args.k)
    else:
        report = verify.audit_problem5(args.trials, args.seed, n=args.n or 6)

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
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        defaults = {a.dest: a.default for g in parser._subparsers._group_actions
                    for a in g.choices[args.command]._actions}
        args = _merge_config(args, defaults)
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
