"""Command-line entry point: instance generation, algorithm runs, guarantee
verification, and audits, all replayable from (config, seed).

Each problem, audited bound and plain `gen` family is one table entry
(verify's PROBLEMS and AUDITS, and FAMILIES here) that states the flags
each command reads, with their defaults. A command offers the flags its
entries read, and one rule refuses, with exit 1 before any instance or
trace file is read, a flag that the entry its --family, --problem or
--bound selects does not read: problems 1-3 read no --trials, 4-5 no
--trace. A flag not given takes, in `run` and `verify`, the bundle's meta
value (never its seed), else the entry's default. Problem 3 samples gamma
at its bundle's meta.seed, for which no flag stands in. Every document
`gen` writes, like an audit's replay document, records as measured
verify.document_ratios of its objective.

Exit codes: 0 success (including audits of claimed bounds and of the
round-count conjecture), 1 usage error or unreadable input, 2 a proved
bound violated (by `verify`, or by `audit --bound problem2-bicriteria`), 3
capability limit. The default output directory is ./submodlab-out,
overridable with --out-dir or the SUBMODLAB_OUT environment variable. A
--config JSON file maps flag names, required ones included, to values read
as if given ahead of the command line's own flags in one parse: argparse
checks them and explicit flags win. A list value is allowed only for a
repeatable flag (--trace), false only for a switch (--monotone), null for
no flag, and a nested "config" key is a usage error.

Summary tables are CSV with fixed column orders:
  run:    trial,problem,algorithm,seed,value,final,detail
  verify: instance,algorithm,bound,provenance,measured,half_width,threshold,slack,verdict
          (half_width is always empty: every verified value is exact)
  audit:  the columns of the bound's verify.AUDITS entry:
          instance,measured,opt,threshold,ratio,verdict,params, or for the
          conjecture instance,p,epsilon,opt,rounds_conjecture,rounds_multipass,
          value_at_conjecture,value_at_multipass,first_round_reaching,
          conjecture_sufficient (its verdict is not violated)

Every audit prints the same summary keys and saves each violated row's
replay document as violations/<stem>-v<i>.json, <stem> being the CSV's
(<bound>-p<p>-s<seed> for the conjecture, <bound>-s<seed> for the others).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from pathlib import Path

from . import serialization, verify
from .algorithms import RunTrace
from .continuous import (random_quadratic_dr, random_sqrt_linear,
                         random_weak_quadratic)
from .oracles import (CapabilityError, _integer, _within, random_coverage,
                      random_cut, random_modular, random_perturbed)
from .verify import GEN, NOISE, PROBLEMS, SEED

OUT_ENV = "SUBMODLAB_OUT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_CAPABILITY = 3

# the top-level option a config file may set (it cannot name --config)
TOP_LEVEL_FLAGS = ("--out-dir",)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# the `gen` families: seven plain ones, then one per problem


# family -> (build: flags -> oracle, the flags it reads -> their defaults);
# the document records verify.document_ratios of the oracle
FAMILIES = {
    "modular": (lambda a: random_modular(a.n, a.seed), GEN),
    "coverage": (lambda a: random_coverage(a.n, a.seed), GEN),
    "cut": (lambda a: random_cut(a.n, a.seed), GEN),
    "perturbed": (lambda a: random_perturbed(a.n, a.delta, a.seed,
                                             monotone=a.monotone),
                  GEN | NOISE),
    "quadratic-dr": (lambda a: random_quadratic_dr(a.n, a.seed,
                                                   monotone=a.monotone),
                     GEN | {"monotone": False}),
    "quadratic-weak": (lambda a: random_weak_quadratic(a.n, a.seed), GEN),
    "sqrt-linear": (lambda a: random_sqrt_linear(a.n, a.seed), GEN),
}

# command -> (its one-line help, its selector, selector value -> the flags
# that entry reads -> their defaults)
ENTRIES = {
    "gen": ("generate and serialize instances", "family",
            {name: flags for name, (_, flags) in FAMILIES.items()}
            | {f"problem{k}": p.flags["gen"] for k, p in PROBLEMS.items()}),
    "run": ("run an algorithm on an instance file", "problem",
            {k: p.flags["run"] for k, p in PROBLEMS.items()}),
    "verify": ("check runs against bound formulas", "problem",
               {k: p.flags["verify"] for k, p in PROBLEMS.items()}),
    "audit": ("search instances for bound violations", "bound",
              {b: {"trials": 100} | SEED | a.flags
               for b, a in verify.AUDITS.items()}),
}
# flag -> the type of its defaults: bool a switch, tuple a repeatable flag
KINDS = {name: type(default) for _, _, entries in ENTRIES.values()
         for flags in entries.values() for name, default in flags.items()}


@functools.cache  # one parser per process: parse_args leaves it as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="submodlab", description=__doc__, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out-dir", help="output directory "
                        f"(default $%s or ./submodlab-out)" % OUT_ENV)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, selector, entries) in ENTRIES.items():
        # a flag not given stays out of the namespace: _flags fills it in
        cmd = sub.add_parser(command, help=summary,
                             argument_default=argparse.SUPPRESS)
        cmd.add_argument(f"--{selector}", required=True, choices=list(entries),
                         type=type(next(iter(entries))))
        if command in ("run", "verify"):
            cmd.add_argument("--instance", required=True)
        if command == "gen":
            cmd.add_argument("--out", default=None, help="output file path")
        for name in dict.fromkeys(n for flags in entries.values()
                                  for n in flags):
            kind = KINDS[name]
            cmd.add_argument(f"--{name}", **(
                {"action": "store_true"} if kind is bool else
                {"action": "append"} if kind is tuple else {"type": kind}))
    return parser


def _with_config(argv: list[str]) -> list[str]:
    """argv with the values of the --config file ahead of its command (the
    top-level parser takes no abbreviation) spliced in as flags: top-level
    ones first, the command's own right after the command token, the
    command line's own later, so they win. A list gives a repeatable flag
    once per item, false a switch no token, and either is rejected for any
    other flag; null is rejected for every flag. A config file cannot name
    another config file. Without a config or a command, argv stays."""
    i, path = 0, None  # the command is the first token that is no option
    while i < len(argv) and argv[i].startswith("-"):
        flag, eq, value = argv[i].partition("=")
        if flag == "--config":
            path = value if eq else argv[i + 1] if i + 1 < len(argv) else None
        i += 1 if eq else 2
    if path is None or i >= len(argv):
        return argv
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    top, below = [], []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if flag == "--config":
            raise UsageError("a config file cannot hold a 'config' key")
        if value is None:
            raise UsageError(f"config key {key!r} is null")
        if value is False and KINDS.get(key) is not bool:
            raise UsageError(f"config key {key!r} is false but no switch")
        if isinstance(value, bool):
            tokens = [flag] if value else []
        elif isinstance(value, list) and KINDS.get(key) is not tuple:
            raise UsageError(f"config key {key!r} takes one value, not a list")
        else:
            values = value if isinstance(value, list) else [value]
            tokens = [t for v in values for t in (flag, str(v))]
        (top if flag in TOP_LEVEL_FLAGS else below).extend(tokens)
    return top + argv[:i + 1] + below + argv[i + 1:]


def _refuse_unread(args) -> None:
    """A usage error naming each given flag that the entry args select does
    not read: the one rule of every command."""
    _, selector, entries = ENTRIES[args.command]
    value = getattr(args, selector)
    unread = [f"--{name}" for name in vars(args)
              if name in KINDS and name not in entries[value]]
    if unread:
        raise UsageError(f"{args.command} --{selector} {value} reads no "
                         + " or ".join(unread))


def _flags(args, comp=None) -> argparse.Namespace:
    """args with each flag that its entry reads: as given, else (for run and
    verify, from the bundle components ``comp``) the bundle's meta value
    unless it is the seed, else the entry's default. A meta value is
    checked through verify.NUMBERS even when a flag overrides it."""
    _, selector, entries = ENTRIES[args.command]
    flags = dict(entries[getattr(args, selector)])
    meta = set(PROBLEMS[args.problem].meta) - {"seed"} if comp else set()
    for name in flags.keys() & meta:
        value = verify._number(comp, f"meta.{name}")
        flags[name] = flags[name] if value is None else value
    return argparse.Namespace(**flags | vars(args))


def _out_dir(args) -> Path:
    root = args.out_dir or os.environ.get(OUT_ENV) or "submodlab-out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, columns: str, rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns.split(","))
        writer.writerows(rows)
    return path


def _exit_code(reports) -> int:
    """Exit code 2 when any report violates a proved bound."""
    return EXIT_VIOLATION if any(
        r.provenance == verify.PROVED and r.verdict == verify.VIOLATED
        for r in reports) else EXIT_OK


def cmd_gen(args) -> int:
    args = _flags(args)
    if args.family in FAMILIES:
        f = FAMILIES[args.family][0](args)
        doc = serialization.to_doc(f) | {
            "measured": verify.document_ratios(f, args.seed)}
    else:
        k = int(args.family.removeprefix("problem"))  # built by PROBLEMS[k]
        PROBLEMS[k].within_caps(args.n)
        doc = verify.problem_bundle(k, PROBLEMS[k].build(args), args)
    out = Path(args.out) if args.out else \
        _out_dir(args) / "instances" / f"{args.family}-n{args.n}-s{args.seed}.json"
    serialization.save(doc, out)
    print(out)
    return EXIT_OK


def _load_problem_components(args):
    problem = PROBLEMS[args.problem]
    doc = serialization.load_doc(args.instance)
    if doc.get("kind") == "bundle":
        kind = _integer(doc.get("problem"), "bundle problem numbers")
        if kind != args.problem:
            raise UsageError(f"instance file is a problem-{kind} bundle")
        comp = serialization.load_bundle(doc)
    elif problem.bare_objective and doc.get("kind") == "set-function":
        comp = {"objective": serialization.from_doc(doc),
                "_measured": serialization.object_field(doc, "measured", {}),
                "_meta": {}}
    else:
        raise UsageError("instance file does not match the selected problem")
    for name, cls in problem.components.items():
        if not isinstance(comp.get(name), cls):
            raise ValueError(
                f"bundle component {name!r} must be a {cls.__name__}")
    return comp


def cmd_run(args) -> int:
    if "trials" in args:  # checked before the instance file is read
        if args.trials < 0:
            raise ValueError(f"trials must be nonnegative, not {args.trials}")
        _within("trials", args.trials)
    problem = PROBLEMS[args.problem]
    comp = _load_problem_components(args)
    problem.within_caps(comp[next(iter(problem.components))].n)
    args = _flags(args, comp)
    traces = problem.run(comp, args)
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
                         "trial,problem,algorithm,seed,value,final,detail",
                         rows)
    print(summary)
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = PROBLEMS[args.problem]
    comp = _load_problem_components(args)
    args = _flags(args, comp)
    if "trace" in args and not args.trace:  # read by problems 1-3
        raise UsageError("problems 1-3 need --trace files to verify")
    traces = [serialization.load(p) for p in vars(args).get("trace", ())]
    if not all(isinstance(t, RunTrace) for t in traces):
        raise ValueError("a --trace file does not hold a run trace")
    stem = Path(args.instance).stem
    reports = problem.check(comp, traces, args, stem)
    out = _out_dir(args)
    rows = [[r.instance_id, r.algorithm_id, r.bound_id, r.provenance,
             repr(r.measured), "", repr(r.threshold), repr(r.slack),
             r.verdict] for r in reports]
    path = _write_csv(out / f"verify-{stem}-p{args.problem}.csv",
                      "instance,algorithm,bound,provenance,measured,"
                      "half_width,threshold,slack,verdict", rows)
    for r in reports:
        print(f"{r.bound_id} [{r.provenance}]: verdict={r.verdict} "
              f"measured={r.measured!r} threshold={r.threshold!r}")
    print(path)
    return _exit_code(reports)


def cmd_audit(args) -> int:
    args = _flags(args)
    entry = verify.AUDITS[args.bound]
    report = verify.run_audit(args.bound, args.trials, args.seed,
                              **{n: getattr(args, n) for n in entry.flags})
    out = _out_dir(args)
    stem = entry.stem.format(**vars(args))
    path = _write_csv(out / f"audit-{stem}.csv", entry.columns,
                      [entry.row(r) for r in report.rows])
    for i, doc in enumerate(report.violations):
        serialization.save(doc, out / "violations" / f"{stem}-v{i}.json")
    print(json.dumps(report.summary(), sort_keys=True))
    print(path)
    return _exit_code(report.rows)


COMMANDS = {"gen": cmd_gen, "run": cmd_run, "verify": cmd_verify,
            "audit": cmd_audit}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_with_config(argv))
        _refuse_unread(args)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, KeyError) as exc:  # JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as exc:
        print(f"capability limit: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    raise SystemExit(main())
