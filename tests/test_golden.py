"""Golden replay corpus: (command line + seed) must give byte-identical files.

`tests/golden/` holds what a fixed set of runs wrote: every file of CLI
`gen -> run -> verify` for problems 1-5 and the seven plain `gen` families,
the four `audit --bound` tables, the replay documents of a few audit rows,
the stdout and exit code of each command, and the stdout of the three
`scripts/` at tiny sizes. The test regenerates all of it into a temporary
directory and compares bytes, which catches both refactor drift and drift in
numpy's random streams (perturbed oracles rebuild their noise from a seed).

To rewrite the corpus after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

from the repository root and commit the diff of tests/golden/.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import shutil
import sys
from pathlib import Path

from submodlab import serialization
from submodlab.cli import main
from submodlab.verify import audit_problem4, audit_problem5

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ROOT_TOKEN = "<root>"

FAMILIES = [
    ["--family", "modular", "--n", "5", "--seed", "1"],
    ["--family", "coverage", "--n", "6", "--seed", "2"],
    ["--family", "cut", "--n", "5", "--seed", "3"],
    ["--family", "perturbed", "--n", "6", "--delta", "0.3", "--seed", "4"],
    ["--family", "quadratic-dr", "--n", "3", "--monotone", "--seed", "5"],
    ["--family", "quadratic-weak", "--n", "3", "--seed", "6"],
    ["--family", "sqrt-linear", "--n", "3", "--seed", "7"],
]

# problem -> (gen flags, run flags); the instance stem follows the CLI's
# default naming, problem<k>-n<n>-s<seed>
PROBLEMS = {
    1: (["--n", "3", "--seed", "2"], ["--epsilon", "0.05"]),
    2: (["--n", "7", "--p", "2", "--seed", "11"], ["--epsilon", "0.25"]),
    3: (["--n", "3", "--seed", "4"], ["--iterations", "50"]),
    4: (["--n", "6", "--k", "3", "--delta", "0.1", "--seed", "9"],
        ["--trials", "3", "--seed", "1"]),
    5: (["--n", "6", "--seed", "6"], ["--trials", "3", "--seed", "2"]),
}

AUDITS = [
    ["--bound", "problem2-bicriteria", "--p", "2", "--n", "7",
     "--trials", "3", "--seed", "1"],
    ["--bound", "problem2-authors-conjecture", "--p", "3", "--n", "7",
     "--trials", "3", "--seed", "2"],
    ["--bound", "problem4-claimed", "--n", "5", "--k", "2",
     "--trials", "4", "--seed", "3"],
    ["--bound", "problem5-claimed", "--n", "6", "--trials", "3",
     "--seed", "4"],
]

SCRIPT_RUNS = [
    ("run_guarantee_suite.py", ["--instances", "2", "--seed", "1"]),
    ("audit_claimed_bounds.py", ["--trials", "2", "--seed", "1"]),
    ("conjecture_head_to_head.py", ["--p", "2", "3", "--trials", "3",
                                    "--seed", "1", "--rows"]),
]


def _captured(call) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = call()
    return code, buf.getvalue()


class _Log:
    """Commands and their stdout, with the output root made relative."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.lines: list[str] = []

    def record(self, argv: list[str], code: int, out: str) -> None:
        self.lines.append("$ " + " ".join(argv))
        self.lines.append(out.rstrip("\n"))
        self.lines.append(f"exit {code}")

    def write(self, path: Path) -> None:
        text = "\n".join(self.lines) + "\n"
        path.write_text(text.replace(self.root, ROOT_TOKEN))


def _cli(log: _Log, out: Path, *argv: str) -> None:
    full = ["--out-dir", str(out), *argv]
    code, text = _captured(lambda: main(full))
    log.record(full, code, text)


def _script(log: _Log, name: str, argv: list[str]) -> None:
    spec = importlib.util.spec_from_file_location(
        f"golden_{Path(name).stem}", SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    saved = sys.argv
    sys.argv = [name, *argv]
    try:
        code, text = _captured(module.main)
    finally:
        sys.argv = saved
    log.record([name, *argv], code, text)


def write_corpus(root: Path) -> None:
    """Write every golden file under ``root``."""
    cli = root / "cli"
    log = _Log(root)
    for flags in FAMILIES:
        _cli(log, cli, "gen", *flags)
    for k, (gen_flags, run_flags) in PROBLEMS.items():
        _cli(log, cli, "gen", "--family", f"problem{k}", *gen_flags)
        n, seed = gen_flags[1], gen_flags[gen_flags.index("--seed") + 1]
        stem = f"problem{k}-n{n}-s{seed}"
        instance = str(cli / "instances" / f"{stem}.json")
        _cli(log, cli, "run", "--problem", str(k), "--instance", instance,
             *run_flags)
        traces = [] if k > 3 else \
            ["--trace", str(cli / "traces" / f"{stem}-p{k}-t0.json")]
        _cli(log, cli, "verify", "--problem", str(k), "--instance", instance,
             *traces)
    for flags in AUDITS:
        _cli(log, cli, "audit", *flags)
    log.write(root / "cli-stdout.txt")

    docs = root / "audit-docs"
    for row in audit_problem4(2, 5, n=5, k=2).rows + \
            audit_problem5(2, 6, n=6).rows:
        serialization.save(row.doc, docs / f"{row.instance_id}.json")

    log = _Log(root)
    for name, argv in SCRIPT_RUNS:
        out_flag = ["--out-dir", str(root / "scripts-out")] \
            if name == "audit_claimed_bounds.py" else []
        _script(log, name, argv + out_flag)
    log.write(root / "scripts-stdout.txt")


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_golden_corpus_replays(tmp_path):
    write_corpus(tmp_path)
    want, got = _files(GOLDEN), _files(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert changed == []


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    write_corpus(GOLDEN)
    print(f"wrote {len(_files(GOLDEN))} files under {GOLDEN}")
