"""Golden replay corpus: (command line + seed) must give byte-identical files.

`tests/golden/` holds what a fixed set of runs wrote: every file of CLI
`gen -> run -> verify` for problems 1-5 and the seven plain `gen` families,
the four `audit --bound` tables, the replay documents of a few audit rows,
the stdout and exit code of each command, the stdout of the three
`scripts/` at tiny sizes, under `docs/` the document of one seeded
object of each serializable class that those runs do not write, under
`counterexamples/` a hand-built problem-2 bundle that refutes the
round-count conjecture at p = 3, eps = 0.1, and in
`ratios.json` the exact gamma and m of seeded oracles at
n = 8-12 (from n = 11 on, the gamma sweep splits groups over several
chunks). The test regenerates all of it into a temporary directory and
compares bytes, which catches both refactor drift and drift in numpy's
random streams (perturbed oracles rebuild their noise from a seed).

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
from types import SimpleNamespace

import numpy as np
import pytest

from submodlab import serialization, verify
from submodlab.cli import main
from submodlab.continuous import (BoxPolytope, CardinalityPolytope,
                                  KnapsackPolytope, PartitionPolytope)
from submodlab.matroids import (PartitionMatroid, PSystem,
                                random_graphic_matroid,
                                random_partition_matroid)
from submodlab.oracles import (ModularOracle, measure_ratios, random_coverage,
                               random_cut, random_modular, random_perturbed)
from submodlab.verify import audit_problem4, audit_problem5

from helpers import TableOracle, random_uniform_matroid

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

def _doc_objects() -> list:
    """One seeded object of each class the CLI runs above do not write."""
    rng = np.random.default_rng(5)
    blocks = random_partition_matroid(6, 3)
    return [
        random_uniform_matroid(6, 1),
        random_graphic_matroid(6, 2),
        PSystem([random_uniform_matroid(6, 4),
                 random_partition_matroid(6, 5),
                 random_graphic_matroid(6, 6)]),
        BoxPolytope(rng.uniform(0.2, 1.0, 4)),
        CardinalityPolytope(5, 2),
        PartitionPolytope(blocks.blocks, blocks.caps),
        KnapsackPolytope(rng.uniform(0.2, 1.0, 5), 1.3),
    ]


COUNTEREXAMPLE = "counterexamples/problem2-conjecture-p3-eps0.1.json"


def _stacked_decoys() -> dict:
    """A problem-2 bundle on which the authors' conjectured
    ceil(log_4(1/0.1)) = 2 passes fall short of 0.9 * OPT at p = 3.
    Decoys 0 and 1 weigh 1.02 and 1.01, elements 2-4 weigh 1. Matroid j
    (cap 1 per block) puts both decoys and element 2 + j in one block and
    every other element alone, so each pass takes one decoy, which blocks
    the rest: two passes give 2.03, while OPT = {2, 3, 4} gives 3."""
    matroids = [PartitionMatroid(
        [[0, 1, 2 + j]] + [[u] for u in range(2, 5) if u != 2 + j], [1] * 3)
        for j in range(3)]
    return serialization.bundle_doc(
        2, {"objective": ModularOracle([1.02, 1.01, 1.0, 1.0, 1.0]),
            "system": PSystem(matroids)},
        meta={"p": 3, "epsilon": 0.1})


def _ratio_oracles() -> dict:
    """Seeded oracles of each kind the gamma kernel must get bit-exact:
    submodular, perturbed (monotone and not), modular plus small noise (gamma
    strictly inside (0, 1)), supermodular w(S)^2 (whose minimizing B is
    large, so the singleton-sum order shows), tie-heavy small integers, and
    cut."""
    def noisy_modular(n, seed):
        rng = np.random.default_rng(seed)
        return TableOracle(random_modular(n, seed).table()
                           + rng.uniform(0.0, 0.05, 1 << n))

    def ints(n, seed):
        rng = np.random.default_rng(seed)
        return TableOracle(rng.integers(0, 4, 1 << n).astype(float))

    return {
        "coverage-n9-s1": random_coverage(9, 1),
        "coverage-n12-s2": random_coverage(12, 2),
        "perturbed-monotone-n10-s3": random_perturbed(10, 0.3, 3, True),
        "perturbed-monotone-n12-s4": random_perturbed(12, 0.3, 4, True),
        "perturbed-n11-s5": random_perturbed(11, 0.3, 5),
        "perturbed-n12-s6": random_perturbed(12, 0.3, 6),
        "noisy-modular-n11-s7": noisy_modular(11, 7),
        "noisy-modular-n12-s8": noisy_modular(12, 8),
        "supermodular-n10-s9": TableOracle(random_modular(10, 9).table() ** 2),
        "supermodular-n12-s10": TableOracle(
            random_modular(12, 10).table() ** 2),
        "ints-n8-s11": ints(8, 11),
        "ints-n12-s12": ints(12, 12),
        "cut-n10-s13": random_cut(10, 13),
        "cut-n12-s14": random_cut(12, 14),
    }


def write_ratios(path: Path) -> None:
    """``measure_ratios`` of each ratio oracle, floats as their repr."""
    doc = {}
    for name, f in _ratio_oracles().items():
        r = measure_ratios(f)
        doc[name] = {"gamma": repr(r.gamma), "m": repr(r.m)}
    serialization.save(doc, path)


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
    for report in (audit_problem4(2, 5, n=5, k=2), audit_problem5(2, 6, n=6)):
        for t, row in enumerate(report.rows):
            serialization.save(report.document(t),
                               docs / f"{row.instance_id}.json")

    for obj in _doc_objects():
        doc = serialization.to_doc(obj)
        name = "-".join(filter(None, (doc["kind"], doc.get("family"))))
        serialization.save(doc, root / "docs" / f"{name}.json")
    serialization.save(_stacked_decoys(), root / COUNTEREXAMPLE)

    log = _Log(root)
    for name, argv in SCRIPT_RUNS:
        out_flag = ["--out-dir", str(root / "scripts-out")] \
            if name == "audit_claimed_bounds.py" else []
        _script(log, name, argv + out_flag)
    log.write(root / "scripts-stdout.txt")

    write_ratios(root / "ratios.json")


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_golden_corpus_replays(tmp_path):
    write_corpus(tmp_path)
    want, got = _files(GOLDEN), _files(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert changed == []


def test_golden_ratios_replay(tmp_path):
    write_ratios(tmp_path / "ratios.json")
    want = serialization.load_doc(GOLDEN / "ratios.json")
    got = serialization.load_doc(tmp_path / "ratios.json")
    assert [name for name in want if got.get(name) != want[name]] == []
    assert sorted(got) == sorted(want)


def _doc_keys(doc, keys: set) -> set:
    """(kind, family) of ``doc`` and of every document nested in it."""
    if isinstance(doc, dict):
        if "schema" in doc:
            keys.add((doc["kind"], doc.get("family")))
        for value in doc.values():
            _doc_keys(value, keys)
    elif isinstance(doc, list):
        for value in doc:
            _doc_keys(value, keys)
    return keys


def test_golden_documents_cover_every_codec_class():
    keys: set = set()
    for path in GOLDEN.rglob("*.json"):
        _doc_keys(serialization.load_doc(path), keys)
    codec_keys = {(kind, getattr(cls, "family", None))
                  for cls, (kind, _) in serialization.CODECS.items()}
    assert codec_keys - keys == set()


def test_golden_documents_reload_byte_identical(tmp_path):
    for path in sorted((GOLDEN / "docs").glob("*.json")):
        again = serialization.save(serialization.load(path),
                                   tmp_path / path.name)
        assert again.read_bytes() == path.read_bytes(), path.name


def test_head_to_head_rows_are_the_audit_csv_lines(tmp_path):
    # trial 22 violates the conjecture at these flags, so a row reads False
    flags = ["--p", "2", "--epsilon", "0.4", "--trials", "23", "--seed", "0"]
    log = _Log(tmp_path)
    _script(log, "conjecture_head_to_head.py", [*flags, "--rows"])
    printed = log.lines[1].splitlines()
    assert main(["--out-dir", str(tmp_path), "audit", "--bound",
                 "problem2-authors-conjecture", *flags]) == 0
    table = tmp_path / "audit-problem2-authors-conjecture-p2-s0.csv"
    lines = table.read_text().splitlines()
    assert len(lines) == 24 and lines[23].endswith(",False")
    assert printed[:-1] == lines


def test_stacked_decoys_refute_the_conjecture():
    doc = serialization.load_doc(GOLDEN / COUNTEREXAMPLE)
    c = serialization.load_bundle(doc)
    flags = SimpleNamespace(**doc["meta"])
    traces = verify.PROBLEMS[2].run(c, flags)
    report, = verify._check_conjecture(c, traces, flags, "p2c")
    assert report.verdict == verify.VIOLATED
    assert report.measured == pytest.approx(2.03)
    assert report.threshold == pytest.approx(2.7)
    assert report.params["rounds_conjecture"] == 2
    assert report.params["first_round_reaching"] == 3


def test_stacked_decoys_hold_the_proved_bound(tmp_path):
    # the proved bicriteria bound still holds after all the passes
    instance = str(GOLDEN / COUNTEREXAMPLE)
    out = ["--out-dir", str(tmp_path)]
    assert main([*out, "run", "--problem", "2", "--instance", instance]) == 0
    trace = tmp_path / "traces" / "problem2-conjecture-p3-eps0.1-p2-t0.json"
    assert main([*out, "verify", "--problem", "2", "--instance", instance,
                 "--trace", str(trace)]) == 0
    row = (tmp_path / "verify-problem2-conjecture-p3-eps0.1-p2.csv"
           ).read_text().splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(5.03) and row[8] == verify.HOLDS


if __name__ == "__main__":
    before = _files(GOLDEN)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    write_corpus(GOLDEN)
    after = _files(GOLDEN)
    for name in sorted(before.keys() | after.keys()):
        if name not in after:
            print(f"removed {name}")
        elif name not in before:
            print(f"added {name}")
        elif before[name] != after[name]:
            print(f"changed {name}")
    print(f"wrote {len(after)} files under {GOLDEN}")
