"""At-scale checks: the fast paths against the reference builders and loops
of tests/helpers at the sizes the caps and the benchmark pools set, and the
benchmark's own reference digests.

Each test runs a fixed sweep: tables at n = 16-20, certified ratios at
n = 6-12, problem-4 expectations at n = 12-16 (and one at n = 20, by its
memory), and the instance seeds of perfbench/refs/*.json, read from those
files. It collects one label per case that differs and asserts that none
does, so a failure names every difference. It also asserts how many cases
it compared, so an emptied sweep cannot pass. Together they take about a
minute on two cores.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from submodlab import (algorithms, cli, continuous, matroids, oracles,
                       serialization, verify)

from helpers import (ReferenceIntersectionProcess, coverage_table_lsb,
                     dag_walk, dummy_greedy_expectation_all_masks,
                     frank_wolfe_ref, gamma_loop, grid_opt_ref,
                     grid_oracle, grid_polytope, kernel_bits_differ, m_loop,
                     masked_frank_wolfe_ref, member_many_ref,
                     partition_table_counts,
                     random_greedy_intersection_ref, weak_dr_gamma_ref)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _pool_ref(name: str) -> dict:
    return json.loads((PERFBENCH / "refs" / f"{name}.json").read_text())


def _pool_seeds(name: str) -> list[int]:
    return sorted(int(s) for s in _pool_ref(name)["instances"])


def _perturbed_monotone(n, seed):
    return oracles.random_perturbed(n, 0.3, seed, monotone=True)


# measure_ratios takes gamma = 1.0 for the certified submodular families and
# m = 1.0 for the certified monotone ones without sweeping: on generated
# instances that must be the sweep's value bit for bit, and at n = 10 the
# reference loop's too
@pytest.mark.parametrize("ratio, sweep, loop, makes", [
    ("gamma", oracles._gamma, lambda f: gamma_loop(f)[0],
     (oracles.random_coverage, oracles.random_modular, oracles.random_cut)),
    ("m", oracles._m, m_loop,
     (oracles.random_coverage, oracles.random_modular, _perturbed_monotone)),
], ids=["gamma", "m"])
def test_certified_ratio_is_the_sweep(ratio, sweep, loop, makes):
    bad, compared = [], 0
    for make in makes:
        for n in range(6, 13):
            for seed in range(6):
                f = make(n, seed)
                got = getattr(oracles.measure_ratios(f), ratio)
                want = [sweep(f)] + ([loop(f)] if n == 10 else [])
                compared += len(want)
                if any(repr(got) != repr(w) for w in want):
                    bad.append(f"{f.family} n = {n} seed {seed}: "
                               f"{got!r} != {want!r}")
    assert compared == 126 + 18
    assert bad == []


# gen records gamma at n = 12 from the sweep that stops at the floor 0
# (perturbed) or from the certificate (coverage): the reference loop's
# value, in a document whose SHA-256 is pinned
@pytest.mark.parametrize("family, seed, sha256", [
    ("perturbed", 3,
     "f39adc32eed8bdcb272b00e991e9504034e4a62bf21a230e9c4a885c8f428d1e"),
    ("coverage", 2,
     "ec71eaab592e2e74bb5891ab720732c6f136e106163d9394091ba5fe93744e56"),
], ids=["perturbed-3", "coverage-2"])
def test_gen_gamma_at_n12_is_the_reference_loop(family, seed, sha256,
                                                tmp_path):
    assert cli.main(["--out-dir", str(tmp_path), "gen", "--family", family,
                     "--n", "12", "--seed", str(seed)]) == 0
    path = tmp_path / "instances" / f"{family}-n12-s{seed}.json"
    assert serialization.load_doc(path)["measured"]["gamma"] \
        == gamma_loop(serialization.load(path))[0]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


# every table byte for byte: coverage against the fold from each mask
# without its lowest bit, a perturbed oracle over each coverage base
# against the same oracle over that reference, and partition, uniform
# (every k) and three-matroid p-system tables against per-block counts
def test_tables_at_the_cap_are_the_reference_builders(monkeypatch):
    bad, compared = [], 0

    def check(what, got, want):
        nonlocal compared
        compared += 1
        if got.tobytes() != want.tobytes():
            bad.append(what)

    for n in (16, 18, 20):
        for seed in range(3):
            f = oracles.random_coverage(n, seed)
            with monkeypatch.context() as patch:
                patch.setattr(oracles.CoverageOracle, "_build_table",
                              coverage_table_lsb)
                ref = oracles.random_coverage(n, seed)
                check(f"coverage n = {n} seed {seed}", f.table(), ref.table())
            for monotone in (False, True):
                got = oracles.PerturbedOracle(f, 0.2, seed, monotone)
                want = oracles.PerturbedOracle(ref, 0.2, seed, monotone)
                check(f"perturbed n = {n} seed {seed} monotone {monotone}",
                      got.table(), want.table())
            system = matroids.random_partition_psystem(n, 3, seed)
            for j, m in enumerate(system.matroids):
                check(f"partition n = {n} seed {seed} matroid {j}",
                      m.indep_table(), partition_table_counts(m))
            want = np.logical_and.reduce(
                [partition_table_counts(m) for m in system.matroids])
            check(f"p-system n = {n} seed {seed}", system.indep_table(), want)
        for k in range(n + 2):
            m = matroids.UniformMatroid(n, k)
            check(f"uniform n = {n} k = {k}", m.indep_table(),
                  partition_table_counts(m))
        # n singleton blocks, the widest packing: 2n bits at cap 0
        for caps in ([0] * n, [u % 3 for u in range(n)]):
            m = matroids.PartitionMatroid([[u] for u in range(n)], caps)
            check(f"singletons n = {n} caps {caps[:3]}...", m.indep_table(),
                  partition_table_counts(m))
    assert compared == 129
    assert bad == []


# every pool digest and audit-row digest of the three workloads that make
# no BLAS or einsum call, so their bits should not depend on the CPU;
# proved-continuous makes both and is checked by the pool tests below
@pytest.mark.parametrize("name", ["audit-p4-deep", "audit-p5-intersection",
                                  "cli-bicriteria"])
def test_benchmark_reference_digests(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    w, ref = workloads.WORKLOADS[name], _pool_ref(name)
    bad, checked = [], 0
    for seed, entry in ref["instances"].items():
        checked += 1
        if workloads.digest(w.collect(w.run(int(seed), tmp_path))) \
                != entry["digest"]:
            bad.append(f"{name} instance {seed}")
    audit = ref.get("audit", {"rows": {}})
    for seed, rows in audit["rows"].items():
        got = [workloads.digest([line])
               for line in workloads.cli_audit(int(seed), len(rows), tmp_path)]
        checked += len(rows)
        if got[0] != audit["header"] or len(got) != len(rows) + 1:
            bad.append(f"{name} audit seed {seed} header or length")
        bad += [f"{name} audit seed {seed} row {i}"
                for i, (g, r) in enumerate(zip(got[1:], rows)) if g != r]
    assert checked == w.pool + w.audit_seeds * w.audit_rows
    assert bad == []


@pytest.fixture(scope="module")
def continuous_pool():
    """Every proved-continuous pool instance, built as
    perfbench/workloads.py builds it: the polytope, the problem-1 pair
    g, h and the problem-3 objective."""
    pool = []
    for seed in _pool_seeds("proved-continuous"):
        n = (3, 4, 5)[seed % 3]
        pool.append(SimpleNamespace(
            seed=seed, n=n,
            poly=continuous.CardinalityPolytope(n, max(1, n // 2))
            if seed % 2 else continuous.unit_box(n),
            g=continuous.random_quadratic_dr(n, seed, monotone=True),
            h=continuous.random_quadratic_dr(n, seed + 1, monotone=False),
            p3=continuous.random_quadratic_dr(n, seed + 5, monotone=True)
            if seed % 2 else continuous.random_weak_quadratic(n, seed + 5)))
    return pool


def _certificate(c):
    return c.value, c.maximizer, c.radius


# grid_opt must return the full grid's certificate bit for bit, in one batch
# of cells (as every pool grid, of at most 7^5 = 16,807 cells, runs) and in
# batches of 1000; weak_dr_gamma the per-pair loop's ratio for the
# workload's problem-3 objective (2000 samples), and verify.sampled_gamma
# the loop's 1500-sample ratio for the objective verify builds at that seed
def test_pool_grid_optimum_and_weak_dr_ratio(continuous_pool, monkeypatch):
    bad, grids, gammas = [], 0, 0
    one_batch = verify._GRID_BATCH
    for inst in continuous_pool:
        for leg, f in (("problem 1", continuous.SumOracle([inst.g, inst.h])),
                       ("problem 3", inst.p3)):
            want = grid_opt_ref(f, inst.poly, 0.05)
            for size in (one_batch, 1000):
                monkeypatch.setattr(verify, "_GRID_BATCH", size)
                got = verify.grid_opt(f, inst.poly, 0.05)
                grids += 1
                if _certificate(got) != _certificate(want):
                    bad.append(f"seed {inst.seed} {leg}, batches of {size} "
                               f"cells: {got} != {want}")
            monkeypatch.undo()
        built = verify._build_problem3(
            SimpleNamespace(n=inst.n, seed=inst.seed))["objective"]
        for what, got, want in (
                ("workload",
                 continuous.weak_dr_gamma(inst.p3, samples=2000,
                                          seed=inst.seed),
                 weak_dr_gamma_ref(inst.p3, samples=2000, seed=inst.seed)),
                ("built", verify.sampled_gamma(built, inst.seed),
                 weak_dr_gamma_ref(built, samples=1500, seed=inst.seed))):
            gammas += 1
            if repr(got) != repr(want):
                bad.append(f"seed {inst.seed} {what} gamma: "
                           f"{got!r} != {want!r}")
    assert (grids, gammas) == (384, 192)
    assert bad == []


# member_many, which tests the box one column at a time, must give the
# row-wise reference's bools for every distinct pool polytope, on the cell
# representatives and lower corners grid_opt tests at resolution 0.05, and on
# points within a few MEMBER_TOL of each box face and each linear row
def test_pool_membership_is_the_row_wise_rule(continuous_pool):
    tol = continuous.MEMBER_TOL
    offsets = tol * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    polytopes = {(inst.poly.family, inst.n): inst.poly
                 for inst in continuous_pool}
    bad, compared = [], 0
    for (family, n), poly in sorted(polytopes.items()):
        cells = verify._grid_cells(n, 0.05)
        base = cells.rep[::97]
        faces = []
        for j in range(n):
            for face in (0.0, float(poly.upper[j])):
                for d in offsets:
                    pts = base.copy()
                    pts[:, j] = face + d
                    faces.append(pts)
        for row, _ in zip(*poly.linear_rows()):
            edge = poly.lmo(row)
            j = int(np.flatnonzero((edge < 1.0) & (row > 0.0))[0])
            for d in offsets:
                past = edge.copy()
                past[j] += d / row[j]
                faces.append(past[None])
        for what, pts in (("representatives", cells.rep),
                          ("lower corners", cells.lower),
                          ("faces", np.concatenate(faces))):
            compared += len(pts)
            if not np.array_equal(poly.member_many(pts),
                                  member_many_ref(poly, pts)):
                bad.append(f"{family} n = {n}, {what}")
    assert len(polytopes) == 6
    assert compared == 105_721
    assert bad == []


# masked_frank_wolfe and frank_wolfe, which check each iterate once and read
# it through the oracle kernels, must return the traces of the reference
# loops, which call the checking value, grad and masked_update, bit for bit
def test_pool_frank_wolfe_is_the_reference_loop(continuous_pool):
    bad, compared = [], 0
    for inst in continuous_pool:
        gamma = continuous.weak_dr_gamma(inst.p3, samples=2000, seed=inst.seed)
        for leg, got, want in (
                ("problem 1",
                 algorithms.masked_frank_wolfe(inst.g, inst.h, inst.poly, 0.02),
                 masked_frank_wolfe_ref(inst.g, inst.h, inst.poly, 0.02)),
                ("problem 3",
                 algorithms.frank_wolfe(inst.p3, inst.poly, 200,
                                        declared_gamma=gamma),
                 frank_wolfe_ref(inst.p3, inst.poly, 200,
                                 declared_gamma=gamma))):
            compared += 1
            if repr(got) != repr(want):
                bad.append(f"seed {inst.seed} {leg}: the trace differs")
    assert compared == 192
    assert bad == []


# the FW reference loops call the same kernels as the loops, so they cannot
# see a kernel drift: at every iterate of both legs of every pool instance,
# _value and _grad must have the bits of the frozen @ forms
def test_pool_kernels_are_the_matmul_forms(continuous_pool):
    bad, compared = [], 0
    for inst in continuous_pool:
        for leg, parts, trace in (
                ("problem 1", (inst.g, inst.h),
                 algorithms.masked_frank_wolfe(inst.g, inst.h, inst.poly,
                                               0.02)),
                ("problem 3", (inst.p3,),
                 algorithms.frank_wolfe(inst.p3, inst.poly, 200))):
            points = [np.zeros(inst.n)] + [np.array(rec["point"])
                                           for rec in trace.iterations]
            for i, x in enumerate(points):
                for f in parts:
                    compared += 1
                    bad += [f"seed {inst.seed} {leg} iterate {i}: {kernel}"
                            for kernel in kernel_bits_differ(f, x)]
    assert compared == 96 * (2 * 51 + 201)
    assert bad == []


# the problem-4 expectation's layers hold only the masks a k-round run can
# reach: at every budget for n = 12, 14 and 16, on coverage, perturbed and
# monotone-perturbed tables, it must give the bits of the frozen all-masks
# formula
def test_dummy_expectation_is_the_all_masks_formula():
    bad, compared = [], 0
    for n in (12, 14, 16):
        for family, f in (("coverage", oracles.random_coverage(n, n)),
                          ("perturbed", oracles.random_perturbed(n, 0.3, n)),
                          ("monotone perturbed", _perturbed_monotone(n, n))):
            for k in range(1, n + 1):
                compared += 1
                if repr(verify.dummy_greedy_expectation(f, k)) != \
                        repr(dummy_greedy_expectation_all_masks(f, k)):
                    bad.append(f"{family} n = {n}, k = {k}")
    assert compared == 3 * (12 + 14 + 16)
    assert bad == []


# reach by memory, not time: at the table cap with k = 6, the expectation
# keeps the 21,700 sets of size < 6 and the size order, cold, where the
# all-masks layers grew by about 490 MiB
def test_dummy_expectation_at_the_table_cap_stays_within_64_mib():
    n = oracles.BUDGET["table"].limit
    f = oracles.random_coverage(n, 0)
    f.table()
    oracles.popcounts.cache_clear()
    verify._by_size.cache_clear()
    tracemalloc.start()
    try:
        value = verify.dummy_greedy_expectation(f, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert 0.0 < value <= f.table().max()


# every audit-p5-intersection pool instance, as verify.audit_problem5 builds
# it: at every state of its exact walk, algorithms._candidates over the
# bytes independence table and the value table, as a list of floats and as
# the walk's memoryview, must give the candidates of the reference rule
# (numpy marginals and the recursive search over the numpy table), and the
# walk the reference walk's expectation, bit for bit; three
# random_greedy_intersection traces per instance (the runner reads the
# numpy tables) must equal those of the loop over the reference rule
def test_pool_two_matroid_walks_and_runs_are_the_reference_rule(monkeypatch):
    walk, walked = verify.intersection_greedy_expectation, []

    def recording_walk(f, system):
        walked.append((f, system, walk(f, system)))
        return walked[-1][2]

    monkeypatch.setattr(verify, "intersection_greedy_expectation",
                        recording_walk)
    bad, walks, states, traces = [], 0, 0, 0
    for seed in _pool_seeds("audit-p5-intersection"):
        walked.clear()
        verify.audit_problem5(1, seed, n=12)
        (f, system, value), = walked
        walks += 1
        proc = ReferenceIntersectionProcess(f, system)
        want = dag_walk(proc)
        if repr(value) != repr(want):
            bad.append(f"seed {seed}: expectation {value!r} != {want!r}")
        indep = system.indep_table().tobytes()
        for values in (f.table().tolist(), memoryview(f.table())):
            for mask, options in proc.seen.items():
                states += 1
                got = algorithms._candidates(values, indep, f.n, mask)
                if got != options:
                    bad.append(f"seed {seed} state {mask} over "
                               f"{type(values).__name__}: {got} != {options}")
        m1, m2 = system.matroids
        for run in range(3):
            traces += 1
            if repr(algorithms.random_greedy_intersection(f, m1, m2, run)) \
                    != repr(random_greedy_intersection_ref(f, m1, m2, run)):
                bad.append(f"seed {seed} run {run}: the trace differs")
    assert (walks, states, traces) == (240, 2 * 11231, 720)
    assert bad == []


# the pool holds only box and cardinality polytopes with quadratic
# objectives; this fixed sweep covers the other polytope rows and objectives
# of the staged, best-first search: 24 seeds at resolution 0.1 (11^5 grid
# points), each certificate the full grid's bit for bit
def test_dimension_five_grid_optimum_is_the_full_grid():
    bad, compared = [], 0
    for seed in range(24):
        for oracle in ("sqrt-linear", "quadratic", "sum"):
            for polytope in ("partition", "knapsack"):
                f = grid_oracle(oracle, 5, seed)
                poly = grid_polytope(polytope, 5, seed)
                got = verify.grid_opt(f, poly, 0.1)
                want = grid_opt_ref(f, poly, 0.1)
                compared += 1
                if _certificate(got) != _certificate(want):
                    bad.append(f"seed {seed} {oracle} on {polytope}: "
                               f"{got} != {want}")
    assert compared == 144
    assert bad == []
