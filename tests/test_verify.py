import gc
import hashlib
import json
import math
import warnings
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submodlab.algorithms import (_candidates, certificate_holds,
                                  frank_wolfe, masked_frank_wolfe,
                                  multipass_greedy, random_greedy_dummies)
from submodlab.continuous import (BoxPolytope, CardinalityPolytope,
                                  ContinuousOracle, KnapsackPolytope,
                                  PartitionPolytope, QuadraticOracle,
                                  SumOracle, random_quadratic_dr,
                                  random_weak_quadratic, unit_box,
                                  weak_dr_gamma)
from submodlab.matroids import (PartitionMatroid, PSystem, UniformMatroid,
                                random_partition_matroid,
                                random_partition_psystem)
from submodlab.oracles import (BUDGET, REL_TOL, CapabilityError,
                               CoverageOracle, ModularOracle, elements_of,
                               random_coverage, random_perturbed)
from submodlab.serialization import canonical_json, load_bundle
from submodlab import cli, verify
from submodlab.verify import (BOUNDS, AUTHORS_CONJECTURE, CLAIMED_FLAWED,
                              PROVED, TRIVIAL, VIOLATED, audit,
                              audit_problem4, audit_problem5,
                              brute_force_opt_set, check_bound,
                              dummy_greedy_expectation, grid_opt,
                              intersection_greedy_expectation,
                              problem1_report, problem2_report,
                              problem3_report,
                              problem4_report, problem5_report, run_audit)

from helpers import (DummyGreedyProcess, IntersectionProcess, TableOracle,
                     brute_force_loop, dag_walk, grid_opt_ref, grid_oracle,
                     grid_polytope, mean_and_se, member_many_ref,
                     recursive_best_subset, relabel, tree_walk)


def linear_oracle(b):
    return QuadraticOracle(b, np.zeros((len(b), len(b))))


# ---------------------------------------------------------------------------
# exhaustive set optimum


def test_brute_force_modular_under_uniform():
    f = ModularOracle([5.0, 1.0, 4.0, 2.0])
    cert = brute_force_opt_set(f, UniformMatroid(4, 2).indep_table())
    assert cert.value == 9.0 and cert.maximizer == [0, 2]
    assert cert.method == "exhaustive" and cert.radius == 0.0


def test_brute_force_only_empty_feasible():
    f = random_coverage(5, 3)
    cert = brute_force_opt_set(f, np.arange(1 << 5) == 0)
    assert cert.value == f.value(()) and cert.maximizer == []


def test_brute_force_agrees_with_recursive_enumerator():
    for seed in range(100):
        n = 6
        f = random_perturbed(n, 0.4, seed) if seed % 2 else random_coverage(n, seed)
        system = random_partition_matroid(n, seed + 1)
        cert = brute_force_opt_set(f, system.indep_table())
        ref_val, _ = recursive_best_subset(f, system.indep_mask, n)
        assert cert.value == ref_val


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n),
    st.none() | st.lists(st.booleans(), min_size=1 << n, max_size=1 << n))))
def test_brute_force_matches_loop_on_ties(case):
    values, feasible = case
    f = TableOracle(values)
    if feasible is not None:
        feasible = np.array(feasible, dtype=bool)
    try:
        expected = brute_force_loop(f, feasible)
    except ValueError:
        with pytest.raises(ValueError):
            brute_force_opt_set(f, feasible)
        return
    cert = brute_force_opt_set(f, feasible)
    assert (cert.value, cert.maximizer) == expected


def test_brute_force_rejects_malformed_feasibility():
    f = random_coverage(4, 1)
    system = UniformMatroid(4, 2)
    for bad in (system.indep_mask, system.indep_table()[:8],
                system.indep_table().astype(int)):
        with pytest.raises(ValueError):
            brute_force_opt_set(f, bad)


def test_brute_force_capability_limit():
    # the value table's cap is the optimum's only one
    f = ModularOracle(np.ones(21))
    with pytest.raises(CapabilityError, match="value table needs n <= 20"):
        brute_force_opt_set(f)


# ---------------------------------------------------------------------------
# grid optimum


def test_grid_opt_linear_on_box():
    f = linear_oracle(np.array([1.0, 2.0]))
    cert = grid_opt(f, unit_box(2), 0.25)
    assert cert.maximizer == [1.0, 1.0]
    assert cert.value == pytest.approx(3.0)
    assert cert.radius == pytest.approx(f.value_lipschitz * 0.25 * math.sqrt(2))


def test_grid_opt_refinement_sandwich():
    for seed in range(6):
        f = random_quadratic_dr(3, seed, monotone=seed % 2 == 0)
        p = CardinalityPolytope(3, 2)
        coarse = grid_opt(f, p, 0.2)
        fine = grid_opt(f, p, 0.05)
        assert coarse.value <= fine.value + coarse.radius + 1e-12
        assert fine.value <= coarse.value + coarse.radius + 1e-12
        assert fine.value >= coarse.value - 1e-12


def test_grid_opt_degenerate_resolution():
    f = linear_oracle(np.array([1.0, 1.0]))
    p = CardinalityPolytope(2, 1)
    cert = grid_opt(f, p, 2.0)
    assert cert.maximizer == [0.0, 0.0] and cert.value == 0.0
    assert cert.radius == pytest.approx(f.value_lipschitz * p.diameter)
    for family in ("quadratic", "sqrt-linear", "sum"):
        cert = assert_same_certificate(grid_oracle(family, 3, 7),
                                       unit_box(3), 2.0)
        assert cert.maximizer == [0.0, 0.0, 0.0]


def test_grid_opt_dimension_limit():
    f = linear_oracle(np.ones(6))
    with pytest.raises(CapabilityError):
        grid_opt(f, unit_box(6), 0.5)


@pytest.mark.parametrize("resolution",
                         [math.inf, -math.inf, math.nan, 0.0, -0.5])
def test_grid_opt_rejects_a_resolution_not_positive_and_finite(resolution):
    f = linear_oracle(np.ones(2))
    for opt in (grid_opt, grid_opt_ref):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^resolution must be a "
                               "positive finite number$"):
                opt(f, unit_box(2), resolution)


class CountingOracle(ContinuousOracle):
    """Wraps an oracle, counting the points it values in batches and
    keeping each batch and each gradient row; the Lipschitz constant may be
    declared looser than the wrapped one's."""

    def __init__(self, f, value_lipschitz=None):
        self.f, self.n, self.monotone = f, f.n, f.monotone
        self.smoothness = f.smoothness
        self.value_lipschitz = f.value_lipschitz if value_lipschitz is None \
            else value_lipschitz
        self.points = 0
        self.batches, self.grad_rows = [], []

    def _value_many(self, points):
        self.points += len(points)
        self.batches.append(np.array(points))
        return self.f.value_many(points)

    def _grad_many(self, points):
        self.grad_rows += np.asarray(points).tolist()
        return self.f.grad_many(points)


class NearestOf(ContinuousOracle):
    """F(x) = -min(||x - p||, ||x - q||): exactly 0 at p and at q, below
    elsewhere, 1-Lipschitz; not differentiable at p or q, so it has no
    finite smoothness."""

    monotone, smoothness, value_lipschitz = False, math.inf, 1.0

    def __init__(self, p, q):
        self.p, self.q = np.asarray(p), np.asarray(q)
        self.n = self.p.size

    def _value_many(self, points):
        pts = np.asarray(points, dtype=float)
        return -np.minimum(np.linalg.norm(pts - self.p, axis=1),
                           np.linalg.norm(pts - self.q, axis=1))


def assert_same_certificate(f, polytope, resolution):
    got = grid_opt(f, polytope, resolution)
    ref = grid_opt_ref(f, polytope, resolution)
    assert got.value == ref.value
    assert got.maximizer == ref.maximizer
    assert got.radius == ref.radius
    return got


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5),
       st.sampled_from(["quadratic", "sqrt-linear", "sum"]),
       st.sampled_from(["box", "cardinality", "partition", "knapsack"]),
       st.one_of(st.floats(0.05, 0.15), st.floats(0.05, 2.0)),
       st.integers(0, 10_000))
def test_grid_opt_matches_the_full_grid_bit_for_bit(n, oracle, polytope,
                                                    resolution, seed):
    if n == 5:
        resolution = max(resolution, 0.1)
    assert_same_certificate(grid_oracle(oracle, n, seed),
                            grid_polytope(polytope, n, seed), resolution)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4),
       st.sampled_from(["quadratic", "sqrt-linear", "sum"]),
       st.sampled_from(["box", "cardinality", "partition", "knapsack"]),
       st.integers(0, 10_000))
def test_cell_bound_covers_every_member_of_its_cell(n, oracle, polytope,
                                                    seed):
    # cells of random reach around random representatives; every corner
    # of a cell and random points inside it, where members, lie below it
    f, poly = grid_oracle(oracle, n, seed), grid_polytope(polytope, n, seed)
    rng = np.random.default_rng(seed)
    reps = rng.uniform(0.0, 1.0, (100, n))
    lo = -np.minimum(reps, rng.uniform(0.0, 0.3, (100, n)))
    hi = np.minimum(1.0 - reps, rng.uniform(0.0, 0.3, (100, n)))
    bound = verify._cell_bounds(f, poly, reps, f.value_many(reps), lo, hi)
    corners = np.indices((2,) * n).reshape(n, -1).T
    steps = [np.where(c, hi, lo) for c in corners]
    steps += [lo + rng.uniform(0.0, 1.0, lo.shape) * (hi - lo)
              for _ in range(8)]
    for step in steps:
        pts = reps + step
        inside = poly.member_many(pts)
        assert (f.value_many(pts)[inside] <= bound[inside] + 1e-9).all()


def test_grid_opt_constant_oracle_keeps_every_cell():
    f = CountingOracle(linear_oracle(np.zeros(3)))
    cert = assert_same_certificate(f, unit_box(3), 0.1)
    assert cert.value == 0.0 and cert.maximizer == [0.0, 0.0, 0.0]
    f.points = 0
    grid_opt(f, unit_box(3), 0.1)
    # 4^3 representatives, then all 11^3 grid points once each
    assert f.points == 4 ** 3 + 11 ** 3


def test_grid_opt_ties_go_to_the_first_point_in_row_major_order():
    # x1 + x2 = 1 on many grid points; the first is (0, 0, 1)
    f = linear_oracle(np.array([0.0, 1.0, 1.0]))
    cert = assert_same_certificate(f, CardinalityPolytope(3, 1), 0.125)
    assert cert.maximizer == [0.0, 0.0, 1.0] and cert.value == 1.0
    # x0 = 1 on a 21^4-point face spread over many cells
    f = linear_oracle(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    cert = assert_same_certificate(f, unit_box(5), 0.05)
    assert cert.maximizer == [1.0, 0.0, 0.0, 0.0, 0.0]
    # p = (0, 0.5) comes first in row-major order, but q = (0.1, 0) lies
    # in the first cell in row-major order
    p, q = [0.0, 0.5], [0.1, 0.0]
    cert = assert_same_certificate(NearestOf(p, q), unit_box(2), 0.1)
    assert cert.maximizer == p and cert.value == 0.0


def test_grid_opt_tie_in_a_cell_searched_later():
    # q is the representative of cell (1, 0), whose bound 0 + dist is the
    # highest, so its cell is searched first; p, the lower corner of cell
    # (0, 1), comes first in row-major order, but its cell's bound is about
    # -dist + dist = 0, so it is searched after q's
    axis = np.minimum(1.0, 0.1 * np.arange(11))
    p, q = axis[[0, 3]], axis[[4, 1]]
    f = CountingOracle(NearestOf(p, q))
    cert = assert_same_certificate(f, unit_box(2), 0.1)
    assert cert.maximizer == p.tolist() and cert.value == 0.0

    def first_batch_with(x):
        return next(i for i, b in enumerate(f.batches[1:], 1)
                    if (b == x).all(axis=1).any())

    f.batches = []
    grid_opt(f, unit_box(2), 0.1)
    assert f.batches[0].shape == (16, 2)  # the representatives
    assert first_batch_with(q) == 1 < first_batch_with(p)
    # x0 + x1 + x2 = 2.2272727272727275 at several grid points of this
    # knapsack; the first one's cell bound rounds below that value, and
    # only the margin keeps it in the search
    cert = assert_same_certificate(linear_oracle(np.ones(3)),
                                   grid_polytope("knapsack", 3, 88), 1 / 22)
    assert cert.maximizer == [1.0, 0.2272727272727273, 1.0]


def test_grid_opt_tie_across_batches():
    # a loose Lipschitz constant keeps every cell, so the cells go through
    # in several batches; p opens the second batch, q sits in the first,
    # and p is first in row-major order
    resolution = 0.002
    axis = np.minimum(1.0, resolution * np.arange(501))
    per_row = -(-axis.size // verify._GRID_CELL)
    row, col = divmod(verify._GRID_BATCH // verify._GRID_CELL ** 2, per_row)
    p = axis[[verify._GRID_CELL * row, verify._GRID_CELL * col]]
    q = axis[[verify._GRID_CELL * row + 1, 0]]
    f = CountingOracle(NearestOf(p, q), value_lipschitz=1e6)
    cert = assert_same_certificate(f, unit_box(2), resolution)
    assert cert.maximizer == p.tolist() and cert.value == 0.0
    assert f.points > verify._GRID_BATCH


@pytest.mark.parametrize("batch", [1, 7, 40])
def test_grid_opt_small_batches_match(monkeypatch, batch):
    # many representative and cell batches, with one-row ones among them
    monkeypatch.setattr(verify, "_GRID_BATCH", batch)
    for n, oracle, polytope in [(1, "sum", "box"), (2, "quadratic", "box"),
                                (3, "quadratic", "knapsack"),
                                (3, "sqrt-linear", "partition"),
                                (4, "sum", "cardinality")]:
        assert_same_certificate(grid_oracle(oracle, n, 11),
                                grid_polytope(polytope, n, 11), 0.1)
    # the maximizer (0.3, 0.3, 0.3) is the only member of its cell, so
    # with one cell per batch it is valued in a batch of its own
    for seed in range(20):
        assert_same_certificate(random_quadratic_dr(3, seed),
                                BoxPolytope([0.3] * 3), 0.1)


def test_grid_opt_builds_and_values_each_cell_batch_once(monkeypatch):
    # 4^3 = 64 cells in batches of 10: one member-cell build and one value
    # batch of representatives per batch of cells, then the search, one
    # cell per batch (10 // 27 rounds up to one), each holding its own
    # cell's representative again
    reps = verify._cell_geometry(3, 0.1, np.arange(64)).rep
    members, built = verify._member_cells, []
    monkeypatch.setattr(verify, "_GRID_BATCH", 10)
    monkeypatch.setattr(verify, "_member_cells",
                        lambda polytope, resolution, ids:
                        built.append(ids.tolist())
                        or members(polytope, resolution, ids))
    for seed in range(4):
        base = grid_oracle("sum", 3, seed)
        f = CountingOracle(base)
        built.clear()
        cert = grid_opt(f, unit_box(3), 0.1)
        want = grid_opt_ref(base, unit_box(3), 0.1)
        assert (cert.value, cert.maximizer) == (want.value, want.maximizer)
        assert built == [list(range(s, min(s + 10, 64)))
                         for s in range(0, 64, 10)]
        assert np.array_equal(np.concatenate(f.batches[:7]), reps)
        for batch in f.batches[7:]:
            assert (batch[:, None, :] == reps).all(axis=2).any(axis=1) \
                .sum() == 1


class NaNGradient(CountingOracle):
    """A smooth oracle whose gradients all read NaN."""

    def _grad_many(self, points):
        return np.full((len(points), self.n), np.nan)


class NaNRepresentative(CountingOracle):
    """Values the point x as NaN in the first batch, the representatives,
    and as the wrapped oracle does in every later one."""

    def __init__(self, f, x):
        super().__init__(f)
        self.x = np.asarray(x)

    def _value_many(self, points):
        vals = super()._value_many(points)
        if len(self.batches) > 1:
            return vals
        return np.where((np.asarray(points) == self.x).all(axis=1),
                        np.nan, vals)


def test_grid_opt_non_finite_bounds_never_prune():
    # 13 grid points per axis, so the last cell on each axis is a single
    # point, with no reach: there smoothness * reach^2 would be inf * 0
    for n, p, q in [(2, [1.0, 1.0], [0.25, 0.5]),
                    (2, [0.0, 0.5], [1.0, 0.0]),
                    (3, [1.0, 1.0, 1.0], [0.3, 0.0, 0.7])]:
        for polytope in (unit_box(n), CardinalityPolytope(n, n - 1)):
            assert_same_certificate(NearestOf(p, q), polytope, 1 / 12)
    # a NaN second-order bound leaves the Lipschitz bound in charge
    for seed in range(4):
        f = NaNGradient(grid_oracle("sum", 3, seed))
        assert_same_certificate(f, CardinalityPolytope(3, 2), 1 / 12)
    # a NaN representative value gives its cell a NaN bound, so that cell
    # is searched first, and there lies the maximizer p
    axis = np.minimum(1.0, 0.1 * np.arange(11))
    p = axis[[0, 3]]
    cert = grid_opt(NaNRepresentative(NearestOf(p, p), axis[[1, 4]]),
                    unit_box(2), 0.1)
    assert cert.maximizer == p.tolist() and cert.value == 0.0


def test_grid_opt_only_the_origin():
    for n in (1, 3, 5):
        for f in (grid_oracle("quadratic", n, n),
                  grid_oracle("sum", n, n)):
            cert = assert_same_certificate(f, CardinalityPolytope(n, 0), 0.1)
            assert cert.maximizer == [0.0] * n


def test_grid_opt_caps_the_cells_before_building_the_axis(monkeypatch):
    # resolution 1e-9 reached np.arange(10**9 + 1), about 8 GB, and 0.001
    # at n = 5 a grid of about 4.2e12 cells
    def no_axis(resolution):
        raise AssertionError("the grid axis was built")

    monkeypatch.setattr(verify, "_grid_axis", no_axis)
    for n, resolution in [(1, 1e-9), (1, 5e-324), (5, 0.001),
                          (5, 1 / 102), (1, 1 / (3 * 34 ** 5))]:
        f = grid_oracle("quadratic", n, 1)
        with pytest.raises(CapabilityError, match="at most 45435424 cells"):
            grid_opt(f, unit_box(n), resolution)
    # the documented resolution 0.01 at n = 5 is 34^5 cells, the cap
    assert BUDGET["grid-cells"].limit == 34 ** 5
    for n, resolution in [(5, 0.01), (1, 1 / (3 * 34 ** 5 - 1))]:
        with pytest.raises(AssertionError, match="the grid axis was built"):
            grid_opt(grid_oracle("quadratic", n, 1), unit_box(n), resolution)


def _benchmark_grid(seed):
    """The polytope and the problem-1 and problem-3 objectives of the
    proved-continuous benchmark workload at dimension 5."""
    poly = CardinalityPolytope(5, 2) if seed % 2 else unit_box(5)
    p1 = SumOracle([random_quadratic_dr(5, seed, monotone=True),
                    random_quadratic_dr(5, seed + 1, monotone=False)])
    p3 = random_quadratic_dr(5, seed + 5, monotone=True) if seed % 2 \
        else random_weak_quadratic(5, seed + 5)
    return poly, (p1, p3)


@pytest.mark.parametrize("seed", [2, 5])  # dimension 5: box, cardinality
def test_grid_opt_benchmark_instances_match_and_prune(seed):
    # at resolution 0.05 (21^5 = 4,084,101 grid points)
    poly, objectives = _benchmark_grid(seed)
    for f in map(CountingOracle, objectives):
        assert_same_certificate(f, poly, 0.05)
        f.points = 0
        grid_opt(f, poly, 0.05)
        # the 7^5 = 16,807 representatives, then 96-2,187 points of the
        # best-first search: 0.41-0.47% of the grid
        assert f.points < 0.005 * 21 ** 5


@pytest.mark.parametrize("seed", [2, 5])
def test_grid_opt_second_order_bound_only_where_the_lipschitz_bound_keeps(
        seed):
    # grad_many sees exactly the representatives of the cells whose lower
    # corner is a member and whose Lipschitz bound reaches the incumbent,
    # in row-major order: 17-3,414 of the 7^5 = 16,807 cells
    poly, objectives = _benchmark_grid(seed)
    axis = np.minimum(1.0, 0.05 * np.arange(21))
    low = np.arange(0, 21, 3)
    mid, high = low + 1, np.minimum(low + 2, 20)
    cells = np.indices((7,) * 5).reshape(5, -1).T
    reps = axis[mid[cells]]
    reach = np.maximum(axis[mid] - axis[low], axis[high] - axis[mid])[cells]
    dist = np.sqrt((reach * reach).sum(axis=1))
    for base in objectives:
        vals = base.value_many(reps)
        incumbent = float(vals[poly.member_many(reps)].max())
        margin = REL_TOL * max(1.0, abs(incumbent),
                               base.value_lipschitz + base.smoothness)
        lipschitz = vals + base.value_lipschitz * dist
        keep = poly.member_many(axis[low[cells]]) \
            & ~(lipschitz + margin < incumbent)
        f = CountingOracle(base)
        grid_opt(f, poly, 0.05)
        assert f.grad_rows == reps[keep].tolist()
        assert 0 < keep.sum() < 0.25 * len(cells)


def test_grid_cells_are_cached_read_only_and_bounded(monkeypatch):
    f = grid_oracle("sum", 3, 1)
    members, built = verify._member_cells, []
    monkeypatch.setattr(verify, "_member_cells",
                        lambda polytope, resolution, ids:
                        built.append(ids.size)
                        or members(polytope, resolution, ids))
    verify._PLANS.clear()
    for poly in (unit_box(3), unit_box(3), CardinalityPolytope(3, 1)):
        assert_same_certificate(f, poly, 0.1)  # 4^3 cells
    # one build per membership rule, each of the whole grid
    assert built == [4 ** 3, 4 ** 3] and len(verify._PLANS) == 2
    for cells, inside in verify._PLANS.values():
        for a in (*cells, inside):
            assert len(a) == len(inside) and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]
    # a grid of more than _GRID_BATCH cells is built per batch, not kept
    monkeypatch.setattr(verify, "_GRID_BATCH", 4 ** 3 - 1)
    verify._PLANS.clear()
    assert_same_certificate(f, unit_box(3), 0.1)
    assert verify._PLANS == {}
    # whichever grids were searched, at most _GRID_PLANS stay, the most
    # recently used ones
    monkeypatch.undo()
    for k in range(12):
        grid_opt(f, unit_box(3), 0.05 + k / 100)
    assert len(verify._PLANS) == verify._GRID_PLANS == 6
    assert [key[0] for key in verify._PLANS] == [0.05 + k / 100
                                                for k in range(6, 12)]
    for k in (6, 0):
        grid_opt(f, unit_box(3), 0.05 + k / 100)
    assert [key[0] for key in verify._PLANS] == [0.05 + k / 100
                                                for k in (8, 9, 10, 11, 6, 0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_member_plan_is_the_filtered_cell_geometry(n):
    # the cached plan is the full geometry's rows whose lower corner is a
    # member, the same floats, with each representative's membership
    for resolution in (0.05, 0.1, 0.3, 1.0, 2.0):
        axis = np.minimum(1.0, resolution * np.arange(
            int(math.floor(1.0 / resolution + 1e-9)) + 1))
        per_axis = -(-axis.size // verify._GRID_CELL)
        ids = np.arange(per_axis ** n)
        full = verify._cell_geometry(n, resolution, ids)
        lower = axis[::verify._GRID_CELL][
            np.indices((per_axis,) * n).reshape(n, -1).T]
        for family in ("box", "cardinality", "partition", "knapsack"):
            for seed in range(3):
                poly = grid_polytope(family, n, seed)
                member = member_many_ref(poly, lower)
                cells, inside = verify._member_plan(poly, resolution,
                                                    ids.size)
                for got, want in zip(cells, full):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want[member])
                assert np.array_equal(
                    inside, member_many_ref(poly, full.rep[member]))


@pytest.mark.parametrize("n, k, members", [(3, 1, 84), (4, 2, 1540),
                                           (5, 2, 6258)])
def test_grid_opt_values_only_the_member_cells(n, k, members):
    # the benchmark's cardinality polytopes at resolution 0.05: the first
    # pass values the middle points of the member cells alone
    f = CountingOracle(grid_oracle("sum", n, 3))
    assert_same_certificate(f, CardinalityPolytope(n, k), 0.05)
    f.batches = []
    grid_opt(f, CardinalityPolytope(n, k), 0.05)
    assert len(f.batches[0]) == members


@pytest.mark.parametrize("batch", [1, 2, 5])
def test_grid_opt_batches_without_members(monkeypatch, batch):
    # small batches of cells: some hold no member cell, some exactly one
    monkeypatch.setattr(verify, "_GRID_BATCH", batch)
    sizes = Counter()
    for poly in (CardinalityPolytope(3, 1), grid_polytope("knapsack", 3, 4),
                 BoxPolytope([0.0] * 3), BoxPolytope([0.0, 0.5, 0.0])):
        for start in range(0, 64, batch):
            ids = np.arange(start, min(start + batch, 64))
            sizes[len(verify._member_cells(poly, 0.1, ids)[1])] += 1
        for seed in range(3):
            assert_same_certificate(grid_oracle("sum", 3, seed), poly, 0.1)
    assert sizes[0] > 0 and sizes[1] > 0


def test_grid_opt_one_member_cell_without_a_member_middle_point():
    # only the origin's cell holds members, and its middle point is none
    poly = BoxPolytope([0.0] * 3)
    cells, inside = verify._member_cells(poly, 0.1, np.arange(64))
    assert cells.ids.tolist() == [0] and inside.tolist() == [False]
    for family in ("quadratic", "sqrt-linear", "sum"):
        cert = assert_same_certificate(grid_oracle(family, 3, 5), poly, 0.1)
        assert cert.maximizer == [0.0, 0.0, 0.0]


def test_member_plans_are_keyed_by_the_membership_rule():
    f = grid_oracle("sum", 3, 2)

    def entries(*grids):
        verify._PLANS.clear()
        for poly, resolution in grids:
            grid_opt(f, poly, resolution)
        return len(verify._PLANS)

    # equal polytopes built apart share one entry, whatever their family
    # or the type of the resolution
    assert entries((CardinalityPolytope(3, 1), 0.1),
                   (CardinalityPolytope(3, 1), np.float64(0.1)),
                   (PartitionPolytope([[0, 1, 2]], [1]), 0.1)) == 1
    assert entries((KnapsackPolytope([0.5, 0.25, 1.0], 0.75), 0.1),
                   (KnapsackPolytope(np.array([0.5, 0.25, 1.0]), 0.75),
                    0.1)) == 1
    assert entries((unit_box(3), 0.1), (BoxPolytope([1.0, 1.0, 1.0]), 0.1),
                   (PartitionPolytope([[0], [1], [2]], [1, 1, 1]), 0.1)) == 2
    # another cap, upper bound, cost, budget or resolution does not
    assert entries((CardinalityPolytope(3, 1), 0.1),
                   (CardinalityPolytope(3, 2), 0.1),
                   (BoxPolytope([1.0, 1.0, 0.5]), 0.1),
                   (unit_box(3), 0.1)) == 4
    assert entries((KnapsackPolytope([0.5, 0.25, 1.0], 0.75), 0.1),
                   (KnapsackPolytope([0.5, 0.25, 1.0], 0.8), 0.1),
                   (KnapsackPolytope([0.5, 0.3, 1.0], 0.75), 0.1),
                   (KnapsackPolytope([0.5, 0.25, 1.0], 0.75), 0.2)) == 4


@pytest.mark.parametrize("resolution", [True, "0.5", np.array([0.5]),
                                        [0.5], None])
def test_grid_opt_resolution_is_one_number(resolution):
    f = linear_oracle(np.ones(2))
    with pytest.raises(ValueError, match="resolution"):
        grid_opt(f, unit_box(2), resolution)


def test_grid_opt_resolution_of_any_number_type():
    f = grid_oracle("sum", 2, 1)
    want = grid_opt(f, unit_box(2), 0.5)
    for resolution in (np.float64(0.5), np.float32(0.5), np.array(0.5)):
        got = grid_opt(f, unit_box(2), resolution)
        assert (got.value, got.maximizer, got.radius) \
            == (want.value, want.maximizer, want.radius)
        assert type(got.radius) is float
    assert grid_opt(f, unit_box(2), 1).maximizer \
        == grid_opt(f, unit_box(2), 1.0).maximizer


# ---------------------------------------------------------------------------
# exact expectations


def test_expected_value_deterministic_tree():
    f = ModularOracle([4.0, 1.0, 1.0])
    single = random_greedy_dummies(f, 1, seed=0)
    assert dummy_greedy_expectation(f, 1) == single.value


def test_expected_value_symmetric_instance():
    f = ModularOracle([2.0, 2.0, 2.0, 2.0])
    assert dummy_greedy_expectation(f, 2) == \
        random_greedy_dummies(f, 2, seed=5).value


def test_expected_value_vs_million_samples():
    f = ModularOracle([4.0, 3.0, 2.0, 1.0])
    proc = DummyGreedyProcess(f, 2)
    exact = dummy_greedy_expectation(f, 2)

    # enumerate the two-level choice tree once, then vector-sample leaves
    first = proc.choices(proc.initial())
    leaf_values = []
    for u in first:
        mid = proc.step(proc.initial(), u)
        second = proc.choices(mid)
        leaf_values.append([proc.final_value(proc.step(mid, v))
                            for v in second])
    leaf = np.array(leaf_values)
    rng = np.random.default_rng(123)
    i = rng.integers(len(first), size=1_000_000)
    j = rng.integers(leaf.shape[1], size=1_000_000)
    samples = leaf[i, j]
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - exact) <= 3.0 * se


def test_expected_value_node_limit():
    # the walk's states are common-independent masks, at most 2^n of them;
    # past the search cap of 18 elements the candidate search at the root
    # refuses, so the walk never grows past 2^18 states
    n = 19
    f = ModularOracle(np.ones(n))
    system = PSystem([UniformMatroid(n, 2), UniformMatroid(n, 3)])
    with pytest.raises(CapabilityError):
        intersection_greedy_expectation(f, system)


def test_intersection_walk_leaves_no_cycle():
    # the memo closure refers to itself; the walk breaks that cycle on
    # return, so its tables are freed without waiting for a collection
    f = random_coverage(8, 3)
    system = PSystem([random_partition_matroid(8, 4),
                      random_partition_matroid(8, 5)])
    intersection_greedy_expectation(f, system)
    gc.disable()
    try:
        gc.collect()
        intersection_greedy_expectation(f, system)
        assert gc.collect() == 0
    finally:
        gc.enable()


class CountingProcess:
    """Delegates to a choice process and counts ``choices`` calls per
    canonical state."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def choices(self, state):
        self.calls[self.inner.canonical(state)] += 1
        return self.inner.choices(state)


@st.composite
def choice_processes(draw, kinds=("ties", "nonmonotone", "intersection"),
                     max_n=7, max_k=5):
    """Small choice processes of four kinds: dummy greedy on tie-heavy
    modular weights (zero marginals tie with the dummies), dummy greedy on
    non-monotone perturbed coverage (negative marginals sort after the
    dummies), dummy greedy on unit-weight coverage (ties between distinct
    elements), and intersection greedy on random partition matroids."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 10_000))
    if kind == "intersection":
        return IntersectionProcess(
            random_coverage(n, seed), random_partition_matroid(n, seed + 1),
            random_partition_matroid(n, seed + 2))
    if kind == "ties":
        f = ModularOracle(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                        min_size=n, max_size=n)))
    elif kind == "coverage":
        # unit weights make marginals item counts: ties between distinct
        # elements are common, so the id tie-break decides the subtree
        cover = random_coverage(n, seed)
        f = CoverageOracle(n, cover.covers,
                           np.ones(cover.universe_weights.size))
    else:
        f = random_perturbed(n, draw(st.sampled_from([0.3, 0.6, 1.0])), seed)
    return DummyGreedyProcess(f, draw(st.integers(1, min(n, max_k))))


DUMMY_KINDS = ("ties", "nonmonotone", "coverage")


@settings(max_examples=60, deadline=None)
@given(choice_processes())
def test_expected_value_exact_matches_tree_walk_bit_for_bit(proc):
    # on dummy greedy this pins dag_walk, the reference past k = 5
    if isinstance(proc, IntersectionProcess):
        assert intersection_greedy_expectation(proc.f, proc.system) == \
            tree_walk(proc)
    else:
        assert dag_walk(proc) == tree_walk(proc)


@settings(max_examples=40, deadline=None)
@given(choice_processes(kinds=("intersection",)))
def test_expected_value_exact_queries_each_state_once(proc):
    tree = CountingProcess(proc)
    tree_walk(tree)
    calls = Counter()

    def counting(values, indep, n, mask):
        calls[mask] += 1
        return _candidates(values, indep, n, mask)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_candidates", counting)
        intersection_greedy_expectation(proc.f, proc.system)
    assert set(calls) == set(tree.calls)
    assert set(calls.values()) == {1}


@settings(max_examples=80, deadline=None)
@given(choice_processes(kinds=DUMMY_KINDS, max_n=8, max_k=8))
def test_dummy_greedy_expectation_matches_tree_walk_bit_for_bit(proc):
    # the plain walk visits k^k leaves; past k = 5 the memoized walk stands
    # in, which test_expected_value_exact_matches_tree_walk_bit_for_bit pins
    ref = tree_walk(proc) if proc.k <= 5 else dag_walk(proc)
    assert dummy_greedy_expectation(proc.f, proc.k) == ref


@settings(max_examples=80, deadline=None)
@given(choice_processes(kinds=DUMMY_KINDS, max_n=8, max_k=8),
       st.integers(0, 10_000))
def test_dummy_greedy_runner_offers_the_reference_candidates(proc, seed):
    trace = random_greedy_dummies(proc.f, proc.k, seed)
    state = proc.initial()
    for rec in trace.iterations:
        assert tuple(rec["candidates"]) == proc.choices(state)
        state = proc.step(state, rec["chosen"])
    assert proc.choices(state) is None
    assert trace.final == elements_of(proc.real_mask(state))
    assert trace.value == proc.final_value(state)


def test_problem4_report_measures_the_dag_expectation():
    for seed in range(6):
        f = random_perturbed(7, 0.6, seed, monotone=seed % 2 == 0)
        for k in (1, 4, 7):
            report = problem4_report(f, k)
            assert report.measured == dag_walk(DummyGreedyProcess(f, k))


def test_problem4_opt_is_the_uniform_matroid_optimum():
    # OPT over |S| <= k, read off the shared size table, is the optimum
    # over the uniform matroid's independence table
    cases = 0
    for n in range(1, 11):
        f = random_perturbed(n, 0.4, n, monotone=n % 2 == 0)
        for k in range(1, n + 1):
            want = brute_force_opt_set(f, UniformMatroid(n, k).indep_table())
            assert repr(problem4_report(f, k).params["opt"]) == \
                repr(want.value)
            cases += 1
    assert cases == 55


def test_size_order_is_cached_read_only_by_size_then_mask():
    # with k = n + 1 the frontier holds every mask: the size order of all
    # 2^n masks, its inverse and the size ends
    for n in (1, 4, 7):
        order, _, _, ends, position = verify._frontier(n, n + 1)
        assert verify._frontier(n, n + 1)[0] is order
        assert order.tolist() == sorted(
            range(1 << n), key=lambda mask: (bin(mask).count("1"), mask))
        assert position[order].tolist() == list(range(1 << n))
        assert ends.tolist() == [sum(math.comb(n, i) for i in range(c + 1))
                                 for c in range(n + 1)]
        for part in (order, position, ends):
            with pytest.raises(ValueError):
                part[0] = 1


def test_frontier_is_one_cached_read_only_entry():
    # the masks of size < k by size then mask, their child masks by
    # element, their free elements, the size ends and each mask's row,
    # kept for the last (n, k) only
    for n, k in ((1, 1), (4, 2), (6, 3), (6, 3), (6, 6), (7, 4)):
        masks, kids, free, ends, position = verify._frontier(n, k)
        assert verify._frontier(n, k)[1] is kids
        assert verify._frontier.cache_info().currsize == 1
        rows = sorted((mask for mask in range(1 << n)
                       if bin(mask).count("1") < k),
                      key=lambda mask: (bin(mask).count("1"), mask))
        assert masks.tolist() == rows
        assert ends.tolist() == [sum(math.comb(n, i) for i in range(c + 1))
                                 for c in range(k)]
        assert position.tolist() == [
            rows.index(mask) if mask in rows else len(rows)
            for mask in range(1 << n)]
        assert kids.tolist() == [[r | 1 << u for u in range(n)]
                                 for r in rows]
        assert free.tolist() == [[not r >> u & 1 for u in range(n)]
                                 for r in rows]
        for part in (masks, kids, free, ends, position):
            with pytest.raises(ValueError):
                part[0] = 0


def test_dummy_greedy_expectation_rejects_budget_outside_one_to_n():
    f = random_coverage(4, 0)
    for k in (0, 5):
        with pytest.raises(ValueError):
            dummy_greedy_expectation(f, k)


def test_monte_carlo_matches_exact_within_three_se():
    f = random_coverage(5, 7)
    exact = dummy_greedy_expectation(f, 2)
    mean, se = mean_and_se([random_greedy_dummies(f, 2, seed=s).value
                            for s in range(4000)])
    assert abs(mean - exact) <= 3.0 * max(se, 1e-12)


# ---------------------------------------------------------------------------
# bound formulas and verdicts


def test_bound_registry_provenance():
    assert BOUNDS["problem1-split"].provenance == PROVED
    assert BOUNDS["problem2-bicriteria"].provenance == PROVED
    assert BOUNDS["problem3-weak-dr"].provenance == PROVED
    assert BOUNDS["problem2-authors-conjecture"].provenance == AUTHORS_CONJECTURE
    assert BOUNDS["problem4-claimed"].provenance == CLAIMED_FLAWED
    assert BOUNDS["problem5-claimed"].provenance == CLAIMED_FLAWED


def test_check_bound_optimal_output_slack():
    opt = 10.0
    eps = 0.25
    rep = check_bound(opt, BOUNDS["problem2-bicriteria"],
                      {"epsilon": eps, "opt": opt})
    assert rep.verdict == "holds"
    assert rep.slack == pytest.approx(eps * opt)
    # an infeasible output is violated whatever its value
    for measured in (0.0, opt, 1e9):
        rep = check_bound(measured, BOUNDS["problem2-bicriteria"],
                          {"epsilon": eps, "opt": opt}, feasible=False)
        assert rep.verdict == "violated" and rep.measured == measured


def test_check_bound_missing_parameter():
    with pytest.raises(ValueError):
        check_bound(1.0, BOUNDS["problem2-bicriteria"], {"epsilon": 0.5})


def test_check_bound_monotone_in_threshold():
    bound = BOUNDS["problem2-bicriteria"]
    tight = check_bound(7.0, bound, {"epsilon": 0.25, "opt": 9.0})
    loose = check_bound(7.0, bound, {"epsilon": 0.5, "opt": 9.0})
    assert loose.threshold <= tight.threshold
    if tight.verdict == "holds":
        assert loose.verdict == "holds"


def test_tiny_thresholds_compare_relatively():
    # an absolute allowance of 1e-9 read both as holds: the empty output of
    # a proved run at OPT = 5 * 2^-40, and a value 1% short of 0.7 * 2^-30
    rep = check_bound(0.0, BOUNDS["problem2-bicriteria"],
                      {"epsilon": 0.25, "opt": 5 * 2.0 ** -40})
    assert rep.verdict == VIOLATED
    t = 0.7 * 2.0 ** -30
    assert not verify._reaches(0.99 * t, t) and verify._reaches(t, t)


def _scaled_quadratic(f, t):
    return QuadraticOracle(f.b * t, f.a * t)


def _scaled_report(problem: int, seed: int, j: int):
    """Problem ``problem``'s report on a seeded instance whose objective is
    scaled by 2^j, with two dicts: what must not change and what must
    scale by exactly 2^j. A set function is a TableOracle of the
    instance's table scaled; the continuous problems scale each quadratic
    that ``verify`` builds at n = 3 and run and check it at the flag
    defaults."""
    t = 2.0 ** j
    if problem in (1, 3):
        c = verify.PROBLEMS[problem].build(SimpleNamespace(n=3, seed=seed))
        poly = c["polytope"]
        if problem == 1:
            parts = [_scaled_quadratic(c[name], t) for name in ("g", "h")]
            gamma = None
            trace = masked_frank_wolfe(*parts, poly, 0.02)
            cert = grid_opt(SumOracle(parts), poly, 0.05)
            rep = problem1_report(trace, *parts, poly, cert)
        else:
            parts = [_scaled_quadratic(c["objective"], t)]
            gamma = verify.sampled_gamma(parts[0], seed)
            trace = frank_wolfe(parts[0], poly, 200, declared_gamma=gamma)
            cert = grid_opt(parts[0], poly, 0.05)
            rep = problem3_report(trace, gamma, parts[0], cert)
        same = {"gamma": gamma, "maximizer": cert.maximizer,
                "iterates": [r["point"] for r in trace.iterations],
                "final": trace.final}
        scaled = {"value": cert.value, "radius": cert.radius,
                  "smoothness": [f.smoothness for f in parts],
                  "value_lipschitz": [f.value_lipschitz for f in parts]}
        return rep, same, scaled
    if problem == 4:
        f = TableOracle(random_perturbed(8, 0.3, seed).table() * t)
        rep = problem4_report(f, 3)
    elif problem == 5:
        f = TableOracle(random_perturbed(7, 0.3, seed, monotone=True).table()
                        * t, monotone=True)
        rep = problem5_report(f, random_partition_matroid(7, seed + 1),
                              random_partition_matroid(7, seed + 2))
    else:
        f = TableOracle(random_coverage(7, seed).table() * t, monotone=True)
        system = random_partition_psystem(7, 2, seed)
        rep = problem2_report(multipass_greedy(f, system, 0.1), f,
                              brute_force_opt_set(f, system.indep_table()),
                              system)
    return rep, {key: rep.params.get(key) for key in ("gamma", "m")}, {}


@pytest.mark.parametrize("j", [-40, -20, 20])
@pytest.mark.parametrize("problem", [1, 2, 3, 4, 5])
def test_reports_are_invariant_under_power_of_two_scaling(problem, j):
    # every bound is homogeneous in f and scaling by 2^j is exact in
    # floats, so only an absolute tolerance could tell the two apart (at
    # j = -40 the floor of 1e-9 changed gamma or m on every problem-4
    # table); for problems 1 and 3 the sampled gamma, the Frank-Wolfe
    # iterates and the grid maximizer stay, and the certificate and the
    # oracles' constants scale
    for seed in range(10):
        base, base_same, base_scaled = _scaled_report(problem, seed, 0)
        rep, same, scaled = _scaled_report(problem, seed, j)
        assert rep.verdict == base.verdict
        assert same == base_same
        # so measured/threshold is the same (a gamma of 0 makes the
        # threshold 0)
        for name in ("measured", "threshold", "slack"):
            assert getattr(rep, name) == getattr(base, name) * 2.0 ** j
        assert scaled == {key: np.multiply(v, 2.0 ** j).tolist()
                          for key, v in base_scaled.items()}


def test_problem3_report_classic_factor_at_gamma_one():
    f = random_quadratic_dr(3, 77, monotone=True)
    p = CardinalityPolytope(3, 2)
    gamma = weak_dr_gamma(f, 1000, 0)
    assert gamma == 1.0
    trace = frank_wolfe(f, p, 200, declared_gamma=gamma)
    cert = grid_opt(f, p, 0.05)
    rep = problem3_report(trace, gamma, f, cert)
    assert rep.verdict == "holds"
    # gamma = 1 recovers the classic 1 - 1/e factor in the threshold
    assert rep.threshold == pytest.approx(
        (1.0 - 1.0 / math.e) * cert.upper - f.smoothness / 400.0 - cert.radius)


def test_problem3_report_final_outside_the_polytope_is_violated():
    # the all-ones point is in the cube but not in sum x <= 1; F is monotone,
    # so its value there beats every member point and reaches the threshold
    f = random_quadratic_dr(3, 77, monotone=True)
    polytope = CardinalityPolytope(3, 1)
    trace = frank_wolfe(f, polytope, 50)
    cert = grid_opt(f, polytope, 0.05)
    inside = problem3_report(trace, 1.0, f, cert)
    outside = problem3_report(replace(trace, final=[1.0] * 3), 1.0, f, cert)
    assert inside.verdict == "holds"
    assert outside.slack > inside.slack > 0.0
    assert outside.verdict == "violated"


def test_problem2_report_checks_feasibility_certificate():
    f = random_coverage(7, 80)
    system = PSystem([random_partition_matroid(7, 81)])
    trace = multipass_greedy(f, system, 0.25)
    opt = brute_force_opt_set(f, system.indep_table())
    good = problem2_report(trace, f, opt, system)
    assert good.verdict == "holds"
    # tamper with the recorded certificate; this union is dependent, so the
    # report must flip to violated no matter how large the value is
    assert not system.indep(trace.final)
    trace.meta["independent_sets"] = [trace.final]
    bad = problem2_report(trace, f, opt, system)
    assert bad.verdict == "violated"


def test_bicriteria_certificate_without_parts_covers_only_empty_output():
    f = random_coverage(7, 82)
    system = PSystem([random_partition_matroid(7, 83)])
    trace = multipass_greedy(f, system, 0.25)
    opt = brute_force_opt_set(f, system.indep_table())
    assert trace.final and trace.meta["certificate_ok"]
    rounds = trace.meta["rounds"]
    assert certificate_holds(system, [], [], rounds)
    assert not certificate_holds(system, [], trace.final, rounds)
    trace.meta["independent_sets"] = []
    assert problem2_report(trace, f, opt, system).verdict == VIOLATED


def test_bicriteria_certificate_counts_its_parts():
    f = random_coverage(7, 82)
    system = PSystem([random_partition_matroid(7, 83)])
    trace = multipass_greedy(f, system, 0.25)
    parts, rounds = trace.meta["independent_sets"], trace.meta["rounds"]
    assert len(parts) == rounds == 2
    assert certificate_holds(system, parts, trace.final, rounds)
    assert not certificate_holds(system, parts, trace.final, rounds - 1)
    with pytest.raises(ValueError, match="is not a list of element lists"):
        certificate_holds(system, 5, trace.final, rounds)


def test_bicriteria_certificate_reads_element_lists_as_sets():
    # final is valued as a set, so it is certified as one; a repeat in
    # final once read as a broken certificate
    f = random_coverage(7, 82)
    system = PSystem([random_partition_matroid(7, 83)])
    trace = multipass_greedy(f, system, 0.25)
    parts, rounds = trace.meta["independent_sets"], trace.meta["rounds"]
    final = trace.final
    assert certificate_holds(system, parts, final + final[:1], rounds)
    repeated = [part + part[:1] for part in parts]
    assert certificate_holds(system, repeated, final, rounds)
    assert not certificate_holds(system, parts, final[1:], rounds)
    assert not certificate_holds(system, parts, final[1:] + final[1:2],
                                 rounds)


def test_problem5_verdict_recorded_without_failing():
    f = random_coverage(6, 78)
    m1 = random_partition_matroid(6, 79)
    m2 = random_partition_matroid(6, 80)
    system = PSystem([m1, m2])
    exact = intersection_greedy_expectation(f, system)
    opt = brute_force_opt_set(f, system.indep_table())
    rep = check_bound(exact, BOUNDS["problem5-claimed"],
                      {"gamma": 1.0, "opt": opt.value})
    assert rep.provenance == CLAIMED_FLAWED
    assert rep.verdict in ("holds", "violated")  # recorded, never asserted


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.integers(0, 10_000), st.permutations(range(n)))))
def test_relabelling_preserves_problem5_opt_and_expectation(case):
    seed, perm = case
    n = len(perm)
    # each set is worth a random amount more than its best one-smaller
    # subset: monotone, and tie-free with probability 1
    rng = np.random.default_rng(seed)
    tab = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        tab[mask] = max(tab[mask ^ 1 << u] for u in elements_of(mask)) + \
            rng.uniform(0.1, 1.0)
    f = TableOracle(tab, monotone=True)
    g = relabel(f, perm)
    ms = [random_partition_matroid(n, seed + j) for j in (1, 2)]
    ms_g = [PartitionMatroid([[perm[u] for u in b] for b in m.blocks], m.caps)
            for m in ms]
    opt_f = brute_force_opt_set(f, PSystem(ms).indep_table())
    opt_g = brute_force_opt_set(g, PSystem(ms_g).indep_table())
    assert opt_g.value == opt_f.value
    # no ties, so the candidate sets map onto each other; only the order
    # in which the expectation sums its branches changes
    assert intersection_greedy_expectation(g, PSystem(ms_g)) == \
        pytest.approx(intersection_greedy_expectation(f, PSystem(ms)),
                      rel=1e-12)


# ---------------------------------------------------------------------------
# audits


def test_audit_proved_problem2_finds_no_violations():
    bound = BOUNDS["problem2-bicriteria"]

    def make_case(seed, trial):
        inst_seed = seed * 1_000_003 + trial
        f = random_coverage(8, inst_seed)
        system = PSystem([random_partition_matroid(8, inst_seed + 7)])
        trace = multipass_greedy(f, system, 0.25)
        opt = brute_force_opt_set(f, system.indep_table())
        report = problem2_report(trace, f, opt, system,
                                 instance_id=f"t{trial}")
        return report, {"epsilon": 0.25}

    report = audit(bound, make_case, trials=40, seed=0,
                   document=lambda t: {})
    assert len(report.rows) == 40
    assert report.violations == []
    assert report.min_ratio is not None and report.min_ratio >= 0.75


def test_audit_keeps_violation_when_opt_is_zero():
    # an all-zero objective has OPT = 0; a broken feasibility certificate
    # must still be a violation there, not a trivial row
    bound = BOUNDS["problem2-bicriteria"]
    f = ModularOracle(np.zeros(4))
    system = PSystem([UniformMatroid(4, 1)])

    def make_case(tamper):
        def case(seed, trial):
            trace = multipass_greedy(f, system, 0.25)
            if tamper:
                trace.meta["independent_sets"] = [[0, 1, 2]]
            opt = brute_force_opt_set(f, system.indep_table())
            report = problem2_report(trace, f, opt, system,
                                     instance_id=f"t{trial}")
            return report, {"epsilon": 0.25}
        return case

    broken = audit(bound, make_case(True), trials=2, seed=0,
                   document=lambda t: {"trial": t})
    assert [r.opt for r in broken.rows] == [0.0, 0.0]
    assert [r.verdict for r in broken.rows] == [VIOLATED, VIOLATED]
    assert [r.ratio for r in broken.rows] == [None, None]
    assert broken.violations == [{"trial": 0}, {"trial": 1}]
    assert cli._exit_code(broken.rows) == cli.EXIT_VIOLATION

    sound = audit(bound, make_case(False), trials=2, seed=0,
                  document=lambda t: {"trial": t})
    assert [r.verdict for r in sound.rows] == [TRIVIAL, TRIVIAL]
    assert sound.violations == []
    assert cli._exit_code(sound.rows) == cli.EXIT_OK


def test_audit_problem4_report_complete_and_replayable():
    report = audit_problem4(trials=8, seed=1, n=5, k=2)
    assert len(report.rows) == 8
    for t, row in enumerate(report.rows):
        assert {"gamma", "m", "k", "n"} <= set(row.params)
        assert row.verdict in ("holds", "violated", "trivial")
        # replay: rebuild the instance from its document and recompute
        bundle = load_bundle(report.document(t))
        f = bundle["objective"]
        again = dag_walk(DummyGreedyProcess(f, row.params["k"]))
        assert again == row.measured
    summary = report.summary()
    assert summary["instances"] == 8 and "min_ratio" in summary


def test_audit_problem5_report_complete_and_replayable():
    report = audit_problem5(trials=6, seed=2, n=6)
    assert len(report.rows) == 6
    for t, row in enumerate(report.rows):
        bundle = load_bundle(report.document(t))
        system = PSystem([bundle["matroid1"], bundle["matroid2"]])
        assert intersection_greedy_expectation(bundle["objective"],
                                               system) == row.measured
    assert report.min_ratio is not None


def test_audit_determinism():
    a = audit_problem4(trials=5, seed=3, n=5, k=2)
    b = audit_problem4(trials=5, seed=3, n=5, k=2)
    assert [(r.instance_id, r.measured, r.opt) for r in a.rows] == \
        [(r.instance_id, r.measured, r.opt) for r in b.rows]


def test_conjecture_audit_shape_and_determinism():
    rep = run_audit("problem2-authors-conjecture", trials=10, seed=4, p=2,
                    epsilon=0.1, n=7)
    assert len(rep.rows) == 10
    for row in rep.rows:
        assert row.params["rounds_conjecture"] == 3
        assert row.params["rounds_multipass"] == 6
        assert row.measured <= row.params["value_at_multipass"] + 1e-12
    again = run_audit("problem2-authors-conjecture", trials=10, seed=4, p=2,
                      epsilon=0.1, n=7)
    assert [r.measured for r in rep.rows] == [r.measured for r in again.rows]
    summary = rep.summary()
    assert 0.0 <= summary["violations"] / summary["instances"] <= 1.0


def test_conjecture_violations_replay_from_their_documents():
    # at eps = 0.4 and p = 2 the conjecture allows one pass, the proof three
    rep = run_audit("problem2-authors-conjecture", trials=100, seed=0, p=2,
                    epsilon=0.4, n=8)
    bad = [(t, r) for t, r in enumerate(rep.rows) if r.verdict == VIOLATED]
    assert [r.instance_id for _, r in bad] == ["p2c-s0-t22", "p2c-s0-t81"]
    assert all(r.provenance == AUTHORS_CONJECTURE for _, r in bad)
    assert rep.violations == [rep.document(t) for t, _ in bad]
    for t, row in bad:
        c = load_bundle(json.loads(canonical_json(rep.document(t))))
        trace = multipass_greedy(c["objective"], c["system"], 0.4)
        value = trace.iterations[row.params["rounds_conjecture"] - 1]["value"]
        opt = brute_force_opt_set(c["objective"], c["system"].indep_table())
        assert value == row.measured and opt.value == row.opt
        assert value < 0.6 * opt.value



def test_audit_builds_documents_only_when_asked(monkeypatch):
    real = verify.problem_bundle
    built = []

    def counted(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(verify, "problem_bundle", counted)
    for bound in verify.AUDITS:
        run_audit(bound, 3, 0).summary()
    rep = run_audit("problem2-authors-conjecture", 100, 0, p=2,
                    epsilon=0.4, n=8)
    assert rep.summary()["violations"] == 2
    assert built == []
    assert rep.violations == built
    assert [doc["meta"]["seed"] for doc in built] == [22, 81]


# sha256 of canonical_json of each replay document, whose measured dict is
# verify.document_ratios of its objective, as gen's is; the problem-2
# bounds draw the same instances at equal flags
_P2_DIGESTS = (
    "ee08cd8b0ec2a8f27978bce2318de6e532e07502a33b5d930eb22882e343e140",
    "874f4631adac732d70c74b99bdd8e02d075a6137449fc8b732cf3a525714e7f9",
    "5e94053d556b53f8f0cd1f18003aa4dd4f49553d94ccb4bdfac54ce1a60d7df9")
_DOCUMENT_DIGESTS = {
    "problem2-bicriteria": _P2_DIGESTS,
    "problem2-authors-conjecture": _P2_DIGESTS,
    "problem4-claimed": (
        "18094d384f5f6ce39edd6d060324b318e6b181c4912208defd8f6370cea3c434",
        "da7b608c23e03ffb355d902fcb9315dadf23b195955038a65b13228ba9d2c05d",
        "6d7d4ccef6de81ad4cc4d73c3f461ffe8aad8ef6770dde0e79f764263d16f2bd"),
    "problem5-claimed": (
        "306b19145aeada1abe78e6ce934f1f4ea184a344c27055d947870ead9b589781",
        "7cc4767358209df79857d07337c338f0dbd96079493341bea05081deff3e4c3b",
        "6a05297d8d8149deb86817a086ebb547540876970ec6e553348512d72cde1eff"),
}


def _digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def test_rebuilt_documents_are_the_recorded_bytes():
    assert set(_DOCUMENT_DIGESTS) == set(verify.AUDITS)
    for bound, digests in _DOCUMENT_DIGESTS.items():
        report = run_audit(bound, 3, 5)
        assert [_digest(report.document(t)) for t in range(3)] == \
            list(digests), bound
    rep = run_audit("problem2-authors-conjecture", 100, 0, p=2,
                    epsilon=0.4, n=8)
    assert [_digest(doc) for doc in rep.violations] == [
        "fedb7523b3f7bb8c26c83d7374489a2b6a5cee86ea8dcbac38d9593ac506f75c",
        "74636ff94318438bc7da174c1464d51c5f09ab7dd0c880489966de4ae5cd20c0"]


def test_audit_problem2_checks_feasibility_certificate(monkeypatch):
    import submodlab.verify as verify_module

    honest = run_audit("problem2-bicriteria", trials=6, seed=2, p=2, n=7)
    assert [r.verdict for r in honest.rows] == ["holds"] * 6
    assert honest.violations == []

    real = verify_module.multipass_greedy

    def tampered(*args, **kwargs):
        trace = real(*args, **kwargs)
        # claim the whole output as one independent set
        trace.meta["independent_sets"] = [trace.final]
        return trace

    monkeypatch.setattr(verify_module, "multipass_greedy", tampered)
    report = run_audit("problem2-bicriteria", trials=6, seed=2, p=2, n=7)
    dependent = 0
    for t, (row, before) in enumerate(zip(report.rows, honest.rows)):
        assert row.measured == before.measured  # the value half still holds
        bundle = load_bundle(report.document(t))
        final = real(bundle["objective"], bundle["system"], 0.1).final
        if bundle["system"].indep(final):
            assert row.verdict == "holds"
        else:
            dependent += 1
            assert row.verdict == "violated" \
                and report.document(t) in report.violations
    assert dependent > 0
