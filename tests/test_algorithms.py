import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submodlab import algorithms, continuous
from submodlab.algorithms import (authors_conjecture_rounds, bicriteria_rounds,
                                  check_budget, dummy_candidates,
                                  frank_wolfe, masked_frank_wolfe,
                                  multipass_greedy, random_greedy_dummies,
                                  random_greedy_intersection)
from submodlab.continuous import (CardinalityPolytope, ContinuousOracle,
                                  QuadraticOracle, SumOracle,
                                  random_quadratic_dr, random_sqrt_linear,
                                  random_weak_quadratic, unit_box,
                                  weak_dr_gamma)
from submodlab.matroids import (PSystem, UniformMatroid,
                                random_graphic_matroid,
                                random_partition_matroid,
                                random_partition_psystem)
from submodlab.oracles import (ModularOracle, _sweep, random_coverage,
                               random_cut, random_modular, random_perturbed)
from submodlab.serialization import canonical_json, to_doc
from submodlab.verify import (brute_force_opt_set, dummy_greedy_expectation,
                              intersection_greedy_expectation)

from helpers import (TableOracle, frank_wolfe_ref, free_matroid,
                     grid_polytope, mask_message, masked_frank_wolfe_ref,
                     mean_and_se, multipass_reference,
                     random_greedy_dummies_ref,
                     random_greedy_intersection_ref)


def linear_oracle(b):
    return QuadraticOracle(b, np.zeros((len(b), len(b))))


def zero_oracle(n):
    return QuadraticOracle(np.zeros(n), np.zeros((n, n)))


# ---------------------------------------------------------------------------
# masked Frank-Wolfe


def test_masked_fw_linear_closed_form():
    g = linear_oracle(np.array([1.0, 2.0, 3.0]))
    trace = masked_frank_wolfe(g, zero_oracle(3), unit_box(3), 0.01)
    expect = (1.0 - (1.0 - 0.01) ** 100) * 6.0
    assert trace.value == pytest.approx(expect, abs=1e-6)


def test_masked_fw_single_step_when_eps_one():
    g = linear_oracle(np.array([2.0, 1.0]))
    p = CardinalityPolytope(2, 1)
    trace = masked_frank_wolfe(g, zero_oracle(2), p, 1.0)
    assert trace.meta["rounds"] == 1
    assert np.array_equal(trace.final, p.lmo(g.grad(np.zeros(2))))


def test_masked_fw_mask_bound_and_membership():
    g = random_quadratic_dr(4, 31, monotone=True)
    h = random_quadratic_dr(4, 32, monotone=False)
    p = CardinalityPolytope(4, 2)
    trace = masked_frank_wolfe(g, h, p, 0.05)
    step = trace.meta["step"]
    for rec in trace.iterations:
        cap = 1.0 - (1.0 - step) ** (rec["round"] + 1)
        assert max(rec["point"]) <= cap + 1e-12
        assert p.member(np.array(rec["point"]))  # every iterate, not just last
    assert trace.meta["in_polytope"]


def test_masked_fw_rejects_nonmonotone_first_part():
    h = random_quadratic_dr(3, 33, monotone=False)
    with pytest.raises(ValueError):
        masked_frank_wolfe(h, zero_oracle(3), unit_box(3), 0.1)


def test_masked_fw_round_count_uses_tolerant_ceiling():
    # 1 / (1/49) is 49.00000000000001; 1 / 5e-324 overflows to inf, whose
    # ceiling raised OverflowError
    g = linear_oracle(np.ones(2))
    for epsilon, rounds in ((0.1, 10), (1 / 3, 3), (1 / 49, 49)):
        trace = masked_frank_wolfe(g, zero_oracle(2), unit_box(2), epsilon)
        assert trace.meta["rounds"] == rounds
    with pytest.raises(ValueError, match="round count is infinite"):
        masked_frank_wolfe(g, zero_oracle(2), unit_box(2), 5e-324)


@pytest.mark.parametrize("epsilon", [True, "0.5", math.nan, [0.5]])
def test_masked_fw_epsilon_must_be_a_number(epsilon):
    # True ran as epsilon = 1.0
    g = random_quadratic_dr(3, 33, monotone=True)
    with pytest.raises(ValueError):
        masked_frank_wolfe(g, zero_oracle(3), unit_box(3), epsilon)


# ---------------------------------------------------------------------------
# both Frank-Wolfe loops against the reference loops, which check every
# point at every call


POLYTOPES = ("box", "cardinality", "partition", "knapsack")


def fw_objectives(n, seed):
    """One monotone objective of each kind the Frank-Wolfe loops take: a DR
    and a weak quadratic, a sqrt-linear and a sum."""
    return [random_quadratic_dr(n, seed), random_weak_quadratic(n, seed),
            random_sqrt_linear(n, seed),
            SumOracle([random_quadratic_dr(n, seed + 1),
                       random_sqrt_linear(n, seed + 2)])]


def fw_runs(n, seed, polytope, k):
    """(frank_wolfe's trace, the reference's) for each objective, then
    (masked_frank_wolfe's, the reference's) with that objective as g and a
    non-monotone quadratic as h, each run k rounds."""
    poly = grid_polytope(polytope, n, seed)
    h = random_quadratic_dr(n, seed + 3, monotone=False)
    for f in fw_objectives(n, seed):
        yield frank_wolfe(f, poly, k), frank_wolfe_ref(f, poly, k)
        yield (masked_frank_wolfe(f, h, poly, 1.0 / k),
               masked_frank_wolfe_ref(f, h, poly, 1.0 / k))


@pytest.mark.parametrize("k", [1, 2, 200])
@pytest.mark.parametrize("polytope", POLYTOPES)
def test_fw_loops_match_reference_loops_bit_for_bit(polytope, k):
    seeds = range(3 if k < 200 else 1)
    compared = 0
    for n in range(1, 7):
        for seed in seeds:
            for got, want in fw_runs(n, seed, polytope, k):
                assert repr(got) == repr(want), (n, seed)
                compared += 1
    assert compared == 6 * len(seeds) * 8


def unclipped_runs(n, seed, polytope, k):
    """The traces of ``fw_runs``, with every list the loops check asserted
    to pass ``_checked_list`` as it is, unclipped."""
    checked = []

    def check(x):
        got = continuous._checked_list(x)
        assert got[0] is x
        checked.append(x)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "_checked_list", check)
        traces = [got for got, _ in fw_runs(n, seed, polytope, k)]
    # one check per iterate of each of the four runs of either loop
    assert len(checked) == 8 * k
    return traces


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000), st.sampled_from(POLYTOPES),
       st.sampled_from([1, 2, 3, 50]))
def test_fw_iterates_are_never_clipped(n, seed, polytope, k):
    for trace in unclipped_runs(n, seed, polytope, k):
        for rec in trace.iterations:
            point = np.array(rec["point"])
            assert continuous._in_cube(point) is point
        if trace.algorithm == "frank-wolfe":
            assert trace.meta["step_mass"] == 1.0


def test_fw_knapsack_iterates_with_fractional_directions_are_never_clipped():
    fractional = 0
    for seed in range(4):
        for trace in unclipped_runs(5, seed, "knapsack", 20):
            fractional += any(0.0 < d < 1.0 for rec in trace.iterations
                              for d in rec["direction"])
    assert fractional == 4 * 8  # every run takes a fractional direction


def test_loops_and_weak_dr_gamma_pass_no_point_through_the_checks():
    # the Frank-Wolfe loops and weak_dr_gamma build their points in the
    # cube and read them through the kernels: the checked value and grad,
    # and the cube rule behind them, serve outside input only
    calls = []

    def counted(name, call):
        def wrapper(*args):
            calls.append(name)
            return call(*args)
        return wrapper

    runs = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuous, "_in_cube",
                   counted("_in_cube", continuous._in_cube))
        for name in ("value", "grad"):
            mp.setattr(ContinuousOracle, name,
                       counted(name, getattr(ContinuousOracle, name)))
        for n, seed in ((1, 0), (3, 1), (5, 2)):
            h = random_quadratic_dr(n, seed + 3, monotone=False)
            for f in (random_quadratic_dr(n, seed),
                      random_weak_quadratic(n, seed),
                      random_sqrt_linear(n, seed)):
                for family in ("box", "cardinality", "knapsack"):
                    poly = grid_polytope(family, n, seed)
                    for k in (1, 2, 50):
                        frank_wolfe(f, poly, k)
                        masked_frank_wolfe(f, h, poly, 1.0 / k)
                        runs += 2
                assert 0.0 <= weak_dr_gamma(f, samples=200, seed=seed) <= 1.0
                runs += 1
        assert calls == [] and runs == 3 * 3 * (3 * 3 * 2 + 1)
        # the counters do see a call from outside
        f.value(np.zeros(n))
        f.grad(np.zeros(n))
    assert calls == ["value", "_in_cube", "grad", "_in_cube"]


class TurningOracle(QuadraticOracle):
    """A linear oracle whose gradient turns to ``bad`` in one coordinate
    from its third call on (tests only)."""

    def __init__(self, n, bad):
        super().__init__(np.ones(n), np.zeros((n, n)))
        self.bad, self.calls = bad, 0

    def _grad(self, x):
        self.calls += 1
        out = super()._grad(x)
        if self.calls >= 3:
            out[-1] = self.bad
        return out


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("polytope", POLYTOPES)
def test_fw_loops_reject_a_non_finite_gradient(polytope, bad):
    # the gradient is checked before each LMO call, in both loops, and in
    # the masked loop whether the monotone or the other part turns
    n = 4
    poly = grid_polytope(polytope, n, 1)
    h = random_quadratic_dr(n, 4, monotone=False)
    for run in (lambda: frank_wolfe(TurningOracle(n, bad), poly, 10),
                lambda: masked_frank_wolfe(TurningOracle(n, bad), h, poly,
                                           0.1),
                lambda: masked_frank_wolfe(linear_oracle(np.ones(n)),
                                           TurningOracle(n, bad), poly, 0.1)):
        with pytest.raises(ValueError, match="objective vector must be "
                                             "finite of matching size"):
            run()


# ---------------------------------------------------------------------------
# bicriteria rounds


def test_bicriteria_rounds_examples():
    assert bicriteria_rounds(1, 0.25) == 2
    assert bicriteria_rounds(2, math.exp(-1)) == 3
    assert bicriteria_rounds(1, 0.9) == 1
    assert bicriteria_rounds(3, 0.999999) == 1


def test_bicriteria_rounds_matches_log2_for_one_matroid():
    for eps in (0.5, 0.25, 0.125, 0.1, 0.07, 0.03):
        assert bicriteria_rounds(1, eps) == math.ceil(math.log2(1.0 / eps))


def test_bicriteria_rounds_rejects_bad_epsilon():
    for eps in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            bicriteria_rounds(1, eps)
    with pytest.raises(ValueError):
        bicriteria_rounds(0, 0.5)


@pytest.mark.parametrize("rounds", [bicriteria_rounds,
                                    authors_conjecture_rounds])
def test_round_counts_read_p_as_an_integer(rounds):
    # int(p) != p read True as p = 1 (two bicriteria passes at eps = 0.25)
    # and accepted p = 2.0
    for p in (True, 2.0, "2", None):
        with pytest.raises(ValueError):
            rounds(p, 0.25)
    assert rounds(np.int64(2), 0.25) == rounds(2, 0.25)


def test_authors_conjecture_rounds():
    assert authors_conjecture_rounds(1, 0.25) == 2
    assert authors_conjecture_rounds(2, 0.1) == 3
    assert authors_conjecture_rounds(3, 0.1) == 2
    # integral ratios: log 9 / log 3 is 2.0 and log 125 / log 5 is
    # 3.0000000000000004; 1 / 5e-324 overflows to inf, whose ceiling raised
    # OverflowError
    assert authors_conjecture_rounds(2, 1 / 9) == 2
    assert authors_conjecture_rounds(4, 1 / 125) == 3
    for rounds in (authors_conjecture_rounds, bicriteria_rounds):
        with pytest.raises(ValueError, match="round count is infinite"):
            rounds(2, 5e-324)
    for p in (1, 2, 3):
        for eps in (0.5, 0.25, 0.1):
            assert authors_conjecture_rounds(p, eps) <= bicriteria_rounds(p, eps)


# ---------------------------------------------------------------------------
# multipass greedy


def test_multipass_modular_exact_after_first_round():
    # first pass of greedy on a modular objective is already optimal
    f = random_modular(6, 41)
    system = PSystem([UniformMatroid(6, 3)])
    trace = multipass_greedy(f, system, 0.1)
    opt = brute_force_opt_set(f, system.indep_table())
    assert trace.iterations[0]["value"] == pytest.approx(opt.value, rel=1e-12)


def test_multipass_modular_later_rounds_add_nothing_once_saturated():
    # three positive weights under a rank-3 budget: pass one exhausts them,
    # every later pass sees only zero marginals and stays empty
    f = ModularOracle([4.0, 3.0, 2.0, 0.0, 0.0, 0.0])
    system = PSystem([UniformMatroid(6, 3)])
    trace = multipass_greedy(f, system, 0.1)
    opt = brute_force_opt_set(f, system.indep_table())
    assert trace.iterations[0]["value"] == pytest.approx(opt.value, rel=1e-12)
    for rec in trace.iterations[1:]:
        assert rec["added"] == []
    assert trace.value == pytest.approx(opt.value, rel=1e-12)


def test_multipass_quarter_eps_single_matroid():
    f = random_coverage(8, 42)
    system = PSystem([random_partition_matroid(8, 43)])
    trace = multipass_greedy(f, system, 0.25)
    opt = brute_force_opt_set(f, system.indep_table())
    assert trace.meta["rounds"] == 2
    assert trace.value >= 0.75 * opt.value - 1e-9


def test_multipass_two_matroids_tenth_eps():
    f = random_coverage(8, 44)
    system = PSystem([random_partition_matroid(8, 45),
                      random_partition_matroid(8, 46)])
    trace = multipass_greedy(f, system, 0.1)
    opt = brute_force_opt_set(f, system.indep_table())
    assert trace.meta["rounds"] == 6
    assert trace.value >= 0.9 * opt.value - 1e-9


def test_multipass_certificate():
    f = random_coverage(9, 47)
    system = PSystem([random_partition_matroid(9, 48),
                      random_partition_matroid(9, 49)])
    trace = multipass_greedy(f, system, 0.2)
    parts = trace.meta["independent_sets"]
    assert len(parts) == trace.meta["rounds"]
    assert all(system.indep(t) for t in parts)
    assert sorted(set().union(*map(set, parts))) == trace.final
    assert trace.meta["certificate_ok"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 9), st.sampled_from([1, 2, 3]),
       st.floats(0.05, 0.5), st.booleans())
def test_multipass_matches_reference_passes(seed, n, p, eps, perturbed):
    f = (random_perturbed(n, 0.3, seed, monotone=True) if perturbed
         else random_coverage(n, seed))
    system = random_partition_psystem(n, p, seed)
    trace = multipass_greedy(f, system, eps)
    iterations, final, meta = multipass_reference(f, system, eps)
    assert trace.iterations == iterations
    assert trace.final == final
    assert trace.meta == meta


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 9), st.sampled_from([1, 2, 3]),
       st.sampled_from([2, 3, 6]), st.booleans())
def test_multipass_matches_reference_passes_on_tied_tables(seed, n, p, levels,
                                                           graphic):
    # a monotone table of a few integer levels: most marginals tie, many at
    # zero, so the lowest-id rule and the stop at a zero marginal decide
    # most picks of each pass
    rng = np.random.default_rng(seed)
    table = rng.integers(0, levels, 1 << n).astype(float)
    table[0] = 0.0
    _sweep(table, np.maximum, upward=True)
    f = TableOracle(table, monotone=True)
    members = list(random_partition_psystem(n, p, seed).matroids)
    if graphic:
        members[0] = random_graphic_matroid(n, seed)
    system = PSystem(members)
    trace = multipass_greedy(f, system, 0.2)
    iterations, final, meta = multipass_reference(f, system, 0.2)
    assert trace.iterations == iterations
    assert trace.final == final
    assert trace.meta == meta


def test_multipass_rejects_uncertified_oracle():
    f = random_cut(6, 50)
    system = PSystem([UniformMatroid(6, 2)])
    with pytest.raises(ValueError):
        multipass_greedy(f, system, 0.25)


# ---------------------------------------------------------------------------
# weak-DR Frank-Wolfe


def test_fw_linear_finds_exact_optimum():
    f = linear_oracle(np.array([1.0, 3.0, 2.0]))
    p = CardinalityPolytope(3, 1)
    trace = frank_wolfe(f, p, 25)
    first = trace.iterations[0]["direction"]
    assert all(rec["direction"] == first for rec in trace.iterations)
    assert np.allclose(trace.final, first)
    assert trace.value == pytest.approx(3.0, abs=1e-12)


def test_fw_single_iteration():
    f = linear_oracle(np.array([0.5, 1.5]))
    p = unit_box(2)
    trace = frank_wolfe(f, p, 1)
    assert np.array_equal(trace.final, p.lmo(f.grad(np.zeros(2))))


def test_fw_step_mass_is_exactly_one():
    f = random_quadratic_dr(3, 51, monotone=True)
    for k in (1, 2, 7, 200):
        trace = frank_wolfe(f, unit_box(3), k)
        assert trace.meta["step_mass"] == 1.0
        assert trace.meta["in_polytope"]


def test_fw_requires_monotone():
    h = random_quadratic_dr(3, 52, monotone=False)
    with pytest.raises(ValueError):
        frank_wolfe(h, unit_box(3), 10)


@pytest.mark.parametrize("gamma", ["0.5", True, math.nan, [0.5]])
def test_fw_declared_gamma_must_be_a_number(gamma):
    # float() recorded the string "0.5" as meta.declared_gamma = 0.5
    f = random_quadratic_dr(3, 54, monotone=True)
    with pytest.raises(ValueError):
        frank_wolfe(f, unit_box(3), 3, declared_gamma=gamma)


@pytest.mark.parametrize("iterations", [2.5, True, "3", 0, -1])
def test_fw_iterations_must_be_a_positive_integer(iterations):
    # int() ran 2.5 as 2 iterations (and recorded 2), and True as 1
    f = random_quadratic_dr(3, 53, monotone=True)
    with pytest.raises(ValueError):
        frank_wolfe(f, unit_box(3), iterations)


# ---------------------------------------------------------------------------
# random greedy with dummies


def test_dummy_greedy_k1_takes_argmax():
    f = ModularOracle([1.0, 4.0, 2.0])
    trace = random_greedy_dummies(f, 1, seed=0)
    assert trace.final == [1]


def test_dummy_greedy_all_negative_marginals_yields_empty():
    # f(S) = 5 - |S|: every marginal is -1, so dummies always win
    f = TableOracle([5.0 - mask.bit_count() for mask in range(8)])
    for k in (1, 2, 3):
        trace = random_greedy_dummies(f, k, seed=1)
        assert trace.final == []
        assert all(rec["is_dummy"] for rec in trace.iterations)


def test_dummy_greedy_frozen_expectation():
    f = ModularOracle([4.0, 3.0, 2.0, 1.0])
    exact = dummy_greedy_expectation(f, 2)
    assert exact == pytest.approx(6.25, abs=1e-12)


def test_dummy_greedy_values_nondecreasing():
    f = random_coverage(6, 53)
    trace = random_greedy_dummies(f, 3, seed=2)
    values = [f.value(())] + [rec["value"] for rec in trace.iterations]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(rec["marginal"] >= 0.0 for rec in trace.iterations)


def test_dummy_greedy_candidate_sets_have_size_k():
    f = random_cut(5, 54)
    trace = random_greedy_dummies(f, 3, seed=3)
    assert all(len(rec["candidates"]) == 3 for rec in trace.iterations)


def test_dummy_greedy_seed_determinism():
    f = random_coverage(6, 55)
    a = random_greedy_dummies(f, 3, seed=9)
    b = random_greedy_dummies(f, 3, seed=9)
    assert canonical_json(to_doc(a)) == canonical_json(to_doc(b))
    c = random_greedy_dummies(f, 3, seed=10)
    assert c.seed != a.seed


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.integers(0, 10_000), st.booleans(), st.integers(0, 10_000))
def test_dummy_greedy_matches_the_reference_loop(nk, seed, coverage,
                                                  run_seed):
    # pins the stream: one generator per run, one draw per round
    n, k = nk
    f = random_coverage(n, seed) if coverage \
        else random_perturbed(n, 0.3, seed)
    assert repr(random_greedy_dummies(f, k, run_seed)) == \
        repr(random_greedy_dummies_ref(f, k, run_seed))


def test_dummy_greedy_budget_validation():
    f = random_modular(3, 56)
    for k in (-1, 0, 4):
        with pytest.raises(ValueError):
            random_greedy_dummies(f, k, seed=0)


@pytest.mark.parametrize("masks", [[-1], [1 << 4], [1.5], [True], [0, 16]],
                         ids=["negative", "past-the-ground-set", "float",
                              "bool", "one-of-two"])
def test_dummy_candidates_reject_masks_outside_the_ground_set(masks):
    # -1 was read as the full set (counts [0]); 16 raised IndexError and
    # 1.5 TypeError
    f = random_coverage(4, 1)
    with pytest.raises(ValueError,
                       match="mask is not a subset of the ground set"):
        dummy_candidates(f, 2, np.array(masks))
    order, counts = dummy_candidates(f, 2, np.array([0, 15]))
    assert order.shape == (2, 2) and counts[1] == 0


@pytest.mark.parametrize("masks", [[[0, 1], [2, 3]], 3],
                         ids=["two-dimensional", "scalar"])
def test_dummy_candidates_take_a_one_dimensional_mask_array(masks):
    # the 2-D array gave a (2, 1, 2) order and (2, 2) counts; the scalar
    # raised IndexError
    f = random_coverage(2, 1)
    with pytest.raises(ValueError,
                       match="^masks must be a 1-D array of int masks$"):
        dummy_candidates(f, 2, np.array(masks))
    order, counts = dummy_candidates(f, 2, np.array([], dtype=np.int64))
    assert order.shape == (0, 2) and counts.shape == (0,)


def test_dummy_candidates_leave_element_ids_past_the_counts():
    # the slots past counts[i] hold leftover element ids, never a dummy
    # (ids 5 .. 10 here): element 0 is already in R = {0, 1, 2}, and the
    # full set has no candidate at all
    f = random_perturbed(5, 0.4, 3)
    order, counts = dummy_candidates(f, 3, np.array([7, 31]))
    assert order.tolist() == [[3, 4, 0], [0, 1, 2]]
    assert counts.tolist() == [2, 0]


@pytest.mark.parametrize("k", [True, 1.0, "1", np.bool_(True)])
def test_dummy_greedy_budget_must_be_an_integer(k):
    # check_budget compared True with 1 <= k <= n, and the run took k = 1
    f = random_modular(3, 57)
    with pytest.raises(ValueError):
        check_budget(k, f.n)
    with pytest.raises(ValueError):
        random_greedy_dummies(f, k, seed=1)


@pytest.mark.parametrize("seed", [1.7, True, "1", None])
def test_randomized_runners_read_integer_seeds(seed):
    # int() ran seed 1.7 as seed 1 and recorded 1
    f = random_coverage(5, 1)
    with pytest.raises(ValueError):
        random_greedy_dummies(f, 2, seed=seed)
    with pytest.raises(ValueError):
        random_greedy_intersection(f, UniformMatroid(5, 2), free_matroid(5),
                                   seed=seed)
    assert random_greedy_dummies(f, 2, seed=np.int64(3)).seed == 3


# ---------------------------------------------------------------------------
# random greedy for matroid intersection


def test_intersection_greedy_reduces_to_single_matroid():
    # with the second matroid free, each round's candidate set is the
    # residual greedy choice: the top remaining elements by marginal weight
    f = ModularOracle([3.0, 2.0, 1.5, 0.5])
    trace = random_greedy_intersection(f, UniformMatroid(4, 2),
                                       free_matroid(4), seed=0)
    state = 0
    for rec in trace.iterations:
        remaining_cap = 2 - rec["round"]
        w = [f.weights[u] if not (state >> u) & 1 else -1.0 for u in range(4)]
        top = sorted(sorted(range(4), key=lambda u: (-w[u], u))[:remaining_cap])
        assert rec["candidates"] == top
        state |= 1 << rec["chosen"]


def test_intersection_greedy_no_feasible_singleton():
    f = ModularOracle([1.0, 1.0, 1.0])
    m1 = UniformMatroid(3, 0)
    trace = random_greedy_intersection(f, m1, free_matroid(3), seed=0)
    assert trace.final == []
    assert trace.meta["rounds"] == 0


def test_intersection_greedy_stays_commonly_independent():
    f = random_coverage(6, 57)
    m1 = random_partition_matroid(6, 58)
    m2 = random_partition_matroid(6, 59)
    trace = random_greedy_intersection(f, m1, m2, seed=4)
    state = []
    for rec in trace.iterations:
        assert len(rec["candidates"]) >= 1
        state.append(rec["chosen"])
        assert m1.indep(state) and m2.indep(state)


def test_intersection_greedy_exact_expectation_vs_monte_carlo():
    f = random_coverage(6, 60)
    m1 = random_partition_matroid(6, 61)
    m2 = random_partition_matroid(6, 62)
    exact = intersection_greedy_expectation(f, PSystem([m1, m2]))
    mean, se = mean_and_se([random_greedy_intersection(f, m1, m2, seed=s).value
                            for s in range(3000)])
    assert abs(mean - exact) <= 3.0 * max(se, 1e-12)


def test_intersection_greedy_seed_determinism():
    f = random_coverage(6, 66)
    m1 = random_partition_matroid(6, 67)
    m2 = random_partition_matroid(6, 68)
    a = random_greedy_intersection(f, m1, m2, seed=7)
    b = random_greedy_intersection(f, m1, m2, seed=7)
    assert canonical_json(to_doc(a)) == canonical_json(to_doc(b))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10_000), st.booleans(),
       st.booleans(), st.integers(0, 10_000))
def test_intersection_greedy_matches_the_reference_loop(n, seed, graphic,
                                                        coverage, run_seed):
    # the runner reads its native tables through _candidates; the reference
    # loop reads the numpy tables through the recursive search
    make = random_graphic_matroid if graphic else random_partition_matroid
    f = random_coverage(n, seed) if coverage \
        else random_perturbed(n, 0.3, seed, monotone=True)
    m1, m2 = make(n, seed + 1), make(n, seed + 2)
    assert repr(random_greedy_intersection(f, m1, m2, run_seed)) == \
        repr(random_greedy_intersection_ref(f, m1, m2, run_seed))


@pytest.mark.parametrize("mask", [1 << 4, -1, 0b111, True, 2.0, "1"])
def test_intersection_candidates_reject_bad_masks(mask):
    # 1 << 4 raised a numpy IndexError; -1 and the dependent 0b111 returned
    # None; True and 2.0 raised TypeError
    system = PSystem([UniformMatroid(4, 2)] * 2)
    with pytest.raises(ValueError, match=mask_message(mask, "mask")):
        algorithms.intersection_candidates(random_coverage(4, 1), system,
                                           mask)
    assert algorithms.intersection_candidates(
        random_coverage(4, 1), system, np.int64(0b11)) is None


def test_intersection_greedy_requires_monotone():
    f = random_cut(5, 69)
    with pytest.raises(ValueError):
        random_greedy_intersection(f, free_matroid(5), free_matroid(5), seed=0)
