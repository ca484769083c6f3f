import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submodlab.algorithms import (DummyGreedyProcess,
                                  IntersectionGreedyProcess, frank_wolfe,
                                  multipass_greedy)
from submodlab.continuous import (CardinalityPolytope, QuadraticOracle,
                                  random_quadratic_dr, unit_box,
                                  weak_dr_gamma)
from submodlab.matroids import PSystem, UniformMatroid, random_partition_matroid
from submodlab.oracles import (GAMMA_LIMIT, CapabilityError, ModularOracle,
                               random_coverage, random_modular,
                               random_perturbed)
from submodlab.serialization import load_bundle
from submodlab.verify import (BOUNDS, AUTHORS_CONJECTURE, CLAIMED_FLAWED,
                              PROVED, TREE_NODE_LIMIT, audit,
                              audit_problem2, audit_problem2_conjecture,
                              audit_problem4, audit_problem5,
                              brute_force_opt_set, check_bound,
                              expected_value_exact, grid_opt,
                              monte_carlo_value, problem2_report,
                              problem3_report)

from helpers import recursive_best_subset, tree_walk


def linear_oracle(b):
    return QuadraticOracle(b, np.zeros((len(b), len(b))))


# ---------------------------------------------------------------------------
# exhaustive set optimum


def test_brute_force_modular_under_uniform():
    f = ModularOracle([5.0, 1.0, 4.0, 2.0])
    cert = brute_force_opt_set(f, UniformMatroid(4, 2))
    assert cert.value == 9.0 and cert.maximizer == [0, 2]
    assert cert.method == "exhaustive" and cert.radius == 0.0


def test_brute_force_only_empty_feasible():
    f = random_coverage(5, 3)
    cert = brute_force_opt_set(f, lambda mask: mask == 0)
    assert cert.value == f.value(()) and cert.maximizer == []


def test_brute_force_agrees_with_recursive_enumerator():
    for seed in range(100):
        n = 6
        f = random_perturbed(n, 0.4, seed) if seed % 2 else random_coverage(n, seed)
        system = random_partition_matroid(n, seed + 1)
        cert = brute_force_opt_set(f, system)
        ref_val, _ = recursive_best_subset(f, system.indep_mask, n)
        assert cert.value == ref_val


def test_brute_force_capability_limit():
    f = ModularOracle(np.ones(19))
    with pytest.raises(CapabilityError):
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


def test_grid_opt_dimension_limit():
    f = linear_oracle(np.ones(6))
    with pytest.raises(CapabilityError):
        grid_opt(f, unit_box(6), 0.5)


# ---------------------------------------------------------------------------
# exact expectations


def test_expected_value_deterministic_tree():
    f = ModularOracle([4.0, 1.0, 1.0])
    proc = DummyGreedyProcess(f, 1)
    from submodlab.algorithms import random_greedy_dummies
    single = random_greedy_dummies(f, 1, seed=0)
    assert expected_value_exact(proc) == single.value


def test_expected_value_symmetric_instance():
    f = ModularOracle([2.0, 2.0, 2.0, 2.0])
    proc = DummyGreedyProcess(f, 2)
    from submodlab.algorithms import random_greedy_dummies
    assert expected_value_exact(proc) == random_greedy_dummies(f, 2, seed=5).value


def test_expected_value_vs_million_samples():
    f = ModularOracle([4.0, 3.0, 2.0, 1.0])
    proc = DummyGreedyProcess(f, 2)
    exact = expected_value_exact(proc)

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
    # this instance's choice DAG has exactly 252 distinct states
    proc = DummyGreedyProcess(random_modular(8, 1), 5)
    with pytest.raises(CapabilityError):
        expected_value_exact(proc, max_nodes=251)
    assert expected_value_exact(proc, max_nodes=252) == tree_walk(proc)


def test_node_limit_covers_gamma_limit():
    # the dummy-greedy DAG has at most (k + 1) * 2^n states with k <= n, and
    # CLI verify measures gamma first, which caps n at GAMMA_LIMIT
    assert (GAMMA_LIMIT + 1) << GAMMA_LIMIT <= TREE_NODE_LIMIT


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
def choice_processes(draw):
    """Small choice processes of three kinds: dummy greedy on tie-heavy
    modular weights (zero marginals tie with the dummies), dummy greedy on
    non-monotone perturbed coverage (negative marginals sort after the
    dummies), and intersection greedy on random partition matroids."""
    kind = draw(st.sampled_from(["ties", "nonmonotone", "intersection"]))
    n = draw(st.integers(2, 7))
    seed = draw(st.integers(0, 10_000))
    if kind == "intersection":
        return IntersectionGreedyProcess(
            random_coverage(n, seed), random_partition_matroid(n, seed + 1),
            random_partition_matroid(n, seed + 2))
    if kind == "ties":
        f = ModularOracle(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                        min_size=n, max_size=n)))
    else:
        f = random_perturbed(n, draw(st.sampled_from([0.3, 0.6, 1.0])), seed)
    return DummyGreedyProcess(f, draw(st.integers(1, min(n, 5))))


@settings(max_examples=60, deadline=None)
@given(choice_processes())
def test_expected_value_exact_matches_tree_walk_bit_for_bit(proc):
    assert expected_value_exact(proc) == tree_walk(proc)


@settings(max_examples=40, deadline=None)
@given(choice_processes())
def test_expected_value_exact_queries_each_state_once(proc):
    tree = CountingProcess(proc)
    tree_walk(tree)
    dag = CountingProcess(proc)
    expected_value_exact(dag)
    assert set(dag.calls) == set(tree.calls)
    assert set(dag.calls.values()) == {1}
    if isinstance(proc, DummyGreedyProcess):
        n, k = proc.f.n, proc.k
        bound = sum(math.comb(n, j) * (k - j + 1) for j in range(k + 1))
        assert len(dag.calls) <= bound


def test_monte_carlo_matches_exact_within_three_se():
    f = random_coverage(5, 7)
    proc = DummyGreedyProcess(f, 2)
    exact = expected_value_exact(proc)
    mean, se = monte_carlo_value(proc, 4000, seed=3)
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


def test_check_bound_missing_parameter():
    with pytest.raises(ValueError):
        check_bound(1.0, BOUNDS["problem2-bicriteria"], {"epsilon": 0.5})


def test_check_bound_sampled_verdicts():
    bound = BOUNDS["problem2-bicriteria"]
    params = {"epsilon": 0.5, "opt": 10.0}  # threshold 5.0
    assert check_bound(6.0, bound, params, half_width=0.5).verdict == "holds"
    assert check_bound(4.0, bound, params, half_width=0.5).verdict == "violated"
    assert check_bound(5.2, bound, params, half_width=0.5).verdict == "inconclusive"


def test_check_bound_monotone_in_threshold():
    bound = BOUNDS["problem2-bicriteria"]
    tight = check_bound(7.0, bound, {"epsilon": 0.25, "opt": 9.0})
    loose = check_bound(7.0, bound, {"epsilon": 0.5, "opt": 9.0})
    assert loose.threshold <= tight.threshold
    if tight.verdict == "holds":
        assert loose.verdict == "holds"


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


def test_problem2_report_checks_feasibility_certificate():
    f = random_coverage(7, 80)
    system = PSystem.from_matroids([random_partition_matroid(7, 81)])
    trace = multipass_greedy(f, system, 0.25)
    opt = brute_force_opt_set(f, system.indep_mask)
    good = problem2_report(trace, opt, system=system)
    assert good.verdict == "holds"
    # tamper with the recorded certificate; this union is dependent, so the
    # report must flip to violated no matter how large the value is
    assert not system.indep(trace.final)
    trace.meta["independent_sets"] = [trace.final]
    bad = problem2_report(trace, opt, system=system)
    assert bad.verdict == "violated"


def test_problem5_verdict_recorded_without_failing():
    f = random_coverage(6, 78)
    m1 = random_partition_matroid(6, 79)
    m2 = random_partition_matroid(6, 80)
    exact = expected_value_exact(IntersectionGreedyProcess(f, m1, m2))
    system = PSystem.from_matroids([m1, m2])
    opt = brute_force_opt_set(f, system.indep_mask)
    rep = check_bound(exact, BOUNDS["problem5-claimed"],
                      {"gamma": 1.0, "opt": opt.value})
    assert rep.provenance == CLAIMED_FLAWED
    assert rep.verdict in ("holds", "violated")  # recorded, never asserted


# ---------------------------------------------------------------------------
# audits


def test_audit_proved_problem2_finds_no_violations():
    bound = BOUNDS["problem2-bicriteria"]

    def make_case(seed, trial):
        inst_seed = seed * 1_000_003 + trial
        f = random_coverage(8, inst_seed)
        system = PSystem.from_matroids(
            [random_partition_matroid(8, inst_seed + 7)])
        trace = multipass_greedy(f, system, 0.25)
        opt = brute_force_opt_set(f, system.indep_mask)
        report = problem2_report(trace, opt, system=system,
                                 instance_id=f"t{trial}")
        return report, {"epsilon": 0.25}, {}

    report = audit(bound, make_case, trials=40, seed=0)
    assert len(report.rows) == 40
    assert report.violations == []
    assert report.min_ratio is not None and report.min_ratio >= 0.75


def test_audit_problem4_report_complete_and_replayable():
    report = audit_problem4(trials=8, seed=1, n=5, k=2)
    assert len(report.rows) == 8
    for row in report.rows:
        assert {"gamma", "m", "k", "n"} <= set(row.params)
        assert row.verdict in ("holds", "violated", "trivial")
        # replay: rebuild the instance from its document and recompute
        bundle = load_bundle(row.doc)
        f = bundle["objective"]
        again = expected_value_exact(DummyGreedyProcess(f, row.params["k"]))
        assert again == row.measured
    summary = report.summary()
    assert summary["instances"] == 8 and "min_ratio" in summary


def test_audit_problem5_report_complete_and_replayable():
    report = audit_problem5(trials=6, seed=2, n=6)
    assert len(report.rows) == 6
    for row in report.rows:
        bundle = load_bundle(row.doc)
        proc = IntersectionGreedyProcess(bundle["objective"],
                                         bundle["matroid1"],
                                         bundle["matroid2"])
        assert expected_value_exact(proc) == row.measured
    assert report.min_ratio is not None


def test_audit_determinism():
    a = audit_problem4(trials=5, seed=3, n=5, k=2)
    b = audit_problem4(trials=5, seed=3, n=5, k=2)
    assert [(r.instance_id, r.measured, r.opt) for r in a.rows] == \
        [(r.instance_id, r.measured, r.opt) for r in b.rows]


def test_conjecture_audit_shape_and_determinism():
    rep = audit_problem2_conjecture(trials=10, seed=4, p=2, epsilon=0.1, n=7)
    assert len(rep.rows) == 10
    for row in rep.rows:
        assert row.rounds_conjecture == 3
        assert row.rounds_multipass == 6
        assert row.value_at_conjecture <= row.value_at_multipass + 1e-12
    again = audit_problem2_conjecture(trials=10, seed=4, p=2, epsilon=0.1, n=7)
    assert [r.value_at_conjecture for r in rep.rows] == \
        [r.value_at_conjecture for r in again.rows]
    summary = rep.summary()
    assert 0.0 <= summary["fraction_sufficient"] <= 1.0



def test_audit_problem2_checks_feasibility_certificate(monkeypatch):
    import submodlab.verify as verify_module

    honest = audit_problem2(trials=6, seed=2, p=2, n=7)
    assert [r.verdict for r in honest.rows] == ["holds"] * 6
    assert honest.violations == []

    real = verify_module.multipass_greedy

    def tampered(*args, **kwargs):
        trace = real(*args, **kwargs)
        # claim the whole output as one independent set
        trace.meta["independent_sets"] = [trace.final]
        return trace

    monkeypatch.setattr(verify_module, "multipass_greedy", tampered)
    report = audit_problem2(trials=6, seed=2, p=2, n=7)
    dependent = 0
    for row, before in zip(report.rows, honest.rows):
        assert row.measured == before.measured  # the value half still holds
        bundle = load_bundle(row.doc)
        final = real(bundle["objective"], bundle["system"], 0.1).final
        if bundle["system"].indep(final):
            assert row.verdict == "holds"
        else:
            dependent += 1
            assert row.verdict == "violated" and row.doc in report.violations
    assert dependent > 0
