"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
"""

import math
from contextlib import contextmanager

import numpy as np

from submodlab.algorithms import (bicriteria_rounds, frank_wolfe,
                                  masked_frank_wolfe, multipass_greedy,
                                  random_greedy_dummies,
                                  random_greedy_intersection)
from submodlab.continuous import (BoxPolytope, CardinalityPolytope,
                                  KnapsackPolytope, PartitionPolytope,
                                  SumOracle, masked_update,
                                  random_quadratic_dr, random_sqrt_linear,
                                  random_weak_quadratic, unit_box,
                                  weak_dr_gamma)
from submodlab.matroids import (PSystem, random_graphic_matroid,
                                random_partition_matroid)
from submodlab.oracles import (measure_ratios, random_coverage,
                               random_modular, random_perturbed)
from submodlab.serialization import canonical_json, load_bundle, to_doc
from submodlab.verify import (audit_problem4, audit_problem5,
                              brute_force_opt_set, dummy_greedy_expectation,
                              grid_opt, intersection_greedy_expectation,
                              problem1_report, problem3_report, run_audit)

from helpers import (DummyGreedyProcess, dag_walk, grad_check, mean_and_se,
                     random_uniform_matroid, verify_matroid_axioms)


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} [{label}]: FAIL")
        raise
    print(f"\nACCEPTANCE {num} [{label}]: PASS")


def test_acceptance_1_multipass_bicriteria_bound():
    with criterion(1, "multipass greedy reaches (1-eps)*OPT, zero violations"):
        n = 10
        checked = 0
        for p in (1, 2, 3):
            for eps in (0.5, 0.25, 0.1):
                rounds = bicriteria_rounds(p, eps)
                if p == 1:
                    assert rounds == math.ceil(math.log2(1.0 / eps))
                for trial in range(50):
                    seed = 10_000 * p + 100 * int(eps * 100) + trial
                    f = random_coverage(n, seed)
                    system = PSystem(
                        [random_partition_matroid(n, seed + 7 * (j + 1))
                         for j in range(p)])
                    trace = multipass_greedy(f, system, eps)
                    assert trace.meta["rounds"] == rounds
                    assert trace.meta["certificate_ok"]
                    opt = brute_force_opt_set(f, system.indep_table())
                    tol = 1e-9 * max(1.0, opt.value)
                    assert trace.value >= (1.0 - eps) * opt.value - tol, \
                        (p, eps, trial, trace.value, opt.value)
                    checked += 1
        assert checked == 450


def test_acceptance_2_masked_frank_wolfe_split_bound():
    with criterion(2, "masked FW beats (1-1/e)G + (1/e)H - err - radius"):
        for seed in range(20):
            n = 3 + (seed % 2)
            g = random_quadratic_dr(n, 1000 + seed, monotone=True)
            h = random_quadratic_dr(n, 2000 + seed, monotone=False)
            polytope = CardinalityPolytope(n, max(1, n // 2)) if seed % 2 \
                else unit_box(n)
            trace = masked_frank_wolfe(g, h, polytope, 0.02)
            cert = grid_opt(SumOracle([g, h]), polytope, 0.05)
            report = problem1_report(trace, g, h, polytope, cert,
                                     instance_id=f"p1-{seed}")
            assert report.verdict == "holds", (seed, report)


def test_acceptance_3_frank_wolfe_weak_dr_bound():
    with criterion(3, "FW beats (1-e^-gamma)*OPT_upper - L/2K - radius"):
        for seed in range(20):
            n = 3 + (seed % 2)
            if seed < 10:
                f = random_quadratic_dr(n, 3000 + seed, monotone=True)
            else:
                f = random_weak_quadratic(n, 3000 + seed)
            polytope = CardinalityPolytope(n, max(1, n // 2)) \
                if seed % 4 >= 2 else unit_box(n)
            gamma = weak_dr_gamma(f, samples=2000, seed=seed)
            if seed < 10:
                assert gamma == 1.0  # DR families recover the classic factor
            else:
                assert gamma < 1.0
            trace = frank_wolfe(f, polytope, 200, declared_gamma=gamma)
            cert = grid_opt(f, polytope, 0.05)
            report = problem3_report(trace, gamma, f, cert,
                                     instance_id=f"p3-{seed}")
            assert report.verdict == "holds", (seed, gamma, report)


def test_acceptance_4_claimed_bound_audits():
    with criterion(4, "exact-expectation audits of the two claimed bounds"):
        p4 = audit_problem4(trials=15, seed=41, n=5, k=2)
        p5 = audit_problem5(trials=12, seed=42, n=6)
        for report, needed in ((p4, {"gamma", "m", "k", "n"}),
                               (p5, {"gamma", "n"})):
            assert len(report.rows) in (15, 12)
            for t, row in enumerate(report.rows):
                assert needed <= set(row.params)
                assert row.verdict in ("holds", "violated", "trivial")
                assert report.document(t)["kind"] == "bundle"
            assert report.min_ratio is not None
            summary = report.summary()
            assert set(summary) >= {"bound", "provenance", "instances",
                                    "violations", "min_ratio"}
        # every violating instance must replay to the identical expectation
        for t, row in enumerate(p4.rows):
            bundle = load_bundle(p4.document(t))
            proc = DummyGreedyProcess(bundle["objective"], row.params["k"])
            assert dag_walk(proc) == row.measured
        for t, row in enumerate(p5.rows):
            bundle = load_bundle(p5.document(t))
            system = PSystem([bundle["matroid1"], bundle["matroid2"]])
            assert intersection_greedy_expectation(
                bundle["objective"], system) == row.measured
        # report determinism under a fixed seed
        again = audit_problem4(trials=15, seed=41, n=5, k=2)
        assert [(r.instance_id, r.measured, r.opt, r.threshold)
                for r in p4.rows] == \
            [(r.instance_id, r.measured, r.opt, r.threshold)
             for r in again.rows]


def _sample_members(polytope, count, rng):
    x = rng.uniform(0.0, 1.0, (count, polytope.n))
    if isinstance(polytope, BoxPolytope):
        return x * polytope.upper[None, :]
    if isinstance(polytope, CardinalityPolytope):
        total = x.sum(axis=1, keepdims=True)
        scale = np.minimum(1.0, polytope.k / np.maximum(total, 1e-12))
        return x * scale
    if isinstance(polytope, PartitionPolytope):
        for b, c in zip(polytope.blocks, polytope.caps):
            idx = list(b)
            total = x[:, idx].sum(axis=1, keepdims=True)
            scale = np.minimum(1.0, c / np.maximum(total, 1e-12))
            x[:, idx] = x[:, idx] * scale
        return x
    if isinstance(polytope, KnapsackPolytope):
        total = (x @ polytope.costs)[:, None]
        scale = np.minimum(1.0, polytope.budget / np.maximum(total, 1e-12))
        return x * scale
    raise AssertionError


def test_acceptance_5_property_suites():
    with criterion(5, "property suites (mask bound, axioms, LMO, gradients, "
                      "ratios, expectations, determinism)"):
        rng = np.random.default_rng(0)

        # mask-bound invariant over 10^4 random direction sequences
        eps = 0.137
        y = np.zeros((10_000, 5))
        for i in range(12):
            s = rng.uniform(0.0, 1.0, (10_000, 5))
            y = y + eps * (1.0 - y) * s
            cap = 1.0 - (1.0 - eps) ** (i + 1)
            assert float(y.max()) <= cap + 1e-12
        one = masked_update(np.zeros(5), np.ones(5), eps)
        assert np.allclose(one, eps)

        # matroid axioms, exhaustive at n <= 10
        for seed in range(4):
            assert verify_matroid_axioms(random_uniform_matroid(10, seed)) is None
            assert verify_matroid_axioms(random_partition_matroid(10, seed)) is None
            assert verify_matroid_axioms(random_graphic_matroid(9, seed)) is None

        # LMO optimality against 10^4 sampled members per polytope family
        for polytope in (unit_box(5), CardinalityPolytope(5, 2),
                         PartitionPolytope([[0, 1, 2], [3, 4]], [1, 1]),
                         KnapsackPolytope([1.0, 0.5, 2.0, 1.5, 0.7], 2.0)):
            members = _sample_members(polytope, 10_000, rng)
            assert polytope.member_many(members).all()
            for _ in range(5):
                c = rng.normal(size=5)
                best = float(polytope.lmo(c) @ c)
                assert best >= float((members @ c).max()) - 1e-9

        # analytic gradients vs central differences, 10^3 points per family
        oracle_families = [
            random_quadratic_dr(4, 11, monotone=True),
            random_quadratic_dr(4, 12, monotone=False),
            random_weak_quadratic(4, 13),
            random_sqrt_linear(4, 14),
            SumOracle([random_quadratic_dr(5, 15),
                       random_sqrt_linear(5, 16)]),
        ]
        for f in oracle_families:
            pts = rng.uniform(0.0, 1.0, (1000, f.n))
            worst = max(grad_check(f, x, step=1e-4) for x in pts)
            assert worst <= 1e-5, (f.family, worst)

        # monotone families measure m = 1, coverage families gamma = 1, exact
        for seed in range(6):
            cov = measure_ratios(random_coverage(8, seed))
            assert cov.m == 1.0 and cov.gamma == 1.0
            assert measure_ratios(random_modular(8, seed)).m == 1.0
            mono = measure_ratios(random_perturbed(8, 0.3, seed, monotone=True))
            assert mono.m == 1.0

        # exact expectations vs the runners over seeds 0..1999, 20
        # cross-checks, 3 SE each
        for check in range(20):
            if check % 2 == 0:
                f = random_coverage(5, 100 + check) if check % 4 == 0 \
                    else random_perturbed(5, 0.3, 100 + check, monotone=True)
                k = 2 + (check // 2) % 2
                exact = dummy_greedy_expectation(f, k)
                runs = [random_greedy_dummies(f, k, seed=s)
                        for s in range(2000)]
            else:
                f = random_coverage(6, 100 + check)
                m1 = random_partition_matroid(6, 200 + check)
                m2 = random_partition_matroid(6, 300 + check)
                exact = intersection_greedy_expectation(f, PSystem([m1, m2]))
                runs = [random_greedy_intersection(f, m1, m2, seed=s)
                        for s in range(2000)]
            mean, se = mean_and_se([t.value for t in runs])
            assert abs(mean - exact) <= 3.0 * max(se, 1e-12), (check, mean, exact)

        # trace/seed determinism, byte-exact
        f = random_coverage(6, 500)
        t1 = random_greedy_dummies(f, 3, seed=9)
        t2 = random_greedy_dummies(f, 3, seed=9)
        assert canonical_json(to_doc(t1)) == canonical_json(to_doc(t2))
        m1 = random_partition_matroid(6, 501)
        m2 = random_partition_matroid(6, 502)
        fm = random_perturbed(6, 0.2, 503, monotone=True)
        t3 = random_greedy_intersection(fm, m1, m2, seed=4)
        t4 = random_greedy_intersection(fm, m1, m2, seed=4)
        assert canonical_json(to_doc(t3)) == canonical_json(to_doc(t4))


def test_acceptance_6_round_count_conjecture_audit():
    with criterion(6, "authors'-conjecture round-count audit, reproducible"):
        for p in (2, 3):
            report = run_audit("problem2-authors-conjecture", trials=100,
                               seed=60 + p, p=p, epsilon=0.1, n=8)
            assert len(report.rows) == 100
            for row in report.rows:
                q = row.params
                assert (q["p"], q["epsilon"]) == (p, 0.1)
                assert q["rounds_conjecture"] <= q["rounds_multipass"]
                assert row.opt > 0.0
                assert q["first_round_reaching"] is None or \
                    1 <= q["first_round_reaching"] <= q["rounds_multipass"]
            again = run_audit("problem2-authors-conjecture", trials=100,
                              seed=60 + p, p=p, epsilon=0.1, n=8)
            assert [r.measured for r in report.rows] == \
                [r.measured for r in again.rows]
            summary = report.summary()
            assert set(summary) >= {"bound", "instances", "violations",
                                    "min_ratio"}
            assert 0.0 <= summary["violations"] / summary["instances"] <= 1.0
            print(f"  conjecture audit p={p}: {summary}")
