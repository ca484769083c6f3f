import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submodlab.continuous import (BoxPolytope, CardinalityPolytope,
                                  KnapsackPolytope, MultilinearOracle,
                                  PartitionPolytope, QuadraticOracle,
                                  SqrtLinearOracle, dr_check, grad_check,
                                  masked_update, random_quadratic_dr,
                                  random_sqrt_linear, random_weak_quadratic,
                                  unit_box, weak_dr_gamma)
from submodlab.oracles import random_coverage, random_cut

POLYTOPE_FAMILIES = [
    unit_box(4),
    BoxPolytope([1.0, 0.5, 0.8, 1.0]),
    CardinalityPolytope(4, 2),
    PartitionPolytope([[0, 1], [2, 3]], [1, 1]),
    KnapsackPolytope([1.0, 2.0, 0.5, 1.5], 2.5),
]


def linear_oracle(b):
    return QuadraticOracle(b, np.zeros((len(b), len(b))))


def random_member(polytope, rng):
    x = rng.uniform(0.0, 1.0, polytope.n)
    if isinstance(polytope, BoxPolytope):
        return x * polytope.upper
    if isinstance(polytope, CardinalityPolytope):
        total = x.sum()
        return x if total <= polytope.k else x * (polytope.k / total)
    if isinstance(polytope, PartitionPolytope):
        for b, c in zip(polytope.blocks, polytope.caps):
            idx = list(b)
            total = x[idx].sum()
            if total > c:
                x[idx] *= c / total
        return x
    if isinstance(polytope, KnapsackPolytope):
        total = float(polytope.costs @ x)
        return x if total <= polytope.budget else x * (polytope.budget / total)
    raise AssertionError


def test_lmo_box_sign_pattern():
    assert np.array_equal(unit_box(2).lmo([1.0, -1.0]), [1.0, 0.0])


def test_lmo_cardinality_top_one():
    assert np.array_equal(CardinalityPolytope(3, 1).lmo([2.0, 5.0, 1.0]),
                          [0.0, 1.0, 0.0])


def test_lmo_knapsack_fractional_greedy():
    p = KnapsackPolytope([1.0, 2.0], 2.0)
    got = p.lmo([3.0, 3.0])
    assert np.allclose(got, [1.0, 0.5])
    # dense-grid verification of optimality
    grid = np.stack(np.meshgrid(np.linspace(0, 1, 51), np.linspace(0, 1, 51)),
                    axis=-1).reshape(-1, 2)
    members = grid[p.member_many(grid)]
    assert (members @ np.array([3.0, 3.0])).max() <= got @ [3.0, 3.0] + 1e-9


def test_lmo_optimality_against_sampled_members():
    rng = np.random.default_rng(7)
    for polytope in POLYTOPE_FAMILIES:
        for _ in range(40):
            c = rng.normal(size=polytope.n)
            best = float(polytope.lmo(c) @ c)
            members = np.array([random_member(polytope, rng)
                                for _ in range(50)])
            assert polytope.member_many(members).all()
            assert best >= float((members @ c).max()) - 1e-9


def test_down_closedness_sampled():
    rng = np.random.default_rng(3)
    for polytope in POLYTOPE_FAMILIES:
        for _ in range(200):
            x = random_member(polytope, rng)
            y = x * rng.uniform(0.0, 1.0, polytope.n)
            assert polytope.member(y)


def test_lmo_vertices_within_diameter():
    rng = np.random.default_rng(11)
    for polytope in POLYTOPE_FAMILIES:
        for _ in range(200):
            v = polytope.lmo(rng.normal(size=polytope.n))
            assert float(np.linalg.norm(v)) <= polytope.diameter + 1e-9


def test_masked_update_examples():
    n = 3
    assert np.array_equal(masked_update(np.zeros(n), np.ones(n), 0.5),
                          np.full(n, 0.5))
    y = np.array([0.2, 0.7, 0.0])
    assert np.array_equal(masked_update(y, np.zeros(n), 0.3), y)
    got = masked_update(np.full(n, 0.5), np.ones(n), 0.5)
    assert np.allclose(got, 1.0 - (1.0 - 0.5) ** 2)


def test_masked_update_rejects_bad_inputs():
    with pytest.raises(ValueError):
        masked_update(np.array([1.5]), np.array([0.5]), 0.5)
    with pytest.raises(ValueError):
        masked_update(np.array([0.5]), np.array([0.5]), 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 1.0), st.integers(1, 30))
def test_mask_bound_invariant(seed, eps, rounds):
    rng = np.random.default_rng(seed)
    y = np.zeros(4)
    for i in range(rounds):
        s = rng.uniform(0.0, 1.0, 4)
        y = masked_update(y, s, eps)
        cap = 1.0 - (1.0 - eps) ** (i + 1)
        assert (y <= cap + 1e-12).all()


def test_grad_check_linear_is_exact():
    f = linear_oracle(np.array([0.7, 1.3, 0.2]))
    assert grad_check(f, np.full(3, 0.4)) <= 1e-9


def test_grad_check_quadratic():
    f = random_quadratic_dr(5, 1, monotone=True)
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert grad_check(f, rng.uniform(0, 1, 5), step=1e-4) <= 1e-5


def test_grad_check_multilinear_at_perturbed_indicator():
    ml = MultilinearOracle(random_coverage(6, 5))
    x = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]) * 0.98 + 0.01
    assert grad_check(ml, x, step=1e-4) <= 1e-6


def test_dr_check_linear_and_quadratic():
    assert dr_check(linear_oracle(np.array([1.0, 2.0])), 100, 0)[0]
    assert dr_check(random_quadratic_dr(4, 3, monotone=True), 200, 1)[0]
    assert dr_check(random_quadratic_dr(4, 4, monotone=False), 200, 2)[0]


def test_dr_check_catches_positive_interaction():
    a = np.zeros((2, 2))
    a[0, 1] = a[1, 0] = 0.5
    f = QuadraticOracle([1.0, 1.0], a)
    ok, witness = dr_check(f, 100, 0)
    assert not ok and witness is not None
    x, y, coord = witness
    assert coord in (0, 1) and len(x) == 2 and len(y) == 2


def test_weak_dr_gamma_linear_is_one():
    assert weak_dr_gamma(linear_oracle(np.array([1.0, 0.5, 2.0])), 500, 0) == 1.0


def test_weak_dr_gamma_dr_quadratic_is_one():
    assert weak_dr_gamma(random_quadratic_dr(4, 6, monotone=True), 800, 0) == 1.0


def test_weak_dr_gamma_weak_family_below_one():
    g = weak_dr_gamma(random_weak_quadratic(4, 7), 2000, 0)
    assert 0.0 < g < 1.0


def test_weak_dr_gamma_sqrt_linear_is_one():
    # sqrt of a modular term has an antitone gradient, hence ratio one
    assert weak_dr_gamma(random_sqrt_linear(4, 8), 800, 0) == 1.0


def test_weak_dr_gamma_requires_monotone():
    with pytest.raises(ValueError):
        weak_dr_gamma(random_quadratic_dr(3, 9, monotone=False))


def test_multilinear_matches_base_exactly():
    f = random_coverage(8, 13)
    ml = MultilinearOracle(f)
    for mask in range(1 << 8):
        x = np.array([(mask >> u) & 1 for u in range(8)], dtype=float)
        assert ml.value(x) == f.value_mask(mask)


def test_multilinear_of_cut_matches_too():
    f = random_cut(6, 14)
    ml = MultilinearOracle(f)
    for mask in range(1 << 6):
        x = np.array([(mask >> u) & 1 for u in range(6)], dtype=float)
        assert ml.value(x) == f.value_mask(mask)


def test_certified_smoothness_bounds_sampled_ratios():
    rng = np.random.default_rng(4)
    oracles = [random_quadratic_dr(4, 1, monotone=True),
               random_quadratic_dr(4, 2, monotone=False),
               random_weak_quadratic(4, 3),
               random_sqrt_linear(4, 4),
               MultilinearOracle(random_coverage(5, 5))]
    for f in oracles:
        for _ in range(150):
            x = rng.uniform(0, 1, f.n)
            y = rng.uniform(0, 1, f.n)
            dist = float(np.linalg.norm(x - y))
            if dist < 1e-9:
                continue
            ratio = float(np.linalg.norm(f.grad(x) - f.grad(y))) / dist
            assert ratio <= f.smoothness + 1e-9
            assert float(np.linalg.norm(f.grad(x))) <= f.value_lipschitz + 1e-9


def test_quadratic_families_are_certified():
    g = random_quadratic_dr(5, 21, monotone=True)
    assert g.monotone and g.dr
    h = random_quadratic_dr(5, 22, monotone=False)
    assert not h.monotone and h.dr
    rng = np.random.default_rng(1)
    for _ in range(300):
        assert h.value(rng.uniform(0, 1, 5)) >= -1e-9
    w = random_weak_quadratic(5, 23)
    assert w.monotone and not w.dr


def test_quadratic_rejects_uncertifiable():
    with pytest.raises(ValueError):
        QuadraticOracle([1.0, 1.0], np.array([[0.5, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        # too negative: value at the full vertex dips below zero
        QuadraticOracle([0.1, 0.1], np.array([[0.0, -3.0], [-3.0, 0.0]]))


def test_sqrt_linear_needs_positive_shift():
    with pytest.raises(ValueError):
        SqrtLinearOracle([1.0, 1.0], shift=0.0)
