from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from submodlab import continuous
from submodlab.continuous import (BoxPolytope, CardinalityPolytope,
                                  KnapsackPolytope, PartitionPolytope,
                                  QuadraticOracle, SqrtLinearOracle, SumOracle,
                                  _sample_ordered_pairs, _weak_dr_screen,
                                  masked_update, random_quadratic_dr,
                                  random_sqrt_linear, random_weak_quadratic,
                                  unit_box, weak_dr_gamma)
from submodlab.oracles import REL_TOL, _allowance, subset_bits

from helpers import (dr_check, grad_check, grid_polytope, in_cube_ref,
                     kernel_bits_differ, knapsack_diameter_ref,
                     quadratic_vertex_values_ref, weak_dr_gamma_ref)

POLYTOPE_FAMILIES = [
    unit_box(4),
    BoxPolytope([1.0, 0.5, 0.8, 1.0]),
    CardinalityPolytope(4, 2),
    PartitionPolytope([[0, 1], [2, 3]], [1, 1]),
    KnapsackPolytope([1.0, 2.0, 0.5, 1.5], 2.5),
]


def linear_oracle(b):
    return QuadraticOracle(b, np.zeros((len(b), len(b))))


MONOTONE_FAMILIES = ["quadratic-dr", "quadratic-weak", "sqrt-linear", "sum"]


def family_oracle(family, n, seed):
    if family == "quadratic-dr":
        return random_quadratic_dr(n, seed, monotone=True)
    if family == "quadratic-non-monotone":
        return random_quadratic_dr(n, seed, monotone=False)
    if family == "quadratic-weak":
        return random_weak_quadratic(n, seed)
    if family == "sqrt-linear":
        return random_sqrt_linear(n, seed)
    return SumOracle([random_quadratic_dr(n, seed),
                      random_sqrt_linear(n, seed + 1)])


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


def _rows_and_slack(polytope):
    """The rows M x <= c beyond the box, each as (M, c, slack), written out
    from the polytope's own parameters: the slack is ``_allowance(c)``."""
    if isinstance(polytope, CardinalityPolytope):
        return [(np.ones(polytope.n), polytope.k, _allowance(polytope.k))]
    if isinstance(polytope, PartitionPolytope):
        out = []
        for b, cap in zip(polytope.blocks, polytope.caps):
            row = np.zeros(polytope.n)
            row[list(b)] = 1.0
            out.append((row, cap, _allowance(cap)))
        return out
    if isinstance(polytope, KnapsackPolytope):
        budget = polytope.budget
        return [(polytope.costs, budget, _allowance(budget))]
    return []


@pytest.mark.parametrize("polytope", POLYTOPE_FAMILIES[1:],
                         ids=lambda p: p.family)
def test_member_needs_a_point_of_the_polytope_dimension(polytope):
    # the box broadcast a one-coordinate point over its n rows and read it
    # as a member; the row families raised a matmul or broadcast error
    n = polytope.n
    for point in ([0.5], np.zeros(n + 1), np.zeros((1, n))):
        with pytest.raises(ValueError,
                           match=f"expected a point in dimension {n}"):
            polytope.member(point)
    assert polytope.member(np.zeros(n))
    assert not polytope.member(np.full(n, 2.0))
    assert not polytope.member(np.full(n, -1.0))


@pytest.mark.parametrize("n, points, message", [
    (3, [[0.5]], "expected points in dimension 3"),
    (2, [["0.5", "0.5"]], "points: '0.5' is not a number"),
    (2, [[True, True]], "points: True is not a number"),
], ids=["width", "string", "bool"])
def test_member_many_needs_rows_of_numbers_in_the_polytope_dimension(
        n, points, message):
    # each read as [True]: the one-coordinate row broadcast over the box,
    # and the string and the bools were parsed as floats
    with pytest.raises(ValueError) as info:
        unit_box(n).member_many(points)
    assert str(info.value) == message


@pytest.mark.parametrize("polytope", POLYTOPE_FAMILIES,
                         ids=lambda p: p.family)
def test_lmo_rejects_a_non_finite_or_wrong_length_objective(polytope):
    n = polytope.n
    for bad in (np.inf, -np.inf, np.nan):
        c = np.ones(n)
        c[n // 2] = bad
        with pytest.raises(ValueError, match="objective vector must be "
                                             "finite of matching size"):
            polytope.lmo(c)
    for c in (np.ones(n + 1), np.ones(n - 1), np.ones((1, n))):
        with pytest.raises(ValueError, match="objective vector must be "
                                             "finite of matching size"):
            polytope.lmo(c)


@pytest.mark.parametrize("polytope", POLYTOPE_FAMILIES + [
    KnapsackPolytope([0.05, 0.1], 0.1)], ids=lambda p: p.family)
def test_membership_slack_at_box_faces_and_rows(polytope):
    # on a face or a row: in; half the slack past it: in; twice: out
    n, tol = polytope.n, REL_TOL  # the box in cube coordinates
    upper = polytope.upper if isinstance(polytope, BoxPolytope) \
        else np.ones(n)
    points, want = [], []
    for j in range(n):
        top = np.zeros(n)
        top[j] = upper[j]
        points += [np.zeros(n), top]
        want += [True, True]
        for t, inside in ((0.5, True), (2.0, False)):
            below, above = np.zeros(n), top.copy()
            below[j] -= t * tol
            above[j] += t * tol
            points += [below, above]
            want += [inside, inside]
    for row, cap, slack in _rows_and_slack(polytope):
        edge = polytope.lmo(row)
        assert float(edge @ row) == cap
        j = int(np.flatnonzero((edge < 1.0) & (row > 0.0))[0])
        points.append(edge)
        want.append(True)
        for t, inside in ((0.5, True), (2.0, False)):
            past = edge.copy()
            past[j] += t * slack / row[j]
            points.append(past)
            want.append(inside)
    assert polytope.member_many(np.array(points)).tolist() == want
    assert [polytope.member(x) for x in points] == want


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.data(), st.integers(0, 10_000))
def test_cardinality_is_a_one_block_partition(n, data, seed):
    k = data.draw(st.integers(0, n + 1))
    card = CardinalityPolytope(n, k)
    part = PartitionPolytope([range(n)], [k])
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (60, n))
    near = x * ((k + rng.uniform(-3e-9, 3e-9, (60, 1)))
                / np.maximum(x.sum(axis=1, keepdims=True), 1e-12))
    pts = np.vstack([x, near, rng.uniform(-3e-9, 1.0 + 3e-9, (60, n))])
    assert np.array_equal(card.member_many(pts), part.member_many(pts))
    for c in np.round(rng.normal(size=(20, n)), 1):
        assert np.array_equal(card.lmo(c), part.lmo(c))
    assert card.diameter == part.diameter
    for got, want in zip(card.linear_rows(), part.linear_rows()):
        assert got.tobytes() == want.tobytes() and got.shape == want.shape


NON_INTEGERS = [2.5, 2.0, True, np.True_, "2"]


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_cardinality_polytope_takes_an_integer_k_only(bad):
    assert CardinalityPolytope(3, np.int64(2)).k == 2
    with pytest.raises(ValueError, match="must be integers"):
        CardinalityPolytope(3, bad)


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_cardinality_polytope_takes_an_integer_n_only(bad):
    # n = True was read as a one-element ground set
    assert CardinalityPolytope(np.int64(3), 2).n == 3
    with pytest.raises(ValueError, match="ground-set sizes must be integers"):
        CardinalityPolytope(bad, 1)


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_partition_polytope_takes_integer_elements_and_caps_only(bad):
    p = PartitionPolytope([[np.int64(1)], [0]], [np.int64(1), 2])
    assert p.blocks == ((1,), (0,)) and p.caps == (1, 2)
    for blocks, caps in (([[0], [1]], [1.7, True]), ([[0], [1]], [1, bad]),
                         ([[bad], [0]], [1, 1])):
        with pytest.raises(ValueError, match="must be integers"):
            PartitionPolytope(blocks, caps)


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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000),
       st.sampled_from([1.0, 0.5, 0.3, 0.02, 1.0 / 3.0]))
def test_masked_update_is_the_array_formula(n, seed, step):
    # the list step gives the bits of the array formula it replaced
    rng = np.random.default_rng(seed)
    y, s = rng.uniform(0.0, 1.0, (2, n))
    y[rng.uniform(size=n) < 0.3] = 1.0
    s[rng.uniform(size=n) < 0.3] = 0.0
    want = np.minimum(1.0, y + step * (1.0 - y) * s)
    assert masked_update(y, s, step).tobytes() == want.tobytes()


def test_masked_update_rejects_bad_inputs():
    with pytest.raises(ValueError):
        masked_update(np.array([1.5]), np.array([0.5]), 0.5)
    with pytest.raises(ValueError):
        masked_update(np.array([0.5]), np.array([0.5]), 0.0)
    with pytest.raises(ValueError, match="^dimension needs at least one "
                       "coordinate$"):
        masked_update(np.array([]), np.array([]), 0.5)
    with pytest.raises(ValueError, match="^expected a point in dimension 2$"):
        masked_update(np.zeros(2), np.zeros(3), 0.5)
    # the cube rule of every oracle point: 1e-9 of slack, then a clip
    assert np.array_equal(
        masked_update(np.array([1.0 + 1e-10]), np.array([-1e-10]), 0.5), [1.0])


@pytest.mark.parametrize("y, s", [
    ([np.nan, 0.2], [1.0, 1.0]),
    ([0.2, 0.4], [1.0, np.nan]),
])
def test_masked_update_rejects_nan(y, s):
    # a NaN fails every comparison, so the cube check must not read a
    # comparison's False as "inside"
    with pytest.raises(ValueError, match="unit cube"):
        masked_update(np.array(y), np.array(s), 0.5)


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


def test_dr_check_linear_and_quadratic():
    assert dr_check(linear_oracle(np.array([1.0, 2.0])), 100, 0)[0]
    for seed, monotone in ((3, True), (4, False)):
        f = random_quadratic_dr(4, seed, monotone=monotone)
        # the certified flag (A <= 0 entrywise) and the sampled reference
        assert f.dr and dr_check(f, 200, seed - 2)[0]


@pytest.mark.parametrize("monotone", [True, False])
def test_random_quadratic_dr_is_dr_at_every_seed(monotone):
    # the quadratic-dr family scales nonpositive interactions by a positive
    # factor, so gen's documents need not state that the oracle is DR
    # (its loader recomputes the flag from a)
    assert all(random_quadratic_dr(n, seed, monotone=monotone).dr
               for n in range(1, 7) for seed in range(60))


def test_dr_check_catches_positive_interaction():
    a = np.zeros((2, 2))
    a[0, 1] = a[1, 0] = 0.5
    f = QuadraticOracle([1.0, 1.0], a)
    ok, witness = dr_check(f, 100, 0)
    assert not f.dr and not ok and witness is not None
    x, y, coord = witness
    assert coord in (0, 1) and len(x) == 2 and len(y) == 2


def test_weak_dr_gamma_linear_is_one():
    assert weak_dr_gamma(linear_oracle(np.array([1.0, 0.5, 2.0])), 500, 0) == 1.0


def test_weak_dr_gamma_dr_quadratic_is_one():
    assert weak_dr_gamma(random_quadratic_dr(4, 6, monotone=True), 800, 0) == 1.0


def test_weak_dr_gamma_weak_family_below_one():
    g = weak_dr_gamma(random_weak_quadratic(4, 7), 2000, 0)
    assert 0.0 < g < 1.0


def test_weak_family_is_dr_at_a_few_seeds():
    # every interaction of these draws came out nonpositive; at n = 3 four
    # odd seeds, problem 3's weak instances, build a DR quadratic
    counts = [sum(random_weak_quadratic(n, seed).dr for seed in range(200))
              for n in (2, 3, 4, 5)]
    assert counts == [70, 7, 1, 0]
    assert [seed for seed in range(1, 200, 2)
            if random_weak_quadratic(3, seed).dr] == [29, 57, 79, 115]


def test_weak_dr_gamma_sqrt_linear_is_one():
    # sqrt of a modular term has an antitone gradient, hence ratio one
    assert weak_dr_gamma(random_sqrt_linear(4, 8), 800, 0) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.sampled_from(MONOTONE_FAMILIES),
       st.sampled_from([1, 2, 7, 300, 1500]), st.integers(0, 10_000))
def test_weak_dr_gamma_matches_the_per_pair_loop(n, family, samples, seed):
    # the batched screen rechecks only the pairs near its minimum, and
    # must still give the per-pair loop's result bit for bit
    f = family_oracle(family, n, seed)
    got = weak_dr_gamma(f, samples, seed)
    assert repr(got) == repr(weak_dr_gamma_ref(f, samples, seed))
    # each batched ratio lies within half its window of the per-pair one
    lo, hi = _sample_ordered_pairs(n, samples, np.random.default_rng(seed))
    denom = f.value_many(hi) - f.value_many(lo)
    keep = denom > 1e-6
    ratios, window = _weak_dr_screen(f, lo[keep], hi[keep], denom[keep])
    exact = [float((y - x) @ f.grad(x)) / d
             for x, y, d in zip(lo[keep], hi[keep], denom[keep])]
    assert (np.abs(ratios - exact) <= window / 2).all()


@pytest.mark.parametrize("samples", [0, -1, 2.5, True, "3"])
def test_weak_dr_gamma_needs_a_positive_integer_sample_count(samples):
    # 0 raised IndexError on the empty sample array; 2.5 and True raised
    # TypeError
    f = random_quadratic_dr(3, 9, monotone=True)
    with pytest.raises(ValueError, match="sample counts must be"):
        weak_dr_gamma(f, samples, 0)
    assert weak_dr_gamma(f, np.int64(1), 0) == weak_dr_gamma(f, 1, 0)


def test_weak_dr_gamma_requires_monotone():
    with pytest.raises(ValueError):
        weak_dr_gamma(random_quadratic_dr(3, 9, monotone=False))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_value_many_rows_do_not_depend_on_the_batch(n):
    # grid_opt values the same grid point in batches of different sizes
    # and must get the same bits each time
    families = [random_quadratic_dr(n, 1, monotone=False),
                random_weak_quadratic(n, 2),
                SumOracle([random_quadratic_dr(n, 3), random_sqrt_linear(n, 4)]),
                random_sqrt_linear(n, 5)]
    rng = np.random.default_rng(n)
    for f in families:
        pts = rng.uniform(0.0, 1.0, (300, n))
        batch = f.value_many(pts)
        for i in range(len(pts)):
            pair = f.value_many(pts[[i, (i + 1) % len(pts)]])
            assert pair[0] == batch[i], (f.family, i)


# each case as one point and as a batch, for n = 2, with the message of
# every query; "near" lies within the cube's 1e-9 of slack and is clipped
POINT_CASES = {
    "string": (["0.5", 0.5], [[0.5, 0.5], ["0.5", 0.5]],
               "points: '0.5' is not a number"),
    "bool": ([True, 0.5], [[0.5, 0.5], [True, 0.5]],
             "points: True is not a number"),
    "ragged": ([0.5, [0.5]], [[0.5, 0.5], [0.5]],
               "points must be a rectangular array of numbers"),
    "width": ([0.5, 0.5, 0.5], [[0.5, 0.5, 0.5]],
              "expected a point in dimension 2"),
    "outside": ([0.5, 1.0 + 1e-6], [[0.5, 0.5], [0.5, 1.0 + 1e-6]],
                "point lies outside the unit cube"),
    "nan": ([0.5, np.nan], [[0.5, 0.5], [0.5, np.nan]],
            "point lies outside the unit cube"),
    "near": ([1.0 + 1e-10, -1e-10], [[0.5, 0.5], [1.0 + 1e-10, -1e-10]],
             None),
}


@pytest.mark.parametrize("case", list(POINT_CASES))
@pytest.mark.parametrize("family", MONOTONE_FAMILIES)
@pytest.mark.parametrize("query", ["value", "grad", "value_many",
                                   "grad_many"])
def test_every_query_checks_its_points_by_one_rule(query, family, case):
    # value_many valued strings, bools and points outside the cube that
    # value rejects
    f = family_oracle(family, 2, 7)
    point, batch, message = POINT_CASES[case]
    x = batch if query.endswith("_many") else point
    if message is None:
        clipped = np.clip(np.array(x, dtype=float), 0.0, 1.0)
        assert np.array_equal(getattr(f, query)(x),
                              getattr(f, query)(clipped))
        return
    with pytest.raises(ValueError) as info:
        getattr(f, query)(x)
    assert str(info.value) == message


def test_a_sum_checks_each_batch_once(monkeypatch):
    calls = []
    check = continuous._as_points
    monkeypatch.setattr(continuous, "_as_points",
                        lambda points, n: calls.append(n) or check(points, n))
    f = SumOracle([random_quadratic_dr(3, 1), random_weak_quadratic(3, 2),
                   random_sqrt_linear(3, 3)])
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (5, 3))
    assert f.value_many(pts).shape == (5,)
    assert f.grad_many(pts).shape == (5, 3)
    assert calls == [3, 3]
    # an empty batch passes its check and has no rows
    assert f.value_many(np.zeros((0, 3))).shape == (0,)
    assert f.grad_many(np.zeros((0, 3))).shape == (0, 3)


# in [0, 1], both tolerance bands, just outside them, and the special floats
CUBE_COORDS = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 1.0, -1e-10, -1e-9, 1.0 + 1e-10,
                     1.0 + 1e-9, -1e-8, 1.0 + 1e-8, np.nan, np.inf,
                     -np.inf, 5e-324, -5e-324]))


def _cube_result(check, x):
    try:
        out = check(x)
    except ValueError as err:
        return "error", str(err)
    return out.shape, out.dtype, out.flags.c_contiguous, out.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.data(),
       st.sampled_from(["point", "matrix", "strided", "fortran"]))
def test_in_cube_matches_the_clipping_reference(n, rows, data, layout):
    flat = data.draw(st.lists(CUBE_COORDS, min_size=2 * rows * n,
                              max_size=2 * rows * n))
    x = np.array(flat).reshape(2 * rows, n)
    x = {"point": x[0], "matrix": x[:rows], "strided": x[::2, 0],
         "fortran": np.asfortranarray(x[:rows])}[layout]
    before = x.tobytes()
    assert _cube_result(continuous._in_cube, x) == _cube_result(in_cube_ref, x)
    assert x.tobytes() == before


@pytest.mark.parametrize("coords", [
    [0.25, 1.0, 0.0], [0.5, -0.0, 1.0], [0.5, np.nan, 0.5],
    [np.nan, 0.5, 0.5], [0.5, -1e-10, 0.5], [1.0 + 2e-9, 0.5, 0.5]],
    ids=["in cube", "-0.0", "nan", "leading nan", "clipped", "raises"])
@pytest.mark.parametrize("layout", ["point", "strided", "matrix"])
def test_in_cube_cases_match_the_clipping_reference(coords, layout):
    # one rule for a point, a strided view and a matrix: the clip's bits,
    # and a C-contiguous array already in the cube returned as it is
    x = {"point": np.array(coords),
         "strided": np.array([[v, 0.5] for v in coords])[:, 0],
         "matrix": np.array([coords, [0.5] * len(coords)])}[layout]
    assert _cube_result(continuous._in_cube, x) == _cube_result(in_cube_ref, x)
    if layout != "strided" and all(0.0 <= v <= 1.0 for v in coords):
        assert continuous._in_cube(x) is x


@pytest.mark.parametrize("coord", [
    *(1.0 + k * 1e-10 for k in (-10, -1, 1, 5, 10, 11, 20)),
    *(k * -1e-10 for k in (1, 5, 10, 11, 20)),
    -0.0, np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("at", [0, 2])
def test_checked_list_is_the_point_check(coord, at):
    # the loops' check of the list they built is _as_point's rule on its
    # array: the same bits, error or clip, and the list itself unclipped
    x = [0.5, 0.25, 1.0]
    x[at] = coord
    want = _cube_result(lambda y: continuous._as_point(np.array(y), 3), x)
    assert _cube_result(lambda y: continuous._checked_list(y)[1], x) == want
    if want[0] != "error":
        got_list, got = continuous._checked_list(x)
        assert got_list == got.tolist()
        assert (got_list is x) == all(0.0 <= v <= 1.0 for v in x)


def test_one_point_kernels_are_the_matmul_forms():
    # _value and _grad reach BLAS through ndarray.dot; their bits must be
    # those of the @ forms, at random cube points and at its corners
    rng = np.random.default_rng(42)
    bad, compared = [], 0
    for n in range(1, 9):
        for seed in range(25):
            for family in ("quadratic-dr", "quadratic-non-monotone",
                           "quadratic-weak", "sqrt-linear"):
                f = family_oracle(family, n, seed)
                points = rng.uniform(0.0, 1.0, (8, n))
                points[0], points[1] = 0.0, 1.0
                for x in points:
                    compared += 1
                    bad += [(family, n, seed, kernel)
                            for kernel in kernel_bits_differ(f, x)]
    assert compared == 8 * 25 * 4 * 8
    assert bad == []


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.sampled_from(MONOTONE_FAMILIES),
       st.integers(0, 10_000), st.data())
def test_value_and_grad_bits_match_the_clipping_reference(n, family, seed,
                                                          data):
    f = family_oracle(family, n, seed)
    pts = np.array(data.draw(st.lists(CUBE_COORDS, min_size=3 * n,
                                      max_size=3 * n))).reshape(3, n)

    def outputs():
        got = []
        for x in pts:
            for call in (f.value, f.grad):
                got.append(_cube_result(lambda y: np.asarray(call(y)), x))
        got.append(_cube_result(f.grad_many, pts))
        return got

    fast = outputs()
    with mock.patch.object(continuous, "_in_cube", in_cube_ref):
        assert outputs() == fast


@pytest.mark.parametrize("build, name", [
    (lambda: QuadraticOracle([np.nan, 1.0], np.zeros((2, 2))), "b"),
    (lambda: QuadraticOracle([np.inf, 1.0], np.zeros((2, 2))), "b"),
    (lambda: QuadraticOracle([1.0, 1.0], [[0.0, np.nan], [np.nan, 0.0]]),
     "a"),
    (lambda: SqrtLinearOracle([np.nan, 1.0]), "b"),
    (lambda: SqrtLinearOracle([1.0, 1.0], shift=np.nan), "shift"),
    (lambda: BoxPolytope([np.nan, 1.0]), "upper"),
    (lambda: KnapsackPolytope([1.0, 2.0], np.inf), "budget"),
    (lambda: KnapsackPolytope([1.0, 2.0], np.nan), "budget"),
    (lambda: KnapsackPolytope([np.nan, 2.0], 1.0), "costs"),
])
def test_constructors_reject_non_finite_parameters(build, name):
    # the certified constants, and grid_opt's pruning bound, must be finite
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build()


@pytest.mark.parametrize("build", [
    lambda: QuadraticOracle([], np.zeros((0, 0))),
    lambda: SqrtLinearOracle([]),
    lambda: BoxPolytope([]),
    lambda: KnapsackPolytope([], 1.0),
    lambda: random_quadratic_dr(0, 1, monotone=True),
    lambda: random_quadratic_dr(0, 1, monotone=False),
    lambda: random_weak_quadratic(0, 1),
    lambda: random_sqrt_linear(0, 1),
])
def test_constructors_reject_dimension_zero(build):
    with pytest.raises(ValueError,
                       match="^dimension needs at least one coordinate$"):
        build()


def test_certified_smoothness_bounds_sampled_ratios():
    rng = np.random.default_rng(4)
    oracles = [random_quadratic_dr(4, 1, monotone=True),
               random_quadratic_dr(4, 2, monotone=False),
               random_weak_quadratic(4, 3),
               random_sqrt_linear(4, 4)]
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5),
       st.sampled_from(MONOTONE_FAMILIES + ["quadratic-non-monotone"]),
       st.integers(0, 10_000))
# a pair 1.5e-7 apart read 7.5e-9 relative above smoothness before the
# rounding term below
@example(1, "quadratic-dr", 275)
def test_declared_constants_bound_sampled_gradients(n, family, seed):
    # grid_opt's cell bound rests on both constants, in the Euclidean
    # norm: smoothness bounds |grad(x) - grad(y)| / |x - y| and
    # value_lipschitz bounds |grad(x)|, at the cube's vertices and inside
    f = family_oracle(family, n, seed)
    rng = np.random.default_rng(seed)
    pts = np.vstack([subset_bits(f.n), rng.uniform(0.0, 1.0, (64, f.n))])
    grads = f.grad_many(pts)
    assert np.allclose(grads, [f.grad(x) for x in pts], rtol=1e-12,
                       atol=1e-12)
    norms = np.linalg.norm(grads, axis=1)
    assert (norms <= f.value_lipschitz * (1.0 + 1e-9) + 1e-12).all()
    i, j = rng.integers(0, len(pts), (2, 300))
    dist = np.linalg.norm(pts[i] - pts[j], axis=1)
    apart = dist > 1e-9
    ratio = np.linalg.norm(grads[i] - grads[j], axis=1)[apart] / dist[apart]
    # each computed gradient entry is off by at most (n + 1) * 2^-53 *
    # (value_lipschitz + smoothness) (see weak_dr_gamma), so the difference
    # of two, over n entries, by 2 * sqrt(n) times that; close pairs
    # magnify it by 1 / |x - y|
    rounding = (2.0 * np.sqrt(f.n) * (f.n + 1) * 2.0 ** -53
                * (f.value_lipschitz + f.smoothness))
    assert (ratio <= f.smoothness * (1.0 + 1e-9) + 1e-12
            + rounding / dist[apart]).all()


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
    with pytest.raises(ValueError, match="negative at a cube vertex"):
        # F(1, 1) = -1e-13: an absolute 1e-12 certified it monotone, so the
        # vertex check was skipped
        QuadraticOracle([0.0, 0.0], [[0.0, -1e-13], [-1e-13, 0.0]])


@pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40],
                         ids=["2^-40", "1", "2^40"])
@pytest.mark.parametrize("gap, symmetric", [
    (4e-6, False), (2e-9, False), (5e-10, True), (0.0, True)],
    ids=repr)
def test_quadratic_symmetry_is_checked_relative_to_the_largest_coefficient(
        gap, symmetric, scale):
    # the allowance is REL_TOL times the largest |coefficient|, here b's 1:
    # allclose's default rtol of 1e-5 also took 4e-6 at -0.5, whose
    # gradient is then off by 2e-6, and an absolute 1e-12 took every gap
    # of a quadratic scaled by 2^-40 and refused 2e-12 at 1
    b = [scale, scale]
    a = [[-0.1 * scale, -0.5 * scale], [(-0.5 - gap) * scale, -0.1 * scale]]
    if symmetric:
        assert QuadraticOracle(b, a).monotone
    else:
        with pytest.raises(ValueError,
                           match="interaction matrix must be symmetric"):
            QuadraticOracle(b, a)


QUADRATIC_MAKERS = {
    "dr": lambda n, s: random_quadratic_dr(n, s, True),
    "nonmonotone dr": lambda n, s: random_quadratic_dr(n, s, False),
    "weak": random_weak_quadratic,
}


def _quadratic_args(make, n, seed):
    """The (b, a) that the generator ``make`` hands QuadraticOracle, read
    before the constructor checks them."""
    with mock.patch.object(continuous, "QuadraticOracle", lambda b, a: (b, a)):
        return make(n, seed)


def _certified(b, a):
    """(monotone, dr) of QuadraticOracle(b, a), or None if it refuses."""
    try:
        f = QuadraticOracle(b, a)
    except ValueError:
        return None
    return f.monotone, f.dr


@pytest.mark.parametrize("j", [-40, -20, 20, 40])
def test_certificates_are_invariant_under_power_of_two_scaling(j):
    # every check of the quadratic constructor and of a knapsack is
    # homogeneous in the instance, and scaling by 2^j is exact in floats;
    # at j = -40 absolute tolerances certified every nonmonotone DR
    # quadratic monotone and nearly every weak one DR, and a knapsack
    # admitted the all-ones point
    t = 2.0 ** j
    bad, seen = [], set()
    for n in (3, 4, 5):
        for seed in range(40):
            for family, make in QUADRATIC_MAKERS.items():
                b, a = _quadratic_args(make, n, seed)
                base = _certified(b, a)
                seen.add((family, base))
                if _certified(b * t, a * t) != base:
                    bad.append(f"{family} n = {n} seed {seed}")
    assert {("dr", (True, True)), ("nonmonotone dr", (False, True)),
            ("weak", (True, False))} <= seen
    rng = np.random.default_rng(j + 100)
    for seed in range(40):
        poly = grid_polytope("knapsack", 3 + seed % 3, seed)
        scaled = KnapsackPolytope(poly.costs * t, poly.budget * t)
        x = rng.uniform(0.0, 1.0, (200, poly.n))
        # points within a few allowances of the row, in and out of it
        near = x * (poly.budget * (1.0 + rng.uniform(-3e-9, 3e-9, (200, 1)))
                    / (x @ poly.costs)[:, None])
        pts = np.vstack([x, near, np.ones((1, poly.n))])
        if scaled.diameter != poly.diameter:
            bad.append(f"knapsack seed {seed}: diameter")
        if not np.array_equal(scaled.member_many(pts), poly.member_many(pts)):
            bad.append(f"knapsack seed {seed}: member_many")
        for c in rng.normal(size=(20, poly.n)):
            if not np.array_equal(scaled.lmo(c), poly.lmo(c)):
                bad.append(f"knapsack seed {seed}: lmo")
    assert bad == []


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.5, 8.0),
       st.booleans())
def test_quadratic_vertex_check_matches_reference(n, seed, scale, mixed):
    # DR (or, with mixed signs, weak) interactions scaled by `scale` times
    # the monotone limit, so many cases dip below zero at some vertex
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.0, 1.4, n)
    raw = rng.uniform(-1.0, 0.3 if mixed else -0.2, (n, n))
    a = (raw + raw.T) / 2.0
    np.fill_diagonal(a, -rng.uniform(0.0, 0.3, n))
    neg_row = np.minimum(a, 0.0).sum(axis=1)
    a = a * scale * float((b / -np.minimum(neg_row, -1e-3)).min())
    # the constructor's one tolerance: the allowance of the largest
    # |coefficient|
    tol = REL_TOL * max(float(np.abs(b).max()), float(np.abs(a).max()))
    negative = float(quadratic_vertex_values_ref(b, a).min()) < -tol
    if negative:
        with pytest.raises(ValueError, match="negative at a cube vertex"):
            QuadraticOracle(b, a)
    else:
        QuadraticOracle(b, a)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=8),
       st.floats(0.0, 1.0), st.integers(0, 255),
       st.sampled_from(["share", "subset", "past-subset"]))
@example([1.0], 0.5, 1, "past-subset")
def test_knapsack_diameter_matches_reference(costs, share, subset, form):
    # the budget is a share of the total cost, exactly the cost of a
    # subset, which puts vertices right on the budget, or that cost over
    # 1 + REL_TOL / 2, which puts them half an allowance past it: admitted
    # by the allowance REL_TOL * budget, refused by an absolute 1e-12
    n = len(costs)
    picked = sum(costs[u] for u in range(n) if subset >> u & 1)
    budget = {"share": share * sum(costs), "subset": picked,
              "past-subset": picked / (1.0 + REL_TOL / 2)}[form]
    got = KnapsackPolytope(costs, budget).diameter
    assert got == knapsack_diameter_ref(np.array(costs), budget)


def test_sqrt_linear_needs_positive_shift():
    with pytest.raises(ValueError):
        SqrtLinearOracle([1.0, 1.0], shift=0.0)
