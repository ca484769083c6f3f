import contextlib
import functools
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submodlab import oracles
from submodlab.matroids import UniformMatroid
from submodlab.oracles import (CoverageOracle, CutOracle, ModularOracle,
                               PerturbedOracle, elements_of, mask_of,
                               measure_ratios, random_coverage, random_cut,
                               random_modular, random_perturbed)
from submodlab.serialization import from_doc, to_doc
from submodlab.verify import (audit_problem4, brute_force_opt_set,
                              dummy_greedy_expectation)

from helpers import (TableMatroid, TableOracle, coverage_table_lsb, gamma_loop, m_loop,
                     naive_is_submodular, relabel)


def marginal(f, u, subset):
    return f.marginal_mask(u, mask_of(subset, f.n))


def test_marginal_modular_additivity():
    f = ModularOracle([1.0, 2.0, 3.0])
    assert marginal(f, 2, {0}) == 3.0


def test_marginal_zero_when_value_unchanged():
    # element 1 covers a subset of what element 0 covers
    from submodlab.oracles import CoverageOracle
    f = CoverageOracle(2, [[0, 1], [1]], [1.0, 2.0])
    assert marginal(f, 1, {0}) == 0.0


def test_marginal_matches_two_call_evaluation():
    f = random_coverage(7, 42)
    for u, s in [(0, {1, 2}), (3, set()), (6, {0, 1, 2, 3})]:
        assert marginal(f, u, s) == f.value(s | {u}) - f.value(s)


def test_marginal_rejects_member_element():
    f = ModularOracle([1.0, 2.0])
    with pytest.raises(ValueError):
        marginal(f, 0, {0})


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", True, np.True_], ids=repr)
def test_mask_of_takes_integer_elements_only(bad):
    # 0.5 was truncated to element 0 and "1" parsed as element 1
    assert mask_of([np.int64(1), 2], 3) == 0b110
    with pytest.raises(ValueError, match="^elements must be integers"):
        mask_of([2, bad], 3)
    with pytest.raises(ValueError, match="^elements must be integers"):
        ModularOracle([1.0, 2.0, 3.0]).value([bad])


def test_marginal_can_be_negative_for_cut():
    f = CutOracle(2, [(0, 1, 2.0)])
    assert marginal(f, 1, {0}) == -2.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 7))
def test_modular_is_submodular(seed, n):
    assert naive_is_submodular(random_modular(n, seed))


def test_coverage_is_submodular():
    for seed in range(10):
        assert naive_is_submodular(random_coverage(8, seed))


def test_cardinality_squared_is_not_submodular():
    f = TableOracle([0.0, 1.0, 1.0, 4.0])  # f(S) = |S|^2 on n = 2
    assert not naive_is_submodular(f)


def test_submodularity_ratio_modular_is_one():
    assert measure_ratios(random_modular(6, 5)).gamma == 1.0


def test_submodularity_ratio_submodular_monotone_is_one():
    for seed in range(8):
        assert measure_ratios(random_coverage(7, seed)).gamma == 1.0


def test_submodularity_ratio_remeasurement_is_deterministic():
    p = random_perturbed(7, 0.2, 3)
    first = measure_ratios(p).gamma
    again = measure_ratios(random_perturbed(7, 0.2, 3)).gamma
    assert first == again


def test_monotonicity_ratio_coverage_is_one():
    for seed in range(8):
        assert measure_ratios(random_coverage(7, seed)).m == 1.0


def test_monotonicity_ratio_single_edge_cut_is_zero():
    f = CutOracle(3, [(0, 1, 1.5)])
    assert measure_ratios(f).m == 0.0


def test_monotonicity_ratio_zero_function_is_one():
    f = TableOracle(np.zeros(8))
    assert measure_ratios(f).m == 1.0


def test_comparison_allowance_is_floored_at_magnitude_one():
    # every golden and benchmark magnitude is at least 1, so without this
    # test no other one notices the floor dropped (ROADMAP item 4)
    mags = [0.0, 2.0 ** -30, 1.0, 3.0, 2.0 ** 40]
    want = [oracles.REL_TOL] * 3 + [3.0 * oracles.REL_TOL,
                                    2.0 ** 40 * oracles.REL_TOL]
    assert [oracles._allowance(m) for m in mags] == want
    assert oracles._allowance(np.array(mags)).tolist() == want
    assert type(oracles._allowance(0.5)) is float


def test_measure_ratios_flags_nonmonotone():
    r = measure_ratios(random_cut(6, 9))
    assert r.m < 1.0 and r.nonmonotone_caveat
    rc = measure_ratios(random_coverage(6, 9))
    assert rc.m == 1.0 and rc.gamma == 1.0 and not rc.nonmonotone_caveat


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8), st.randoms())
def test_marginal_telescoping(seed, n, rnd):
    f = random_coverage(n, seed) if seed % 2 else random_cut(n, seed)
    order = list(range(n))
    rnd.shuffle(order)
    total = 0.0
    cur = set()
    for u in order:
        total += marginal(f, u, cur)
        cur.add(u)
    full = f.value(range(n)) - f.value(())
    assert total == pytest.approx(full, rel=1e-9, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_perturbed_zero_delta_reproduces_base(seed, n):
    base = random_coverage(n, seed)
    p = PerturbedOracle(base, 0.0, seed + 1)
    assert np.array_equal(p.table(), base.table())


def test_perturbed_monotone_noise_certifies_monotone():
    p = random_perturbed(7, 0.3, 5, monotone=True)
    assert p.monotone is True
    assert measure_ratios(p).m == 1.0
    q = random_perturbed(7, 0.3, 5)
    assert q.monotone is None


@pytest.mark.parametrize("base", [
    random_cut(6, 36), random_modular(6, 1),
    UniformMatroid(6, 2), random_perturbed(6, 0.1, 2),
    {"kind": "bundle"}], ids=["cut", "modular", "matroid", "perturbed",
                              "bundle"])
def test_perturbed_base_must_be_a_coverage_oracle(base):
    # a cut base with monotone noise was certified monotone (m = 0.0026),
    # and a bundle or matroid base raised AttributeError on first use
    with pytest.raises(ValueError,
                       match="perturbed base must be a coverage oracle"):
        PerturbedOracle(base, 0.01, 36, monotone_noise=True)


@pytest.mark.parametrize("delta", [-1.0, 8.99e307, 1e308])
def test_perturbed_noise_range_must_be_finite(delta):
    # uniform(-delta, delta) draws from a range of 2 * delta: past about
    # 8.99e307 it overflows, and the table build raised numpy's
    # OverflowError; a document holding such a delta fails to load alike
    message = "noise amplitude must lie in \\[0, max float / 2\\]"
    with pytest.raises(ValueError, match=message):
        PerturbedOracle(random_coverage(4, 1), delta, 1)
    doc = to_doc(random_perturbed(4, 0.3, 1))
    doc["delta"] = delta
    with pytest.raises(ValueError, match=message):
        from_doc(doc)
    PerturbedOracle(random_coverage(4, 1), 8.98e307, 1).table()


def test_popcounts_are_one_cached_read_only_table():
    for n in (0, 1, 6):
        counts = oracles.popcounts(n)
        assert counts is oracles.popcounts(n)
        assert counts.tolist() == [bin(mask).count("1")
                                   for mask in range(1 << n)]
        with pytest.raises(ValueError):
            counts[0] = 1


def test_value_and_independence_tables_share_one_rule(monkeypatch):
    # one cap, checked before any build and named by each table's own
    # word, one build-once cache and one read-only rule for both kinds
    n = oracles.BUDGET["table"].limit + 1
    monkeypatch.setattr(ModularOracle, "_build_table", lambda self: 1 / 0)
    monkeypatch.setattr(UniformMatroid, "_build_table", lambda self: 1 / 0)
    for table, what in ((ModularOracle(np.ones(n)).table, "value table"),
                        (UniformMatroid(n, 2).indep_table,
                         "independence table")):
        with pytest.raises(oracles.CapabilityError) as info:
            table()
        assert str(info.value) == \
            f"{what} needs n <= {oracles.BUDGET['table'].limit}, got n = {n}"
        assert table.__self__._table is None
    monkeypatch.undo()
    f, m = random_modular(5, 0), UniformMatroid(5, 2)
    for tab, dtype in ((f.table(), float), (m.indep_table(), bool)):
        assert tab.dtype == dtype and tab.flags.c_contiguous
        assert not tab.flags.writeable
    assert f.table() is f._table and m.indep_table() is m._table
    for bad in ([0.0, -1.0], [0.0, np.nan]):
        with pytest.raises(ValueError, match="oracle produced a"):
            TableOracle(bad).table()
    for make in (lambda: TableOracle([0.0]), lambda: TableMatroid([True])):
        with pytest.raises(ValueError,
                           match="ground set needs at least one element"):
            make()


def test_all_generated_tables_nonnegative():
    for seed in range(6):
        for f in (random_modular(6, seed), random_coverage(6, seed),
                  random_cut(6, seed), random_perturbed(6, 0.4, seed)):
            assert float(f.table().min()) >= 0.0


def test_oracle_values_deterministic():
    f = random_perturbed(7, 0.35, 8)
    g = random_perturbed(7, 0.35, 8)
    assert np.array_equal(f.table(), g.table())


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        ModularOracle([1.0, -0.5])


def test_empty_ground_set_rejected():
    for make in (lambda: CoverageOracle(0, [], [1.0]),
                 lambda: TableOracle([1.0])):
        with pytest.raises(ValueError, match="at least one element"):
            make()


def test_non_finite_table_values_rejected():
    # a NaN would otherwise win a masked argmax that a scan skips
    for bad in (np.nan, np.inf):
        f = TableOracle([0.0, bad, 1.0, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            f.table()
        with pytest.raises(ValueError, match="non-finite"):
            brute_force_opt_set(f)


def test_measurements_agree_with_naive_references():
    from helpers import naive_monotonicity_ratio, naive_submodularity_ratio
    for seed in range(20):
        if seed % 3 == 0:
            f = random_coverage(6, seed)
        elif seed % 3 == 1:
            f = random_perturbed(6, 0.25, seed)
        else:
            f = random_cut(6, seed)
        r = measure_ratios(f)
        assert r.m == pytest.approx(
            naive_monotonicity_ratio(f), rel=1e-12, abs=1e-12)
        assert r.gamma == pytest.approx(
            naive_submodularity_ratio(f), rel=1e-12, abs=1e-12)


@st.composite
def small_oracles(draw):
    """Tie-heavy small-integer tables, supermodular tables (whose gamma
    minimum has a large B, so the order of the singleton sum shows in the
    last bits) and every generated family, n <= 8."""
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(
        ["table", "table", "supermodular", "modular", "coverage", "cut",
         "perturbed", "perturbed-monotone"]))
    if kind == "table":
        top = draw(st.integers(0, 3))
        return TableOracle(np.random.default_rng(seed).integers(
            0, top + 1, 1 << n).astype(float))
    if kind == "supermodular":
        return TableOracle(random_modular(n, seed).table() ** 2)
    if kind == "modular":
        return random_modular(n, seed)
    if kind == "coverage":
        return random_coverage(n, seed)
    if kind == "cut":
        return random_cut(max(n, 2), seed)
    return random_perturbed(n, 0.3, seed,
                            monotone=kind == "perturbed-monotone")


@settings(max_examples=120, deadline=None)
@given(small_oracles(), st.sampled_from([oracles._GAMMA_CHUNK, 8, 1]))
def test_ratio_kernels_match_reference_loops_exactly(f, chunk):
    # the gamma sweep, which may stop at the floor 0, must give the
    # reference loop's full-sweep gamma bit for bit
    with mock.patch.object(oracles, "_GAMMA_CHUNK", chunk):
        assert oracles._gamma(f) == gamma_loop(f)[0]
    assert oracles._m(f) == m_loop(f)


def test_gamma_kernel_ties_go_to_smallest_pair_across_groups():
    # Every positive pair of a modular oracle ties at ratio 1, in every
    # group and chunk; in the reference loop A = {} comes first and keeps
    # the witness.
    f = ModularOracle(np.ones(6))
    for chunk in (oracles._GAMMA_CHUNK, 8, 1):
        with mock.patch.object(oracles, "_GAMMA_CHUNK", chunk):
            assert oracles._gamma(f) == 1.0
    assert gamma_loop(f) == (1.0, ([], [0]))


def test_gamma_kernel_witness_takes_smallest_a_before_earliest_b():
    # In the |A| = 1 chunk, A = {0} reaches the minimum 0 only at its last
    # row, B = {1, 2, 3}, and A = {1} reaches it at an earlier row,
    # B = {2, 3}. The kernel's value is the reference loop's, whose witness
    # is the smaller A, whatever its row.
    values = {0b0000: 0, 0b0001: 2, 0b0010: 1, 0b0100: 1, 0b1000: 1,
              0b0110: 1, 0b1010: 1, 0b1100: 2, 0b1110: 2, 0b1111: 3}
    f = TableOracle([values.get(s, 2) for s in range(16)])
    for chunk in (oracles._GAMMA_CHUNK, 8, 1):
        with mock.patch.object(oracles, "_GAMMA_CHUNK", chunk):
            assert oracles._gamma(f) == 0.0
    assert gamma_loop(f) == (0.0, ([0], [1, 2, 3]))


def test_gamma_kernel_sums_singletons_in_ascending_order():
    # f = w(S)^2 puts the gamma minimum at A = {}, B = N, where the order of
    # the n-term singleton sum decides the last bits of gamma.
    for seed in range(10):
        f = TableOracle(random_modular(8, seed).table() ** 2)
        with mock.patch.object(oracles, "_GAMMA_CHUNK", 8):
            assert oracles._gamma(f) == gamma_loop(f)[0]


def _kernel_case(kind, n):
    """One seeded oracle of each kind the gamma kernel must get bit-exact."""
    seed = 100 + n
    if kind == "coverage":
        # as a plain table: measure_ratios certifies a coverage oracle
        # without sweeping
        return TableOracle(random_coverage(n, seed).table())
    if kind == "perturbed-monotone":
        return random_perturbed(n, 0.3, seed, monotone=True)
    if kind == "perturbed":
        return random_perturbed(n, 0.3, seed)
    if kind == "supermodular":
        return TableOracle(random_modular(n, seed).table() ** 2)
    return TableOracle(np.random.default_rng(seed).integers(
        0, 3, 1 << n).astype(float))


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("kind", ["coverage", "perturbed-monotone",
                                  "perturbed", "supermodular", "ties"])
def test_gamma_kernel_matches_reference_loop_at_benchmark_sizes(kind, n):
    # at n = 11-12 the middle groups span several chunks of _GAMMA_CHUNK
    f = _kernel_case(kind, n)
    want = gamma_loop(f)[0]
    for chunk in (oracles._GAMMA_CHUNK, 8):
        with mock.patch.object(oracles, "_GAMMA_CHUNK", chunk):
            assert measure_ratios(f).gamma == want


def test_gamma_kernel_skips_denominators_within_tolerance():
    # f(B|A) = 1e-12 at A = {0}, B = {1, 2}, where the singleton sum is
    # -0.3; the pair is skipped, so every remaining ratio is at least 1
    f = TableOracle([0.0, 1.0, 1.0, 0.5, 1.0, 1.2, 2.0, 1.0 + 1e-12])
    assert oracles._gamma(f) == gamma_loop(f)[0] == 1.0


def test_gamma_early_stop_gives_the_full_sweep_value():
    # Every |A| = 2 set has a pair with ratio 0 (singleton marginals 0,
    # f(B|A) = 3), so the sweep stops in that chunk, before the |A| = 1
    # chunk holds the exact minimum -6 at A = {3}, B = {0, 1, 2}; both
    # clamp to 0.
    values = {0b0000: 0, 0b1000: 6, 0b1111: 7}
    f = TableOracle([values.get(s, 4) for s in range(16)])
    assert gamma_loop(f)[0] == 0.0
    r = measure_ratios(f)
    assert r.gamma == 0.0
    assert r == measure_ratios(f)


def test_measure_ratios_caps_gamma_before_any_m_sweep(monkeypatch):
    # past the gamma cap measure_ratios raises before m is swept, for the
    # certified families, which skip the gamma sweep, too
    calls = []
    real = oracles._m
    monkeypatch.setattr(oracles, "_m",
                        lambda f: calls.append(f) or real(f))
    n = oracles.BUDGET["gamma"].limit + 1
    for f in (random_modular(n, 0), random_coverage(n, 0), random_cut(n, 0),
              random_perturbed(n, 0.3, 0)):
        with pytest.raises(oracles.CapabilityError) as info:
            measure_ratios(f)
        assert str(info.value) == \
            f"submodularity ratio needs n <= {oracles.BUDGET['gamma'].limit}"
    assert calls == []
    # at the cap only an oracle not certified monotone is swept for m
    n = oracles.BUDGET["gamma"].limit
    for f in (random_modular(n, 0), random_coverage(n, 0),
              random_perturbed(n, 0.3, 0, monotone=True)):
        assert measure_ratios(f).m == 1.0
    assert calls == []
    measure_ratios(random_cut(n, 0))
    assert len(calls) == 1


@pytest.mark.parametrize("t", [1e-300, 1e-12, 0.25])
def test_gamma_value_sweep_does_not_stop_above_the_floor(t):
    # the one ratio below 1 is (f({0}) + f({1})) / f({0, 1}) = t > 0
    f = TableOracle([0.0, t / 2, t / 2, 1.0])
    assert measure_ratios(f).gamma == gamma_loop(f)[0] == t


@contextlib.contextmanager
def _counted_sweeps():
    """Patches the gamma sweep to log (gamma, (A, B) entries visited) per
    call; the entries are counted as chunks are handed out."""
    sweep, chunks = oracles._gamma, oracles._gamma_chunks
    visited, calls = [0], []

    def counted_chunks(n, chunk):
        for c, a, bits in chunks(n, chunk):
            visited[0] += a.size << c
            yield c, a, bits

    def logged_sweep(f):
        before = visited[0]
        out = sweep(f)
        calls.append((out, visited[0] - before))
        return out

    with mock.patch.object(oracles, "_gamma_chunks", counted_chunks), \
            mock.patch.object(oracles, "_gamma", logged_sweep):
        yield calls


def test_gamma_sweep_stops_at_the_floor_and_sweeps_fully_above_it():
    full = 3 ** 10 - 1  # every A != N with each B outside it, B = {} too
    with _counted_sweeps() as calls:
        audit_problem4(3, 0, n=10, k=6)
        assert len(calls) == 3
        floored = [seen for gamma, seen in calls if gamma == 0.0]
        assert floored and all(seen < full for seen in floored)
        calls.clear()
        measure_ratios(TableOracle(random_coverage(10, 1).table()))
        assert calls == [(1.0, full)]
        calls.clear()
        # the same function as a certified coverage oracle is not swept
        assert measure_ratios(random_coverage(10, 1)).gamma == 1.0
        assert calls == []


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([random_coverage, random_modular, random_cut]),
       st.integers(1, 12), st.integers(0, 10_000))
def test_certified_gamma_is_the_sweep_value_on_generated_families(
        make, n, seed):
    # the certificate and the sweep agree bit for bit on generated inputs
    f = make(max(n, 2) if make is random_cut else n, seed)
    assert f.submodular
    assert measure_ratios(f).gamma == oracles._gamma(f) == 1.0


def test_certificate_gives_exactly_one_where_the_sweep_reads_below():
    # weights over eleven decades: the float sweep's minimum ratio falls
    # 1.7e-8 short of 1, past the 1e-9 snap; the family's construction
    # gives gamma = 1 exactly
    f = ModularOracle([1.3121149754452467e-12, 6.689204983108358e-09,
                       1.1104217009589592e-08, 0.5004510351603844])
    assert oracles._gamma(f) == 0.9999999834060208
    assert measure_ratios(f).gamma == 1.0


def test_only_the_submodular_families_are_certified():
    assert not PerturbedOracle.submodular and not TableOracle.submodular
    assert all(cls.submodular for cls in (ModularOracle, CoverageOracle,
                                          CutOracle))


@st.composite
def coverage_instances(draw):
    """Universes of up to 62 items, fewer or more than n; "high" covers use
    only the items at or above n, which the table's lookup does not fold."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["random", "empty", "overlap", "high"]))
    m = draw(st.integers(n + 1 if shape == "high" else 0, 62))
    low = n if shape == "high" else 0
    if shape == "empty" or m == 0:
        covers = [[] for _ in range(n)]
    elif shape == "overlap":
        covers = [list(range(m)) for _ in range(n)]
    else:
        covers = draw(st.lists(st.lists(st.integers(low, m - 1), max_size=m),
                               min_size=n, max_size=n))
    weight = st.one_of(st.floats(0.0, 2.0),
                       st.sampled_from([0.0, -0.0, 5e-324, 1e-300]))
    weights = draw(st.lists(weight, min_size=m, max_size=m))
    return CoverageOracle(n, covers, weights)


@settings(max_examples=100, deadline=None)
@given(coverage_instances())
def test_coverage_table_matches_lsb_build(f):
    assert f.table().tobytes() == coverage_table_lsb(f).tobytes()


@st.composite
def certified_monotone(draw):
    """Every family certified monotone: modular (ties, -0.0, subnormal
    weights), coverage, and perturbed with monotone noise over a coverage
    base at n <= 10, delta = 0 included."""
    kind = draw(st.sampled_from(["modular", "coverage", "perturbed"]))
    if kind == "modular":
        weight = st.one_of(st.floats(0.0, 2.0),
                           st.sampled_from([0.0, -0.0, 5e-324, 1.0]))
        return ModularOracle(draw(st.lists(weight, min_size=1, max_size=10)))
    base = draw(coverage_instances().filter(lambda f: f.n <= 10))
    if kind == "coverage":
        return base
    delta = draw(st.sampled_from([0.0, 1e-300, 0.3]) | st.floats(0.0, 2.0))
    return PerturbedOracle(base, delta, draw(st.integers(0, 10_000)),
                           monotone_noise=True)


@settings(max_examples=150, deadline=None)
@given(certified_monotone())
def test_certified_monotone_m_is_the_sweep_bit_for_bit(f):
    # measure_ratios takes m = 1.0 without the sweep: the premise is that
    # the sweep's m of a certified-monotone table is exactly 1.0
    assert f.monotone is True
    swept = oracles._m(f)
    assert repr(swept) == "1.0"
    assert repr(measure_ratios(f).m) == repr(swept)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.integers(0, 10_000), st.permutations(range(n)), st.integers(0, n))))
def test_relabelling_preserves_opt_gamma_and_m(case):
    seed, perm, rank = case
    n = len(perm)
    f = TableOracle(np.random.default_rng(seed).uniform(0.0, 2.0, 1 << n))
    g = relabel(f, perm)
    opt_f = brute_force_opt_set(f, UniformMatroid(n, rank).indep_table())
    opt_g = brute_force_opt_set(g, UniformMatroid(n, rank).indep_table())
    assert opt_g.value == opt_f.value
    rf, rg = measure_ratios(f), measure_ratios(g)
    assert rg.gamma == pytest.approx(rf.gamma, rel=1e-12, abs=1e-12)
    assert rg.m == pytest.approx(rf.m, rel=1e-12, abs=1e-12)
    if rank >= 1:
        # a uniform table is tie-free with probability 1, so the candidate
        # lists map onto each other; a tie would only reorder a sum
        assert dummy_greedy_expectation(g, rank) == pytest.approx(
            dummy_greedy_expectation(f, rank), rel=1e-12)


def test_reals_reads_numbers_only():
    x = np.array([0.5, 1.0])
    assert oracles._reals(x, "x") is x  # not walked, not copied
    assert oracles._reals([1, np.int64(2), np.float32(0.5)], "x").tolist() == [
        1.0, 2.0, 0.5]
    for bad in (["0.5"], [1.0, True], np.array([True]), None,
                [[1.0], [None]], np.array(["1"])):
        with pytest.raises(ValueError, match="^x: .* is not a number$"):
            oracles._reals(bad, "x")


def test_reals_names_a_ragged_array():
    # a short row was reported as "x: [1.0] is not a number"
    for ragged in ([[1.0, 2.0], [1.0]], [1.0, [2.0]], [[1.0], [2.0, "3"]]):
        with pytest.raises(ValueError,
                           match="^x must be a rectangular array of numbers$"):
            oracles._reals(ragged, "x")


# the two table kernels against per-mask references, compared bit for bit:
# the values repeat and hold both signed zeros, so ties are common

_TIED = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 3.0, 1e-300])
_VALUES = st.one_of(_TIED, st.floats(-1e3, 1e3))


def _masks_of(n):
    return [elements_of(mask) for mask in range(1 << n)]


@settings(max_examples=60, deadline=None)
@given(_VALUES, st.lists(_VALUES, max_size=8))
def test_doubled_add_is_each_masks_ascending_left_fold(start, steps):
    want = []
    for elems in _masks_of(len(steps)):
        acc = np.float64(start)
        for u in elems:
            acc = acc + np.float64(steps[u])
        want.append(acc)
    got = oracles._doubled(start, steps)
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 40), st.lists(st.integers(0, 1 << 62), max_size=8))
def test_doubled_or_is_each_masks_union(start, steps):
    want = [functools.reduce(operator.or_, (steps[u] for u in elems), start)
            for elems in _masks_of(len(steps))]
    got = oracles._doubled(start, steps, np.bitwise_or, np.int64)
    assert got.tobytes() == np.array(want, dtype=np.int64).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda w: st.tuples(st.lists(_VALUES, min_size=w, max_size=w),
                        st.lists(st.lists(_VALUES, min_size=w, max_size=w),
                                 min_size=n, max_size=n)))))
def test_doubled_rows_are_the_columns_side_by_side(case):
    start = np.array(case[0])
    steps = np.array(case[1]).reshape(-1, start.size)
    for op, dtype in ((np.add, float), (np.bitwise_or, np.int64)):
        row, rows = start.astype(dtype), steps.astype(dtype)
        got = oracles._doubled(row, rows, op, dtype)
        want = np.stack([oracles._doubled(row[j], rows[:, j], op, dtype)
                         for j in range(row.size)], axis=1)
        assert got.tobytes() == want.tobytes()


def _extreme(tab, op, masks):
    """op over tab[masks] (np.maximum or np.minimum), the tie among equal
    values going to the first of ``masks``: the signed zero a sweep keeps."""
    values = [tab[t] for t in masks]
    best = max(values) if op is np.maximum else min(values)
    return next(v for v in values if v == best)


def _first_wins(op) -> bool:
    """Whether op returns its first argument on a signed-zero tie: numpy
    leaves the choice to the platform (x86's maxpd returns the second)."""
    return bool(np.signbit(op(np.array([-0.0]), np.array([0.0])))[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda n: st.lists(_VALUES, min_size=1 << n, max_size=1 << n)),
    st.sampled_from([(np.maximum, True), (np.maximum, False),
                     (np.minimum, False)]))
def test_sweep_is_the_extreme_over_subsets_or_supersets(values, case):
    # the sweep decides bit n-1 last, so a tie goes to the side the op
    # prefers at the highest bit where two candidates differ: the entry's
    # own side if op keeps its first argument, the flipped side otherwise
    op, upward = case
    tab = np.array(values)
    size = tab.size
    own_first = _first_wins(op)
    want = []
    for s in range(size):
        if upward:
            cands = [t for t in range(size) if t & ~s == 0]
        else:
            cands = [t for t in range(size) if s & ~t == 0]
        # own side first: the largest subset, or the smallest superset
        cands.sort(reverse=upward == own_first)
        want.append(_extreme(tab, op, cands))
    got = tab.copy()
    oracles._sweep(got, op, upward)
    assert got.tobytes() == np.array(want, dtype=float).tobytes()
