import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submodlab.matroids import (GraphicMatroid, PartitionMatroid, PSystem,
                                UniformMatroid, checked_partition,
                                max_weight_common_independent,
                                psystem_greedy_marginal,
                                random_graphic_matroid,
                                random_partition_matroid)
from submodlab.oracles import (BUDGET, CapabilityError, _sweep,
                               elements_of, mask_of,
                               random_coverage, random_modular)
from submodlab.verify import intersection_greedy_expectation

from helpers import (TableMatroid, TableOracle, candidates_tuple,
                     free_matroid, indep_ref,
                     indep_table_ref, intersection_candidates_ref,
                     mask_message,
                     matroid_greedy, max_bipartite_matching,
                     max_weight_common_independent_ref,
                     partition_table_counts,
                     random_partition_matroid_ref, random_uniform_matroid,
                     verify_matroid_axioms)


def test_matroid_greedy_uniform_top_k():
    assert matroid_greedy(UniformMatroid(3, 2), [5.0, 3.0, 1.0]) == [0, 1]


def test_matroid_greedy_partition_trace():
    m = PartitionMatroid([[0, 1], [2]], [1, 1])
    assert sorted(matroid_greedy(m, [5.0, 3.0, 4.0])) == [0, 2]


def test_matroid_greedy_all_negative_gives_empty():
    assert matroid_greedy(UniformMatroid(3, 2), [-1.0, -2.0, -0.5]) == []


def test_matroid_greedy_keeps_zero_weights():
    assert matroid_greedy(UniformMatroid(2, 2), [0.0, 1.0]) == [1, 0]


def test_matroid_greedy_optimal_against_bruteforce():
    rng = np.random.default_rng(0)
    for seed in range(15):
        n = 7
        m = random_partition_matroid(n, seed)
        w = rng.uniform(-1.0, 2.0, n)
        greedy_val = sum(w[u] for u in matroid_greedy(m, w))
        best = max_weight_common_independent(PSystem([m, free_matroid(n)]), w)
        best_val = sum(w[u] for u in best)
        assert greedy_val == pytest.approx(best_val, rel=1e-12, abs=1e-12)


def test_psystem_greedy_modular_reduces_to_matroid_greedy():
    f = random_modular(6, 4)
    m = UniformMatroid(6, 3)
    sys1 = PSystem([m])
    assert psystem_greedy_marginal(f, sys1) == matroid_greedy(m, f.weights)


def test_psystem_greedy_matches_hand_simulation():
    f = random_coverage(6, 17)
    system = PSystem([random_partition_matroid(6, 18)])
    got = psystem_greedy_marginal(f, system)

    # independent re-simulation, straight from the definition
    chosen = []
    while True:
        cands = []
        for u in range(6):
            if u in chosen or not system.indep(chosen + [u]):
                continue
            cands.append((f.value(chosen + [u]) - f.value(chosen), u))
        if not cands:
            break
        best = max(cands, key=lambda t: (t[0], -t[1]))
        if best[0] <= 0.0:
            break
        chosen.append(best[1])
    assert got == chosen


def test_psystem_greedy_no_feasible_extension():
    f = random_modular(3, 1)
    system = PSystem([UniformMatroid(3, 0)])
    assert psystem_greedy_marginal(f, system) == []


def test_psystem_greedy_rejects_out_of_range_given():
    f = random_modular(3, 1)
    system = PSystem([UniformMatroid(3, 1)])
    for given_mask in (-1, 1 << 3):
        with pytest.raises(ValueError,
                           match=mask_message(given_mask, "given")):
            psystem_greedy_marginal(f, system, given=given_mask)


def test_psystem_greedy_given_marginals_relative_to_given():
    # given ∪ T may exceed the rank: only T itself must be independent
    f = random_coverage(8, 3)
    system = PSystem([UniformMatroid(8, 3)])
    given_set = [1, 4]
    rest = psystem_greedy_marginal(f, system, given=mask_of(given_set, 8))
    assert not set(rest) & set(given_set)
    assert system.indep(rest) and len(rest) == 3

    # hand simulation: marginals over given ∪ T, independence of T alone
    chosen = []
    while True:
        here = given_set + chosen
        cands = [(f.value(here + [u]) - f.value(here), u) for u in range(8)
                 if u not in here and system.indep(chosen + [u])]
        if not cands:
            break
        best = max(cands, key=lambda t: (t[0], -t[1]))
        if best[0] <= 0.0:
            break
        chosen.append(best[1])
    assert rest == chosen


def test_mwci_one_matroid_dominates():
    w = np.array([2.0, 5.0, 1.0, 0.5])
    m1 = UniformMatroid(4, 2)
    best = max_weight_common_independent(PSystem([m1, free_matroid(4)]), w)
    assert sum(w[u] for u in best) == sum(w[u] for u in matroid_greedy(m1, w))


def test_mwci_bipartite_matching_size():
    # two partition matroids with unit caps encode a bipartite matching:
    # element = edge, blocks = left / right endpoint groups
    edges = [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2), (1, 2)]
    left_blocks = [[i for i, e in enumerate(edges) if e[0] == l]
                   for l in range(3)]
    right_blocks = [[i for i, e in enumerate(edges) if e[1] == r]
                    for r in range(3)]
    m1 = PartitionMatroid(left_blocks, [1, 1, 1])
    m2 = PartitionMatroid(right_blocks, [1, 1, 1])
    system = PSystem([m1, m2])
    best = max_weight_common_independent(system, np.ones(len(edges)))
    assert len(best) == max_bipartite_matching(3, 3, edges)


def test_mwci_capability_limit():
    n = 19
    m = free_matroid(n)
    system = PSystem([m, m])
    with pytest.raises(CapabilityError):
        max_weight_common_independent(system, np.ones(n))
    assert system._table is None  # the cap is checked before the table


def test_mwci_nonempty_with_zero_weights():
    m = UniformMatroid(4, 2)
    best = max_weight_common_independent(PSystem([m, free_matroid(4)]),
                                         np.zeros(4))
    assert best  # include-first tie-breaking keeps a maximal zero-weight set


def test_mwci_rejects_non_finite_weights():
    system = UniformMatroid(4, 2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="weights must be finite"):
            max_weight_common_independent(system, [3.0, bad, 2.0, 1.0])


def common_rank(system, base=0):
    """The common rank of the contraction by ``base``: the size of the
    heaviest T outside it when every element weighs 1."""
    return len(max_weight_common_independent(system, np.ones(system.n), base))


def test_common_rank_examples():
    u2 = UniformMatroid(5, 2)
    assert common_rank(PSystem([u2, u2])) == 2
    assert common_rank(PSystem([u2, free_matroid(5)])) == 2
    m1 = PartitionMatroid([[0, 1], [2, 3]], [1, 1])
    m2 = PartitionMatroid([[0, 2], [1, 3]], [1, 1])
    assert common_rank(PSystem([m1, m2])) == 2


def test_axioms_hold_for_generated_matroids():
    for seed in range(8):
        assert verify_matroid_axioms(random_uniform_matroid(8, seed)) is None
        assert verify_matroid_axioms(random_partition_matroid(8, seed)) is None
        assert verify_matroid_axioms(random_graphic_matroid(8, seed)) is None


def test_axioms_reject_non_matroid():
    # n = 3, independent iff |S| != 1
    indep = [bin(mask).count("1") != 1 for mask in range(8)]
    assert verify_matroid_axioms(TableMatroid(indep)) == \
        "not down-closed: [0, 1] independent but [1] is not"


def test_axioms_reject_failed_exchange():
    # down-closed, but {0} cannot grow from {1, 2}
    indep = [mask in (0b000, 0b001, 0b010, 0b100, 0b110) for mask in range(8)]
    assert verify_matroid_axioms(TableMatroid(indep)) == \
        "exchange fails for A=[0], B=[1, 2]"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5_000), st.integers(0, 255))
def test_intersection_psystem_down_closed(seed, sub):
    system = PSystem([random_partition_matroid(8, seed),
                      random_partition_matroid(8, seed + 1)])
    mask = sub
    if system.indep_mask(mask):
        s = mask
        while s:
            lsb = s & -s
            assert system.indep_mask(mask ^ lsb)
            s ^= lsb


def test_graphic_matroid_cycle_detection():
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    assert g.indep([0, 1])
    assert not g.indep([0, 1, 2])
    parallel = GraphicMatroid(3, [(0, 1), (0, 1)])
    assert not parallel.indep([0, 1])


# ---------------------------------------------------------------------------
# independence tables


@st.composite
def partition_matroids(draw, n):
    """Up to four blocks, n singleton blocks (the widest packing of the
    counts) or one block of all n elements, with caps from 0 to above n."""
    layout = draw(st.sampled_from(["labels", "singletons", "one block"]))
    if layout == "singletons":
        blocks = [[u] for u in range(n)]
    elif layout == "one block":
        blocks = [list(range(n))]
    else:
        labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        blocks = [[u for u in range(n) if labels[u] == j]
                  for j in sorted(set(labels))]
    caps = draw(st.lists(st.integers(0, n + 2), min_size=len(blocks),
                         max_size=len(blocks)))
    return PartitionMatroid(blocks, caps)


@st.composite
def matroids(draw, n, kinds=("uniform", "partition", "graphic")):
    kind = draw(st.sampled_from(kinds))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(0, n + 1)))
    if kind == "partition":
        return draw(partition_matroids(n))
    num_vertices = draw(st.integers(2, 6))
    ends = st.integers(0, num_vertices - 1)
    edges = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
                          min_size=n, max_size=n))
    return GraphicMatroid(num_vertices, edges)


@st.composite
def independence_systems(draw):
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        return draw(matroids(n))
    return PSystem(draw(st.lists(matroids(n), min_size=1, max_size=3)))


@settings(max_examples=150, deadline=None)
@given(independence_systems())
def test_indep_table_matches_per_mask_reference(system):
    tab = system.indep_table()
    ref = indep_table_ref(system)
    assert tab.dtype == bool and tab.shape == (1 << system.n,)
    assert (tab == ref).all()
    for mask in range(1 << system.n):
        assert system.indep_mask(mask) == ref[mask]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(partition_matroids))
def test_partition_table_matches_the_count_build(m):
    assert m.indep_table().tobytes() == partition_table_counts(m).tobytes()


def test_random_partition_matroid_is_the_per_block_formula():
    # one pass over the assignment gives each block the elements of its
    # own numpy scan, from the same draws in the same order
    compared = 0
    for n in range(1, 21):
        for seed in range(30):
            got, want = random_partition_matroid(n, seed), \
                random_partition_matroid_ref(n, seed)
            assert (got.blocks, got.caps) == (want.blocks, want.caps)
            compared += 1
    assert compared == 600


@pytest.mark.parametrize("n", [16, 17])
def test_packed_counts_at_32_and_34_bits(n):
    # n singleton blocks with cap 0 take 2n bits: 32 fill the narrower
    # packing, 34 need the widest
    for caps in ([0] * n, [u % 2 for u in range(n)]):
        m = PartitionMatroid([[u] for u in range(n)], caps)
        assert m.indep_table().tobytes() == \
            partition_table_counts(m).tobytes()


def test_psystem_counters_over_several_words():
    # four cap-0 singleton matroids take 40 bits each at n = 20, one word
    # apiece; two 30-bit counters share one word and the 20- and 6-bit
    # ones a second. At n > 15 each word is tested row by row.
    n = 20
    singletons = [[u] for u in range(n)]
    pairs = [[u, u + 1] for u in range(0, n, 2)]
    shifted = [[0, n - 1]] + [[u, u + 1] for u in range(1, n - 1, 2)]
    for members in (
            [PartitionMatroid(singletons, [0] * n)] * 4,
            [PartitionMatroid(pairs, [1] * 10),
             PartitionMatroid(shifted, [1] * 10),
             PartitionMatroid(singletons, [u % 2 for u in range(n)]),
             UniformMatroid(n, 7)]):
        system = PSystem(members)
        assert sum(m.counters[3] for m in members) > 64
        want = np.logical_and.reduce([partition_table_counts(m)
                                      for m in members])
        assert system.indep_table().tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [9, 12])
def test_psystem_of_mixed_members_matches_the_reference(n):
    # graphic and test-table members are ANDed in after the packed words
    # of the uniform and partition ones, or make the whole table
    graphic = random_graphic_matroid(n, n)
    rows = indep_table_ref(random_partition_matroid(n, 5))
    table = TableMatroid(rows)
    for members in ([graphic, UniformMatroid(n, n // 2),
                     random_partition_matroid(n, 1)],
                    [random_partition_matroid(n, 2), graphic,
                     PartitionMatroid([range(n)], [n]), table],
                    [graphic, table]):
        want = np.logical_and.reduce([rows if m is table
                                      else indep_table_ref(m)
                                      for m in members])
        assert PSystem(members).indep_table().tobytes() == want.tobytes()


@pytest.mark.parametrize("blocks, caps, message", [
    ([[0, 1], [2]], [1], "need one capacity per block"),
    ([[0, 1], [2]], [1, -1], "capacities must be nonnegative"),
    ([[0, 1], [3]], [1, 1], "blocks must partition"),
    ([[0, 1], [1, 2]], [1, 1], "blocks must partition"),
    ([], [], "blocks must partition"),
])
def test_checked_partition_messages(blocks, caps, message):
    with pytest.raises(ValueError, match=message):
        checked_partition(blocks, caps)


def test_psystem_constructor_messages():
    with pytest.raises(ValueError, match="need at least one matroid"):
        PSystem([])
    with pytest.raises(ValueError, match="matroids must share the ground set"):
        PSystem([UniformMatroid(3, 1), UniformMatroid(4, 1)])


def test_graphic_matroid_without_edges_has_no_ground_set():
    # the table base's rule, as for every other table
    with pytest.raises(ValueError,
                       match="^ground set needs at least one element$"):
        GraphicMatroid(3, [])


@pytest.mark.parametrize("member", [PSystem([UniformMatroid(3, 1)]), 3,
                                    None], ids=["p-system", "int", "None"])
def test_psystem_members_must_be_matroids(member):
    # a nested p-system was taken as one matroid, so p counted it once
    with pytest.raises(ValueError, match="p-system members must be matroids"):
        PSystem([member])
    with pytest.raises(ValueError, match="p-system members must be matroids"):
        PSystem([UniformMatroid(3, 2), member])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.data())
def test_uniform_is_a_one_block_partition(n, data):
    k = data.draw(st.integers(0, n + 1))
    got = UniformMatroid(n, k).indep_table()
    want = PartitionMatroid([range(n)], [k]).indep_table()
    assert got.tobytes() == want.tobytes()


NON_INTEGERS = [2.5, 2.0, True, np.True_, "2"]


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_uniform_matroid_takes_an_integer_k_only(bad):
    assert UniformMatroid(3, np.int64(2)).k == 2
    with pytest.raises(ValueError, match="must be integers"):
        UniformMatroid(3, bad)


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_uniform_matroid_takes_an_integer_n_only(bad):
    # n = True was read as a one-element ground set
    assert UniformMatroid(np.int64(3), 2).n == 3
    with pytest.raises(ValueError, match="ground-set sizes must be integers"):
        UniformMatroid(bad, 1)


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_partition_matroid_takes_integer_elements_and_caps_only(bad):
    m = PartitionMatroid([[np.int64(1)], [0]], [np.int64(1), 2])
    assert m.blocks == ((1,), (0,)) and m.caps == (1, 2)
    for blocks, caps in (([[0], [1]], [1.7, True]), ([[0], [1]], [1, bad]),
                         ([[bad], [0]], [1, 1])):
        with pytest.raises(ValueError, match="must be integers"):
            PartitionMatroid(blocks, caps)


def test_indep_table_built_once_and_read_only(monkeypatch):
    # UniformMatroid builds with PartitionMatroid's builder, so the builds
    # are logged per object: each matroid's table is built exactly once
    builds = []
    build = PartitionMatroid._build_table
    monkeypatch.setattr(PartitionMatroid, "_build_table",
                        lambda self: builds.append(self) or build(self))
    m = random_partition_matroid(9, 3)
    uniform = UniformMatroid(9, 4)
    system = PSystem([m, uniform])
    tab = system.indep_table()
    for mask in range(1 << 9):
        system.indep_mask(mask)
        m.indep_mask(mask)
        uniform.indep_mask(mask)
    assert system.indep_table() is tab and m.indep_table() is m.indep_table()
    assert builds == [m, uniform]
    for t in (tab, m.indep_table()):
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0] = False


def test_indep_table_capability_limit(monkeypatch):
    n = BUDGET["table"].limit + 1
    for cls in (UniformMatroid, PartitionMatroid, GraphicMatroid):
        monkeypatch.setattr(cls, "_build_table", lambda self: 1 / 0)
    uniform = UniformMatroid(n, 2)
    for system in (uniform, PartitionMatroid([list(range(n))], [2]),
                   GraphicMatroid(n + 1, [(u, u + 1) for u in range(n)]),
                   PSystem([uniform])):
        with pytest.raises(CapabilityError):
            system.indep_table()
        with pytest.raises(CapabilityError):
            system.indep_mask(0)


# ---------------------------------------------------------------------------
# search with a base mask (contraction by an independent set)


@st.composite
def base_searches(draw):
    """A partition or graphic matroid, or a p-system of two, on n <= 9
    elements; an independent base mask; weights."""
    n = draw(st.integers(1, 9))
    parts = draw(st.lists(matroids(n, kinds=("partition", "graphic")),
                          min_size=1, max_size=2))
    system = parts[0] if len(parts) == 1 else PSystem(parts)
    base = 0
    for u in draw(st.permutations(range(n)))[:draw(st.integers(0, n))]:
        if indep_ref(system, base | 1 << u):
            base |= 1 << u
    weights = draw(st.lists(st.floats(-1.0, 2.0), min_size=n, max_size=n))
    return system, base, np.array(weights)


@settings(max_examples=100, deadline=None)
@given(base_searches())
def test_mwci_with_base_matches_exhaustive(case):
    system, base, w = case
    best = max_weight_common_independent(system, w, base)
    assert not base & mask_of(best, system.n)
    assert indep_ref(system, base | mask_of(best, system.n))
    feasible = [t for t in range(1 << system.n)
                if not t & base and indep_ref(system, base | t)]
    top = max(sum(w[u] for u in elements_of(t)) for t in feasible)
    assert sum(w[u] for u in best) == pytest.approx(top, rel=0, abs=1e-12)
    assert common_rank(system, base) == max(t.bit_count() for t in feasible)


def partition_with_loops(n: int, seed: int) -> PartitionMatroid:
    """``random_partition_matroid`` with one block's cap set to 0: its
    elements are loops, never independent, which the search skips."""
    m = random_partition_matroid(n, seed)
    caps = list(m.caps)
    caps[seed % len(caps)] = 0
    return PartitionMatroid(m.blocks, caps)


# weights whose 2^j multiples, |j| <= 40, are all zero or normal floats
NORMAL_WEIGHTS = st.floats(-1.0, 2.0).filter(
    lambda w: w == 0.0 or abs(w) >= 2.0 ** -960)


@st.composite
def intersection_states(draw, weights=st.floats(-1.0, 2.0)):
    """A partition or graphic pair at n <= 10, the partition ones with or
    without a block of loops, an independent base, float weights drawn
    from ``weights`` or with ties and negative entries, and an oracle
    whose value table has ties and, unless it is a coverage one, negative
    marginals."""
    n = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 10_000))
    make = draw(st.sampled_from([random_partition_matroid,
                                 random_graphic_matroid,
                                 partition_with_loops]))
    system = PSystem([make(n, seed), make(n, seed + 1)])
    base = 0
    for u in draw(st.permutations(range(n)))[:draw(st.integers(0, n))]:
        if indep_ref(system, base | 1 << u):
            base |= 1 << u
    weights = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
                            | weights, min_size=n, max_size=n))
    if draw(st.booleans()):
        f = random_coverage(n, seed)
    else:
        rng = np.random.default_rng(seed)
        f = TableOracle(rng.integers(0, 4, 1 << n).astype(float))
    return system, base, weights, f


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as err:
        return ("ValueError", str(err))


@settings(max_examples=150, deadline=None)
@given(intersection_states())
def test_search_and_candidates_match_the_recursive_reference(case):
    system, base, weights, f = case
    assert max_weight_common_independent(system, weights, base) == \
        max_weight_common_independent_ref(system, weights, base)
    want = _outcome(intersection_candidates_ref, f, system, base)
    # the walk's native tables and the runner's numpy ones
    assert _outcome(candidates_tuple, f.table().tolist(),
                    system.indep_table().tobytes(), f.n, base) == want
    assert _outcome(candidates_tuple, f.table(), system.indep_table(), f.n,
                    base) == want


def test_candidates_cap_counts_every_element_outside_the_mask():
    # the search cap + 1 elements outside the empty mask, all but two of
    # them loops: the cap still counts the loops once some element extends
    # the mask, and with none that does the state is final
    n = BUDGET["search"].limit + 1
    values = random_modular(n, 0).table()
    blocks = [[0, 1], list(range(2, n))]
    for caps, want in (([1, 0], CapabilityError), ([0, 0], None)):
        system = PSystem([PartitionMatroid(blocks, caps), free_matroid(n)])
        indep = system.indep_table()
        for tables in ((values, indep), (values.tolist(), indep.tobytes())):
            if want is None:
                assert candidates_tuple(*tables, n, 0) is None
            else:
                with pytest.raises(want):
                    candidates_tuple(*tables, n, 0)


@settings(max_examples=60, deadline=None)
@given(intersection_states(NORMAL_WEIGHTS),
       st.sampled_from([-40, -20, 20, 40]), st.integers(0, 10_000))
def test_power_of_two_scaling_keeps_every_candidate_and_scales_the_walk(
        case, j, seed):
    # scaling a table or weights by 2^j scales every marginal, sum and
    # quotient exactly (nothing here overflows or turns subnormal: the
    # weights are drawn from NORMAL_WEIGHTS for that), so each
    # comparison of the search, each candidate mask and each chosen set
    # stays as it is and the walk returns exactly 2^j times its value; at
    # 2^-40 an absolute tolerance anywhere in the rule would show
    system, _, weights, _ = case
    scale = 2.0 ** j
    n = system.n
    rng = np.random.default_rng(seed)
    size = 1 << n
    table = np.where(rng.random(size) < 0.5, rng.integers(0, 4, size),
                     rng.uniform(0.0, 4.0, size))  # ties and plain floats
    table[0] = 0.0
    _sweep(table, np.maximum, upward=True)  # the max over subsets: monotone
    f, scaled = (TableOracle(t, monotone=True) for t in (table, scale * table))
    indep = system.indep_table()
    for mask in np.nonzero(indep)[0].tolist():
        assert candidates_tuple(scaled.table(), indep, n, mask) == \
            candidates_tuple(f.table(), indep, n, mask)
        assert max_weight_common_independent(
            system, [scale * w for w in weights], mask) == \
            max_weight_common_independent(system, weights, mask)
    assert intersection_greedy_expectation(scaled, system) == \
        scale * intersection_greedy_expectation(f, system)


def test_a_subnormal_weight_scaled_by_two_to_the_minus_40_flushes_to_zero():
    # the boundary of the scaling test's premise: below 2^-960 a weight's
    # 2^-40 multiple can underflow to -0.0, which ties the empty set, and
    # the include-first search then keeps the element
    system = PSystem([UniformMatroid(1, 1)] * 2)
    w = -2.2250738585e-313
    assert math.copysign(1.0, w * 2.0 ** -40) == -1.0
    assert w * 2.0 ** -40 == 0.0
    assert max_weight_common_independent(system, [w]) == []
    assert max_weight_common_independent(system, [w * 2.0 ** -40]) == [0]


@pytest.mark.parametrize("base", [1 << 4, -1, 0b111, True, 2.0])
def test_mwci_rejects_bad_bases(base):
    # 1 << 4 raised a numpy IndexError, True numpy's truth-value error, and
    # -1 returned []
    with pytest.raises(ValueError, match=mask_message(base, "base")):
        max_weight_common_independent(PSystem([UniformMatroid(4, 2)] * 2),
                                      np.ones(4), base)


@pytest.mark.parametrize("given_mask", [True, 2.0, "1"])
def test_psystem_greedy_reads_given_as_an_integer(given_mask):
    with pytest.raises(ValueError, match=mask_message(given_mask, "given")):
        psystem_greedy_marginal(random_modular(3, 1),
                                PSystem([UniformMatroid(3, 1)]),
                                given=given_mask)


def test_mwci_rejects_dependent_base():
    system = PSystem([UniformMatroid(4, 1), free_matroid(4)])
    with pytest.raises(ValueError):
        max_weight_common_independent(system, np.ones(4), base=0b11)
    assert max_weight_common_independent(system, np.ones(4), base=0b1) == []
