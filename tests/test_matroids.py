import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submodlab.matroids import (ContractedMatroid, GraphicMatroid,
                                PartitionMatroid, PSystem, UniformMatroid,
                                common_rank, contract, free_matroid,
                                matroid_greedy, max_weight_common_independent,
                                psystem_greedy_marginal,
                                random_graphic_matroid,
                                random_partition_matroid,
                                random_uniform_matroid, verify_matroid_axioms)
from submodlab.oracles import (TABLE_LIMIT, CapabilityError,
                               random_coverage, random_modular)

from helpers import (TableOracle, indep_ref, indep_table_ref,
                     max_bipartite_matching)


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
        best = max_weight_common_independent(m, free_matroid(n), w)
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


def test_psystem_greedy_rejects_dependent_base():
    f = random_modular(3, 1)
    system = PSystem([UniformMatroid(3, 1)])
    with pytest.raises(ValueError):
        psystem_greedy_marginal(f, system, base=[0, 1])


def test_psystem_greedy_base_marginals_relative_to_base():
    f = random_coverage(6, 23)
    system = PSystem([UniformMatroid(6, 3)])
    base = psystem_greedy_marginal(f, system)[:1]
    rest = psystem_greedy_marginal(f, system, base=base)
    assert base[0] not in rest
    assert system.indep(base + rest)


def test_mwci_one_matroid_dominates():
    w = np.array([2.0, 5.0, 1.0, 0.5])
    m1 = UniformMatroid(4, 2)
    best = max_weight_common_independent(m1, free_matroid(4), w)
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
    best = max_weight_common_independent(m1, m2, np.ones(len(edges)))
    assert len(best) == max_bipartite_matching(3, 3, edges)
    assert common_rank(m1, m2) == len(best)


def test_mwci_infeasible_target_size():
    m1 = UniformMatroid(4, 1)
    m2 = free_matroid(4)
    assert max_weight_common_independent(m1, m2, np.ones(4), size=2) is None
    assert max_weight_common_independent(m1, m2, np.ones(4), size=0) == []


def test_mwci_restricted_size_picks_best():
    w = np.array([3.0, 2.0, 10.0])
    m = PartitionMatroid([[0, 1], [2]], [1, 1])
    best = max_weight_common_independent(m, free_matroid(3), w, size=2)
    assert best == [0, 2]


def test_mwci_capability_limit():
    n = 19
    m = free_matroid(n)
    with pytest.raises(CapabilityError):
        max_weight_common_independent(m, m, np.ones(n))


def test_mwci_nonempty_with_zero_weights():
    m = UniformMatroid(4, 2)
    best = max_weight_common_independent(m, free_matroid(4), np.zeros(4))
    assert best  # include-first tie-breaking keeps a maximal zero-weight set


def test_common_rank_examples():
    u2 = UniformMatroid(5, 2)
    assert common_rank(u2, u2) == 2
    assert common_rank(u2, free_matroid(5)) == 2
    m1 = PartitionMatroid([[0, 1], [2, 3]], [1, 1])
    m2 = PartitionMatroid([[0, 2], [1, 3]], [1, 1])
    assert common_rank(m1, m2) == 2


def test_axioms_hold_for_generated_matroids():
    for seed in range(8):
        assert verify_matroid_axioms(random_uniform_matroid(8, seed)) is None
        assert verify_matroid_axioms(random_partition_matroid(8, seed)) is None
        assert verify_matroid_axioms(random_graphic_matroid(8, seed)) is None


def test_axioms_reject_non_matroid():
    # independent iff |S| != 1: not down-closed
    bad = TableOracle(np.zeros(8))

    class Fake:
        n = 3
        def indep_mask(self, mask):
            return mask.bit_count() != 1

    assert verify_matroid_axioms(Fake()) is not None
    assert bad  # silence unused warning


def test_contraction_matches_defining_equivalence():
    for seed in range(6):
        base = random_partition_matroid(8, seed)
        sel = [u for u in range(8) if base.indep([u])][:2]
        if not base.indep(sel):
            sel = sel[:1]
        c = ContractedMatroid(base, sel)
        smask = sum(1 << u for u in sel)
        for t in range(1 << 8):
            if t & smask:
                with pytest.raises(ValueError):
                    c.indep_mask(t)
                break
        for t in range(1 << 8):
            if t & smask:
                continue
            assert c.indep_mask(t) == base.indep_mask(t | smask)


def test_contraction_requires_independent_set():
    m = UniformMatroid(4, 1)
    with pytest.raises(ValueError):
        ContractedMatroid(m, [0, 1])


def test_contract_psystem():
    system = PSystem([UniformMatroid(5, 3), UniformMatroid(5, 2)])
    reduced = contract(system, [0])
    assert reduced.p == 2
    assert reduced.indep([1]) and not reduced.indep([1, 2])


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
def matroids(draw, n):
    kind = draw(st.sampled_from(["uniform", "partition", "graphic"]))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(0, n + 1)))
    if kind == "partition":
        labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        used = sorted(set(labels))
        blocks = [[u for u in range(n) if labels[u] == j] for j in used]
        caps = draw(st.lists(st.integers(0, 3), min_size=len(blocks),
                             max_size=len(blocks)))
        return PartitionMatroid(blocks, caps)
    num_vertices = draw(st.integers(2, 6))
    ends = st.integers(0, num_vertices - 1)
    edges = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
                          min_size=n, max_size=n))
    return GraphicMatroid(num_vertices, edges)


@st.composite
def independence_systems(draw):
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["matroid", "contracted", "p-system"]))
    if kind == "matroid":
        return draw(matroids(n))
    if kind == "contracted":
        base = draw(matroids(n))
        order = draw(st.permutations(range(n)))
        take = draw(st.integers(0, n))
        sel = 0
        for u in order[:take]:
            if indep_ref(base, sel | (1 << u)):
                sel |= 1 << u
        return ContractedMatroid(base, [u for u in range(n) if sel >> u & 1])
    return PSystem(draw(st.lists(matroids(n), min_size=1, max_size=3)))


@settings(max_examples=150, deadline=None)
@given(independence_systems())
def test_indep_table_matches_per_mask_reference(system):
    tab = system.indep_table()
    ref = indep_table_ref(system)
    assert tab.dtype == bool and tab.shape == (1 << system.n,)
    assert (tab == ref).all()
    contracted = getattr(system, "contracted_mask", 0)
    for mask in range(1 << system.n):
        if mask & contracted:
            with pytest.raises(ValueError):
                system.indep_mask(mask)
        else:
            assert system.indep_mask(mask) == ref[mask]


class TableView:
    """Duck-typed matroid answering from another object's table."""

    def __init__(self, system):
        self.n = system.n
        self.table = system.indep_table()

    def indep_mask(self, mask):
        return bool(self.table[mask])


def test_contracted_table_is_a_matroid():
    # the contracted elements are loops, so the axioms still hold
    for seed in range(4):
        base = random_graphic_matroid(8, seed)
        contracted = ContractedMatroid(base, [0])
        assert verify_matroid_axioms(TableView(contracted)) is None


def test_indep_table_built_once_and_read_only(monkeypatch):
    builds = []
    build = PartitionMatroid._build_indep_table
    monkeypatch.setattr(PartitionMatroid, "_build_indep_table",
                        lambda self: builds.append(1) or build(self))
    m = random_partition_matroid(9, 3)
    system = PSystem([m, UniformMatroid(9, 4)])
    tab = system.indep_table()
    for mask in range(1 << 9):
        system.indep_mask(mask)
        m.indep_mask(mask)
    assert system.indep_table() is tab and m.indep_table() is m.indep_table()
    assert builds == [1]
    for t in (tab, m.indep_table(), contract(m, []).indep_table()):
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0] = False


def test_indep_table_capability_limit(monkeypatch):
    n = TABLE_LIMIT + 1
    for cls in (UniformMatroid, PartitionMatroid, GraphicMatroid):
        monkeypatch.setattr(cls, "_build_indep_table", lambda self: 1 / 0)
    uniform = UniformMatroid(n, 2)
    for system in (uniform, PartitionMatroid([list(range(n))], [2]),
                   GraphicMatroid(n + 1, [(u, u + 1) for u in range(n)]),
                   PSystem([uniform])):
        with pytest.raises(CapabilityError):
            system.indep_table()
        with pytest.raises(CapabilityError):
            system.indep_mask(0)
    with pytest.raises(CapabilityError):
        ContractedMatroid(uniform, [0])
