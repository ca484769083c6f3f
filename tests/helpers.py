"""Shared test scaffolding: a raw table-backed oracle, fixtures, and tiny
independent reference solvers used as cross-checking oracles."""

from __future__ import annotations

import copy
import functools
import math
import operator

import numpy as np

from submodlab.algorithms import (RunTrace, bicriteria_rounds,
                                  dummy_candidates, intersection_candidates)
from submodlab.continuous import (MEMBER_TOL, BoxPolytope,
                                  CardinalityPolytope, KnapsackPolytope,
                                  PartitionPolytope, SumOracle,
                                  _sample_ordered_pairs,
                                  masked_update,
                                  random_quadratic_dr, random_sqrt_linear,
                                  random_weak_quadratic)
from submodlab.matroids import (GraphicMatroid, Matroid, PartitionMatroid,
                                PSystem, UniformMatroid, contracted_ranks)
from submodlab.oracles import (BUDGET, CEIL_GUARD, REL_TOL, CapabilityError,
                               SetFunctionOracle, elements_of, mask_of)
from submodlab.verify import OptimumCertificate

AXIOM_LIMIT = 10  # exhaustive axiom checks


def mask_message(mask, what: str) -> str:
    """The message pattern with which the mask reader of an entry point
    naming its mask ``what`` rejects ``mask`` on a ground set of 3 or 4
    elements, to which 0b111 is dependent."""
    if isinstance(mask, bool) or not isinstance(mask, int):
        return f"^masks must be integers, not {mask!r}$"
    why = "an independent set" if mask == 0b111 \
        else "a subset of the ground set"
    return f"^{what} is not {why}$"


class TableOracle(SetFunctionOracle):
    """Set function given by an explicit 2^n value table (tests only)."""

    family = "table"

    def __init__(self, values, monotone=None):
        values = np.asarray(values, dtype=float)
        n = values.size.bit_length() - 1
        if 1 << n != values.size:
            raise ValueError("table length must be a power of two")
        super().__init__(n, monotone=monotone)
        self._values = values

    def _build_table(self):
        return self._values


class TableMatroid(Matroid):
    """Independence given by an explicit 2^n bool table, which need not
    satisfy the matroid axioms (tests only)."""

    family = "table"

    def __init__(self, indep):
        indep = np.asarray(indep, dtype=bool)
        super().__init__(indep.size.bit_length() - 1)
        self._indep = indep

    def _build_table(self):
        return self._indep


def free_matroid(n):
    return UniformMatroid(n, n)


def random_uniform_matroid(n, seed):
    rng = np.random.default_rng(seed)
    return UniformMatroid(n, int(rng.integers(1, n + 1)))


def matroid_greedy(m, weights):
    """Descending-weight greedy over one matroid; keeps nonnegative weights
    only, ties broken toward the lowest element id. Optimal for matroids."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (m.n,):
        raise ValueError("need one weight per element")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    tab = m.indep_table()
    chosen = []
    cur = 0
    for u in sorted(range(m.n), key=lambda u: (-w[u], u)):
        if w[u] < 0.0:
            break
        bit = 1 << u
        if tab[cur | bit]:
            chosen.append(u)
            cur |= bit
    return chosen


def verify_matroid_axioms(m, limit=AXIOM_LIMIT):
    """Exhaustively check non-emptiness, down-closure, and exchange.

    Returns None when all three axioms hold, else a human-readable witness
    string for the first failure found.
    """
    if m.n > limit:
        raise CapabilityError(f"axiom check needs n <= {limit}")
    indep = m.indep_table()
    if not indep[0]:
        return "empty set is not independent"
    ind_masks = np.nonzero(indep)[0].astype(np.int64)
    for mask in ind_masks:
        mm = int(mask)
        s = mm
        while s:
            lsb = s & -s
            if not indep[mm ^ lsb]:
                return (f"not down-closed: {elements_of(mm)} independent but "
                        f"{elements_of(mm ^ lsb)} is not")
            s ^= lsb
    pops = np.array([int(x).bit_count() for x in ind_masks])
    good = np.zeros(ind_masks.size, dtype=np.int64)
    for i, mask in enumerate(ind_masks):
        g = 0
        mm = int(mask)
        for u in range(m.n):
            bit = 1 << u
            if not mm & bit and indep[mm | bit]:
                g |= bit
        good[i] = g
    for i, mask in enumerate(ind_masks):
        mm = int(mask)
        viol = (pops > pops[i]) & ((ind_masks & ~mm & good[i]) == 0)
        bad = np.nonzero(viol)[0]
        if bad.size:
            return (f"exchange fails for A={elements_of(mm)}, "
                    f"B={elements_of(int(ind_masks[bad[0]]))}")
    return None


def grad_check(f, x, step=1e-4):
    """Worst coordinate relative error of analytic vs central differences."""
    if not 0.0 < step < 0.5:
        raise ValueError("finite-difference step must lie in (0, 0.5)")
    x = np.clip(np.asarray(x, dtype=float), step, 1.0 - step)
    g = f.grad(x)
    worst = 0.0
    for u in range(f.n):
        e = np.zeros(f.n)
        e[u] = step
        fd = (f.value(x + e) - f.value(x - e)) / (2.0 * step)
        worst = max(worst, abs(fd - g[u]) / max(1.0, abs(g[u])))
    return worst


def in_cube_ref(x):
    """Reference for ``continuous._in_cube``: the cube check with its clip
    always taken."""
    if not (float(x.min()) >= -1e-9 and float(x.max()) <= 1.0 + 1e-9):
        raise ValueError("point lies outside the unit cube")
    return np.clip(x, 0.0, 1.0)


def member_many_ref(polytope, points):
    """Reference for ``Polytope.member_many`` on an (m, n) float array: the
    box tested by a reduction along each row, then each linear row."""
    ok = ((points >= -MEMBER_TOL)
          & (points <= polytope.upper + MEMBER_TOL)).all(axis=1)
    for row, bound in zip(*polytope.linear_rows()):
        ok &= points @ row <= bound
    return ok


def dr_check(f, samples=200, seed=0):
    """Sampled antitone-gradient check: x <= y must give grad(y) <= grad(x)
    up to a relative 1e-7.

    Returns (True, None) or (False, (x, y, coordinate)) for a witness pair.
    """
    rng = np.random.default_rng(seed)
    lo, hi = _sample_ordered_pairs(f.n, samples, rng)
    for x, y in zip(lo, hi):
        gx, gy = f.grad(x), f.grad(y)
        scale = max(1.0, float(np.abs(gx).max()), float(np.abs(gy).max()))
        diff = gy - gx
        if float(diff.max()) > 1e-7 * scale:
            return False, (x.tolist(), y.tolist(), int(np.argmax(diff)))
    return True, None


def weak_dr_gamma_ref(f, samples=2000, seed=0):
    """Reference for ``continuous.weak_dr_gamma``: the same pairs, each
    ratio computed one pair at a time through the validating ``grad``."""
    if not f.monotone:
        raise ValueError("weak-DR ratio is defined for monotone oracles")
    rng = np.random.default_rng(seed)
    lo, hi = _sample_ordered_pairs(f.n, samples, rng)
    vals_lo = f.value_many(lo)
    vals_hi = f.value_many(hi)
    best = math.inf
    for x, y, fx, fy in zip(lo, hi, vals_lo, vals_hi):
        denom = float(fy - fx)
        if denom <= REL_TOL * max(1.0, abs(float(fx)), abs(float(fy))):
            continue
        ratio = float((y - x) @ f.grad(x)) / denom
        best = min(best, ratio)
    if best is math.inf or best >= 1.0 - REL_TOL:
        return 1.0
    return max(0.0, best)


def masked_frank_wolfe_ref(g, h, polytope, epsilon):
    """Reference for ``algorithms.masked_frank_wolfe`` on valid inputs: the
    same loop through the checking ``grad``, ``value`` and
    ``masked_update``, which check every point they are given."""
    rounds = max(1, math.ceil(1.0 / epsilon - CEIL_GUARD))
    step = 1.0 / rounds
    y = np.zeros(g.n)
    records = []
    for i in range(rounds):
        gradient = g.grad(y) + h.grad(y)
        direction = polytope.lmo((1.0 - y) * gradient)
        y = masked_update(y, direction, step)
        records.append({
            "round": i,
            "direction": direction.tolist(),
            "point": y.tolist(),
            "value": float(g.value(y) + h.value(y)),
            "mask_cap": 1.0 - (1.0 - step) ** (i + 1),
        })
    meta = {"rounds": rounds, "step": step, "value": records[-1]["value"],
            "in_polytope": bool(polytope.member(y))}
    return RunTrace("masked-frank-wolfe", {"epsilon": float(epsilon)}, None,
                    records, y.tolist(), meta)


def frank_wolfe_ref(f, polytope, iterations, declared_gamma=None):
    """Reference for ``algorithms.frank_wolfe`` on valid inputs: the same
    loop through the checking ``grad`` and ``value``."""
    x = np.zeros(f.n)
    mass = 0.0
    records = []
    for k in range(iterations):
        direction = polytope.lmo(f.grad(x))
        step = (1.0 - mass) if k == iterations - 1 else 1.0 / iterations
        x = x + step * direction
        mass = mass + step
        records.append({"round": k, "direction": direction.tolist(),
                        "step": step, "point": x.tolist(),
                        "value": float(f.value(x)), "mass": mass})
    meta = {"iterations": iterations, "step_mass": mass,
            "value": records[-1]["value"],
            "in_polytope": bool(polytope.member(x))}
    if declared_gamma is not None:
        meta["declared_gamma"] = float(declared_gamma)
    return RunTrace("frank-wolfe", {"iterations": iterations}, None, records,
                    x.tolist(), meta)


def multipass_reference(f, system, eps):
    """Reference for ``algorithms.multipass_greedy`` as (iterations, final,
    meta). Each pass is built from the definition, over element lists: with
    S the union of the earlier passes, greedily add the u outside S ∪ T of
    largest f(S ∪ T ∪ u) - f(S ∪ T) (ties to the lowest id) while T + u is
    independent on its own and the marginal is positive."""
    chosen = set()
    records, passes = [], []
    for i in range(bicriteria_rounds(system.p, eps)):
        part = []
        while True:
            here = sorted(chosen | set(part))
            cands = [(f.value(here + [u]) - f.value(here), u)
                     for u in range(f.n)
                     if u not in here and system.indep(part + [u])]
            if not cands:
                break
            marg, u = max(cands, key=lambda t: (t[0], -t[1]))
            if marg <= 0.0:
                break
            part.append(u)
        chosen |= set(part)
        passes.append(sorted(part))
        records.append({"round": i, "added": sorted(part),
                        "value": f.value(chosen)})
    final = sorted(chosen)
    meta = {"rounds": len(passes), "value": f.value(chosen),
            "independent_sets": passes,
            "certificate_ok": all(system.indep(t) for t in passes)}
    return records, final, meta


def recursive_best_subset(f, feasible_mask, n):
    """Independent exhaustive maximizer: include/exclude recursion."""

    def rec(u, mask):
        if u == n:
            if feasible_mask(mask):
                return f.value_mask(mask), mask
            return -np.inf, -1
        v1, m1 = rec(u + 1, mask)
        v2, m2 = rec(u + 1, mask | (1 << u))
        return (v1, m1) if v1 >= v2 else (v2, m2)

    return rec(0, 0)


def brute_force_loop(f, feasible=None):
    """Reference for ``verify.brute_force_opt_set``: one pass over every
    mask in ascending order, keeping the first strictly larger feasible
    value. ``feasible`` is None or a bool table indexed by mask."""
    tab = f.table()
    best_mask = -1
    best_val = -math.inf
    for mask in range(1 << f.n):
        if feasible is not None and not feasible[mask]:
            continue
        v = float(tab[mask])
        if v > best_val:
            best_val, best_mask = v, mask
    if best_mask < 0:
        raise ValueError("no feasible subset (not even the empty set)")
    return best_val, elements_of(best_mask)


def forest_union_find(edges, num_vertices, mask):
    """Reference graphic independence: union-find over the mask's edges,
    failing at the first edge that closes a cycle."""
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    m = mask
    while m:
        lsb = m & -m
        a, b = edges[lsb.bit_length() - 1]
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        m ^= lsb
    return True


def indep_ref(system, mask):
    """Reference per-mask independence of a matroid or p-system: bit counts
    for uniform, per-block counts for partition, union-find for graphic."""
    if isinstance(system, PSystem):
        return all(indep_ref(m, mask) for m in system.matroids)
    if isinstance(system, UniformMatroid):
        return mask.bit_count() <= system.k
    if isinstance(system, PartitionMatroid):
        return all((mask & sum(1 << u for u in block)).bit_count() <= cap
                   for block, cap in zip(system.blocks, system.caps))
    if isinstance(system, GraphicMatroid):
        return forest_union_find(system.edges, system.num_vertices, mask)
    raise TypeError(f"no reference for {type(system).__name__}")


def indep_table_ref(system):
    """Reference independence table, one ``indep_ref`` call per mask."""
    return np.array([indep_ref(system, mask) for mask in range(1 << system.n)],
                    dtype=bool)


class DummyGreedyProcess:
    """Reference choice tree of dummy-padded random greedy under the budget
    k, over element tuples.

    2k dummy elements (ids n .. n+2k-1) have zero marginal everywhere; each
    of the k rounds offers the k candidates maximizing the summed marginals,
    and the algorithm draws one uniformly. Tie rule: candidates sort by
    descending marginal, then real before dummy, then ascending id, the
    encoding independent of ``algorithms.dummy_candidates``.
    """

    def __init__(self, f: SetFunctionOracle, k: int):
        self.f = f
        self.k = int(k)

    def initial(self) -> tuple:
        return ()

    def canonical(self, state: tuple) -> tuple:
        # dummies enter ``choices`` as one id-ordered block, so states with
        # the same real part and dummy count have relabelled, equal subtrees
        return self.real_mask(state), sum(u >= self.f.n for u in state)

    def real_mask(self, state: tuple) -> int:
        return mask_of((u for u in state if u < self.f.n), self.f.n)

    def choices(self, state: tuple):
        if len(state) == self.k:
            return None
        real = self.real_mask(state)
        scored = [(-self.f.marginal_mask(u, real), 0, u)
                  for u in range(self.f.n) if u not in state]
        scored += [(0.0, 1, d) for d in range(self.f.n, self.f.n + 2 * self.k)
                   if d not in state]
        scored.sort()
        return tuple(u for _, _, u in scored[:self.k])

    def step(self, state: tuple, choice: int) -> tuple:
        return state + (int(choice),)

    def final_value(self, state: tuple) -> float:
        return self.f.value_mask(self.real_mask(state))


def dummy_greedy_expectation_all_masks(f, k):
    """The all-masks form of ``verify.dummy_greedy_expectation``, frozen as
    its reference: layers t = k .. 0 are each one array over all 2^n masks
    R, layer k the value table, and each sums the k children of
    ``dummy_candidates`` (dummies keep R) slot by slot from 0.0 and
    divides by k."""
    masks = np.arange(1 << f.n)
    order, counts = dummy_candidates(f, k, masks)
    children = np.where(np.arange(k) < counts[:, None],
                        masks[:, None] | 1 << order, masks[:, None])
    values = f.table()
    for _ in range(k):
        total = np.zeros(masks.size)
        for j in range(k):
            total += values[children[:, j]]
        values = total / k
    return float(values[0])


class IntersectionProcess:
    """Choice tree of two-matroid random greedy over ``system``, a mask per
    state, with ``algorithms.intersection_candidates`` as its choices."""

    def __init__(self, f: SetFunctionOracle, m1: Matroid, m2: Matroid):
        self.f = f
        self.system = PSystem([m1, m2])

    def initial(self) -> int:
        return 0

    def canonical(self, mask: int) -> int:
        return mask

    def choices(self, mask: int):
        return intersection_candidates(self.f, self.system, mask)

    def step(self, mask: int, choice: int) -> int:
        return mask | 1 << int(choice)

    def final_value(self, mask: int) -> float:
        return self.f.value_mask(mask)


def max_weight_common_independent_ref(system, weights, base=0):
    """Reference for ``matroids.max_weight_common_independent`` on valid
    input: the recursive include-first branch-and-prune in (-w, u) order
    over the numpy independence table, pruning at ``<=`` and replacing the
    best only when strictly heavier."""
    tab = system.indep_table()
    w = np.asarray(weights, dtype=float)
    order = sorted((u for u in range(system.n) if not base >> u & 1),
                   key=lambda u: (-w[u], u))
    k = len(order)
    pos_suffix = [0.0] * (k + 1)
    for i in range(k - 1, -1, -1):
        pos_suffix[i] = pos_suffix[i + 1] + max(float(w[order[i]]), 0.0)
    best = [-np.inf, base]

    def rec(idx, mask, cur_w):
        if idx == k:
            if cur_w > best[0]:
                best[:] = [cur_w, mask]
            return
        if cur_w + pos_suffix[idx] <= best[0]:
            return
        u = order[idx]
        if tab[mask | 1 << u]:
            rec(idx + 1, mask | 1 << u, cur_w + float(w[u]))
        rec(idx + 1, mask, cur_w)

    rec(0, base, 0.0)
    return elements_of(best[1] ^ base)


def intersection_candidates_ref(f, system, mask):
    """Reference for ``algorithms._candidates`` at an independent ``mask``:
    the numpy marginals f(u | mask) as weights of the reference search with
    ``base=mask``; None once no element extends the mask."""
    tab = system.indep_table()
    ground = [u for u in range(f.n) if not mask >> u & 1]
    if not any(tab[mask | 1 << u] for u in ground):
        return None
    weights = np.zeros(f.n)
    for u in ground:
        weights[u] = f.marginal_mask(u, mask)
    best = max_weight_common_independent_ref(system, weights, base=mask)
    if not best:
        raise ValueError(
            "all feasible marginals are negative; oracle is not monotone")
    return tuple(best)


class ReferenceIntersectionProcess(IntersectionProcess):
    """``IntersectionProcess`` with ``intersection_candidates_ref`` as its
    choices, each recorded in ``seen`` by mask."""

    def __init__(self, f, system):
        self.f = f
        self.system = system
        self.seen = {}

    def choices(self, mask):
        self.seen[mask] = intersection_candidates_ref(self.f, self.system,
                                                      mask)
        return self.seen[mask]


def random_greedy_intersection_ref(f, m1, m2, seed):
    """Reference for ``algorithms.random_greedy_intersection``: its loop
    over ``intersection_candidates_ref``, with every marginal and value read
    through the oracle's checked lookups."""
    system = PSystem([m1, m2])
    ranks = contracted_ranks(system)
    rank = int(ranks[0])
    state = 0
    records = []
    while (options := intersection_candidates_ref(f, system, state)) \
            is not None:
        i = len(records)
        rng = np.random.default_rng([int(seed), i])
        u = options[int(rng.integers(len(options)))]
        marg = f.marginal_mask(u, state)
        records.append({
            "round": i,
            "candidates": list(options),
            "chosen": u,
            "marginal": marg,
            "value": f.value_mask(state | 1 << u),
            "fixed_round_size": rank - i,
            "fixed_round_feasible": bool(int(ranks[state]) >= rank - i),
        })
        state |= 1 << u
    return RunTrace("random-greedy-intersection", {}, int(seed), records,
                    elements_of(state),
                    {"value": f.value_mask(state), "rounds": len(records),
                     "max_common_rank": rank,
                     "fixed_rounds_would_crash": len(records) < rank})


def dag_walk(process):
    """Reference expectation for trees too large for ``tree_walk``: the
    same recursion, with each ``process.canonical`` key expanded once and
    its value reused (equal keys have identical subtrees)."""
    memo = {}

    def rec(state):
        key = process.canonical(state)
        if key not in memo:
            options = process.choices(state)
            if options is None:
                memo[key] = process.final_value(state)
            else:
                total = 0.0
                for choice in options:
                    total += rec(process.step(state, choice))
                memo[key] = total / len(options)
        return memo[key]

    return rec(process.initial())


def tree_walk(process):
    """Reference expectation: plain recursion over every branch of the
    choice tree, with no sharing of repeated states."""

    def rec(state):
        options = process.choices(state)
        if options is None:
            return process.final_value(state)
        total = 0.0
        for choice in options:
            total += rec(process.step(state, choice))
        return total / len(options)

    return rec(process.initial())


def gamma_loop(f, tol=1e-9):
    """(gamma, witness) for ``oracles._gamma``, which returns the gamma:
    one pass per set A, with the singleton sums built by doubling over A's
    complement bits and a strictly-less update across A (ties keep the
    smaller A)."""
    tab = f.table()
    scale = max(1.0, float(np.abs(tab).max()))
    best = math.inf
    witness = None
    for a in range(1 << f.n):
        comp_bits = [u for u in range(f.n) if not (a >> u) & 1]
        if not comp_bits:
            continue
        c = len(comp_bits)
        masks = np.zeros(1 << c, dtype=np.int64)
        sums = np.zeros(1 << c)
        for i, u in enumerate(comp_bits):
            half = 1 << i
            masks[half:2 * half] = masks[:half] | (1 << u)
            sums[half:2 * half] = sums[:half] + (tab[a | (1 << u)] - tab[a])
        denom = tab[a | masks] - tab[a]
        pos = denom > tol * scale
        if not bool(pos.any()):
            continue
        ratios = sums[pos] / denom[pos]
        j = int(np.argmin(ratios))
        if float(ratios[j]) < best:
            best = float(ratios[j])
            witness = (a, int(masks[pos][j]))
    if witness is None:
        return 1.0, None
    pair = (elements_of(witness[0]), elements_of(witness[1]))
    if best >= 1.0 - tol:
        return 1.0, pair
    return max(0.0, best), pair


def m_loop(f, tol=1e-9):
    """The m of ``oracles._m``: for each S with f(S) > 0, the least value of
    a superset T over f(S), minimised over S, clamped as ``_m`` clamps."""
    tab = f.table()
    scale = float(tab.max())
    if scale <= 0.0:
        return 1.0
    best = math.inf
    for s in range(1 << f.n):
        if not tab[s] > tol * max(1.0, scale):
            continue
        least = min(tab[t] for t in range(1 << f.n) if (t & s) == s)
        best = min(best, float(least / tab[s]))
    if best >= 1.0 - tol:  # also when no S has f(S) > 0
        return 1.0
    return max(0.0, best)


def coverage_table_lsb(f):
    """Reference coverage table: each union mask from the mask without its
    lowest bit."""
    size = 1 << f.n
    unions = np.zeros(size, dtype=np.int64)
    for mask in range(1, size):
        lsb = mask & -mask
        unions[mask] = unions[mask ^ lsb] | f._cover_masks[lsb.bit_length() - 1]
    tab = np.zeros(size)
    for j in range(f.universe_weights.size):
        tab += f.universe_weights[j] * ((unions >> j) & 1)
    return tab


def partition_table_counts(m):
    """Reference partition-matroid table: each mask's per-block counts,
    one row per block, built by subset doubling and compared with the
    caps."""
    labels = [0] * m.n
    for j, block in enumerate(m.blocks):
        for u in block:
            labels[u] = j
    cnt = np.zeros((len(m.caps), 1 << m.n), dtype=np.uint8)
    for u in range(m.n):
        half = 1 << u
        cnt[:, half:2 * half] = cnt[:, :half]
        cnt[labels[u], half:2 * half] += 1
    caps = np.array([min(c, m.n) for c in m.caps])
    return (cnt <= caps[:, None]).all(axis=0)


def quadratic_vertex_values_ref(b, a):
    """Reference vertex values of F(x) = b·x + x·A·x / 2: each mask's value
    from the mask without its lowest bit."""
    n = len(b)
    vals = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        lsb = mask & -mask
        u = lsb.bit_length() - 1
        prev = mask ^ lsb
        cross = sum(a[u, v] for v in range(n) if (prev >> v) & 1)
        vals[mask] = vals[prev] + b[u] + cross + 0.5 * a[u, u]
    return vals


def quadratic_value_ref(f, x):
    """Reference for ``QuadraticOracle._value``: the formula through ``@``,
    parsed as ((0.5 * x) @ a) @ x."""
    return float(f.b @ x + 0.5 * x @ f.a @ x)


def quadratic_grad_ref(f, x):
    """Reference for ``QuadraticOracle._grad`` through ``@``."""
    return f.b + f.a @ x


def sqrt_linear_value_ref(f, x):
    """Reference for ``SqrtLinearOracle._value`` through ``@``."""
    return float(math.sqrt(f.shift + f.b @ x) - math.sqrt(f.shift))


def sqrt_linear_grad_ref(f, x):
    """Reference for ``SqrtLinearOracle._grad`` through ``@``."""
    return f.b / (2.0 * math.sqrt(f.shift + f.b @ x))


def kernel_bits_differ(f, x):
    """The kernels of ``f`` (a quadratic or sqrt-linear oracle) at the
    float array ``x`` whose bits differ from the ``@`` references: a list
    of "_value" and "_grad"."""
    value_ref, grad_ref = {
        "quadratic": (quadratic_value_ref, quadratic_grad_ref),
        "sqrt-linear": (sqrt_linear_value_ref, sqrt_linear_grad_ref),
    }[f.family]
    bad = []
    if repr(f._value(x)) != repr(value_ref(f, x)):
        bad.append("_value")
    if f._grad(x).tobytes() != grad_ref(f, x).tobytes():
        bad.append("_grad")
    return bad


def knapsack_diameter_ref(costs, budget):
    """Reference max ||x||_2 over {x in [0,1]^n : costs·x <= budget}: every
    fitting full-1 set plus its best single fractional coordinate."""
    n = len(costs)
    best = 0.0
    for mask in range(1 << n):
        cost = sum(costs[u] for u in range(n) if (mask >> u) & 1)
        if cost > budget + 1e-12:
            continue
        residual = budget - cost
        frac = 0.0
        for v in range(n):
            if not (mask >> v) & 1:
                frac = max(frac, min(1.0, residual / costs[v]))
        best = max(best, float(mask.bit_count()) + frac * frac)
    return math.sqrt(best)


def grid_opt_ref(f, polytope, resolution):
    """Reference grid optimum: every grid point, in row-major chunks of
    200,000, each chunk's members valued in one batch; a later chunk
    replaces the best only with a strictly larger value."""
    limit = BUDGET["grid-dim"].limit
    if f.n > limit:
        raise CapabilityError(f"grid optimum needs n <= {limit}")
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError("resolution must be a positive finite number")
    if polytope.n != f.n:
        raise ValueError("oracle and polytope must share the dimension")
    steps = int(math.floor(1.0 / resolution + 1e-9))
    axis = np.minimum(1.0, resolution * np.arange(steps + 1))
    # grid point i (row-major) is axis[i // rest] followed by point
    # i % rest of the grid over the last n - 1 coordinates, so each chunk
    # is copied together from runs of that sub-grid without materializing
    # the whole grid
    rest = axis.size ** (f.n - 1)
    tail = axis[np.indices((axis.size,) * (f.n - 1)).reshape(f.n - 1, rest).T]
    total = axis.size * rest
    best_val = -math.inf
    best_point = np.zeros(f.n)
    chunk = 200_000
    for start in range(0, total, chunk):
        block = np.empty((min(chunk, total - start), f.n))
        row = 0
        while row < len(block):
            lead, offset = divmod(start + row, rest)
            run = min(rest - offset, len(block) - row)
            block[row:row + run, 0] = axis[lead]
            block[row:row + run, 1:] = tail[offset:offset + run]
            row += run
        inside = polytope.member_many(block)
        if not bool(inside.any()):
            continue
        members = block[inside]
        vals = f.value_many(members)
        j = int(np.argmax(vals))
        if float(vals[j]) > best_val:
            best_val = float(vals[j])
            best_point = members[j].copy()
    if best_val == -math.inf:
        raise ValueError("polytope contains no grid point (not even 0)")
    radius = f.value_lipschitz * min(resolution * math.sqrt(f.n),
                                     polytope.diameter)
    return OptimumCertificate(value=best_val, maximizer=best_point.tolist(),
                              method="grid", radius=float(radius))


def grid_oracle(family, n, seed):
    """A seeded objective of one of grid_opt's three test families:
    "quadratic", "sqrt-linear" or "sum"."""
    if family == "quadratic":
        return random_quadratic_dr(n, seed, monotone=seed % 2 == 0) \
            if seed % 3 else random_weak_quadratic(n, seed)
    if family == "sqrt-linear":
        return random_sqrt_linear(n, seed)
    return SumOracle([random_quadratic_dr(n, seed),
                      random_quadratic_dr(n, seed + 1, monotone=False)])


def grid_polytope(family, n, seed):
    """A seeded polytope of one of the four families: "box",
    "cardinality", "partition" or "knapsack"."""
    rng = np.random.default_rng(seed)
    if family == "box":
        return BoxPolytope(rng.uniform(0.0, 1.0, n))
    if family == "cardinality":
        return CardinalityPolytope(n, int(rng.integers(0, n + 1)))
    if family == "partition":
        cut = int(rng.integers(1, n + 1))
        blocks = [list(range(cut)), list(range(cut, n))]
        caps = [int(rng.integers(0, len(b) + 1)) for b in blocks]
        return PartitionPolytope([b for b in blocks if b],
                                 [c for b, c in zip(blocks, caps) if b])
    costs = rng.uniform(0.2, 1.0, n)
    return KnapsackPolytope(costs, float(rng.uniform(0.0, costs.sum())))


def relabel(f, perm):
    """TableOracle g with g(perm(S)) = f(S): element u is renamed perm[u].
    g keeps f's monotonicity certificate."""
    tab = f.table()
    out = np.empty_like(tab)
    for mask in range(tab.size):
        out[sum(1 << perm[u] for u in elements_of(mask))] = tab[mask]
    return TableOracle(out, monotone=f.monotone)


def naive_submodularity_ratio(f):
    """Quadratic-blowup reference: min over all (A, B) pairs directly."""
    n = f.n
    scale = max(1.0, float(abs(f.table()).max()))
    best = 1.0
    for a in range(1 << n):
        for b in range(1 << n):
            denom = f.value_mask(a | b) - f.value_mask(a)
            if denom <= 1e-9 * scale:
                continue
            total = sum(f.value_mask(a | (1 << u)) - f.value_mask(a)
                        for u in range(n) if (b >> u) & 1 and not (a >> u) & 1)
            best = min(best, total / denom)
    return max(0.0, 1.0 if best >= 1.0 - 1e-9 else best)


def naive_monotonicity_ratio(f):
    """Quadratic-blowup reference: min f(T)/f(S) over all nested pairs."""
    n = f.n
    scale = max(1.0, float(f.table().max()))
    best = 1.0
    any_pos = False
    for s in range(1 << n):
        fs = f.value_mask(s)
        if fs <= 1e-9 * scale:
            continue
        any_pos = True
        for t in range(1 << n):
            if (t & s) == s:
                best = min(best, f.value_mask(t) / fs)
    if not any_pos:
        return 1.0
    return max(0.0, 1.0 if best >= 1.0 - 1e-9 else best)


def naive_is_submodular(f):
    n = f.n
    scale = max(1.0, float(f.table().max()))
    for a in range(1 << n):
        for b in range(1 << n):
            lhs = f.value_mask(a) + f.value_mask(b)
            rhs = f.value_mask(a | b) + f.value_mask(a & b)
            if lhs + 1e-9 * scale < rhs:
                return False
    return True


def max_bipartite_matching(left, right, edges):
    """Augmenting-path maximum matching; edges are (l, r) pairs."""
    adj = {l: [] for l in range(left)}
    for l, r in edges:
        adj[l].append(r)
    match_r = {}

    def try_augment(l, seen):
        for r in adj[l]:
            if r in seen:
                continue
            seen.add(r)
            if r not in match_r or try_augment(match_r[r], seen):
                match_r[r] = l
                return True
        return False

    size = 0
    for l in range(left):
        if try_augment(l, set()):
            size += 1
    return size


def mean_and_se(values):
    """Sample mean and standard error of the mean."""
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(values.size)
    return float(values.mean()), float(se)


def wrong_length_lists(doc, path=()):
    """(label, document) for each nonempty list anywhere in the JSON
    document ``doc``, outermost first: a copy with the list's last entry
    dropped, then one with it repeated."""
    node = functools.reduce(operator.getitem, path, doc)
    if isinstance(node, list) and node:
        for how in ("drop", "repeat"):
            mutant = copy.deepcopy(doc)
            target = functools.reduce(operator.getitem, path, mutant)
            target.append(target[-1]) if how == "repeat" else target.pop()
            yield "/".join(map(str, path)) + " " + how, mutant
    children = range(len(node)) if isinstance(node, list) else \
        node if isinstance(node, dict) else ()
    for key in children:
        yield from wrong_length_lists(doc, path + (key,))
