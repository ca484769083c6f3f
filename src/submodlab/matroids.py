"""Matroid and p-system independence oracles, contraction, matroid greedy,
and exact maximum-weight common independent sets via branch-and-prune.

Everything here is exact and deterministic: greedy loops break ties toward
the lowest element id, and the branch-and-prune search returns the first
optimum found in weight-sorted include-first order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .oracles import (CapabilityError, SetFunctionOracle, elements_of,
                      mask_of)

INTERSECTION_LIMIT = 18  # branch-and-prune ground-set cap
AXIOM_LIMIT = 10         # exhaustive axiom checks


class Matroid:
    """Independence oracle over ground set {0..n-1}."""

    family = "abstract"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("matroid needs at least one element")
        self.n = int(n)

    def indep_mask(self, mask: int) -> bool:
        raise NotImplementedError

    def indep(self, subset: Iterable[int]) -> bool:
        return self.indep_mask(mask_of(subset, self.n))


class UniformMatroid(Matroid):
    family = "uniform"

    def __init__(self, n: int, k: int):
        super().__init__(n)
        if k < 0:
            raise ValueError("rank bound must be nonnegative")
        self.k = int(k)

    def indep_mask(self, mask: int) -> bool:
        return mask.bit_count() <= self.k


def free_matroid(n: int) -> UniformMatroid:
    return UniformMatroid(n, n)


class PartitionMatroid(Matroid):
    """Blocks partition the ground set; block j may contribute <= caps[j]."""

    family = "partition"

    def __init__(self, blocks: Sequence[Iterable[int]], caps: Sequence[int]):
        blocks = tuple(tuple(sorted(int(u) for u in b)) for b in blocks)
        caps = tuple(int(c) for c in caps)
        if len(blocks) != len(caps):
            raise ValueError("need one capacity per block")
        if any(c < 0 for c in caps):
            raise ValueError("capacities must be nonnegative")
        all_elems = [u for b in blocks for u in b]
        n = len(all_elems)
        if n == 0 or sorted(all_elems) != list(range(n)):
            raise ValueError("blocks must partition {0..n-1}")
        super().__init__(n)
        self.blocks = blocks
        self.caps = caps
        self._block_masks = tuple(sum(1 << u for u in b) for b in blocks)

    def indep_mask(self, mask: int) -> bool:
        return all((mask & bm).bit_count() <= c
                   for bm, c in zip(self._block_masks, self.caps))


class GraphicMatroid(Matroid):
    """Ground set = edge ids of an undirected multigraph; independent = forest."""

    family = "graphic"

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        if num_vertices < 2:
            raise ValueError("graph needs at least two vertices")
        edges = tuple((int(a), int(b)) for a, b in edges)
        for a, b in edges:
            if a == b:
                raise ValueError("self-loops are never independent; drop them")
            if not (0 <= a < num_vertices and 0 <= b < num_vertices):
                raise ValueError("edge endpoint outside vertex range")
        super().__init__(len(edges))
        self.num_vertices = int(num_vertices)
        self.edges = edges

    def indep_mask(self, mask: int) -> bool:
        parent = list(range(self.num_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        m = mask
        while m:
            lsb = m & -m
            a, b = self.edges[lsb.bit_length() - 1]
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
            m ^= lsb
        return True


class ContractedMatroid(Matroid):
    """base / S: T is independent iff S ∪ T is independent in the base.

    S itself must be independent; queries overlapping S are rejected.
    """

    def __init__(self, base: Matroid, contracted: Iterable[int]):
        super().__init__(base.n)
        self.base = base
        self.contracted_mask = mask_of(contracted, base.n)
        if not base.indep_mask(self.contracted_mask):
            raise ValueError("can only contract by an independent set")
        self.family = f"contracted({base.family})"

    def indep_mask(self, mask: int) -> bool:
        if mask & self.contracted_mask:
            raise ValueError("query overlaps the contracted set")
        return self.base.indep_mask(mask | self.contracted_mask)


class PSystem:
    """Down-closed independence system with declared parameter p.

    Either built from an explicit intersection of matroids (p = count), or
    wrapped around a direct mask predicate with a declared p.
    """

    def __init__(self, n: int, p: int, indep_mask_fn, matroids=None):
        if p < 1:
            raise ValueError("p must be at least 1")
        self.n = int(n)
        self.p = int(p)
        self._indep_mask_fn = indep_mask_fn
        self.matroids = tuple(matroids) if matroids is not None else None

    @classmethod
    def from_matroids(cls, matroids: Sequence[Matroid]) -> "PSystem":
        matroids = tuple(matroids)
        if not matroids:
            raise ValueError("need at least one matroid")
        n = matroids[0].n
        if any(m.n != n for m in matroids):
            raise ValueError("matroids must share the ground set")

        def fn(mask: int) -> bool:
            return all(m.indep_mask(mask) for m in matroids)

        return cls(n, len(matroids), fn, matroids=matroids)

    def indep_mask(self, mask: int) -> bool:
        return bool(self._indep_mask_fn(mask))

    def indep(self, subset: Iterable[int]) -> bool:
        return self.indep_mask(mask_of(subset, self.n))


def contract(system, subset: Iterable[int]):
    """Contract a matroid or p-system by an (independent) subset."""
    if isinstance(system, Matroid):
        return ContractedMatroid(system, subset)
    if isinstance(system, PSystem):
        if system.matroids is not None:
            return PSystem.from_matroids(
                [ContractedMatroid(m, subset) for m in system.matroids])
        cmask = mask_of(subset, system.n)
        if not system.indep_mask(cmask):
            raise ValueError("can only contract by an independent set")

        def fn(mask: int) -> bool:
            if mask & cmask:
                raise ValueError("query overlaps the contracted set")
            return system.indep_mask(mask | cmask)

        return PSystem(system.n, system.p, fn)
    raise TypeError(f"cannot contract {type(system).__name__}")


def matroid_greedy(m: Matroid, weights: Sequence[float]) -> list[int]:
    """Descending-weight greedy over one matroid; keeps nonnegative weights
    only, ties broken toward the lowest element id. Optimal for matroids."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (m.n,):
        raise ValueError("need one weight per element")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    chosen: list[int] = []
    cur = 0
    for u in sorted(range(m.n), key=lambda u: (-w[u], u)):
        if w[u] < 0.0:
            break
        bit = 1 << u
        if m.indep_mask(cur | bit):
            chosen.append(u)
            cur |= bit
    return chosen


def psystem_greedy_marginal(f: SetFunctionOracle, system: PSystem | Matroid,
                            base: Iterable[int] = ()) -> list[int]:
    """Greedy by marginal value on top of ``base``.

    Repeatedly adds the element u maximizing f(u | base ∪ T) subject to
    base ∪ T + u staying independent, until no feasible element remains.
    For oracles certified monotone the loop also stops once the best
    available marginal is <= 0 (a numerical guard; monotone oracles only
    produce such marginals as zeros or float noise).
    """
    if system.n != f.n:
        raise ValueError("oracle and independence system sizes differ")
    base_mask = mask_of(base, f.n)
    if not system.indep_mask(base_mask):
        raise ValueError("base set is not independent")
    stop_at_nonpositive = f.monotone is True
    chosen: list[int] = []
    sel = 0
    while True:
        best_u = -1
        best_marg = 0.0
        for u in range(f.n):
            bit = 1 << u
            if (base_mask | sel) & bit:
                continue
            if not system.indep_mask(base_mask | sel | bit):
                continue
            marg = f.marginal_mask(u, base_mask | sel)
            if best_u < 0 or marg > best_marg:
                best_u, best_marg = u, marg
        if best_u < 0:
            break
        if stop_at_nonpositive and best_marg <= 0.0:
            break
        chosen.append(best_u)
        sel |= 1 << best_u
    return chosen


def max_weight_common_independent(m1: Matroid, m2: Matroid,
                                  weights: Sequence[float],
                                  size: int | None = None,
                                  ground: Sequence[int] | None = None):
    """Exact maximum-weight set independent in both matroids.

    With ``size`` the search is restricted to sets of exactly that many
    elements (returns None when no common independent set of that size
    exists); without it the unrestricted maximum weight is returned. Among
    equal-weight optima the result is the first one found by include-first
    depth-first search in descending-weight order, which in particular is
    never empty while any single element is feasible with weight >= 0.
    """
    if m1.n != m2.n:
        raise ValueError("matroids must share the ground set")
    elems = sorted(set(int(u) for u in ground)) if ground is not None \
        else list(range(m1.n))
    if any(not 0 <= u < m1.n for u in elems):
        raise ValueError("ground element out of range")
    if len(elems) > INTERSECTION_LIMIT:
        raise CapabilityError(
            f"common-independent search needs <= {INTERSECTION_LIMIT} elements")
    w = np.asarray(weights, dtype=float)
    if w.shape != (m1.n,):
        raise ValueError("need one weight per element")
    if size is not None:
        size = int(size)
        if size < 0:
            raise ValueError("target size must be nonnegative")
        if size == 0:
            return []
        if size > len(elems):
            return None

    order = sorted(elems, key=lambda u: (-w[u], u))
    k = len(order)
    pos_suffix = [0.0] * (k + 1)
    for i in range(k - 1, -1, -1):
        pos_suffix[i] = pos_suffix[i + 1] + max(float(w[order[i]]), 0.0)
    cum = [0.0] * (k + 1)
    for i in range(k):
        cum[i + 1] = cum[i] + float(w[order[i]])

    best_w = -np.inf
    best_set: int | None = None

    def rec(idx: int, mask: int, cur_w: float, cnt: int) -> None:
        nonlocal best_w, best_set
        if size is None:
            if idx == k:
                if cur_w > best_w:
                    best_w, best_set = cur_w, mask
                return
            if cur_w + pos_suffix[idx] <= best_w:
                return
        else:
            if cnt == size:
                if cur_w > best_w:
                    best_w, best_set = cur_w, mask
                return
            need = size - cnt
            if k - idx < need:
                return
            if cur_w + (cum[idx + need] - cum[idx]) <= best_w:
                return
        u = order[idx]
        bit = 1 << u
        if m1.indep_mask(mask | bit) and m2.indep_mask(mask | bit):
            rec(idx + 1, mask | bit, cur_w + float(w[u]), cnt + 1)
        rec(idx + 1, mask, cur_w, cnt)

    rec(0, 0, 0.0, 0)
    if best_set is None:
        return None
    return elements_of(best_set)


def common_rank(m1: Matroid, m2: Matroid,
                ground: Sequence[int] | None = None) -> int:
    """Maximum cardinality of a set independent in both matroids."""
    ones = np.ones(m1.n)
    best = max_weight_common_independent(m1, m2, ones, ground=ground)
    return 0 if best is None else len(best)


def verify_matroid_axioms(m: Matroid, limit: int = AXIOM_LIMIT):
    """Exhaustively check non-emptiness, down-closure, and exchange.

    Returns None when all three axioms hold, else a human-readable witness
    string for the first failure found.
    """
    if m.n > limit:
        raise CapabilityError(f"axiom check needs n <= {limit}")
    size = 1 << m.n
    indep = np.zeros(size, dtype=bool)
    for mask in range(size):
        indep[mask] = m.indep_mask(mask)
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


# ---------------------------------------------------------------------------
# seeded instance generators


def random_uniform_matroid(n: int, seed: int) -> UniformMatroid:
    rng = np.random.default_rng(seed)
    return UniformMatroid(n, int(rng.integers(1, n + 1)))


def random_partition_matroid(n: int, seed: int,
                             max_cap: int = 2) -> PartitionMatroid:
    rng = np.random.default_rng(seed)
    num_blocks = int(rng.integers(2, max(3, n // 2 + 1))) if n > 2 else 1
    assignment = rng.integers(0, num_blocks, n)
    blocks = [sorted(np.nonzero(assignment == j)[0].tolist())
              for j in range(num_blocks)]
    blocks = [b for b in blocks if b]
    caps = [int(rng.integers(1, max_cap + 1)) for _ in blocks]
    return PartitionMatroid(blocks, caps)


def random_partition_psystem(n: int, p: int, seed: int) -> PSystem:
    """Intersection of p seeded partition matroids, the j-th drawn from
    seed + 7 * (j + 1)."""
    return PSystem.from_matroids(
        [random_partition_matroid(n, seed + 7 * (j + 1)) for j in range(p)])


def random_graphic_matroid(n_edges: int, seed: int) -> GraphicMatroid:
    rng = np.random.default_rng(seed)
    num_vertices = max(3, n_edges // 2 + 2)
    edges = []
    for _ in range(n_edges):
        a = int(rng.integers(0, num_vertices))
        b = int(rng.integers(0, num_vertices - 1))
        if b >= a:
            b += 1
        edges.append((a, b))
    return GraphicMatroid(num_vertices, edges)
