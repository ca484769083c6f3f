"""Matroid and p-system independence oracles, marginal greedy over a
p-system, and exact maximum-weight common independent sets via
branch-and-prune.

Matroids and p-systems are ``IndependenceSystem``s: each answers
independence (``indep_mask``) from its 2^n bool table, ``indep_table()``,
which ``oracles._Table``, the one base of the value tables too, caps,
builds once and caches read-only; a subclass only builds it. A uniform
matroid is the one-block partition matroid. A partition matroid states
its per-block counters once (``counters``): each gets the bits of its
block's size and a guard bit above them that a count over the cap carries
into. Partition matroids and p-systems build their tables with one kernel,
``_common_table``: it packs the counters of every partition member into
as few 64-bit words as first-fit gives (one word for a partition matroid
alone, and for most p-systems), fills each word for every subset by
``oracles._doubled`` and reads its guard bits once. Graphic tables
come from per-subset component labels, by a doubling whose every step
reads the labels just built. A p-system is built from matroids only; the
table of a member that is not a partition matroid is ANDed in whole.
``checked_partition`` takes integer elements and caps only.

The common-independent search's int mask ``base`` is an independent set S
that constrains independence: it looks for T with ``table[S | T]`` True,
the contraction by S. ``contracted_ranks`` gives the common rank of every
contraction at once, by a superset-max ``oracles._sweep`` over the
table; the two-matroid random greedy reads the rank at each state it
visits by one unit-weight ``_heaviest`` search instead. The greedy pass's
int mask ``given`` shifts the marginals only: T stays independent on its
own, scored by f(u | given ∪ T).

Everything here is exact and deterministic: the greedy pass breaks ties
toward the lowest element id, and the branch-and-prune search returns the
first optimum found in weight-sorted include-first order. The search is
one checked entry point, ``max_weight_common_independent``, over the
unchecked ``_heaviest``, which the two-matroid random greedy's candidate
rule runs at each state. ``_heaviest`` works on int masks end to end: it
takes the table as bytes and the elements outside ``base`` as ``(weight,
1 << u)`` pairs, and returns the chosen set as a mask, so a search makes
no numpy lookups, no shifts and no weight lookups; the checked entry
point turns that mask into its element list with ``elements_of``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .oracles import (SetFunctionOracle, _doubled, _finite, _integer,
                      _mask, _sweep, _Table, _within, elements_of, mask_of,
                      popcounts)

_ROW_BITS = 15  # a row of 2^15 codes, 256 KiB at 64 bits, stays in cache


def checked_partition(blocks: Sequence, caps: Sequence) -> tuple:
    """(blocks, caps) as sorted int tuples, checked: integer elements, one
    nonnegative integer cap per block, and blocks that partition {0..n-1}
    for some n >= 1."""
    blocks = tuple(tuple(sorted(_integer(u, "partition elements") for u in b))
                   for b in blocks)
    caps = tuple(_integer(c, "capacities") for c in caps)
    if len(blocks) != len(caps):
        raise ValueError("need one capacity per block")
    if any(c < 0 for c in caps):
        raise ValueError("capacities must be nonnegative")
    all_elems = sorted(u for b in blocks for u in b)
    if not all_elems or all_elems != list(range(len(all_elems))):
        raise ValueError("blocks must partition {0..n-1}")
    return blocks, caps


class IndependenceSystem(_Table):
    """Independence oracle over ground set {0..n-1}, answered from a cached
    2^n independence table that subclasses build."""

    _DTYPE = bool
    _WHAT = "independence table"

    indep_table = _Table._cached

    def indep_mask(self, mask: int) -> bool:
        return bool(self.indep_table()[mask])

    def indep(self, subset: Iterable[int]) -> bool:
        return self.indep_mask(mask_of(subset, self.n))


class Matroid(IndependenceSystem):
    family = "abstract"


class PartitionMatroid(Matroid):
    """Blocks partition the ground set; block j may contribute <= caps[j]."""

    family = "partition"

    def __init__(self, blocks: Sequence[Iterable[int]], caps: Sequence[int]):
        blocks, caps = checked_partition(blocks, caps)
        super().__init__(sum(len(b) for b in blocks))
        self.blocks = blocks
        self.caps = caps
        # The packed block counters (start, per-element units, guard,
        # bits): a block with cap < size gets size.bit_length() bits,
        # started at 2^width - 1 - cap so a count over the cap carries
        # into the guard bit above them, at most 2n <= 40 bits in all.
        unit = [0] * self.n
        start = guard = shift = 0
        for block, cap in zip(blocks, caps):
            if cap < len(block):
                width = len(block).bit_length()
                for u in block:
                    unit[u] = 1 << shift
                start |= ((1 << width) - 1 - cap) << shift
                guard |= 1 << (shift + width)
                shift += width + 1
        self.counters = (start, tuple(unit), guard, shift)

    def _build_table(self) -> np.ndarray:
        return _common_table(self.n, (self,))


class UniformMatroid(PartitionMatroid):
    """Any k of the n elements: the partition matroid of one block."""

    family = "uniform"

    def __init__(self, n: int, k: int):
        super().__init__([range(_integer(n, "ground-set sizes"))], [k])
        self.k = self.caps[0]


class GraphicMatroid(Matroid):
    """Ground set = edge ids of an undirected multigraph; independent = forest."""

    family = "graphic"

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        self.num_vertices = _integer(num_vertices, "vertex counts")
        if self.num_vertices < 2:
            raise ValueError("graph needs at least two vertices")
        edges = tuple(tuple(_integer(v, "edge endpoints") for v in edge)
                      for edge in edges)
        for a, b in edges:
            if a == b:
                raise ValueError("self-loops are never independent; drop them")
            if not (0 <= a < self.num_vertices and 0 <= b < self.num_vertices):
                raise ValueError("edge endpoint outside vertex range")
        super().__init__(len(edges))
        self.edges = edges

    def _build_table(self) -> np.ndarray:
        # Subset doubling over per-mask component labels: lab[mask, v] names
        # the component of v in the graph of mask's edges. Adding edge u =
        # (a, b) to a mask below 2^u merges b's component into a's, and keeps
        # a forest iff a and b were apart. Only endpoints get a column.
        verts, ends = np.unique(np.ravel(self.edges), return_inverse=True)
        lab = np.empty((1 << self.n, verts.size),
                       dtype=np.min_scalar_type(verts.size))
        lab[0] = np.arange(verts.size)
        tab = np.zeros(1 << self.n, dtype=bool)
        tab[0] = True
        for u, (a, b) in enumerate(ends.reshape(-1, 2)):
            half = 1 << u
            low = lab[:half]
            lab[half:2 * half] = np.where(low == low[:, b:b + 1],
                                          low[:, a:a + 1], low)
            tab[half:2 * half] = tab[:half] & (low[:, a] != low[:, b])
        return tab


class PSystem(IndependenceSystem):
    """Intersection of matroids over one ground set, with p = len(matroids).

    A set is independent iff every matroid finds it independent; such an
    intersection is a p-system. Its independence table is the AND of the
    matroids' tables.
    """

    def __init__(self, matroids: Sequence[Matroid]):
        matroids = tuple(matroids)
        if not matroids:
            raise ValueError("need at least one matroid")
        for m in matroids:
            if not isinstance(m, Matroid):
                raise ValueError(f"p-system members must be matroids, not "
                                 f"{type(m).__name__!r}")
        if any(m.n != matroids[0].n for m in matroids):
            raise ValueError("matroids must share the ground set")
        super().__init__(matroids[0].n)
        self.matroids = matroids
        self.p = len(matroids)

    def _build_table(self) -> np.ndarray:
        return _common_table(self.n, self.matroids)


def _common_table(n: int, matroids) -> np.ndarray:
    """The AND of the matroids' independence tables over {0..n-1}.

    The partition members' counters go first-fit into words of at most 64
    bits, each member's shifted above those already in its word; no
    counter carries past its own guard bit, so each word needs one guard
    test. A word's codes come from two ``_doubled`` passes in the narrowest
    unsigned type that holds it: one over the first min(n, 15) elements,
    one row of the table, and one over the rest, an offset per row; a row
    is tested at its offset while it is in cache. The table of any other
    member is ANDed in after the words.
    """
    words: list[list] = []
    others = []
    for m in matroids:
        if not isinstance(m, PartitionMatroid):
            others.append(m)
            continue
        start, unit, guard, bits = m.counters
        for word in words:
            shift = word[3]
            if shift + bits <= 64:
                word[0] |= start << shift
                word[1] = [a | b << shift for a, b in zip(word[1], unit)]
                word[2] |= guard << shift
                word[3] += bits
                break
        else:
            words.append([start, unit, guard, bits])
    low = min(n, _ROW_BITS)
    tab = np.ones((1 << (n - low), 1 << low), dtype=bool)
    for start, unit, guard, _ in words:
        dtype = np.min_scalar_type(guard)
        codes = _doubled(start, unit[:low], dtype=dtype)
        for row, offset in zip(tab, _doubled(0, unit[low:], dtype=dtype)):
            row &= ((codes + offset) & guard) == 0
    tab = tab.reshape(-1)
    for m in others:
        tab &= m.indep_table()
    return tab


def psystem_greedy_marginal(f: SetFunctionOracle, system: IndependenceSystem,
                            given: int = 0) -> list[int]:
    """Greedy by marginal value on top of ``given``, an int mask.

    Repeatedly adds the element u outside ``given`` maximizing
    f(u | given ∪ T) subject to T + u staying independent, until no
    feasible element remains. ``given`` shifts the marginals only; it takes
    no part in independence. For oracles certified monotone the loop also
    stops once the best available marginal is <= 0 (a numerical guard;
    monotone oracles only produce such marginals as zeros or float noise).

    Both tables are read through memoryviews, so each marginal is the
    difference of two Python floats, bit for bit the value table's own.
    """
    if system.n != f.n:
        raise ValueError("oracle and independence system sizes differ")
    given = _mask(given, f.n, "given")
    values = memoryview(f.table())
    indep = memoryview(system.indep_table())
    units = [1 << u for u in range(f.n)]
    stop_at_nonpositive = f.monotone is True
    chosen: list[int] = []
    sel = 0
    while True:
        cur = given | sel
        base = values[cur]
        best_u = -1
        best_marg = 0.0
        for u, bit in enumerate(units):
            if cur & bit or not indep[sel | bit]:
                continue
            marg = values[cur | bit] - base
            if best_u < 0 or marg > best_marg:
                best_u, best_marg = u, marg
        if best_u < 0 or stop_at_nonpositive and best_marg <= 0.0:
            break
        chosen.append(best_u)
        sel |= units[best_u]
    return chosen


def max_weight_common_independent(system: IndependenceSystem,
                                  weights: Sequence[float], base: int = 0
                                  ) -> list[int]:
    """Exact maximum-weight T outside ``base`` with ``base | T`` independent.

    ``system`` is a matroid or p-system, so a p-system of two matroids gives
    the maximum-weight common independent set. The independent int mask
    ``base`` plays the contraction by that set: the search ORs it into each
    lookup of ``system.indep_table()``. Among equal-weight optima the result
    is the first one found by include-first depth-first search in
    descending-weight order, which in particular is never empty while any
    single element is feasible with weight >= 0.
    """
    n = system.n
    base = _mask(base, n, "base")
    elems = [u for u in range(n) if not base >> u & 1]
    _within("search", len(elems))
    w = _finite(weights, "weights", 1)
    if w.size != n:
        raise ValueError("need one weight per element")
    tab = system.indep_table()
    if not tab[base]:
        raise ValueError("base is not an independent set")
    w = w.tolist()
    return elements_of(_heaviest(tab.tobytes(),
                                 [(w[u], 1 << u) for u in elems], base))


def _heaviest(indep: bytes, pairs: list, base: int) -> int:
    """The search of ``max_weight_common_independent``, unchecked: the mask
    of the heaviest T outside ``base`` with ``indep[base | T]`` true, for
    an independence table indexed by mask as bytes. ``pairs`` holds one
    ``(weight, bit)`` pair per element outside ``base``, bit = 1 << u, in
    ascending u; it is sorted in place, stably by descending weight, so
    ties stay in ascending u.

    Include-first depth-first search in (-w, u) order on an explicit stack:
    a node is pruned when its weight plus the positive weight still to come
    is <= the best, and a leaf replaces the best only when heavier. The
    positive weight to come sums over every pair, but the search visits
    only the feasible singletons, u with ``indep[base | bit]`` true: the
    table is down-closed, so no other element joins any T. The sums never
    increase along the order, so a prune at a skipped element is a prune
    at the next visited one, or a leaf no heavier than the best: every
    decision and the result are those of a search that visits every
    element. Each visited element keeps ``(bit, weight, positive weight
    from it on)``, so a search node makes no shift and no weight lookup.
    """
    pairs.sort(key=itemgetter(0), reverse=True)  # stable: ties keep u order
    visit = []
    pos_suffix = 0.0
    for weight, bit in reversed(pairs):
        if weight > 0.0:  # adding a zero leaves the sum's bits as they are
            pos_suffix += weight
        if indep[base | bit]:
            visit.append((bit, weight, pos_suffix))
    visit.reverse()
    k = len(visit)

    best_w = -np.inf
    best_set = base
    stack = [(0, base, 0.0)]  # the exclude branches still to visit
    while stack:
        idx, mask, cur_w = stack.pop()
        while True:
            if idx == k:
                if cur_w > best_w:
                    best_w, best_set = cur_w, mask
                break
            bit, weight, rest = visit[idx]
            if cur_w + rest <= best_w:
                break
            idx += 1
            if indep[mask | bit]:
                stack.append((idx, mask, cur_w))
                mask |= bit
                cur_w += weight
    return best_set ^ base


def contracted_ranks(system: IndependenceSystem) -> np.ndarray:
    """The common rank of the contraction by every set S, indexed by mask S:
    the largest |T| outside S with S | T independent, or -1 where S itself
    is dependent.

    The largest independent superset of each S comes from n in-place
    superset-max passes over the sizes of the independent sets (-1 at the
    dependent ones); the rank is that size minus |S|.
    """
    counts = popcounts(system.n)
    sizes = np.where(system.indep_table(), counts, -1)
    _sweep(sizes, np.maximum, upward=False)
    return np.where(sizes >= 0, sizes - counts, -1)


# ---------------------------------------------------------------------------
# seeded instance generators


def random_partition_matroid(n: int, seed: int) -> PartitionMatroid:
    rng = np.random.default_rng(seed)
    num_blocks = int(rng.integers(2, max(3, n // 2 + 1))) if n > 2 else 1
    blocks = [[] for _ in range(num_blocks)]
    for u, j in enumerate(rng.integers(0, num_blocks, n).tolist()):
        blocks[j].append(u)  # ascending u
    blocks = [b for b in blocks if b]
    caps = rng.integers(1, 3, size=len(blocks)).tolist()  # the scalar draws
    return PartitionMatroid(blocks, caps)


def random_partition_psystem(n: int, p: int, seed: int) -> PSystem:
    """Intersection of p seeded partition matroids, the j-th drawn from
    seed + 7 * (j + 1)."""
    return PSystem([random_partition_matroid(n, seed + 7 * (j + 1))
                    for j in range(p)])


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
