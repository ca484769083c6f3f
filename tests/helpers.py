"""Shared test scaffolding: a raw table-backed oracle and tiny independent
reference solvers used as cross-checking oracles."""

from __future__ import annotations

import numpy as np

from submodlab.oracles import GroundSet, SetFunctionOracle


class TableOracle(SetFunctionOracle):
    """Set function given by an explicit 2^n value table (tests only)."""

    family = "table"

    def __init__(self, values, monotone=None):
        values = np.asarray(values, dtype=float)
        n = values.size.bit_length() - 1
        if 1 << n != values.size:
            raise ValueError("table length must be a power of two")
        super().__init__(GroundSet(n), monotone=monotone)
        self._values = values

    def _build_table(self):
        return self._values


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
