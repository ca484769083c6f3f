"""Continuous oracles on the unit cube, down-closed polytopes with exact
closed-form linear maximization, and sampled structure checks.

Each oracle carries two certified constants: ``smoothness`` (an upper bound
on the gradient's Lipschitz constant) and ``value_lipschitz`` (an upper bound
on the gradient norm over the cube, i.e. a Lipschitz constant for the values
themselves, used for grid-certificate error radii).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .oracles import REL_TOL, CapabilityError, SetFunctionOracle

MULTILINEAR_LIMIT = 15
VERTEX_CHECK_LIMIT = 15


def _as_point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected a point in dimension {n}")
    if float(x.min()) < -1e-9 or float(x.max()) > 1.0 + 1e-9:
        raise ValueError("point lies outside the unit cube")
    return np.clip(x, 0.0, 1.0)


class ContinuousOracle:
    """Function/gradient oracle on [0,1]^n with certified constants."""

    family = "abstract"
    n: int
    monotone: bool
    smoothness: float
    value_lipschitz: float

    def value(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def value_many(self, points: np.ndarray) -> np.ndarray:
        return np.array([self.value(p) for p in points])


class QuadraticOracle(ContinuousOracle):
    """F(x) = b·x + x·A·x / 2 with symmetric A and nonpositive diagonal.

    The nonpositive diagonal makes F concave (or linear) along every
    coordinate, so nonnegativity over the cube reduces to the vertices and
    is certified at construction. A is entrywise nonpositive iff the oracle
    is DR (antitone gradient); mixed-sign off-diagonals give the weaker
    monotone families.
    """

    family = "quadratic"

    def __init__(self, b: Sequence[float], a: Sequence[Sequence[float]]):
        b = np.asarray(b, dtype=float)
        a = np.asarray(a, dtype=float)
        n = b.size
        if a.shape != (n, n):
            raise ValueError("interaction matrix shape mismatch")
        if not np.allclose(a, a.T, atol=1e-12):
            raise ValueError("interaction matrix must be symmetric")
        if float(np.diag(a).max(initial=0.0)) > 1e-12:
            raise ValueError("diagonal must be nonpositive")
        if float(b.min()) < 0.0:
            raise ValueError("linear term must be nonnegative")
        self.n = n
        self.b = b
        self.a = a
        neg_row = np.minimum(a, 0.0).sum(axis=1)
        pos_row = np.maximum(a, 0.0).sum(axis=1)
        self.monotone = bool((b + neg_row >= -1e-12).all())
        self.dr = bool((a <= 1e-12).all())
        self.smoothness = float(np.abs(a).sum(axis=1).max(initial=0.0))
        coord = np.maximum(np.abs(b + neg_row), np.abs(b + pos_row))
        self.value_lipschitz = float(np.linalg.norm(coord))
        if not self.monotone:
            self._check_vertices()

    def _check_vertices(self) -> None:
        if self.n > VERTEX_CHECK_LIMIT:
            raise CapabilityError(
                "cannot certify nonnegativity beyond the vertex-check limit")
        vals = np.zeros(1 << self.n)
        for mask in range(1, 1 << self.n):
            lsb = mask & -mask
            u = lsb.bit_length() - 1
            prev = mask ^ lsb
            cross = sum(self.a[u, v] for v in range(self.n) if (prev >> v) & 1)
            vals[mask] = vals[prev] + self.b[u] + cross + 0.5 * self.a[u, u]
        if float(vals.min()) < -1e-9:
            raise ValueError("quadratic oracle is negative at a cube vertex")

    def value(self, x) -> float:
        x = _as_point(x, self.n)
        return float(self.b @ x + 0.5 * x @ self.a @ x)

    def grad(self, x) -> np.ndarray:
        x = _as_point(x, self.n)
        return self.b + self.a @ x

    def value_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.b + 0.5 * np.einsum("ij,ij->i", pts @ self.a, pts)


class SqrtLinearOracle(ContinuousOracle):
    """F(x) = sqrt(shift + b·x) - sqrt(shift): monotone, DR, smooth."""

    family = "sqrt-linear"

    def __init__(self, b: Sequence[float], shift: float = 0.5):
        b = np.asarray(b, dtype=float)
        if float(b.min()) < 0.0:
            raise ValueError("coefficients must be nonnegative")
        if shift <= 0.0:
            raise ValueError("shift must be positive for smoothness")
        self.n = b.size
        self.b = b
        self.shift = float(shift)
        self.monotone = True
        self.dr = True
        norm_sq = float(b @ b)
        self.smoothness = norm_sq / (4.0 * self.shift ** 1.5)
        self.value_lipschitz = math.sqrt(norm_sq) / (2.0 * math.sqrt(self.shift))

    def value(self, x) -> float:
        x = _as_point(x, self.n)
        return float(math.sqrt(self.shift + self.b @ x) - math.sqrt(self.shift))

    def grad(self, x) -> np.ndarray:
        x = _as_point(x, self.n)
        return self.b / (2.0 * math.sqrt(self.shift + self.b @ x))

    def value_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.sqrt(self.shift + pts @ self.b) - math.sqrt(self.shift)


class MultilinearOracle(ContinuousOracle):
    """Exact multilinear extension of a set-function oracle (no sampling).

    F(1_S) = f(S) holds bit-for-bit; partial derivatives are the exact
    differences F(x; x_u = 1) - F(x; x_u = 0).
    """

    family = "multilinear"

    def __init__(self, base: SetFunctionOracle):
        if base.n > MULTILINEAR_LIMIT:
            raise CapabilityError(
                f"multilinear extension needs n <= {MULTILINEAR_LIMIT}")
        self.n = base.n
        self.base = base
        self._tab = base.table()
        masks = np.arange(1 << self.n)
        self._bits = ((masks[:, None] >> np.arange(self.n)[None, :]) & 1
                      ).astype(float)
        self.monotone = base.monotone is True
        diffs = np.zeros(self.n)
        for u in range(self.n):
            bit = 1 << u
            lows = masks[(masks & bit) == 0]
            diffs[u] = float(np.abs(self._tab[lows | bit] - self._tab[lows]).max())
        self.value_lipschitz = float(np.linalg.norm(diffs))
        pair_bound = np.zeros((self.n, self.n))
        for u in range(self.n):
            for v in range(u + 1, self.n):
                bu, bv = 1 << u, 1 << v
                lows = masks[(masks & (bu | bv)) == 0]
                second = (self._tab[lows | bu | bv] - self._tab[lows | bu]
                          - self._tab[lows | bv] + self._tab[lows])
                pair_bound[u, v] = pair_bound[v, u] = float(np.abs(second).max())
        self.smoothness = float(pair_bound.sum(axis=1).max(initial=0.0))

    def _weights(self, x: np.ndarray) -> np.ndarray:
        w = np.ones(1 << self.n)
        for u in range(self.n):
            col = self._bits[:, u]
            w *= col * x[u] + (1.0 - col) * (1.0 - x[u])
        return w

    def value(self, x) -> float:
        x = _as_point(x, self.n)
        return float(self._tab @ self._weights(x))

    def grad(self, x) -> np.ndarray:
        x = _as_point(x, self.n)
        out = np.empty(self.n)
        for u in range(self.n):
            partial = np.ones(1 << self.n)
            for v in range(self.n):
                if v == u:
                    continue
                col = self._bits[:, v]
                partial *= col * x[v] + (1.0 - col) * (1.0 - x[v])
            out[u] = float(self._tab @ (partial * (2.0 * self._bits[:, u] - 1.0)))
        return out

    def value_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        w = np.ones((pts.shape[0], 1 << self.n))
        for u in range(self.n):
            col = self._bits[:, u][None, :]
            w *= col * pts[:, u:u + 1] + (1.0 - col) * (1.0 - pts[:, u:u + 1])
        return w @ self._tab


class SumOracle(ContinuousOracle):
    """Pointwise sum of oracles; constants add, monotone iff all parts are."""

    family = "sum"

    def __init__(self, parts: Sequence[ContinuousOracle]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("need at least one component")
        self.n = parts[0].n
        if any(p.n != self.n for p in parts):
            raise ValueError("components must share the dimension")
        self.parts = parts
        self.monotone = all(p.monotone for p in parts)
        self.smoothness = float(sum(p.smoothness for p in parts))
        self.value_lipschitz = float(sum(p.value_lipschitz for p in parts))

    def value(self, x) -> float:
        return float(sum(p.value(x) for p in self.parts))

    def grad(self, x) -> np.ndarray:
        out = np.zeros(self.n)
        for p in self.parts:
            out += p.grad(x)
        return out

    def value_many(self, points: np.ndarray) -> np.ndarray:
        out = np.zeros(np.asarray(points).shape[0])
        for p in self.parts:
            out += p.value_many(points)
        return out


# ---------------------------------------------------------------------------
# down-closed polytopes


class Polytope:
    """Down-closed convex subset of [0,1]^n containing the origin.

    ``diameter`` is max ||x||_2 over the polytope, computed in closed form
    (or by vertex enumeration for knapsacks at desk scale).
    """

    family = "abstract"
    n: int
    diameter: float

    def member(self, x, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def lmo(self, c) -> np.ndarray:
        """argmax of <c, x> over the polytope, exact per family."""
        raise NotImplementedError

    def member_many(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        return np.array([self.member(p, tol) for p in points])

    def _box_ok(self, x: np.ndarray, tol: float) -> bool:
        return float(x.min()) >= -tol and float(x.max()) <= 1.0 + tol

    def _clean_c(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if c.shape != (self.n,) or not np.isfinite(c).all():
            raise ValueError("objective vector must be finite of matching size")
        return c


class BoxPolytope(Polytope):
    family = "box"

    def __init__(self, upper: Sequence[float]):
        upper = np.asarray(upper, dtype=float)
        if float(upper.min()) < 0.0 or float(upper.max()) > 1.0:
            raise ValueError("upper bounds must lie in [0, 1]")
        self.n = upper.size
        self.upper = upper
        self.diameter = float(np.linalg.norm(upper))

    def member(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= -tol).all() and (x <= self.upper + tol).all())

    def member_many(self, points, tol: float = 1e-9):
        pts = np.asarray(points, dtype=float)
        return ((pts >= -tol) & (pts <= self.upper[None, :] + tol)).all(axis=1)

    def lmo(self, c) -> np.ndarray:
        c = self._clean_c(c)
        return np.where(c > 0.0, self.upper, 0.0)


def unit_box(n: int) -> BoxPolytope:
    return BoxPolytope(np.ones(n))


class CardinalityPolytope(Polytope):
    """{x in [0,1]^n : sum x <= k}."""

    family = "cardinality"

    def __init__(self, n: int, k: int):
        if n < 1 or k < 0:
            raise ValueError("bad cardinality polytope parameters")
        self.n = int(n)
        self.k = int(k)
        self.diameter = math.sqrt(min(self.k, self.n))

    def member(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return self._box_ok(x, tol) and float(x.sum()) <= self.k + tol

    def member_many(self, points, tol: float = 1e-9):
        pts = np.asarray(points, dtype=float)
        box = ((pts >= -tol) & (pts <= 1.0 + tol)).all(axis=1)
        return box & (pts.sum(axis=1) <= self.k + tol)

    def lmo(self, c) -> np.ndarray:
        c = self._clean_c(c)
        x = np.zeros(self.n)
        order = np.lexsort((np.arange(self.n), -c))
        for u in order[:self.k]:
            if c[u] > 0.0:
                x[u] = 1.0
        return x


class PartitionPolytope(Polytope):
    """Per-block cardinality caps: sum over block j of x <= caps[j]."""

    family = "partition"

    def __init__(self, blocks: Sequence[Iterable[int]], caps: Sequence[int]):
        blocks = tuple(tuple(sorted(int(u) for u in b)) for b in blocks)
        caps = tuple(int(cc) for cc in caps)
        if len(blocks) != len(caps) or any(cc < 0 for cc in caps):
            raise ValueError("bad partition polytope parameters")
        all_elems = [u for b in blocks for u in b]
        n = len(all_elems)
        if n == 0 or sorted(all_elems) != list(range(n)):
            raise ValueError("blocks must partition {0..n-1}")
        self.n = n
        self.blocks = blocks
        self.caps = caps
        self.diameter = math.sqrt(
            sum(min(cc, len(b)) for b, cc in zip(blocks, caps)))

    def member(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if not self._box_ok(x, tol):
            return False
        return all(float(x[list(b)].sum()) <= cc + tol
                   for b, cc in zip(self.blocks, self.caps))

    def member_many(self, points, tol: float = 1e-9):
        pts = np.asarray(points, dtype=float)
        ok = ((pts >= -tol) & (pts <= 1.0 + tol)).all(axis=1)
        for b, cc in zip(self.blocks, self.caps):
            ok &= pts[:, list(b)].sum(axis=1) <= cc + tol
        return ok

    def lmo(self, c) -> np.ndarray:
        c = self._clean_c(c)
        x = np.zeros(self.n)
        for b, cc in zip(self.blocks, self.caps):
            order = sorted(b, key=lambda u: (-c[u], u))
            for u in order[:cc]:
                if c[u] > 0.0:
                    x[u] = 1.0
        return x


class KnapsackPolytope(Polytope):
    """{x in [0,1]^n : costs·x <= budget} with strictly positive costs."""

    family = "knapsack"

    def __init__(self, costs: Sequence[float], budget: float):
        costs = np.asarray(costs, dtype=float)
        if float(costs.min()) <= 0.0:
            raise ValueError("knapsack costs must be positive")
        if budget < 0.0:
            raise ValueError("budget must be nonnegative")
        self.n = costs.size
        self.costs = costs
        self.budget = float(budget)
        self.diameter = self._exact_diameter() if self.n <= VERTEX_CHECK_LIMIT \
            else float(np.linalg.norm(np.minimum(1.0, budget / costs)))

    def _exact_diameter(self) -> float:
        # max ||x||_2 is attained at a vertex: a full-1 set plus at most one
        # fractional coordinate.
        best = 0.0
        for mask in range(1 << self.n):
            cost = sum(self.costs[u] for u in range(self.n) if (mask >> u) & 1)
            if cost > self.budget + 1e-12:
                continue
            residual = self.budget - cost
            d2 = float(mask.bit_count())
            frac = 0.0
            for v in range(self.n):
                if not (mask >> v) & 1:
                    frac = max(frac, min(1.0, residual / self.costs[v]))
            best = max(best, d2 + frac * frac)
        return math.sqrt(best)

    def member(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        scale = max(1.0, self.budget)
        return self._box_ok(x, tol) and \
            float(self.costs @ x) <= self.budget + tol * scale

    def member_many(self, points, tol: float = 1e-9):
        pts = np.asarray(points, dtype=float)
        scale = max(1.0, self.budget)
        box = ((pts >= -tol) & (pts <= 1.0 + tol)).all(axis=1)
        return box & (pts @ self.costs <= self.budget + tol * scale)

    def lmo(self, c) -> np.ndarray:
        c = self._clean_c(c)
        x = np.zeros(self.n)
        order = sorted((u for u in range(self.n) if c[u] > 0.0),
                       key=lambda u: (-c[u] / self.costs[u], u))
        left = self.budget
        for u in order:
            if left <= 0.0:
                break
            take = min(1.0, left / self.costs[u])
            x[u] = take
            left -= take * self.costs[u]
        return x


def masked_update(y, s, step: float) -> np.ndarray:
    """y + step * (1 - y) ⊙ s; the measured-greedy step staying in the cube."""
    if not 0.0 < step <= 1.0:
        raise ValueError("step must lie in (0, 1]")
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    if y.shape != s.shape:
        raise ValueError("point and direction must share the dimension")
    for v in (y, s):
        if float(v.min()) < -1e-12 or float(v.max()) > 1.0 + 1e-12:
            raise ValueError("inputs must lie in the unit cube")
    return np.minimum(1.0, y + step * (1.0 - y) * s)


def grad_check(f: ContinuousOracle, x, step: float = 1e-4) -> float:
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


def _sample_ordered_pairs(n: int, samples: int, rng: np.random.Generator):
    lo = rng.uniform(0.0, 1.0, (samples, n))
    hi = lo + rng.uniform(0.0, 1.0, (samples, n)) * (1.0 - lo)
    lo[0] = 0.0  # keep the extreme pairs in every sample set
    hi[-1] = 1.0
    return lo, hi


def dr_check(f: ContinuousOracle, samples: int = 200, seed: int = 0,
             tol: float = 1e-7):
    """Sampled antitone-gradient check: x <= y must give grad(y) <= grad(x).

    Returns (True, None) or (False, (x, y, coordinate)) for a witness pair.
    """
    rng = np.random.default_rng(seed)
    lo, hi = _sample_ordered_pairs(f.n, samples, rng)
    for x, y in zip(lo, hi):
        gx, gy = f.grad(x), f.grad(y)
        scale = max(1.0, float(np.abs(gx).max()), float(np.abs(gy).max()))
        diff = gy - gx
        if float(diff.max()) > tol * scale:
            return False, (x.tolist(), y.tolist(), int(np.argmax(diff)))
    return True, None


def weak_dr_gamma(f: ContinuousOracle, samples: int = 2000,
                  seed: int = 0) -> float:
    """Sampled weak-DR ratio: min over pairs x <= y with F(y) > F(x) of
    <y - x, grad F(x)> / (F(y) - F(x)), clamped to [0, 1].

    An upper-bound estimate of the true ratio (the sampled minimum can only
    exceed the infimum); values within relative 1e-9 of 1 snap to exactly 1.
    """
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


# ---------------------------------------------------------------------------
# seeded instance generators


def random_quadratic_dr(n: int, seed: int,
                        monotone: bool = True) -> QuadraticOracle:
    """Seeded DR quadratic: nonpositive interactions; the non-monotone
    variant scales them until some gradient coordinate goes negative at the
    top vertex while every vertex value stays nonnegative."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.6, 1.4, n)
    raw = -rng.uniform(0.2, 1.0, (n, n))
    a = (raw + raw.T) / 2.0
    np.fill_diagonal(a, -rng.uniform(0.05, 0.3, n))
    row = a.sum(axis=1)  # strictly negative by construction
    if monotone:
        t = 0.8 * float((b / -row).min())
        a = a * min(1.0, t)
    else:
        t = 1.5 * float((b / -row).min())
        a = a * t
    return QuadraticOracle(b, a)


def random_weak_quadratic(n: int, seed: int) -> QuadraticOracle:
    """Monotone quadratic with mixed-sign interactions: not DR, so the
    sampled weak-DR ratio is typically strictly below 1."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.8, 1.6, n)
    raw = rng.uniform(-0.4, 0.5, (n, n))
    a = (raw + raw.T) / 2.0
    np.fill_diagonal(a, 0.0)
    neg_row = np.minimum(a, 0.0).sum(axis=1)
    with np.errstate(divide="ignore"):
        limits = np.where(neg_row < 0.0, b / -neg_row, np.inf)
    t = 0.9 * float(limits.min())
    a = a * min(1.0, t)
    return QuadraticOracle(b, a)


def random_sqrt_linear(n: int, seed: int) -> SqrtLinearOracle:
    rng = np.random.default_rng(seed)
    return SqrtLinearOracle(rng.uniform(0.5, 1.5, n), shift=0.5)
