"""Continuous oracles on the unit cube, down-closed polytopes with exact
closed-form linear maximization, and sampled structure checks.

Each oracle carries two certified constants: ``smoothness`` (an upper bound
on the gradient's Lipschitz constant) and ``value_lipschitz`` (an upper bound
on the gradient norm over the cube, i.e. a Lipschitz constant for the values
themselves, used for grid-certificate error radii). Both are in the
Euclidean norm; see ``ContinuousOracle``.

Exact work over the cube's 2^n vertices reads one vertex matrix,
``oracles.subset_bits``: the quadratic oracle's nonnegativity certificate
(``_value_many`` at every vertex) and the knapsack diameter, whose vertex
costs are the modular table that ``oracles._doubled`` builds.

Polytope membership is one rule, ``Polytope.member_many``: the box
[0, upper], then each row of ``linear_rows``, the rows that ``grid_opt``'s
pruning reads. The cardinality polytope is the one-block partition polytope.

Checked entry points, each written once, hand native values to unchecked
kernels: an oracle's ``value``/``grad``/``value_many``/``grad_many`` to the
family's ``_value``/``_grad``/``_value_many``/``_grad_many`` (a sum checks
a point or a batch once), a polytope's ``lmo`` to ``_lmo``, which maps a
list of finite floats to a list, and ``masked_update`` to ``_masked_step``,
the one measured-greedy step rule, also on lists. They check outside input
only: ``weak_dr_gamma``, ``grid_opt`` and the Frank-Wolfe loops, each
iterate of which passes ``_checked_list`` once, hand the kernels points
they built. The one-point quadratic and sqrt-linear kernels reach BLAS
through ``ndarray.dot``, in the operand order of their ``@`` formulas.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .matroids import checked_partition
from .oracles import (BUDGET, REL_TOL, _allowance, _doubled, _finite,
                      _integer, _reals, _within, clamp_ratio, subset_bits)


def _as_point(x, n: int) -> np.ndarray:
    return _as_points(_reals(x, "points")[None], n)[0]


def _as_points(points, n: int) -> np.ndarray:
    """``points``, an (m, n) array of numbers, checked once by ``_in_cube``."""
    pts = _reals(points, "points")
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"expected a point in dimension {n}")
    return _in_cube(pts) if pts.size else pts


def _checked_list(x: list) -> tuple[list, np.ndarray]:
    """``_as_point``'s rule on a point that a loop built as a list of n
    floats: the point as a list and as an array. A list in [0, 1] (NaN
    fails) is returned as it is, beside ``np.array(x)``; any other goes
    through ``_in_cube``, which clips it or raises."""
    for v in x:
        if not 0.0 <= v <= 1.0:
            point = _in_cube(np.array(x))
            return point.tolist(), point
    return x, np.array(x)


def _in_cube(x: np.ndarray) -> np.ndarray:
    # x within REL_TOL of [0, 1] (NaN fails) is clipped into the cube; a
    # C-contiguous x already in [0, 1] is what the clip would copy, -0.0
    # included, so it is returned as it is. No caller writes to the result.
    low, high = float(x.min()), float(x.max())
    if not (low >= -REL_TOL and high <= 1.0 + REL_TOL):
        raise ValueError("point lies outside the unit cube")
    if x.flags.c_contiguous and low >= 0.0 and high <= 1.0:
        return x
    return np.clip(x, 0.0, 1.0)


class ContinuousOracle:
    """Function/gradient oracle on [0,1]^n with certified constants.

    For all x, y in the cube, in the Euclidean norm:

    - ||grad F(x) - grad F(y)|| <= smoothness * ||x - y||;
    - ||grad F(x)|| <= value_lipschitz.

    ``grid_opt``'s cell bound rests on both. An oracle that is not
    differentiable declares ``smoothness = math.inf`` and keeps the
    Lipschitz bound alone. ``value``/``grad`` check one point and
    ``value_many``/``grad_many`` an (m, n) matrix of points, and call the
    kernels a family defines, ``_value``/``_grad`` and ``_value_many``/
    ``_grad_many`` (the value and the gradient at each row), which read
    checked points. A batch kernel may differ from the one-point form in
    the last bits.
    """

    family = "abstract"
    n: int
    monotone: bool
    smoothness: float
    value_lipschitz: float

    def value(self, x) -> float:
        return self._value(_as_point(x, self.n))

    def grad(self, x) -> np.ndarray:
        return self._grad(_as_point(x, self.n))

    def value_many(self, points) -> np.ndarray:
        return self._value_many(_as_points(points, self.n))

    def grad_many(self, points) -> np.ndarray:
        return self._grad_many(_as_points(points, self.n))


class QuadraticOracle(ContinuousOracle):
    """F(x) = b·x + x·A·x / 2 with A symmetric and its diagonal
    nonpositive, to within ``_allowance`` of the largest |coefficient|.

    The nonpositive diagonal makes F concave (or linear) along every
    coordinate, so nonnegativity over the cube reduces to the vertices and
    is certified at construction. A is entrywise nonpositive iff the oracle
    is DR (antitone gradient); mixed-sign off-diagonals give the weaker
    monotone families.
    """

    family = "quadratic"

    def __init__(self, b: Sequence[float], a: Sequence[Sequence[float]]):
        b = _finite(b, "b", 1)
        a = _finite(a, "a")
        n = b.size
        if a.shape != (n, n):
            raise ValueError("interaction matrix shape mismatch")
        tol = _allowance(max(float(np.abs(b).max()), float(np.abs(a).max())))
        if float(np.abs(a - a.T).max()) > tol:
            raise ValueError("interaction matrix must be symmetric")
        if float(np.diag(a).max()) > tol:
            raise ValueError("diagonal must be nonpositive")
        if float(b.min()) < 0.0:
            raise ValueError("linear term must be nonnegative")
        self.n = n
        self.b = b
        self.a = a
        neg_row = np.minimum(a, 0.0).sum(axis=1)
        pos_row = np.maximum(a, 0.0).sum(axis=1)
        self.monotone = bool((b + neg_row >= -tol).all())
        self.dr = bool((a <= tol).all())
        self.smoothness = float(np.abs(a).sum(axis=1).max(initial=0.0))
        coord = np.maximum(np.abs(b + neg_row), np.abs(b + pos_row))
        self.value_lipschitz = float(np.linalg.norm(coord))
        if not self.monotone:
            self._check_vertices(tol)

    def _check_vertices(self, tol: float) -> None:
        _within("vertex-check", self.n)
        # the rows of subset_bits are the cube's vertices
        if float(self._value_many(subset_bits(self.n)).min()) < -tol:
            raise ValueError("quadratic oracle is negative at a cube vertex")

    # ndarray.dot reaches the BLAS calls of ``b @ x + 0.5 * x @ a @ x`` and
    # ``b + a @ x`` in their operand order, with less dispatch per call
    def _value(self, x: np.ndarray) -> float:
        return float(self.b.dot(x) + (0.5 * x).dot(self.a).dot(x))

    def _grad(self, x: np.ndarray) -> np.ndarray:
        return self.b + self.a.dot(x)

    def _value_many(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.b + 0.5 * np.einsum("ij,ij->i", pts @ self.a, pts)

    def _grad_many(self, pts: np.ndarray) -> np.ndarray:
        # a.T: A is symmetric only to the allowance; grad reads its rows
        return self.b + pts @ self.a.T


class SqrtLinearOracle(ContinuousOracle):
    """F(x) = sqrt(shift + b·x) - sqrt(shift): monotone, DR, smooth."""

    family = "sqrt-linear"

    def __init__(self, b: Sequence[float], shift: float = 0.5):
        b = _finite(b, "b", 1)
        shift = float(_finite(shift, "shift", 0))
        if float(b.min()) < 0.0:
            raise ValueError("coefficients must be nonnegative")
        if shift <= 0.0:
            raise ValueError("shift must be positive for smoothness")
        self.n = b.size
        self.b = b
        self.shift = shift
        self.monotone = True
        self.dr = True
        norm_sq = float(b @ b)
        self.smoothness = norm_sq / (4.0 * self.shift ** 1.5)
        self.value_lipschitz = math.sqrt(norm_sq) / (2.0 * math.sqrt(self.shift))

    def _value(self, x: np.ndarray) -> float:
        return float(math.sqrt(self.shift + self.b.dot(x))
                     - math.sqrt(self.shift))

    def _grad(self, x: np.ndarray) -> np.ndarray:
        return self.b / (2.0 * math.sqrt(self.shift + self.b.dot(x)))

    def _value_many(self, pts: np.ndarray) -> np.ndarray:
        return np.sqrt(self.shift + pts @ self.b) - math.sqrt(self.shift)

    def _grad_many(self, pts: np.ndarray) -> np.ndarray:
        return self.b / (2.0 * np.sqrt(self.shift + pts @ self.b))[:, None]


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

    def _value(self, x: np.ndarray) -> float:
        return float(sum(p._value(x) for p in self.parts))

    def _grad(self, x: np.ndarray) -> np.ndarray:
        return sum(p._grad(x) for p in self.parts)

    def _value_many(self, pts: np.ndarray) -> np.ndarray:
        return sum(p._value_many(pts) for p in self.parts)

    def _grad_many(self, pts: np.ndarray) -> np.ndarray:
        return sum(p._grad_many(pts) for p in self.parts)


# ---------------------------------------------------------------------------
# down-closed polytopes


class Polytope:
    """Down-closed convex subset of [0,1]^n containing the origin: the box
    [0, upper] cut by the rows of ``linear_rows``.

    ``diameter`` is max ||x||_2 over the polytope, computed in closed form
    (or over the cube's vertex matrix for knapsacks at desk scale).
    """

    family = "abstract"
    n: int
    upper: np.ndarray
    diameter: float

    def member_many(self, points) -> np.ndarray:
        """Membership of each row of ``points``, an (m, n) array of numbers
        (else ValueError): within REL_TOL of the box [0, upper], and
        within each row of ``linear_rows``, whose bounds carry their slack.
        The box test is made on a contiguous copy of the columns, which
        are then ANDed: on a few columns that is several times cheaper than
        a reduction along each row, or than comparisons on strided
        columns."""
        pts = _reals(points, "points")
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"expected points in dimension {self.n}")
        cols = pts.T.copy()
        inside = cols >= -REL_TOL
        inside &= cols <= (self.upper + REL_TOL)[:, None]
        ok = np.logical_and.reduce(inside, axis=0)
        for row, bound in zip(*self.linear_rows()):
            ok &= pts @ row <= bound
        return ok

    def member(self, x) -> bool:
        """``member_many`` of the one point ``x``, which must have n
        coordinates (else ValueError)."""
        x = _reals(x, "points")
        if x.shape != (self.n,):
            raise ValueError(f"expected a point in dimension {self.n}")
        return bool(self.member_many(x[None])[0])

    def linear_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows (M, c) of the constraints M x <= c beyond the box, with
        the slack ``_allowance(c)`` included in c. M is nonnegative."""
        return np.zeros((0, self.n)), np.zeros(0)

    def lmo(self, c) -> np.ndarray:
        """argmax of <c, x> over the polytope, exact per family: the
        family's kernel ``_lmo`` on the checked ``c``."""
        return np.array(self._lmo(self._clean_c(c)))

    def _lmo(self, c: list) -> list:
        """``lmo``'s kernel: the maximizer as a list of floats, for ``c`` a
        list of n finite floats."""
        raise NotImplementedError

    def _clean_c(self, c) -> list[float]:
        """``c`` as a list of n finite floats, which the ``_lmo`` kernels
        compare."""
        c = _reals(c, "objective vectors")
        values = c.tolist()
        if c.shape != (self.n,) or not all(map(math.isfinite, values)):
            raise ValueError("objective vector must be finite of matching size")
        return values


class BoxPolytope(Polytope):
    family = "box"

    def __init__(self, upper: Sequence[float]):
        upper = _finite(upper, "upper", 1)
        if float(upper.min()) < 0.0 or float(upper.max()) > 1.0:
            raise ValueError("upper bounds must lie in [0, 1]")
        self.n = upper.size
        self.upper = upper
        self.diameter = float(np.linalg.norm(upper))

    def _lmo(self, c: list) -> list:
        return [u if v > 0.0 else 0.0 for u, v in zip(self.upper.tolist(), c)]


def unit_box(n: int) -> BoxPolytope:
    return BoxPolytope(np.ones(n))


class PartitionPolytope(Polytope):
    """Per-block cardinality caps: sum over block j of x <= caps[j]."""

    family = "partition"

    def __init__(self, blocks: Sequence[Iterable[int]], caps: Sequence[int]):
        self.blocks, self.caps = checked_partition(blocks, caps)
        self.n = sum(len(b) for b in self.blocks)
        self.upper = np.ones(self.n)
        self.diameter = math.sqrt(
            sum(min(cc, len(b)) for b, cc in zip(self.blocks, self.caps)))

    def linear_rows(self):
        rows = np.zeros((len(self.blocks), self.n))
        for j, b in enumerate(self.blocks):
            rows[j, list(b)] = 1.0
        caps = np.array(self.caps, dtype=float)
        return rows, caps + _allowance(caps)

    def _lmo(self, c: list) -> list:
        # each block is ascending, so the stable sort orders by (-c[u], u)
        x = [0.0] * self.n
        for b, cc in zip(self.blocks, self.caps):
            for u in sorted(b, key=c.__getitem__, reverse=True)[:cc]:
                if c[u] > 0.0:
                    x[u] = 1.0
        return x


class CardinalityPolytope(PartitionPolytope):
    """{x in [0,1]^n : sum x <= k}: the partition polytope of one block."""

    family = "cardinality"

    def __init__(self, n: int, k: int):
        super().__init__([range(_integer(n, "ground-set sizes"))], [k])
        self.k = self.caps[0]


class KnapsackPolytope(Polytope):
    """{x in [0,1]^n : costs·x <= budget} with strictly positive costs."""

    family = "knapsack"

    def __init__(self, costs: Sequence[float], budget: float):
        costs = _finite(costs, "costs", 1)
        budget = float(_finite(budget, "budget", 0))
        if float(costs.min()) <= 0.0:
            raise ValueError("knapsack costs must be positive")
        if budget < 0.0:
            raise ValueError("budget must be nonnegative")
        self.n = costs.size
        self.costs = costs
        self.budget = budget
        self.upper = np.ones(self.n)
        self.diameter = self._exact_diameter() \
            if self.n <= BUDGET["vertex-check"].limit \
            else float(np.linalg.norm(np.minimum(1.0, budget / costs)))

    def _exact_diameter(self) -> float:
        # max ||x||_2 is attained at a vertex: a full-1 set plus at most one
        # fractional coordinate.
        bits = subset_bits(self.n)
        cost = _doubled(0.0, self.costs)
        fits = cost <= self.budget + _allowance(self.budget)
        bits, residual = bits[fits], self.budget - cost[fits]
        frac = np.where(bits == 0.0, np.minimum(
            1.0, residual[:, None] / self.costs), 0.0).max(axis=1, initial=0.0)
        return math.sqrt(float((bits.sum(axis=1) + frac * frac).max()))

    def linear_rows(self):
        return self.costs[None, :], np.array(
            [self.budget + _allowance(self.budget)])

    def _lmo(self, c: list) -> list:
        costs = self.costs.tolist()
        x = [0.0] * self.n
        order = sorted((u for u in range(self.n) if c[u] > 0.0),
                       key=lambda u: (-c[u] / costs[u], u))
        left = self.budget
        for u in order:
            if left <= 0.0:
                break
            take = min(1.0, left / costs[u])
            x[u] = take
            left -= take * costs[u]
        return x


def masked_update(y, s, step: float) -> np.ndarray:
    """y + step * (1 - y) ⊙ s for cube points y and s (see ``_as_point``):
    the measured-greedy step staying in the cube."""
    if not 0.0 < step <= 1.0:
        raise ValueError("step must lie in (0, 1]")
    n = np.size(y)
    if n == 0:
        raise ValueError("dimension needs at least one coordinate")
    return np.array(_masked_step(_as_point(y, n).tolist(),
                                 _as_point(s, n).tolist(), step))


def _masked_step(y: list, s: list, step: float) -> list:
    """``masked_update``'s kernel, the one measured-greedy step rule: for
    cube points y and s as lists of floats and a checked step."""
    return [min(1.0, v + step * (1.0 - v) * d) for v, d in zip(y, s)]


def _sample_ordered_pairs(n: int, samples: int, rng: np.random.Generator):
    lo = rng.uniform(0.0, 1.0, (samples, n))
    hi = lo + rng.uniform(0.0, 1.0, (samples, n)) * (1.0 - lo)
    lo[0] = 0.0  # keep the extreme pairs in every sample set
    hi[-1] = 1.0
    return lo, hi


def _weak_dr_screen(f: ContinuousOracle, lo: np.ndarray, hi: np.ndarray,
                    denom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's batched weak-DR ratio and its rounding window; see
    ``weak_dr_gamma``."""
    step = hi - lo
    # 0 <= lo <= hi <= 1 by construction (_sample_ordered_pairs)
    ratios = np.einsum("ij,ij->i", step, f._grad_many(lo)) / denom
    window = 1e-12 * (np.abs(step).sum(axis=1)
                      * (f.value_lipschitz + f.smoothness) / denom
                      + np.abs(ratios))
    return ratios, window


def weak_dr_gamma(f: ContinuousOracle, samples: int = 2000,
                  seed: int = 0) -> float:
    """Sampled weak-DR ratio (Hassani, Soltanolkotabi and Karbasi, 2017):
    min over pairs x <= y with F(y) > F(x) of
    <y - x, grad F(x)> / (F(y) - F(x)), clamped to [0, 1].

    An upper-bound estimate of the true ratio (the sampled minimum can only
    exceed the infimum); values within relative 1e-9 of 1 snap to exactly 1.
    It is not a certified lower bound, so a run that declares it may still
    exceed what the ratio allows (ROADMAP item 1).

    The result is that of the per-pair loop, ratio = float((y - x) @
    f._grad(x)) / denom for every pair kept, bit for bit. A batched screen
    finds the pairs worth recomputing that way: one ``_grad_many`` and one
    einsum give every pair's ratio r' at once, and only the pairs with r' - w
    <= min(r' + w) over all pairs are recomputed, where
    w = 1e-12 * (|y - x|_1 * (value_lipschitz + smoothness) / denom + |r'|).
    The window holds because both ways round the same real ratio R. A
    gradient entry's rounding is at most about (n + 1) * 2^-53 times
    |b_j| + sum_k |a_jk| <= value_lipschitz + smoothness for a quadratic,
    a few units of 2^-53 times |grad_j| <= value_lipschitz for the other
    closed forms, and sums add. So each numerator is within about
    (2n + 2) * 2^-53 * |y - x|_1 * (value_lipschitz + smoothness) of the
    exact one, and each ratio, after one more rounding, within w / 2 of R
    for any n below about a thousand. The pair that attains the loop's
    minimum therefore passes the screen. A NaN anywhere in the screen
    sends every pair to the loop.
    """
    if not f.monotone:
        raise ValueError("weak-DR ratio is defined for monotone oracles")
    samples = _integer(samples, "sample counts")
    if samples < 1:
        raise ValueError("sample counts must be at least 1")
    rng = np.random.default_rng(seed)
    lo, hi = _sample_ordered_pairs(f.n, samples, rng)
    vals_lo = f._value_many(lo)  # 0 <= lo <= hi <= 1 by construction
    vals_hi = f._value_many(hi)
    denom = vals_hi - vals_lo
    scale = np.maximum(np.abs(vals_lo), np.abs(vals_hi))
    rows = np.flatnonzero(~(denom <= _allowance(scale)))
    if rows.size:
        ratios, window = _weak_dr_screen(f, lo[rows], hi[rows], denom[rows])
        rows = rows[~(ratios - window > np.min(ratios + window))]
    best = math.inf
    for i in rows:
        ratio = float((hi[i] - lo[i]) @ f._grad(lo[i])) / float(denom[i])
        best = min(best, ratio)
    return clamp_ratio(best)


# ---------------------------------------------------------------------------
# seeded instance generators
# (their minima start from inf, so that n = 0 reaches the constructor's check)


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
    t = (0.8 if monotone else 1.5) * float((b / -row).min(initial=np.inf))
    return QuadraticOracle(b, a * (min(1.0, t) if monotone else t))


def random_weak_quadratic(n: int, seed: int) -> QuadraticOracle:
    """Monotone quadratic whose interactions are drawn from a mixed-sign
    range. Most draws have a positive interaction, so the oracle is not DR
    and its sampled weak-DR ratio is below 1; a draw whose interactions
    all come out nonpositive is certified DR, which small n makes common
    (over seeds 0-199: 70 at n = 2, 7 at n = 3, 1 at n = 4, none at 5)."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.8, 1.6, n)
    raw = rng.uniform(-0.4, 0.5, (n, n))
    a = (raw + raw.T) / 2.0
    np.fill_diagonal(a, 0.0)
    neg_row = np.minimum(a, 0.0).sum(axis=1)
    with np.errstate(divide="ignore"):
        limits = np.where(neg_row < 0.0, b / -neg_row, np.inf)
    t = 0.9 * float(limits.min(initial=np.inf))
    a = a * min(1.0, t)
    return QuadraticOracle(b, a)


def random_sqrt_linear(n: int, seed: int) -> SqrtLinearOracle:
    rng = np.random.default_rng(seed)
    return SqrtLinearOracle(rng.uniform(0.5, 1.5, n), shift=0.5)
