"""Ground-truth optimum oracles, guarantee checking against closed-form
bounds, exact expectations over uniform choice trees, the five problems'
table (PROBLEMS, see ``Problem``), and audits over its built instances.

Bound provenance matters: only "proved" bounds may fail a suite or flip an
exit code; "claimed-flawed" and "authors-conjecture" bounds are audited and
reported, never asserted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import serialization
from .algorithms import (RunTrace, _candidates, _intersection_tables,
                         authors_conjecture_rounds, bicriteria_rounds,
                         certificate_holds, check_budget, dummy_candidates,
                         frank_wolfe, masked_frank_wolfe, multipass_greedy,
                         random_greedy_dummies, random_greedy_intersection)
from .continuous import (CardinalityPolytope, ContinuousOracle, Polytope,
                         SumOracle, random_quadratic_dr,
                         random_weak_quadratic, unit_box, weak_dr_gamma)
from .matroids import (Matroid, PSystem, random_partition_matroid,
                       random_partition_psystem)
from .oracles import (BUDGET, CEIL_GUARD, REL_TOL, SetFunctionOracle,
                      _allowance, _integer, _reals, _within, elements_of,
                      measure_ratios, popcounts, random_coverage,
                      random_perturbed)

_GRID_CELL = 3  # grid indices per cell side in grid_opt's pruned search
_GRID_BATCH = 200_000  # most grid points grid_opt values in one batch


@dataclass(frozen=True)
class OptimumCertificate:
    """A certified optimum: exact (radius 0) or grid-based with a Lipschitz
    error radius, so that value <= true optimum <= value + radius."""

    value: float
    maximizer: object
    method: str  # "exhaustive" | "grid"
    radius: float
    # the polytope a grid certificate maximized over
    polytope: Polytope | None = field(default=None, compare=False)

    @property
    def upper(self) -> float:
        return self.value + self.radius


def brute_force_opt_set(f: SetFunctionOracle, feasible=None
                        ) -> OptimumCertificate:
    """Exact maximum of f over all feasible subsets.

    ``feasible`` is None (every subset is feasible) or a bool table of shape
    (2^n,) indexed by subset bitmask, such as a matroid's or p-system's
    ``indep_table()``. The optimum is one masked argmax over the value
    table; ties resolve to the first maximizer in ascending mask order.
    """
    tab = f.table()
    if feasible is not None:
        feasible = np.asarray(feasible)
        if feasible.dtype != bool or feasible.shape != tab.shape:
            raise ValueError(
                f"feasible must be a bool table of shape {tab.shape}")
        tab = np.where(feasible, tab, -math.inf)
    best_mask = int(np.argmax(tab))
    if feasible is not None and not feasible[best_mask]:
        raise ValueError("no feasible subset (not even the empty set)")
    return OptimumCertificate(value=float(tab[best_mask]),
                              maximizer=elements_of(best_mask),
                              method="exhaustive", radius=0.0)


def grid_opt(f: ContinuousOracle, polytope: Polytope,
             resolution: float) -> OptimumCertificate:
    """Grid maximum over the polytope plus a certified error radius.

    Any point of the polytope dominates its lower grid corner, which is
    again a member (down-closedness), so the true optimum is at most the
    grid maximum plus value_lipschitz * min(resolution * sqrt(n), diameter).

    The maximum is that of every member grid point, found without valuing
    them all: a branch-and-bound over cells. Each axis splits into cells of
    ``_GRID_CELL`` grid indices, and each cell's middle grid point is its
    representative. The incumbent is the best member representative, and
    margin = REL_TOL * max(1, |incumbent|, value_lipschitz + smoothness)
    covers the rounding of the values and of the gradient. A cell is kept
    only if both hold:

    - its lower corner is a member; otherwise, by down-closedness, none of
      its points is;
    - bound + margin >= incumbent, for an upper bound on F over the cell's
      members, in two stages. Every cell gets the Lipschitz bound
      value(rep) + value_lipschitz * dist, where dist is the farthest any
      of the cell's points lies from rep. Only the cells it keeps get
      ``_cell_bounds``, the smaller of it and a second-order bound from the
      gradient at rep and the polytope's linear rows. An oracle whose
      smoothness is not finite keeps the first alone, and a NaN bound never
      prunes.

    The kept cells are searched best-first: in descending order of bound
    (a NaN bound first), the top cell alone, then the cells whose bound +
    margin reaches the best value found so far, with the margin's rule
    applied to the larger of |incumbent| and |best|. The search stops at
    the first cell below that. A cell it skips holds no point within
    margin of the best, so no maximizer and no tie is lost, and among
    equal maxima the first grid point in row-major order wins, whatever
    the search order.

    The cells are bounded in one pass over batches of ``_GRID_BATCH``,
    each built and valued once (a grid of at most ``_GRID_BATCH`` cells is
    one batch, with its geometry cached by ``_grid_cells``). Each batch
    raises the incumbent to its best member representative and keeps its
    cells against that running incumbent. Points are valued in batches of
    at most ``_GRID_BATCH`` (never one row, see ``_value_rows``). Memory is
    one batch plus the kept cells' ids and bounds: at dimension 5 and
    resolution 0.01 (45.4M cells, 228 batches) a call of the benchmark's
    problem-1 objective peaked 103 MiB above the process. If nothing is
    pruned, every cell is kept, at about 50 bytes each with the sort.
    The dimension and the cell count are checked against the budget
    before anything is allocated.
    """
    _within("grid-dim", f.n)
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError("resolution must be a positive finite number")
    if polytope.n != f.n:
        raise ValueError("oracle and polytope must share the dimension")
    steps = 1.0 / resolution + CEIL_GUARD  # inf for a subnormal resolution
    _within("grid-cells", (int(steps) // _GRID_CELL + 1) ** f.n
            if math.isfinite(steps) else math.inf)
    axis = _grid_axis(resolution)
    cell_shape = (-(-axis.size // _GRID_CELL),) * f.n
    total = math.prod(cell_shape)
    scale = f.value_lipschitz + f.smoothness \
        if math.isfinite(f.smoothness) else f.value_lipschitz

    def margin(*values):
        return _allowance(max([scale, *(abs(v) for v in values
                                        if math.isfinite(v))]))

    incumbent, kept, bounds = -math.inf, [], []
    for start in range(0, total, _GRID_BATCH):
        ids = np.arange(start, min(start + _GRID_BATCH, total))
        cells = _grid_cells(f.n, resolution) if total <= _GRID_BATCH \
            else _cell_geometry(f.n, resolution, ids)
        vals = _value_rows(f, cells.rep)
        inside = polytope.member_many(cells.rep)
        if bool(inside.any()):
            incumbent = max(incumbent, float(vals[inside].max()))
        lipschitz = vals + f.value_lipschitz * cells.dist
        rows = np.flatnonzero(polytope.member_many(cells.lower)
                              & ~(lipschitz + margin(incumbent) < incumbent))
        bound = _cell_bounds(f, polytope, cells.rep[rows], vals[rows],
                             cells.lo[rows], cells.hi[rows])
        keep = ~(bound + margin(incumbent) < incumbent)
        kept.append(ids[rows[keep]])
        bounds.append(bound[keep])
    kept, bound = np.concatenate(kept), np.concatenate(bounds)
    # best-first; a NaN bound never prunes, so it goes first
    order = np.argsort(-np.where(np.isnan(bound), math.inf, bound),
                       kind="stable")
    kept, bound = kept[order], bound[order]
    offsets = np.indices((_GRID_CELL,) * f.n,
                         dtype=np.int32).reshape(f.n, -1).T
    per_batch = max(1, _GRID_BATCH // len(offsets))
    grid_shape = (axis.size,) * f.n
    best_val, best_index, best_point = -math.inf, -1, None
    pos, stop = 0, min(1, kept.size)  # the top cell alone first
    while pos < stop:
        end = min(stop, pos + per_batch)
        low = _GRID_CELL * np.column_stack(
            np.unravel_index(kept[pos:end], cell_shape)).astype(np.int32)
        pos = end
        index = (low[:, None, :] + offsets[None, :, :]).reshape(-1, f.n)
        index = index[(index < axis.size).all(axis=1)]
        points = axis[index]
        rows = np.flatnonzero(polytope.member_many(points))
        if rows.size:
            vals = _value_rows(f, points[rows])
            top = float(vals.max())
            tied = rows[vals == top]
            flat = np.ravel_multi_index(index[tied].T, grid_shape)
            at = int(np.argmin(flat))
            if top > best_val or (top == best_val and flat[at] < best_index):
                best_val, best_index = top, int(flat[at])
                best_point = points[tied[at]].tolist()
        if best_point is None:
            stop = kept.size
        else:
            below = np.flatnonzero(
                bound[pos:] + margin(incumbent, best_val) < best_val)
            stop = pos + int(below[0]) if below.size else kept.size
    if best_point is None:
        raise ValueError("polytope contains no grid point (not even 0)")
    radius = f.value_lipschitz * min(resolution * math.sqrt(f.n),
                                     polytope.diameter)
    return OptimumCertificate(value=best_val, maximizer=best_point,
                              method="grid", radius=float(radius),
                              polytope=polytope)


def _grid_axis(resolution: float) -> np.ndarray:
    """The grid's coordinates along each axis: multiples of resolution,
    capped at 1."""
    steps = int(math.floor(1.0 / resolution + CEIL_GUARD))
    return np.minimum(1.0, resolution * np.arange(steps + 1))


class _Cells(NamedTuple):
    """The geometry of some of grid_opt's cells, one row per cell: the
    cell's points are rep + d with lo <= d <= hi."""

    lower: np.ndarray  # the lower corner
    rep: np.ndarray  # the representative, the cell's middle grid point
    lo: np.ndarray
    hi: np.ndarray
    dist: np.ndarray  # the farthest any of the cell's points lies from rep


def _cell_geometry(n: int, resolution: float, ids: np.ndarray) -> _Cells:
    """The geometry of the cells ``ids``, numbered in row-major order."""
    axis = _grid_axis(resolution)
    # per axis, each cell's lower, middle and upper grid index
    low = np.arange(0, axis.size, _GRID_CELL)
    mid = np.minimum(low + 1, axis.size - 1)
    high = np.minimum(low + _GRID_CELL - 1, axis.size - 1)
    lo, hi = axis[low] - axis[mid], axis[high] - axis[mid]
    reach = np.maximum(-lo, hi)
    cells = np.column_stack(np.unravel_index(ids, (low.size,) * n))
    return _Cells(axis[low][cells], axis[mid][cells], lo[cells], hi[cells],
                  np.sqrt((reach * reach)[cells].sum(axis=1)))


@functools.lru_cache(maxsize=4)
def _grid_cells(n: int, resolution: float) -> _Cells:
    """The geometry of every cell of the grid, read-only. Only for grids of
    at most _GRID_BATCH cells, so the four retained grids hold at most
    4 * _GRID_BATCH * (32 n + 8) bytes, 134 MB at n = 5."""
    per_axis = -(-_grid_axis(resolution).size // _GRID_CELL)
    cells = _cell_geometry(n, resolution, np.arange(per_axis ** n))
    for a in cells:
        a.setflags(write=False)
    return cells


def _cell_bounds(f: ContinuousOracle, polytope: Polytope, reps: np.ndarray,
                 vals: np.ndarray, lo: np.ndarray, hi: np.ndarray
                 ) -> np.ndarray:
    """An upper bound on F over each cell's members: the cell's points are
    rep + d with lo <= d <= hi (lo <= 0 <= hi) row by row.

    The smaller of value(rep) + value_lipschitz * |d|max and, when the
    smoothness L is finite, the second-order bound
    value(rep) + max g·d + L/2 * |d|max^2 with g = grad(rep). The max of
    g·d runs over the box of d and, for each linear row m·x <= c of the
    polytope on its own (dropping the other rows only relaxes it), over
    the halfspace m·(rep + d) <= c too. By weak duality, for every λ >= 0
    that max is at most λ (c - m·rep) + sum_i max((g_i - λ m_i) lo_i,
    (g_i - λ m_i) hi_i), a convex piecewise-linear function of λ with its
    breakpoints at the g_i / m_i; λ runs over those and 0 (the box alone).
    Each dual term adds REL_TOL times its magnitude, which covers its own
    rounding; the caller's margin covers that of g. A NaN bound is dropped
    in favour of the other one.
    """
    reach = np.maximum(-lo, hi)
    dist_sq = (reach * reach).sum(axis=1)
    lipschitz = vals + f.value_lipschitz * np.sqrt(dist_sq)
    if not math.isfinite(f.smoothness):
        return lipschitz
    g = f._grad_many(reps)  # grid points min(1, resolution * i): in the cube
    gain = np.maximum(g * lo, g * hi).sum(axis=1)
    size_g = (np.abs(g) * reach).sum(axis=1)
    for m, c in zip(*polytope.linear_rows()):
        at_rep = reps @ m
        size_row = abs(c) + at_rep + reach @ m
        for i in np.flatnonzero(m > 0.0):
            lam = np.maximum(g[:, i] / m[i], 0.0)
            coef = g - lam[:, None] * m
            dual = lam * (c - at_rep) \
                + np.maximum(coef * lo, coef * hi).sum(axis=1)
            gain = np.fmin(gain, dual + REL_TOL * (lam * size_row + size_g))
    second = vals + gain + 0.5 * f.smoothness * dist_sq
    return np.fmin(lipschitz, second)


def _value_rows(f: ContinuousOracle, points: np.ndarray) -> np.ndarray:
    """f._value_many(points) of grid points, in the cube by construction,
    with a single row valued as two copies: BLAS takes another path for
    one row, whose bits can differ from that row's in any larger batch."""
    if len(points) == 1:
        return f._value_many(np.repeat(points, 2, axis=0))[:1]
    return f._value_many(points)


# ---------------------------------------------------------------------------
# exact expectations over every uniform draw of the randomized greedies


@functools.lru_cache(maxsize=None)
def _by_size(n: int) -> tuple:
    """The 2^n masks of an n-element ground set in ascending size, then
    ascending mask: ``(order, position, ends)``, with position[mask] the
    index of mask in order and ends[c] the number of masks of size <= c,
    so that those masks are order[:ends[c]]. Read-only."""
    counts = popcounts(n)
    order = np.argsort(counts, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    ends = np.cumsum(np.bincount(counts))
    for part in (order, position, ends):
        part.setflags(write=False)
    return order, position, ends


def dummy_greedy_expectation(f: SetFunctionOracle, k: int) -> float:
    """Exact expectation of dummy-padded random greedy under the budget k.

    A state after t rounds is its real mask R, with |R| <= t, plus its
    dummy count t - |R|. The candidates at R do not depend on t: the real
    ones of ``dummy_candidates``, padded to k by dummies, which keep R. So
    the value of the states after t < k rounds is one array over the masks
    with |R| <= t, in the size order of ``_by_size``, a prefix of that of
    round t + 1. The candidates are found once, for the masks with |R| <
    k. Going back from round k, the first layer reads the value table by
    child mask and each later one the previous layer by child position.
    Each state sums its k children slot by slot in candidate order from
    0.0 and divides by k, the same float sequence as a plain walk of the
    choice tree. Its memory is about (number of sets of size < k) * k
    entries plus the 2^n-entry value table and cached size order.
    """
    check_budget(k, f.n)
    values = f.table()
    order, position, ends = _by_size(f.n)
    masks = order[:ends[k - 1]]
    cand, counts = dummy_candidates(f, k, masks)
    children = np.where(np.arange(k) < counts[:, None],
                        masks[:, None] | 1 << cand, masks[:, None])
    index, compact = children, position[children]
    for rows in ends[k - 1::-1]:
        total = np.zeros(rows)
        for j in range(k):
            total += values[index[:rows, j]]
        values, index = total / k, compact
    return float(values[0])


def intersection_greedy_expectation(f: SetFunctionOracle,
                                    system: PSystem) -> float:
    """Exact expectation of two-matroid random greedy over ``system``.

    A state is the chosen mask, so the walk memoizes one value per mask: a
    final mask is worth f, any other the sum of its children in
    ``intersection_candidates`` order divided by their count, the same
    float sequence as a plain walk of the choice tree. The states are
    common-independent masks, so there are at most 2^n of them. The inputs
    are checked once and both tables read as native values: the value
    table through a memoryview, which yields floats without building a 2^n
    list, and the independence table as bytes. Every search node reads the
    independence table and every weight takes float arithmetic, both
    cheaper on native values than on numpy scalars. Each state then costs
    one ``_candidates`` call.
    """
    values, indep = _intersection_tables(f, system)
    n = f.n
    memo: dict[int, float] = {}

    def rec(mask: int) -> float:
        value = memo.get(mask)
        if value is None:
            options = _candidates(values, indep, n, mask)
            if options is None:
                value = values[mask]
            else:
                total = 0.0
                for u in options:
                    total += rec(mask | 1 << u)
                value = total / len(options)
            memo[mask] = value
        return value

    try:
        return rec(0)
    finally:
        del rec  # rec refers to itself: break the cycle that holds the tables


# ---------------------------------------------------------------------------
# bound formulas and guarantee reports

PROVED = "proved"
CLAIMED_FLAWED = "claimed-flawed"
AUTHORS_CONJECTURE = "authors-conjecture"


@dataclass(frozen=True)
class BoundFormula:
    """A closed-form guarantee threshold plus its provenance.

    ``expr`` maps a parameter dict to the threshold the measured quantity is
    compared against.
    """

    bound_id: str
    provenance: str
    requires: tuple
    expr: Callable[[dict], float]

    def threshold(self, params: dict) -> float:
        missing = [key for key in self.requires if key not in params]
        if missing:
            raise ValueError(f"missing bound parameters: {missing}")
        return float(self.expr(params))


BOUNDS = {b.bound_id: b for b in (
    BoundFormula("problem1-split", PROVED,
                 ("g_at_opt", "h_at_opt", "epsilon", "smooth_g", "smooth_h",
                  "diameter", "radius"),
                 lambda p: ((1.0 - 1.0 / math.e) * p["g_at_opt"]
                            + (1.0 / math.e) * p["h_at_opt"]
                            - p["epsilon"] * (p["smooth_g"] + p["smooth_h"])
                            * p["diameter"] ** 2
                            - p["radius"])),
    BoundFormula("problem2-bicriteria", PROVED, ("epsilon", "opt"),
                 lambda p: (1.0 - p["epsilon"]) * p["opt"]),
    BoundFormula("problem2-authors-conjecture", AUTHORS_CONJECTURE,
                 ("epsilon", "opt"),
                 lambda p: (1.0 - p["epsilon"]) * p["opt"]),
    BoundFormula("problem3-weak-dr", PROVED,
                 ("gamma", "opt_upper", "smoothness", "iterations", "radius"),
                 lambda p: ((1.0 - math.exp(-p["gamma"])) * p["opt_upper"]
                            - p["smoothness"] / (2.0 * p["iterations"])
                            - p["radius"])),
    BoundFormula("problem4-claimed", CLAIMED_FLAWED, ("m", "gamma", "opt"),
                 lambda p: ((p["m"] * (1.0 - math.exp(-p["gamma"]))
                             + (1.0 - p["m"]) * p["gamma"] / math.e)
                            * p["opt"])),
    BoundFormula("problem5-claimed", CLAIMED_FLAWED, ("gamma", "opt"),
                 lambda p: (p["gamma"] / (p["gamma"] + 2.0)) ** 2 * p["opt"]),
)}

HOLDS = "holds"
VIOLATED = "violated"
TRIVIAL = "trivial"


@dataclass(frozen=True)
class GuaranteeReport:
    """One exact measured value (a run or an expectation) against a bound.

    ``params`` holds the inputs the threshold was computed from. Audit rows
    replace them with the instance parameters and add the exact optimum
    ``opt``, the ratio measured/OPT, and the instance document ``doc``.
    """

    instance_id: str
    algorithm_id: str
    bound_id: str
    provenance: str
    measured: float
    threshold: float
    slack: float
    verdict: str
    params: dict = field(default_factory=dict)
    opt: float | None = None
    ratio: float | None = None
    doc: dict = field(repr=False, default_factory=dict)


def _reaches(measured: float, threshold: float) -> bool:
    """The holds rule: measured reaches the threshold up to a relative
    1e-9."""
    return measured >= threshold - _allowance(abs(threshold))


def check_bound(measured: float, bound: BoundFormula, params: dict,
                instance_id: str = "", algorithm_id: str = "",
                feasible: bool = True) -> GuaranteeReport:
    """Compare an exact measured value against a bound threshold: 'holds'
    when the output is ``feasible`` (its polytope membership or bicriteria
    certificate) and ``_reaches`` the threshold, else 'violated'."""
    threshold = bound.threshold(params)
    return GuaranteeReport(
        instance_id=instance_id,
        algorithm_id=algorithm_id,
        bound_id=bound.bound_id,
        provenance=bound.provenance,
        measured=float(measured),
        threshold=threshold,
        slack=float(measured - threshold),
        verdict=HOLDS if feasible and _reaches(measured, threshold)
        else VIOLATED,
        params=dict(params),
    )


def problem1_report(trace: RunTrace, g: ContinuousOracle, h: ContinuousOracle,
                    polytope: Polytope, cert: OptimumCertificate,
                    instance_id: str = "") -> GuaranteeReport:
    """Split-objective check of F(final) = g(final) + h(final): the grid
    maximizer stands in for the optimum, with the certificate radius
    subtracted from the threshold. A final point outside the polytope makes
    the verdict 'violated'."""
    measured = g.value(trace.final) + h.value(trace.final)
    params = {
        "g_at_opt": g.value(cert.maximizer),
        "h_at_opt": h.value(cert.maximizer),
        "epsilon": _number(trace, "meta.step"),
        "smooth_g": g.smoothness,
        "smooth_h": h.smoothness,
        "diameter": polytope.diameter,
        "radius": cert.radius,
    }
    return check_bound(measured, BOUNDS["problem1-split"], params,
                       instance_id=instance_id, algorithm_id=trace.algorithm,
                       feasible=polytope.member(trace.final))


def problem2_report(trace: RunTrace, f: SetFunctionOracle,
                    opt: OptimumCertificate, system: PSystem,
                    instance_id: str = "") -> GuaranteeReport:
    """Bicriteria check. The guarantee has two halves: f(final) at least
    (1-eps)*OPT, and output covered by at most bicriteria_rounds(p, eps)
    recorded independent sets. The feasibility certificate is recomputed
    from the trace against ``system``, and a broken certificate makes the
    verdict 'violated' no matter the value."""
    eps = _number(trace, "params.epsilon")
    meta = serialization.object_field(vars(trace), "meta")
    return check_bound(f.value(trace.final), BOUNDS["problem2-bicriteria"],
                       {"epsilon": eps, "opt": opt.value},
                       instance_id=instance_id, algorithm_id=trace.algorithm,
                       feasible=certificate_holds(
                           system, meta.get("independent_sets", []),
                           trace.final, bicriteria_rounds(system.p, eps)))


def problem3_report(trace: RunTrace, gamma: float, f: ContinuousOracle,
                    cert: OptimumCertificate,
                    instance_id: str = "") -> GuaranteeReport:
    """Weak-DR Frank-Wolfe check of F(final) against the grid certificate
    ``cert``. A final point outside the polytope the certificate maximized
    over makes the verdict 'violated'."""
    if cert.polytope is None:
        raise ValueError("problem 3 needs a grid certificate")
    params = {
        "gamma": gamma,
        "opt_upper": cert.upper,
        "smoothness": f.smoothness,
        "iterations": _number(trace, "params.iterations"),
        "radius": cert.radius,
    }
    return check_bound(f.value(trace.final), BOUNDS["problem3-weak-dr"],
                       params, instance_id=instance_id,
                       algorithm_id=trace.algorithm,
                       feasible=cert.polytope.member(trace.final))


def problem4_report(f: SetFunctionOracle, k: int,
                    instance_id: str = "") -> GuaranteeReport:
    """Claimed bound for dummy-padded random greedy under the budget k:
    measured (gamma, m), the exhaustive optimum over |S| <= k, and the
    exact expectation over every uniform draw."""
    ratios = measure_ratios(f)
    check_budget(k, f.n)
    opt = brute_force_opt_set(f, popcounts(f.n) <= k)
    measured = dummy_greedy_expectation(f, k)
    return check_bound(measured, BOUNDS["problem4-claimed"],
                       {"m": ratios.m, "gamma": ratios.gamma,
                        "opt": opt.value},
                       instance_id=instance_id,
                       algorithm_id="random-greedy-dummies")


def problem5_report(f: SetFunctionOracle, m1: Matroid, m2: Matroid,
                    instance_id: str = "") -> GuaranteeReport:
    """Claimed bound for random greedy over two matroids: measured gamma
    (m is recorded but unused), the exhaustive optimum over the common
    independent sets, and the exact expectation over every uniform draw."""
    ratios = measure_ratios(f)
    system = PSystem([m1, m2])
    opt = brute_force_opt_set(f, system.indep_table())
    measured = intersection_greedy_expectation(f, system)
    return check_bound(measured, BOUNDS["problem5-claimed"],
                       {"gamma": ratios.gamma, "m": ratios.m,
                        "opt": opt.value},
                       instance_id=instance_id,
                       algorithm_id="random-greedy-intersection")


# ---------------------------------------------------------------------------
# the five problems: components, and how each is built, measured, run, checked


class Problem(NamedTuple):
    """One problem's bundle components and its build, run, check and
    measure rules; ``measure(components, flags)``, by default the exact
    ratios of the objective, is the measured dict ``gen`` records. ``gen``
    and ``run`` check ``within_caps(n)`` first: no file is written that
    the check would refuse."""
    components: dict    # name -> class of each component a bundle must hold
    build: Callable     # flags -> components (no ratio is measured)
    run: Callable       # (components, flags) -> traces
    check: Callable     # (components, traces, flags, id) -> reports
    caps: tuple         # the BUDGET entries that cap check at size n
    measure: Callable = lambda c, a: ratios_doc(c["objective"])
    meta: tuple = ("seed",)       # the flags a bundle records in its meta
    traced: bool = True           # check reads run's traces
    bare_objective: bool = False  # a plain set-function file also loads

    def within_caps(self, n: int) -> None:
        for name in self.caps:
            _within(name, n, what="value table")


def _or(value, default):
    return default if value is None else value


# the numbers run and verify read from a bundle's components dict or from a
# trace: "field.key" -> (source, reader, range, what). The reader,
# oracles._integer or _reals, checks the kind; NaN fails every range test
NUMBERS = {
    "meta.k": ("bundle", _integer, lambda v: True, "an integer"),
    "meta.epsilon": ("bundle", _reals, math.isfinite, "a finite number"),
    "measured.gamma": ("bundle", _reals, lambda v: 0 <= v <= 1,
                       "a finite number in [0, 1]"),
    "meta.seed": ("bundle", _integer, lambda v: True, "an integer"),
    "meta.step": ("trace", _reals, lambda v: 0 < v <= 1,
                  "a number in (0, 1]"),
    "params.epsilon": ("trace", _reals, lambda v: 0 < v < 1,
                       "a number in (0, 1)"),
    "params.iterations": ("trace", _integer, lambda v: v >= 1,
                          "an integer >= 1"),
}


def _number(owner, name: str):
    """NUMBERS[name] from a trace, or from a bundle's components dict, where
    it may be absent (None, as for built components); else ValueError."""
    source, read, ok, what = NUMBERS[name]
    field_name, key = name.split(".")
    value = (owner.get("_" + field_name, {}) if source == "bundle" else
             serialization.object_field(vars(owner), field_name)).get(key)
    if value is not None or source == "trace":
        try:
            valid = np.ndim(value) == 0 and ok(read(value, name))
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(f"{source} {name} must be {what}, not {value!r}")
    return value


def ratios_doc(f: SetFunctionOracle) -> dict:
    """f's exact gamma and m as documents record them."""
    r = measure_ratios(f)
    return {"gamma": r.gamma, "m": r.m,
            "nonmonotone_caveat": r.nonmonotone_caveat}


def exact_ratios(f: SetFunctionOracle) -> dict:
    """``ratios_doc(f)``, or {} past the budget's gamma entry, for a
    document whose checks do not read the ratios."""
    return {} if f.n > BUDGET["gamma"].limit else ratios_doc(f)


def sampled_gamma(f: ContinuousOracle, seed: int) -> float:
    """The weak-DR gamma over 1500 sampled pairs that documents record and
    problem 3's check recomputes: sampled, not a certified lower bound."""
    return weak_dr_gamma(f, samples=1500, seed=seed)


def _build_problem1(a):
    return {"g": random_quadratic_dr(a.n, a.seed, monotone=True),
            "h": random_quadratic_dr(a.n, a.seed + 1, monotone=False),
            "polytope": CardinalityPolytope(a.n, max(1, a.n // 2))
            if a.seed % 2 else unit_box(a.n)}


def _check_problem1(c, traces, a, stem):
    cert = grid_opt(SumOracle([c["g"], c["h"]]), c["polytope"], a.resolution)
    return [problem1_report(t, c["g"], c["h"], c["polytope"], cert,
                            instance_id=stem) for t in traces]


def _check_problem2(c, traces, a, stem):
    opt = brute_force_opt_set(c["objective"], c["system"].indep_table())
    return [problem2_report(t, c["objective"], opt, c["system"],
                            instance_id=stem) for t in traces]


def _build_problem3(a):
    return {"objective": random_quadratic_dr(a.n, a.seed, monotone=True)
            if a.seed % 2 == 0 else random_weak_quadratic(a.n, a.seed),
            "polytope": CardinalityPolytope(a.n, max(1, a.n // 2))
            if a.seed % 4 >= 2 else unit_box(a.n)}


def _problem3_gammas(c, a) -> tuple:
    # the objective's sampled gamma, which the check uses, never the
    # bundle's (at 0 it lets every final point hold), and the bundle's own
    gamma = sampled_gamma(c["objective"], _or(_number(c, "meta.seed"), a.seed))
    declared = _number(c, "measured.gamma")
    if declared is not None and declared != gamma:
        raise ValueError(f"bundle measured.gamma is {declared!r}, but the "
                         f"objective's sampled gamma is {gamma!r}")
    return gamma, declared


def _check_problem3(c, traces, a, stem):
    gamma, _ = _problem3_gammas(c, a)
    cert = grid_opt(c["objective"], c["polytope"], a.resolution)
    return [problem3_report(t, gamma, c["objective"], cert,
                            instance_id=stem) for t in traces]


def _budget(c, a) -> int:
    return _or(a.k, _or(_number(c, "meta.k"), 2))


def _build_problem4(a):
    f = random_perturbed(a.n, a.delta, a.seed, monotone=a.monotone)
    check_budget(a.k, f.n)
    return {"objective": f}


def _build_problem5(a):
    # a delta of None gives a coverage objective, which only audits draw
    return {"objective": random_coverage(a.n, a.seed) if a.delta is None
            else random_perturbed(a.n, a.delta, a.seed, monotone=True),
            "matroid1": random_partition_matroid(a.n, a.seed + 1),
            "matroid2": random_partition_matroid(a.n, a.seed + 2)}


PROBLEMS = {
    1: Problem({"g": ContinuousOracle, "h": ContinuousOracle,
                "polytope": Polytope},
               _build_problem1,
               lambda c, a: [masked_frank_wolfe(c["g"], c["h"], c["polytope"],
                                                _or(a.epsilon, 0.02))],
               _check_problem1, ("grid-dim",), measure=lambda c, a: {}),
    2: Problem({"objective": SetFunctionOracle, "system": PSystem},
               lambda a: {"objective": random_coverage(a.n, a.seed),
                          "system": random_partition_psystem(a.n, a.p,
                                                             a.seed)},
               lambda c, a: [multipass_greedy(
                   c["objective"], c["system"],
                   _or(a.epsilon, _or(_number(c, "meta.epsilon"), 0.25)))],
               _check_problem2, ("table",),
               # the check reads no ratio: past its cap none is recorded
               measure=lambda c, a: exact_ratios(c["objective"]),
               meta=("seed", "p", "epsilon")),
    3: Problem({"objective": ContinuousOracle, "polytope": Polytope},
               _build_problem3,
               lambda c, a: [frank_wolfe(
                   c["objective"], c["polytope"], _or(a.iterations, 200),
                   declared_gamma=_problem3_gammas(c, a)[1])],
               _check_problem3, ("grid-dim",),
               measure=lambda c, a: {"gamma": sampled_gamma(c["objective"],
                                                            a.seed)}),
    4: Problem({"objective": SetFunctionOracle},
               _build_problem4,
               lambda c, a: [random_greedy_dummies(
                   c["objective"], _budget(c, a), seed=a.seed + t)
                   for t in range(a.trials)],
               lambda c, traces, a, stem: [problem4_report(
                   c["objective"], _budget(c, a), instance_id=stem)],
               ("gamma",), meta=("seed", "k"), traced=False, bare_objective=True),
    5: Problem({"objective": SetFunctionOracle, "matroid1": Matroid,
                "matroid2": Matroid},
               _build_problem5,
               lambda c, a: [random_greedy_intersection(
                   c["objective"], c["matroid1"], c["matroid2"],
                   seed=a.seed + t) for t in range(a.trials)],
               lambda c, traces, a, stem: [problem5_report(
                   c["objective"], c["matroid1"], c["matroid2"],
                   instance_id=stem)],
               ("gamma",), traced=False),
}


def problem_bundle(k: int, components: dict, flags, measured: dict) -> dict:
    """The bundle document of a built problem-k instance: its components,
    ``measured``, and as meta the flags of PROBLEMS[k].meta that are set."""
    given = vars(flags)
    return serialization.bundle_doc(
        k, components, measured=measured,
        meta={key: given[key] for key in PROBLEMS[k].meta
              if given.get(key) is not None})


# ---------------------------------------------------------------------------
# audits of the proved bicriteria bound, the round-count conjecture, and the
# claimed-flawed bounds


@dataclass
class AuditReport:
    bound_id: str
    provenance: str
    seed: int
    rows: list[GuaranteeReport]

    @property
    def violations(self) -> list[dict]:
        """The replay documents of the violated rows, in row order."""
        return [r.doc for r in self.rows if r.verdict == VIOLATED]

    @property
    def min_ratio(self) -> float | None:
        ratios = [r.ratio for r in self.rows if r.ratio is not None]
        return min(ratios) if ratios else None

    def summary(self) -> dict:
        return {
            "bound": self.bound_id,
            "provenance": self.provenance,
            "seed": self.seed,
            "instances": len(self.rows),
            "violations": len(self.violations),
            "min_ratio": self.min_ratio,
        }


def audit(bound: BoundFormula, make_case, trials: int, seed: int
          ) -> AuditReport:
    """Search seeded random instances for bound violations.

    ``make_case(seed, trial)`` returns ``(report, params, doc)``: the
    instance's report against ``bound`` (from ``check_bound``, whose
    ``params`` include ``opt``), the instance parameters to record, and a
    serializable document for replay. The row adds the optimum and the
    ratio measured/OPT; an optimum of about 0 leaves the ratio empty and
    makes the verdict 'trivial' unless the report is 'violated' (a broken
    certificate stays a violation whatever the optimum). Every violating
    instance document is collected for replay. A negative ``trials``
    raises ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, not {trials}")
    rows: list[GuaranteeReport] = []
    for t in range(trials):
        report, params, doc = make_case(seed, t)
        opt = float(report.params["opt"])
        trivial = opt <= _allowance(0.0)
        verdict = TRIVIAL if trivial and report.verdict != VIOLATED \
            else report.verdict
        rows.append(replace(report, params=params, opt=opt, doc=doc,
                            ratio=None if trivial else report.measured / opt,
                            verdict=verdict))
    return AuditReport(bound_id=bound.bound_id, provenance=bound.provenance,
                       seed=seed, rows=rows)


def instance_seed(seed: int, t: int) -> int:
    """The instance seed of trial t of a sweep at ``seed``."""
    return seed * 1_000_003 + t


def _problem_audit(bound_id: str, k: int, name: str, draw, record: tuple,
                   trials: int, seed: int, check=None) -> AuditReport:
    """``audit`` over built problem-k instances. Trial t takes the flags
    ``draw(rng)`` gives for rng = default_rng([seed, t]) plus the instance
    seed ``instance_seed(seed, t)``; it builds the instance, runs it if the
    problem is traced, and checks it with ``check`` (the problem's own if
    None). The row records the ``record`` keys of the flags and the report
    params; its replay document is the bundle, with the report's gamma and m
    as measured. More trials than the ``trials`` budget entry allows raise
    CapabilityError before the first."""
    _within("trials", trials)
    problem = PROBLEMS[k]
    check = check or problem.check

    def case(s, t):
        flags = SimpleNamespace(**draw(np.random.default_rng([s, t])),
                                seed=instance_seed(s, t))
        c = problem.build(flags)
        traces = problem.run(c, flags) if problem.traced else []
        report, = check(c, traces, flags, f"{name}-s{s}-t{t}")
        ratios = {key: report.params[key] for key in ("gamma", "m")
                  if key in report.params}
        source = vars(flags) | report.params
        return (report, {key: source[key] for key in record},
                problem_bundle(k, c, flags, ratios))

    return audit(BOUNDS[bound_id], case, trials, seed)


def audit_problem2(trials: int, seed: int, p: int = 2, epsilon: float = 0.1,
                   n: int = 8) -> AuditReport:
    """Audit of the proved bicriteria bound over coverage objectives and
    intersections of p partition matroids. Both halves are checked: the
    value against (1-eps)*OPT and the recorded feasibility certificate."""
    return _problem_audit("problem2-bicriteria", 2, "p2",
                          lambda rng: {"n": n, "p": p, "epsilon": epsilon},
                          ("epsilon", "p"), trials, seed)


def _check_conjecture(c, traces, a, stem):
    trace, = traces
    opt = brute_force_opt_set(c["objective"], c["system"].indep_table())
    bound = BOUNDS["problem2-authors-conjecture"]
    params = {"epsilon": a.epsilon, "opt": opt.value, "p": a.p,
              "rounds_conjecture": authors_conjecture_rounds(a.p, a.epsilon),
              "rounds_multipass": trace.meta["rounds"],
              "value_at_multipass": trace.value}
    per_pass = [rec["value"] for rec in trace.iterations]
    threshold = bound.threshold(params)
    params["first_round_reaching"] = next(
        (i + 1 for i, v in enumerate(per_pass) if _reaches(v, threshold)),
        None)
    return [check_bound(
        per_pass[min(params["rounds_conjecture"], len(per_pass)) - 1], bound,
        params, instance_id=stem, algorithm_id=trace.algorithm)]


def audit_problem2_conjecture(trials: int, seed: int, p: int = 2,
                              epsilon: float = 0.1, n: int = 8
                              ) -> AuditReport:
    """Audit of the authors' round-count conjecture on the problem-2
    instances: does the value after the conjectured ceil(log_{p+1}(1/eps))
    passes already reach (1-eps) * OPT, short of the proved
    ceil(ln(1/eps)/ln((p+1)/p))? Each row's ``params`` record both pass
    counts, the value after all passes, and the first pass that reaches
    the target (None if none does)."""
    return _problem_audit(
        "problem2-authors-conjecture", 2, "p2c",
        lambda rng: {"n": n, "p": p, "epsilon": epsilon},
        ("p", "epsilon", "rounds_conjecture", "rounds_multipass",
         "value_at_multipass", "first_round_reaching"), trials, seed,
        check=_check_conjecture)


def audit_problem4(trials: int, seed: int, n: int = 5, k: int = 2
                   ) -> AuditReport:
    """Exact-expectation audit of the claimed partial-monotonicity bound for
    dummy-padded random greedy, over perturbed instances, monotone with
    probability 0.3, with measured (gamma, m) and noise amplitudes drawn
    from [0.05, 0.6) to fill the (gamma, m) grid. The expectation is exact
    for every budget 1 <= k <= n: its k layers cover only the sets of
    size < k that a run can reach (see ``dummy_greedy_expectation``)."""
    return _problem_audit(
        "problem4-claimed", 4, "p4",
        lambda rng: {"n": n, "k": k, "monotone": bool(rng.random() < 0.3),
                     "delta": float(rng.uniform(0.05, 0.6))},
        ("gamma", "m", "k", "n"), trials, seed)


def audit_problem5(trials: int, seed: int, n: int = 6) -> AuditReport:
    """Exact-expectation audit of the claimed two-matroid random-greedy
    bound (1/9 of the optimum at gamma = 1) over monotone instances:
    coverage or, with even odds, perturbed with noise amplitudes drawn from
    [0.05, 0.4)."""
    return _problem_audit(
        "problem5-claimed", 5, "p5",
        lambda rng: {"n": n, "delta": None if rng.random() < 0.5
                     else float(rng.uniform(0.05, 0.4))},
        ("gamma", "n"), trials, seed)
