"""The five trace-producing algorithms of the lab.

Every run returns a :class:`RunTrace` whose per-iteration records are plain
JSON-serializable dicts; replaying a trace (same inputs, same seed) must
reproduce it bit-for-bit. Each randomized algorithm draws uniformly from the
candidates of one rule over int masks (``dummy_candidates``,
``intersection_candidates``), one ``integers`` draw per round from one
``np.random.default_rng(seed)`` per run; the verification module's exact
expectations walk the same rule over every mask instead of sampling it.

Runs are single-threaded and deterministic; independent trials with distinct
seeds may execute concurrently without shared state.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .continuous import (ContinuousOracle, Polytope, _checked_list,
                         _masked_step)
from .matroids import Matroid, PSystem, _heaviest, psystem_greedy_marginal
from .oracles import (SetFunctionOracle, _count, _finite, _integer, _mask,
                      _within, elements_of, mask_of)


@dataclass
class RunTrace:
    """One algorithm run: per-iteration records, final solution, seed."""

    algorithm: str
    params: dict
    seed: int | None
    iterations: list[dict] = field(default_factory=list)
    final: object = None
    meta: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        return float(self.meta["value"])


# ---------------------------------------------------------------------------
# continuous algorithms


def masked_frank_wolfe(g: ContinuousOracle, h: ContinuousOracle,
                       polytope: Polytope, epsilon: float) -> RunTrace:
    """Masked (measured-greedy) Frank-Wolfe on F = g + h over a down-closed
    polytope: ceil(1/epsilon) rounds of s = lmo((1-y) ⊙ grad F(y)) followed
    by y += step * (1-y) ⊙ s.

    ``g`` must be certified monotone; both components must be nonnegative
    (our oracle constructors certify this). The trace records the running
    coordinate cap 1 - (1-step)^i alongside each iterate. Each iterate is
    checked once, as the list ``_masked_step`` built, by ``_checked_list``,
    and read as its array through the oracle kernels; it stays in the
    cube, and the record keeps the checked list. Between the kernels, the
    iterate, the direction and the records are lists of floats, and each
    gradient is checked by ``_clean_c`` before the LMO kernel ``_lmo``.
    The kernels are bound once, before the loop.
    """
    epsilon = float(_finite(epsilon, "epsilon", 0))
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if g.n != h.n or polytope.n != g.n:
        raise ValueError("oracles and polytope must share the dimension")
    if not g.monotone:
        raise ValueError("the first objective must be certified monotone")
    rounds = _count(1.0 / epsilon)
    _within("fw-records", rounds)
    step = 1.0 / rounds
    grad_g, grad_h, value_g, value_h = g._grad, h._grad, g._value, h._value
    clean_c, lmo = polytope._clean_c, polytope._lmo
    y = [0.0] * g.n
    point = np.zeros(g.n)
    records = []
    for i in range(rounds):
        gradient = clean_c(grad_g(point) + grad_h(point))
        direction = lmo([(1.0 - v) * d for v, d in zip(y, gradient)])
        y, point = _checked_list(_masked_step(y, direction, step))
        records.append({
            "round": i,
            "direction": direction,
            "point": y,
            "value": float(value_g(point) + value_h(point)),
            "mask_cap": 1.0 - (1.0 - step) ** (i + 1),
        })
    return RunTrace(
        algorithm="masked-frank-wolfe",
        params={"epsilon": float(epsilon)},
        seed=None,
        iterations=records,
        final=list(y),
        meta={
            "rounds": rounds,
            "step": step,
            "value": records[-1]["value"],
            "in_polytope": bool(polytope.member(point)),
        },
    )


def frank_wolfe(f: ContinuousOracle, polytope: Polytope,
                iterations: int, declared_gamma: float | None = None
                ) -> RunTrace:
    """Projection-free conditional gradient from 0 with constant steps 1/K:
    v = lmo(grad F(x)), x += step * v, the final step clipped so the step
    masses add up to exactly 1 (making x a convex combination of polytope
    members and the origin). Each new x is checked once, as the list just
    built, by ``_checked_list``, whose array the record's value and the
    next gradient read; it is never clipped, since the masses sum to 1,
    and the record keeps x as built. As in ``masked_frank_wolfe``, x and
    the direction are lists of floats between the kernels, which are
    bound once, before the loop.
    """
    k_total = _integer(iterations, "iteration counts")
    if k_total < 1:
        raise ValueError("need at least one iteration")
    if polytope.n != f.n:
        raise ValueError("oracle and polytope must share the dimension")
    if not f.monotone:
        raise ValueError("objective must be certified monotone")
    _within("fw-records", k_total)
    grad, value = f._grad, f._value
    clean_c, lmo = polytope._clean_c, polytope._lmo
    x = [0.0] * f.n
    point = np.zeros(f.n)
    mass = 0.0
    records = []
    for k in range(k_total):
        direction = lmo(clean_c(grad(point)))
        # last round takes exactly the remaining mass; for k >= 2 this makes
        # the final total bit-exactly 1.0
        step = (1.0 - mass) if k == k_total - 1 else 1.0 / k_total
        x = [v + step * d for v, d in zip(x, direction)]
        point = _checked_list(x)[1]
        mass = mass + step
        records.append({
            "round": k,
            "direction": direction,
            "step": step,
            "point": x,
            "value": float(value(point)),
            "mass": mass,
        })
    meta = {
        "iterations": k_total,
        "step_mass": mass,
        "value": records[-1]["value"],
        "in_polytope": bool(polytope.member(x)),
    }
    if declared_gamma is not None:
        meta["declared_gamma"] = float(
            _finite(declared_gamma, "declared gamma", 0))
    return RunTrace(
        algorithm="frank-wolfe",
        params={"iterations": k_total},
        seed=None,
        iterations=records,
        final=list(x),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# bicriteria multi-pass greedy


def _log_rounds(p: int, epsilon: float, base) -> int:
    """ceil(log_b(1/eps)) with b = base(p), floored at one pass."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    p = _integer(p, "matroid counts")
    if p < 1:
        raise ValueError("p must be a positive integer")
    return _count(math.log(1.0 / epsilon) / math.log(base(p)))


def bicriteria_rounds(p: int, epsilon: float) -> int:
    """ceil(ln(1/eps) / ln((p+1)/p)), floored at one pass."""
    return _log_rounds(p, epsilon, lambda p: (p + 1.0) / p)


def authors_conjecture_rounds(p: int, epsilon: float) -> int:
    """ceil(log_{p+1}(1/eps)): the smaller, audited round count."""
    return _log_rounds(p, epsilon, lambda p: p + 1.0)


def certificate_holds(system: PSystem, parts, final, rounds: int) -> bool:
    """The bicriteria feasibility certificate: at most ``rounds`` recorded
    parts, each independent in ``system``, whose union is exactly
    ``final``, so no parts certify only an empty output. Each part and
    ``final`` are element lists, read as sets by ``mask_of``."""
    if not isinstance(parts, (list, tuple)):
        raise ValueError(f"{parts!r} is not a list of element lists")
    masks = [mask_of(t, system.n) for t in parts]
    return (len(masks) <= rounds and all(map(system.indep_mask, masks))
            and functools.reduce(operator.or_, masks, 0)
            == mask_of(final, system.n))


def multipass_greedy(f: SetFunctionOracle, system: PSystem,
                     epsilon: float) -> RunTrace:
    """Union of ell = bicriteria_rounds(p, eps) greedy passes; pass i runs
    marginal greedy over the p-system with marginals f(u | S_{i-1} ∪ T_i)
    and T_i independent on its own, so the output is covered by ell
    independent sets (the bicriteria certificate, stored in the trace).
    """
    if f.monotone is not True:
        raise ValueError("objective must be certified monotone")
    if system.n != f.n:
        raise ValueError("oracle and system must share the ground set")
    rounds = bicriteria_rounds(system.p, epsilon)
    chosen = 0
    records = []
    passes = []
    for i in range(rounds):
        part = psystem_greedy_marginal(f, system, given=chosen)
        chosen |= mask_of(part, f.n)
        passes.append(sorted(part))
        records.append({
            "round": i,
            "added": sorted(part),
            "value": f.value_mask(chosen),
        })
    final = elements_of(chosen)
    return RunTrace(
        algorithm="multipass-greedy",
        params={"epsilon": float(epsilon), "p": system.p},
        seed=None,
        iterations=records,
        final=final,
        meta={
            "rounds": rounds,
            "value": f.value_mask(chosen),
            "independent_sets": passes,
            "certificate_ok": certificate_holds(system, passes, final, rounds),
        },
    )


# ---------------------------------------------------------------------------
# randomized greedy with dummy padding (cardinality constraint)


def check_budget(k: int, n: int) -> None:
    """The budget of random greedy with dummies: an integer 1 <= k <= n."""
    if not 1 <= _integer(k, "budgets") <= n:
        raise ValueError("budget k must satisfy 1 <= k <= n")


def dummy_candidates(f: SetFunctionOracle, k: int, masks):
    """The dummy tie rule of random greedy under the budget k, for a 1-D
    int array of real masks R.

    The real candidates at R are the untaken u with f(u | R) >= 0, by
    descending marginal and then ascending u, up to k of them. Returns
    ``(order, counts)``: row i of the (len(masks), k) int array ``order``
    holds the candidates at masks[i] in its first counts[i] slots. No caller
    reads the other slots, which hold leftover element ids (taken, or of
    negative marginal), never a dummy: a run pads with the lowest untaken
    dummy ids (n .. n+2k-1, zero marginal everywhere), and the exact walk
    keeps R. So a real element of zero marginal precedes every dummy, and
    one of negative marginal is never offered. Masks that are not a 1-D
    array of ints in [0, 2^n) raise ValueError; an empty one has no rows.
    """
    check_budget(k, f.n)
    tab = f.table()
    masks = np.asarray(masks)
    if masks.ndim != 1:
        raise ValueError("masks must be a 1-D array of int masks")
    if masks.dtype.kind not in "iu" or masks.size and (
            masks.min() < 0 or masks.max() >= 1 << f.n):
        raise ValueError("mask is not a subset of the ground set")
    return _dummy_order(tab, masks, *_dummy_children(masks, f.n), k)


def _dummy_children(masks: np.ndarray, n: int) -> tuple:
    """The child masks R | 1 << u of each mask R, one column per u
    ascending, and whether u is free (not in R), as two
    (len(masks), n) arrays: the tables ``_dummy_order`` reads."""
    bits = 1 << np.arange(n)
    return masks[:, None] | bits, (masks[:, None] & bits) == 0


def _dummy_order(tab: np.ndarray, masks: np.ndarray, kids: np.ndarray,
                 free: np.ndarray, k: int) -> tuple:
    """``dummy_candidates`` unchecked, over the value table ``tab`` and
    the tables of ``_dummy_children(masks, n)``."""
    marg = tab[kids] - tab[masks][:, None]
    real = free & (marg >= 0.0)
    order = np.argsort(np.where(real, -marg, math.inf), axis=1,
                       kind="stable")[:, :k]
    return order, np.minimum(np.count_nonzero(real, axis=1), k)


def random_greedy_dummies(f: SetFunctionOracle, k: int, seed: int) -> RunTrace:
    """Run the dummy-padded random greedy; returns the real part of S_k.

    Each of the k rounds offers the real candidates of ``dummy_candidates``
    padded to k by the lowest untaken dummy ids, and draws one uniformly.
    """
    check_budget(k, f.n)
    rng = np.random.default_rng(_integer(seed, "seeds"))
    real = 0
    dummies = list(range(f.n, f.n + 2 * k))  # untaken, ascending
    records = []
    for i in range(k):
        order, counts = dummy_candidates(f, k, np.array([real]))
        options = [int(u) for u in order[0, :counts[0]]]
        options += dummies[:k - len(options)]
        u = options[int(rng.integers(len(options)))]
        if u < f.n:
            marg = f.marginal_mask(u, real)
            real |= 1 << u
        else:
            marg = 0.0
            dummies.remove(u)
        records.append({
            "round": i,
            "candidates": options,
            "chosen": u,
            "is_dummy": u >= f.n,
            "marginal": marg,
            "value": f.value_mask(real),
        })
    return RunTrace(
        algorithm="random-greedy-dummies",
        params={"k": int(k)},
        seed=int(seed),
        iterations=records,
        final=elements_of(real),
        meta={"value": f.value_mask(real)},
    )


# ---------------------------------------------------------------------------
# random greedy for the intersection of two matroids


def _intersection_tables(f: SetFunctionOracle, system: PSystem) -> tuple:
    """f's value table, the independence table of ``system`` and the unit
    masks 1 << u in ascending u, the native arguments of ``_candidates``,
    once f is checked against ``system``."""
    if f.n != system.n:
        raise ValueError("oracle and matroids must share the ground set")
    if f.monotone is not True:
        raise ValueError("objective must be certified monotone")
    return (memoryview(f.table()), system.indep_table().tobytes(),
            tuple(1 << u for u in range(f.n)))


def intersection_candidates(f: SetFunctionOracle, system: PSystem,
                            mask: int) -> tuple | None:
    """The candidates of two-matroid random greedy at the set S = ``mask``,
    an independent int mask, or None once no element extends S in
    ``system``.

    Weight the remaining elements by their marginals and take the
    maximum-weight T outside S with S | T common-independent (the search
    over the intersection's table with ``base=S``, no size target).
    """
    values, indep, units = _intersection_tables(f, system)
    mask = _mask(mask, f.n, "mask")
    if not indep[mask]:
        raise ValueError("mask is not an independent set")
    best = _candidates(values, indep, units, mask)
    return tuple(elements_of(best)) if best else None


def _candidates(values, indep, units, mask: int) -> int:
    """``intersection_candidates`` unchecked, as a mask, 0 once no element
    extends ``mask``, which must be independent. ``values`` and ``indep``
    are the value and independence tables indexed by mask in native form,
    a float64 memoryview and bytes, on which each search node is cheaper
    than on numpy scalars, and ``units`` the unit masks 1 << u in
    ascending u. Each element outside ``mask`` becomes a ``(marginal,
    bit)`` pair of ``_heaviest``. Once some element extends ``mask``, it
    checks those pairs, feasible or not, against the budget, as the search
    does."""
    here = values[mask]
    pairs = []
    extends = False
    for bit in units:
        if not mask & bit:
            child = mask | bit
            pairs.append((values[child] - here, bit))
            extends = extends or indep[child]
    if not extends:
        return 0
    _within("search", len(pairs))
    best = _heaviest(indep, pairs, mask)
    if not best:
        raise ValueError(
            "all feasible marginals are negative; oracle is not monotone")
    return best


def random_greedy_intersection(f: SetFunctionOracle, m1: Matroid, m2: Matroid,
                               seed: int) -> RunTrace:
    """Run random greedy for two matroids (while-loop form): while some
    element extends S in both, add a uniformly random member of
    ``intersection_candidates``.
    """
    rng = np.random.default_rng(_integer(seed, "seeds"))
    values, indep, units = _intersection_tables(f, PSystem([m1, m2]))
    state = 0
    records = []
    while best := _candidates(values, indep, units, state):
        options = elements_of(best)
        u = options[int(rng.integers(len(options)))]
        marg = f.marginal_mask(u, state)
        state |= 1 << u
        records.append({
            "round": len(records),
            "candidates": options,
            "chosen": u,
            "marginal": marg,
            "value": f.value_mask(state),
        })
    return RunTrace(
        algorithm="random-greedy-intersection",
        params={},
        seed=int(seed),
        iterations=records,
        final=elements_of(state),
        meta={"value": f.value_mask(state), "rounds": len(records)},
    )
