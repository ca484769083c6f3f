"""Ground-truth optimum oracles, guarantee checking against closed-form
bounds, exact expectations over uniform choice trees, and audit searches
for the bounds whose proofs are documented as flawed.

Bound provenance matters: only "proved" bounds may fail a suite or flip an
exit code; "claimed-flawed" and "authors-conjecture" bounds are audited and
reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import serialization
from .algorithms import (DummyGreedyProcess, IntersectionGreedyProcess,
                         RunTrace, authors_conjecture_rounds,
                         bicriteria_rounds, multipass_greedy)
from .continuous import ContinuousOracle, Polytope
from .matroids import (Matroid, PSystem, random_partition_matroid,
                       random_partition_psystem)
from .oracles import (REL_TOL, CapabilityError, SetFunctionOracle,
                      elements_of, measure_ratios, random_coverage,
                      random_perturbed)

OPT_SET_LIMIT = 18
GRID_DIM_LIMIT = 5
TREE_NODE_LIMIT = 1 << 18


@dataclass(frozen=True)
class OptimumCertificate:
    """A certified optimum: exact (radius 0) or grid-based with a Lipschitz
    error radius, so that value <= true optimum <= value + radius."""

    value: float
    maximizer: object
    method: str  # "exhaustive" | "grid"
    radius: float

    @property
    def upper(self) -> float:
        return self.value + self.radius


def brute_force_opt_set(f: SetFunctionOracle, feasible=None
                        ) -> OptimumCertificate:
    """Exact maximum of f over all feasible subsets.

    ``feasible`` may be None (all subsets), an object exposing
    ``indep_mask``, or a callable taking a subset bitmask. Ties resolve to
    the first maximizer in ascending mask order.
    """
    if f.n > OPT_SET_LIMIT:
        raise CapabilityError(f"exhaustive optimum needs n <= {OPT_SET_LIMIT}")
    if feasible is None:
        pred = lambda mask: True
    elif hasattr(feasible, "indep_mask"):
        pred = feasible.indep_mask
    elif callable(feasible):
        pred = feasible
    else:
        raise TypeError("feasible must be None, an oracle, or a callable")
    tab = f.table()
    best_mask = -1
    best_val = -math.inf
    for mask in range(1 << f.n):
        if not pred(mask):
            continue
        v = float(tab[mask])
        if v > best_val:
            best_val, best_mask = v, mask
    if best_mask < 0:
        raise ValueError("no feasible subset (not even the empty set)")
    return OptimumCertificate(value=best_val,
                              maximizer=elements_of(best_mask),
                              method="exhaustive", radius=0.0)


def grid_opt(f: ContinuousOracle, polytope: Polytope,
             resolution: float) -> OptimumCertificate:
    """Grid maximum over the polytope plus a certified error radius.

    Any point of the polytope dominates its lower grid corner, which is
    again a member (down-closedness), so the true optimum is at most the
    grid maximum plus value_lipschitz * min(resolution * sqrt(n), diameter).
    """
    if f.n > GRID_DIM_LIMIT:
        raise CapabilityError(f"grid optimum needs n <= {GRID_DIM_LIMIT}")
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    if polytope.n != f.n:
        raise ValueError("oracle and polytope must share the dimension")
    steps = int(math.floor(1.0 / resolution + 1e-9))
    axis = np.minimum(1.0, resolution * np.arange(steps + 1))
    grids = np.meshgrid(*([axis] * f.n), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    best_val = -math.inf
    best_point = np.zeros(f.n)
    chunk = 200_000
    for start in range(0, points.shape[0], chunk):
        block = points[start:start + chunk]
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


# ---------------------------------------------------------------------------
# exact expectations over uniform choice trees


def expected_value_exact(process, max_nodes: int = TREE_NODE_LIMIT) -> float:
    """Exact expectation of the final value over every uniform draw in the
    process's choice tree.

    The tree is walked as a DAG: nodes whose ``process.canonical(state)``
    keys agree have identical subtrees, so each distinct key is expanded
    once and its value reused. Children are summed in ``choices`` order and
    divided by their count, exactly as a plain tree walk does, so the result
    is bit-identical to one. The walk aborts once it has expanded more than
    ``max_nodes`` distinct states."""
    memo: dict = {}
    expanded = 0

    def rec(state) -> float:
        nonlocal expanded
        key = process.canonical(state)
        if key in memo:
            return memo[key]
        expanded += 1
        if expanded > max_nodes:
            raise CapabilityError(
                f"choice DAG exceeds {max_nodes} distinct states")
        options = process.choices(state)
        if options is None:
            value = process.final_value(state)
        else:
            total = 0.0
            for choice in options:
                total += rec(process.step(state, choice))
            value = total / len(options)
        memo[key] = value
        return value

    return rec(process.initial())


def monte_carlo_value(process, trials: int, seed: int):
    """Seeded Monte-Carlo mean and standard error of the final value."""
    if trials < 1:
        raise ValueError("need at least one trial")
    vals = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([int(seed), t])
        state = process.initial()
        while (options := process.choices(state)) is not None:
            state = process.step(state, options[int(rng.integers(len(options)))])
        vals[t] = process.final_value(state)
    se = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(vals.mean()), se


# ---------------------------------------------------------------------------
# bound formulas and guarantee reports

PROVED = "proved"
CLAIMED_FLAWED = "claimed-flawed"
AUTHORS_CONJECTURE = "authors-conjecture"


@dataclass(frozen=True)
class BoundFormula:
    """A closed-form guarantee threshold plus its provenance.

    ``expr`` maps a parameter dict to the threshold the measured quantity is
    compared against. ``rounds`` (optional) gives the round count an
    algorithm should be run with for this bound.
    """

    bound_id: str
    provenance: str
    requires: tuple
    expr: Callable[[dict], float]
    rounds: Callable[[int, float], int] | None = None

    def threshold(self, params: dict) -> float:
        missing = [key for key in self.requires if key not in params]
        if missing:
            raise ValueError(f"missing bound parameters: {missing}")
        return float(self.expr(params))


BOUNDS = {
    "problem1-split": BoundFormula(
        bound_id="problem1-split",
        provenance=PROVED,
        requires=("g_at_opt", "h_at_opt", "epsilon", "smooth_g", "smooth_h",
                  "diameter", "radius"),
        expr=lambda p: ((1.0 - 1.0 / math.e) * p["g_at_opt"]
                        + (1.0 / math.e) * p["h_at_opt"]
                        - p["epsilon"] * (p["smooth_g"] + p["smooth_h"])
                        * p["diameter"] ** 2
                        - p["radius"]),
    ),
    "problem2-bicriteria": BoundFormula(
        bound_id="problem2-bicriteria",
        provenance=PROVED,
        requires=("epsilon", "opt"),
        expr=lambda p: (1.0 - p["epsilon"]) * p["opt"],
        rounds=bicriteria_rounds,
    ),
    "problem2-authors-conjecture": BoundFormula(
        bound_id="problem2-authors-conjecture",
        provenance=AUTHORS_CONJECTURE,
        requires=("epsilon", "opt"),
        expr=lambda p: (1.0 - p["epsilon"]) * p["opt"],
        rounds=authors_conjecture_rounds,
    ),
    "problem3-weak-dr": BoundFormula(
        bound_id="problem3-weak-dr",
        provenance=PROVED,
        requires=("gamma", "opt_upper", "smoothness", "iterations", "radius"),
        expr=lambda p: ((1.0 - math.exp(-p["gamma"])) * p["opt_upper"]
                        - p["smoothness"] / (2.0 * p["iterations"])
                        - p["radius"]),
    ),
    "problem4-claimed": BoundFormula(
        bound_id="problem4-claimed",
        provenance=CLAIMED_FLAWED,
        requires=("m", "gamma", "opt"),
        expr=lambda p: ((p["m"] * (1.0 - math.exp(-p["gamma"]))
                         + (1.0 - p["m"]) * p["gamma"] / math.e) * p["opt"]),
    ),
    "problem5-claimed": BoundFormula(
        bound_id="problem5-claimed",
        provenance=CLAIMED_FLAWED,
        requires=("gamma", "opt"),
        expr=lambda p: (p["gamma"] / (p["gamma"] + 2.0)) ** 2 * p["opt"],
    ),
}

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
TRIVIAL = "trivial"


@dataclass(frozen=True)
class GuaranteeReport:
    """One measured run (or trial ensemble) against a claimed bound.

    ``params`` holds the inputs the threshold was computed from. Audit rows
    replace them with the instance parameters and add the exact optimum
    ``opt``, the ratio measured/OPT, and the instance document ``doc``.
    """

    instance_id: str
    algorithm_id: str
    bound_id: str
    provenance: str
    measured: float
    half_width: float | None
    threshold: float
    slack: float
    verdict: str
    params: dict = field(default_factory=dict)
    opt: float | None = None
    ratio: float | None = None
    doc: dict = field(repr=False, default_factory=dict)


def check_bound(measured: float, bound: BoundFormula, params: dict,
                instance_id: str = "", algorithm_id: str = "",
                half_width: float | None = None) -> GuaranteeReport:
    """Compare a measured value (exact, or mean with a 99% CI half-width)
    against a bound threshold.

    Exact measurements give holds/violated; sampled ones give violated only
    when the whole interval sits below the threshold, holds only when it
    sits above, and inconclusive otherwise.
    """
    threshold = bound.threshold(params)
    tol = REL_TOL * max(1.0, abs(threshold))
    if half_width is None:
        verdict = HOLDS if measured >= threshold - tol else VIOLATED
    else:
        if measured - half_width >= threshold - tol:
            verdict = HOLDS
        elif measured + half_width < threshold - tol:
            verdict = VIOLATED
        else:
            verdict = INCONCLUSIVE
    return GuaranteeReport(
        instance_id=instance_id,
        algorithm_id=algorithm_id,
        bound_id=bound.bound_id,
        provenance=bound.provenance,
        measured=float(measured),
        half_width=half_width,
        threshold=threshold,
        slack=float(measured - threshold),
        verdict=verdict,
        params=dict(params),
    )


def problem1_report(trace: RunTrace, g: ContinuousOracle, h: ContinuousOracle,
                    polytope: Polytope, cert: OptimumCertificate,
                    instance_id: str = "") -> GuaranteeReport:
    """Split-objective check: the grid maximizer stands in for the optimum,
    with the certificate radius subtracted from the threshold."""
    params = {
        "g_at_opt": g.value(cert.maximizer),
        "h_at_opt": h.value(cert.maximizer),
        "epsilon": trace.meta["step"],
        "smooth_g": g.smoothness,
        "smooth_h": h.smoothness,
        "diameter": polytope.diameter,
        "radius": cert.radius,
    }
    return check_bound(trace.value, BOUNDS["problem1-split"], params,
                       instance_id=instance_id,
                       algorithm_id=trace.algorithm)


def problem2_report(trace: RunTrace, opt: OptimumCertificate,
                    system: PSystem | None = None,
                    instance_id: str = "") -> GuaranteeReport:
    """Bicriteria check. The guarantee has two halves: value at least
    (1-eps)*OPT, and output covered by the recorded independent sets. With
    ``system`` given, the feasibility certificate is recomputed from the
    trace, and a broken certificate makes the verdict 'violated' no matter
    the value."""
    params = {"epsilon": trace.params["epsilon"], "opt": opt.value}
    report = check_bound(trace.value, BOUNDS["problem2-bicriteria"], params,
                         instance_id=instance_id,
                         algorithm_id=trace.algorithm)
    if system is not None:
        parts = trace.meta.get("independent_sets", [])
        union = sorted(set().union(*map(set, parts))) if parts else []
        cert_ok = all(system.indep(t) for t in parts) and \
            union == sorted(trace.final)
        if not cert_ok:
            report = replace(report, verdict=VIOLATED)
    return report


def problem3_report(trace: RunTrace, gamma: float, f: ContinuousOracle,
                    cert: OptimumCertificate,
                    instance_id: str = "") -> GuaranteeReport:
    params = {
        "gamma": gamma,
        "opt_upper": cert.upper,
        "smoothness": f.smoothness,
        "iterations": trace.params["iterations"],
        "radius": cert.radius,
    }
    return check_bound(trace.value, BOUNDS["problem3-weak-dr"], params,
                       instance_id=instance_id, algorithm_id=trace.algorithm)


def problem4_report(f: SetFunctionOracle, k: int,
                    instance_id: str = "") -> GuaranteeReport:
    """Claimed bound for dummy-padded random greedy under the budget k:
    measured (gamma, m), the exhaustive optimum over |S| <= k, and the
    exact expectation over every uniform draw."""
    ratios = measure_ratios(f)
    opt = brute_force_opt_set(f, lambda mask: mask.bit_count() <= k)
    measured = expected_value_exact(DummyGreedyProcess(f, k))
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
    system = PSystem.from_matroids([m1, m2])
    opt = brute_force_opt_set(f, system.indep_mask)
    measured = expected_value_exact(IntersectionGreedyProcess(f, m1, m2))
    return check_bound(measured, BOUNDS["problem5-claimed"],
                       {"gamma": ratios.gamma, "m": ratios.m,
                        "opt": opt.value},
                       instance_id=instance_id,
                       algorithm_id="random-greedy-intersection")


# ---------------------------------------------------------------------------
# audits of the proved bicriteria bound, the claimed-flawed bounds, and the
# round-count conjecture


@dataclass
class AuditReport:
    bound_id: str
    provenance: str
    seed: int
    rows: list[GuaranteeReport]
    violations: list[dict]

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
    ratio measured/OPT; an optimum of about 0 makes the verdict 'trivial'.
    Every violating instance document is collected for replay.
    """
    rows: list[GuaranteeReport] = []
    violations: list[dict] = []
    for t in range(trials):
        report, params, doc = make_case(seed, t)
        opt = float(report.params["opt"])
        trivial = opt <= REL_TOL
        row = replace(report, params=params, opt=opt, doc=doc,
                      ratio=None if trivial else report.measured / opt,
                      verdict=TRIVIAL if trivial else report.verdict)
        rows.append(row)
        if row.verdict == VIOLATED:
            violations.append(doc)
    return AuditReport(bound_id=bound.bound_id, provenance=bound.provenance,
                       seed=seed, rows=rows, violations=violations)


def _problem2_run(seed: int, trial: int, n: int, p: int, epsilon: float):
    inst_seed = seed * 1_000_003 + trial
    f = random_coverage(n, inst_seed)
    system = random_partition_psystem(n, p, inst_seed)
    trace = multipass_greedy(f, system, epsilon)
    opt = brute_force_opt_set(f, system.indep_mask)
    return inst_seed, f, system, trace, opt


def _problem2_case(seed: int, trial: int, n: int, p: int, epsilon: float):
    inst_seed, f, system, trace, opt = _problem2_run(seed, trial, n, p,
                                                     epsilon)
    report = problem2_report(trace, opt, system=system,
                             instance_id=f"p2-s{seed}-t{trial}")
    doc = serialization.bundle_doc(
        2, {"objective": f, "system": system},
        meta={"seed": inst_seed, "p": p, "epsilon": epsilon})
    return report, {"epsilon": epsilon, "p": p}, doc


def audit_problem2(trials: int, seed: int, p: int = 2, epsilon: float = 0.1,
                   n: int = 8) -> AuditReport:
    """Audit of the proved bicriteria bound over coverage objectives and
    intersections of p partition matroids. Both halves are checked: the
    value against (1-eps)*OPT and the recorded feasibility certificate."""
    return audit(BOUNDS["problem2-bicriteria"],
                 lambda s, t: _problem2_case(s, t, n=n, p=p, epsilon=epsilon),
                 trials, seed)


def _problem4_case(seed: int, trial: int, n: int, k: int, delta: float):
    inst_seed = seed * 1_000_003 + trial
    rng = np.random.default_rng([seed, trial])
    monotone = bool(rng.random() < 0.3)
    # vary the noise amplitude so the measured (gamma, m) grid gets filled
    amplitude = float(rng.uniform(0.05, max(delta, 0.06)))
    f = random_perturbed(n, amplitude, inst_seed, monotone=monotone)
    report = problem4_report(f, k, instance_id=f"p4-s{seed}-t{trial}")
    ratios = {"gamma": report.params["gamma"], "m": report.params["m"]}
    doc = serialization.bundle_doc(4, {"objective": f}, measured=ratios,
                                   meta={"k": k, "seed": inst_seed})
    return report, ratios | {"k": k, "n": n}, doc


def audit_problem4(trials: int, seed: int, n: int = 5, k: int = 2,
                   delta: float = 0.6) -> AuditReport:
    """Exact-expectation audit of the claimed partial-monotonicity bound for
    dummy-padded random greedy, over perturbed instances with measured
    (gamma, m). The expectation is exact for every budget 1 <= k <= n: its
    choice DAG has at most (k + 1) * 2^n states, and measuring gamma caps n
    at GAMMA_LIMIT."""
    bound = BOUNDS["problem4-claimed"]
    return audit(bound,
                 lambda s, t: _problem4_case(s, t, n=n, k=k, delta=delta),
                 trials, seed)


def _problem5_case(seed: int, trial: int, n: int, delta: float):
    inst_seed = seed * 1_000_003 + trial
    rng = np.random.default_rng([seed, trial])
    if rng.random() < 0.5:
        f = random_coverage(n, inst_seed)
    else:
        amplitude = float(rng.uniform(0.05, max(delta, 0.06)))
        f = random_perturbed(n, amplitude, inst_seed, monotone=True)
    m1 = random_partition_matroid(n, inst_seed + 1)
    m2 = random_partition_matroid(n, inst_seed + 2)
    report = problem5_report(f, m1, m2, instance_id=f"p5-s{seed}-t{trial}")
    gamma = report.params["gamma"]
    doc = serialization.bundle_doc(
        5, {"objective": f, "matroid1": m1, "matroid2": m2},
        measured={"gamma": gamma, "m": report.params["m"]},
        meta={"seed": inst_seed})
    return report, {"gamma": gamma, "n": n}, doc


def audit_problem5(trials: int, seed: int, n: int = 6,
                   delta: float = 0.4) -> AuditReport:
    """Exact-expectation audit of the claimed two-matroid random-greedy
    bound (1/9 of the optimum at gamma = 1) over monotone instances."""
    bound = BOUNDS["problem5-claimed"]
    return audit(bound, lambda s, t: _problem5_case(s, t, n=n, delta=delta),
                 trials, seed)


@dataclass(frozen=True)
class ConjectureRow:
    instance_id: str
    p: int
    epsilon: float
    opt: float
    rounds_conjecture: int
    rounds_multipass: int
    value_at_conjecture: float
    value_at_multipass: float
    first_round_reaching: int | None
    conjecture_sufficient: bool


@dataclass
class ConjectureReport:
    p: int
    epsilon: float
    seed: int
    rows: list[ConjectureRow]

    def summary(self) -> dict:
        suff = [r.conjecture_sufficient for r in self.rows]
        ratios = [r.value_at_conjecture / r.opt for r in self.rows if r.opt > 0]
        return {
            "p": self.p,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "instances": len(self.rows),
            "fraction_sufficient": (sum(suff) / len(suff)) if suff else None,
            "min_ratio_at_conjecture_rounds": min(ratios) if ratios else None,
        }


def audit_problem2_conjecture(trials: int, seed: int, p: int = 2,
                              epsilon: float = 0.1, n: int = 8
                              ) -> ConjectureReport:
    """Head-to-head round counts: does the smaller conjectured pass count
    ceil(log_{p+1}(1/eps)) already reach (1-eps) * OPT, or are the proved
    ceil(ln(1/eps)/ln((p+1)/p)) passes needed? Exploratory, no verdict."""
    rounds_conj = authors_conjecture_rounds(p, epsilon)
    rows: list[ConjectureRow] = []
    for t in range(trials):
        _, _, _, trace, opt = _problem2_run(seed, t, n, p, epsilon)
        target = (1.0 - epsilon) * opt.value
        per_round = [rec["value"] for rec in trace.iterations]
        tol = REL_TOL * max(1.0, opt.value)
        first = next((i + 1 for i, v in enumerate(per_round)
                      if v >= target - tol), None)
        value_conj = per_round[min(rounds_conj, len(per_round)) - 1]
        rows.append(ConjectureRow(
            instance_id=f"p2c-s{seed}-t{t}",
            p=p, epsilon=epsilon, opt=opt.value,
            rounds_conjecture=rounds_conj,
            rounds_multipass=trace.meta["rounds"],
            value_at_conjecture=value_conj,
            value_at_multipass=trace.value,
            first_round_reaching=first,
            conjecture_sufficient=bool(value_conj >= target - tol),
        ))
    return ConjectureReport(p=p, epsilon=epsilon, seed=seed, rows=rows)
