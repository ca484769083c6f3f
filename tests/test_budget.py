"""The work budget: every capability cap is one entry of ``oracles.BUDGET``,
and every site checks its predicted size against that entry, through
``oracles._within``, before its kernel runs."""

import ast
from pathlib import Path

import numpy as np
import pytest

from submodlab import algorithms, cli, continuous, matroids, oracles, verify
from submodlab.algorithms import _candidates, frank_wolfe, masked_frank_wolfe
from submodlab.continuous import (KnapsackPolytope, Polytope,
                                  QuadraticOracle, random_quadratic_dr,
                                  unit_box)
from submodlab.matroids import (PSystem, UniformMatroid,
                                max_weight_common_independent)
from submodlab.oracles import (BUDGET, CapabilityError, ModularOracle,
                               measure_ratios, random_perturbed)
from submodlab.verify import grid_opt


class Reached(Exception):
    """A kernel behind a budget check ran."""


def reached(*args, **kwargs):
    raise Reached


def _search(size):
    # a ground set of the search cap + 1 elements, with a base mask that
    # leaves ``size`` of them outside
    n = BUDGET["search"].limit + 1
    return n, (1 << (n - size)) - 1


def _mwci(size):
    n, base = _search(size)
    return max_weight_common_independent(UniformMatroid(n, 1), np.ones(n),
                                         base)


def _candidates_at(size):
    n, mask = _search(size)
    return _candidates(memoryview(np.zeros(1 << n)), b"\x01" * (1 << n),
                       tuple(1 << u for u in range(n)), mask)


def _grid_cells(cells):
    # a dimension-1 grid of exactly ``cells`` cells of 3 grid indices:
    # int(1 / resolution + CEIL_GUARD) // 3 + 1 = cells
    return grid_opt(random_quadratic_dr(1, 0, monotone=True), unit_box(1),
                    1.0 / (3 * (cells - 1) + 1.5))


def _masked_rounds(rounds):
    return masked_frank_wolfe(random_quadratic_dr(2, 0, monotone=True),
                              random_quadratic_dr(2, 1, monotone=False),
                              unit_box(2), 1.0 / rounds)


def _run_trials(trials):
    # the instance file is read only after the trials check
    return cli.cmd_run(cli._build_parser().parse_args(
        ["run", "--problem", "4", "--instance", "unread.json",
         "--trials", str(trials)]))


# site -> (entry, (owner, kernel attribute), call with a predicted size,
# the error one past the limit, byte for byte as the CLI prints it)
SITES = {
    "value table": (
        "table", (ModularOracle, "_build_table"),
        lambda n: ModularOracle(np.ones(n)).table(),
        "value table needs n <= 20, got n = 21"),
    "independence table": (
        "table", (UniformMatroid, "_build_table"),
        lambda n: UniformMatroid(n, 1).indep_table(),
        "independence table needs n <= 20, got n = 21"),
    # the frontier is built only after the budget and the value table
    "dummy_greedy_expectation": (
        "table", (verify, "_frontier"),
        lambda n: verify.dummy_greedy_expectation(
            ModularOracle(np.ones(n)), 1),
        "value table needs n <= 20, got n = 21"),
    "measure_ratios": (
        "gamma", (oracles, "_gamma_chunks"),
        lambda n: measure_ratios(random_perturbed(n, 0.3, 0)),
        "submodularity ratio needs n <= 12"),
    "gamma sweep": (
        "gamma", (oracles, "_gamma_chunks"),
        lambda n: oracles._gamma(random_perturbed(n, 0.3, 0)),
        "submodularity ratio needs n <= 12"),
    "max_weight_common_independent": (
        "search", (matroids, "_heaviest"), _mwci,
        "common-independent search needs <= 18 elements"),
    "_candidates": (
        "search", (algorithms, "_heaviest"), _candidates_at,
        "common-independent search needs <= 18 elements"),
    # the run meets the cap at its first state, before any search (it
    # swept the contracted ranks of all 2^n masks first)
    "random_greedy_intersection": (
        "search", (algorithms, "_heaviest"),
        lambda n: algorithms.random_greedy_intersection(
            ModularOracle(np.ones(n)), UniformMatroid(n, 1),
            UniformMatroid(n, 1), 0),
        "common-independent search needs <= 18 elements"),
    # the walk meets the cap at its first state, before any search
    "intersection_greedy_expectation": (
        "search", (algorithms, "_heaviest"),
        lambda n: verify.intersection_greedy_expectation(
            ModularOracle(np.ones(n)), PSystem([UniformMatroid(n, 1)] * 2)),
        "common-independent search needs <= 18 elements"),
    "quadratic vertex check": (
        "vertex-check", (continuous, "subset_bits"),
        lambda n: QuadraticOracle(np.zeros(n), -np.eye(n)),
        "cannot certify nonnegativity beyond the vertex-check limit"),
    "grid dimension": (
        "grid-dim", (verify, "_grid_axis"),
        lambda n: grid_opt(random_quadratic_dr(n, 0, monotone=True),
                           unit_box(n), 0.5),
        "grid optimum needs n <= 5"),
    "grid cells": (
        "grid-cells", (verify, "_grid_axis"), _grid_cells,
        "grid optimum needs at most 45435424 cells"),
    "masked_frank_wolfe": (
        "fw-records", (Polytope, "_clean_c"), _masked_rounds,
        "Frank-Wolfe needs at most 100000 rounds"),
    "frank_wolfe": (
        "fw-records", (Polytope, "_clean_c"),
        lambda k: frank_wolfe(random_quadratic_dr(2, 0, monotone=True),
                              unit_box(2), k),
        "Frank-Wolfe needs at most 100000 rounds"),
    "run trials": (
        "trials", (cli, "_load_problem_components"), _run_trials,
        "a run or an audit takes at most 10000 trials"),
    "audit trials": (
        "trials", (verify, "audit"), lambda t: verify.audit_problem4(t, 0),
        "a run or an audit takes at most 10000 trials"),
}


def test_every_budget_entry_has_a_site():
    assert {entry for entry, *_ in SITES.values()} == set(BUDGET)


@pytest.mark.parametrize("site", list(SITES))
def test_each_site_checks_its_entry_before_its_kernel(monkeypatch, site):
    entry, (owner, kernel), call, message = SITES[site]
    monkeypatch.setattr(owner, kernel, reached)
    limit = BUDGET[entry].limit
    with pytest.raises(CapabilityError) as info:
        call(limit + 1)
    assert str(info.value) == message
    with pytest.raises(Reached):
        call(limit)


def test_knapsack_takes_its_exact_diameter_up_to_the_vertex_check(
        monkeypatch):
    monkeypatch.setattr(continuous, "subset_bits", reached)
    limit = BUDGET["vertex-check"].limit
    with pytest.raises(Reached):
        KnapsackPolytope(np.ones(limit), 2.0)
    assert KnapsackPolytope(np.ones(limit + 1), 2.0).diameter == 4.0


def test_expectation_checks_its_budget_before_its_size_order(monkeypatch):
    monkeypatch.setattr(verify, "_frontier", reached)
    f = ModularOracle(np.ones(4))
    for k in (0, 5):
        with pytest.raises(ValueError,
                           match="^budget k must satisfy 1 <= k <= n$"):
            verify.dummy_greedy_expectation(f, k)


def test_capability_error_is_raised_by_the_budget_function_alone():
    # a new cap cannot bypass the table: no other src function raises it
    found = []

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) \
                    == "CapabilityError":
                found.append((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(Path(oracles.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert found == [("oracles.py", "_within")]
