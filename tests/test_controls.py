"""Controls: the checks must meet a bound known to be tight and refute a
claim known to be false.

The positive control is Fisher-Nemhauser-Wolsey's tight instance for one
greedy pass over p = 1 matroid, built by hand. Elements a, b, c sit in the
partition blocks {a, b} and {c}, each with capacity 1. Over universe items
u, v (weight 1) and w (weight delta = 1e-3), a covers {u, w}, b covers {v}
and c covers {u}. At epsilon = 0.5 the bicriteria round count is one pass,
which takes a for 1 + delta against OPT = 2 ({b, c}), so the proved bound
(1 - epsilon) OPT = 1 holds with measured/threshold = 1.001. The negative
control is that bound's false twin, its threshold times 1.05, which the
same instance refutes.
"""

import pytest

from submodlab.algorithms import bicriteria_rounds, multipass_greedy
from submodlab.matroids import PartitionMatroid, PSystem
from submodlab.oracles import CoverageOracle
from submodlab.verify import (BOUNDS, HOLDS, VIOLATED, BoundFormula,
                              brute_force_opt_set, check_bound,
                              problem2_report)

DELTA = 1e-3
EPSILON = 0.5


def _tight_p1():
    f = CoverageOracle(3, [[0, 2], [1], [0]], [1.0, 1.0, DELTA])
    system = PSystem([PartitionMatroid([[0, 1], [2]], [1, 1])])
    return f, system


def _positive_control():
    f, system = _tight_p1()
    trace = multipass_greedy(f, system, EPSILON)
    opt = brute_force_opt_set(f, system.indep_table())
    return trace, opt, problem2_report(trace, f, opt, system,
                                       instance_id="fnw-p1")


def test_one_pass_at_p1_and_epsilon_one_half():
    assert bicriteria_rounds(1, EPSILON) == 1


def test_positive_control_meets_the_proved_bound_tightly():
    trace, opt, report = _positive_control()
    assert trace.final == [0]
    assert trace.value == pytest.approx(1.0 + DELTA)
    assert opt.value == 2.0 and sorted(opt.maximizer) == [1, 2]
    assert report.bound_id == "problem2-bicriteria"
    assert report.verdict == HOLDS
    assert report.threshold == (1.0 - EPSILON) * opt.value
    assert report.measured / report.threshold == pytest.approx(1.0 + DELTA)


def test_negative_control_refutes_the_inflated_bound():
    _, _, report = _positive_control()
    proved = BOUNDS["problem2-bicriteria"]
    twin = BoundFormula("problem2-bicriteria-x1.05", proved.provenance,
                        proved.requires,
                        lambda p: 1.05 * proved.threshold(p))
    inflated = check_bound(report.measured, twin, report.params,
                           instance_id="fnw-p1")
    assert inflated.threshold == pytest.approx(1.05 * report.threshold)
    assert inflated.verdict == VIOLATED
