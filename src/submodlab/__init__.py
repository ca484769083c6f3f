"""submodlab: a desk-scale laboratory for submodular maximization.

Set-function and continuous oracles with exactly measurable structure
ratios, matroid and p-system machinery, five trace-producing maximization
algorithms, and a verification layer that checks runs against closed-form
guarantee thresholds (asserting the proved ones, auditing the flawed ones).
"""

from .oracles import (CapabilityError, CoverageOracle, CutOracle,
                      ModularOracle, PerturbedOracle, RatioMeasurement,
                      SetFunctionOracle, measure_ratios, random_coverage,
                      random_cut, random_modular, random_perturbed)
from .matroids import (GraphicMatroid, IndependenceSystem, Matroid,
                       PartitionMatroid, PSystem, UniformMatroid,
                       max_weight_common_independent,
                       psystem_greedy_marginal, random_graphic_matroid,
                       random_partition_matroid)
from .continuous import (BoxPolytope, CardinalityPolytope, ContinuousOracle,
                         KnapsackPolytope, PartitionPolytope, Polytope,
                         QuadraticOracle, SqrtLinearOracle, SumOracle,
                         masked_update, random_quadratic_dr,
                         random_sqrt_linear, random_weak_quadratic, unit_box,
                         weak_dr_gamma)
from .algorithms import (RunTrace, authors_conjecture_rounds,
                         bicriteria_rounds, dummy_candidates, frank_wolfe,
                         intersection_candidates, masked_frank_wolfe,
                         multipass_greedy, random_greedy_dummies,
                         random_greedy_intersection)
from .verify import (AUDITS, BOUNDS, AuditReport, BoundFormula,
                     GuaranteeReport, OptimumCertificate, audit,
                     audit_problem4, audit_problem5, brute_force_opt_set,
                     check_bound, dummy_greedy_expectation, grid_opt,
                     intersection_greedy_expectation, run_audit)

__version__ = "0.1.0"
