"""submodlab: a desk-scale laboratory for submodular maximization.

Set-function and continuous oracles with exactly measurable structure
ratios, matroid and p-system machinery, five trace-producing maximization
algorithms, and a verification layer that checks runs against closed-form
guarantee thresholds (asserting the proved ones, auditing the flawed ones).
"""

from .oracles import (CapabilityError, CoverageOracle, CutOracle, GroundSet,
                      ModularOracle, PerturbedOracle, RatioMeasurement,
                      ResidualOracle, SetFunctionOracle,
                      is_submodular_bruteforce, marginal, measure_ratios,
                      monotonicity_ratio, random_coverage, random_cut,
                      random_modular, random_perturbed, submodularity_ratio)
from .matroids import (ContractedMatroid, GraphicMatroid, Matroid,
                       PartitionMatroid, PSystem, UniformMatroid,
                       common_rank, contract, free_matroid, matroid_greedy,
                       max_weight_common_independent, psystem_greedy_marginal,
                       random_graphic_matroid, random_partition_matroid,
                       random_uniform_matroid, verify_matroid_axioms)
from .continuous import (BoxPolytope, CardinalityPolytope, ContinuousOracle,
                         KnapsackPolytope, MultilinearOracle,
                         PartitionPolytope, Polytope, QuadraticOracle,
                         SqrtLinearOracle, SumOracle, dr_check, grad_check,
                         masked_update, random_quadratic_dr,
                         random_sqrt_linear, random_weak_quadratic, unit_box,
                         weak_dr_gamma)
from .algorithms import (DummyGreedyProcess, IntersectionGreedyProcess,
                         RunTrace, authors_conjecture_rounds,
                         bicriteria_rounds, frank_wolfe, masked_frank_wolfe,
                         multipass_greedy, random_greedy_dummies,
                         random_greedy_intersection)
from .verify import (BOUNDS, AuditReport, BoundFormula, ConjectureReport,
                     GuaranteeReport, OptimumCertificate, audit,
                     audit_problem2, audit_problem2_conjecture, audit_problem4,
                     audit_problem5, brute_force_opt_set, check_bound,
                     expected_value_exact, grid_opt, monte_carlo_value)

__version__ = "0.1.0"
