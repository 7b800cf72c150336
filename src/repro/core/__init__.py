"""The paper's primary contribution: problem definitions, exact solvers,
and the four algorithms of Sections IV–V (Claim 1 general pipeline,
Lemma 1 balanced pipeline, Algorithm 1 PrimeDualVSE, Algorithms 2–3
LowDegTreeVSE(+Two), Algorithm 4 DPTreeVSE), plus baselines, the
complexity classifier for Tables II–V, and a structure-aware dispatcher.
"""

from repro.core.arena import CompiledProblem, compile_problem
from repro.core.balanced import lemma1_bound, solve_balanced
from repro.core.bounded import minimum_deletion_size, solve_bounded_exact
from repro.core.classify import (
    PAPER_RESULTS,
    TABLE_II,
    TABLE_III,
    TABLE_IV,
    TABLE_V,
    classification_flags,
    verdict,
)
from repro.core.dp_tree import solve_dp_tree
from repro.core.exact import solve_exact, solve_exact_bruteforce, solve_exact_ilp
from repro.core.explain import coverage_of, explain_solution
from repro.core.general import claim1_bound, solve_general
from repro.core.greedy import solve_greedy_max_coverage, solve_greedy_min_damage
from repro.core.local_search import (
    improve,
    improve_reference,
    solve_with_local_search,
)
from repro.core.oracle import EliminationOracle, OracleCounters
from repro.core.lowdeg_tree import (
    preserved_degree,
    solve_lowdeg_tree,
    solve_lowdeg_tree_sweep,
    theorem4_bound,
)
from repro.core.lp_rounding import (
    lp_rounding_bound,
    solve_lp_rounding,
    solve_randomized_rounding,
)
from repro.core.pareto import ParetoPoint, pareto_front
from repro.core.portfolio import (
    DEFAULT_PORTFOLIO,
    DeltaOutcome,
    PortfolioResult,
    run_delta_batch,
    run_portfolio,
    solve_portfolio,
)
from repro.core.primal_dual import PrimalDualTrace, solve_primal_dual
from repro.core.problem import (
    BalancedDeletionPropagationProblem,
    DeletionPropagationProblem,
)
from repro.core.registry import (
    ROUTE_TABLE,
    Route,
    RouteStage,
    SolveReport,
    available_solvers,
    route_plan,
    solve,
    solve_report,
)
from repro.core.tracestore import (
    TraceStore,
    default_store,
    record_from_report,
    validate_record,
)
from repro.core.resilience import (
    AttemptRecord,
    Deadline,
    DeadlineExceededError,
    SolvePolicy,
    active_deadline,
    deadline_scope,
    derive_backoff_rng,
    parse_fallback,
    solve_with_policy,
)
from repro.core.session import SolveSession, StructureProfile
from repro.core.single_query import (
    solve_single_deletion,
    solve_single_query,
    solve_two_atom_mincut,
)
from repro.core.solution import Propagation
from repro.core.statistics import (
    SolverStatistics,
    WorkloadStatistics,
    solver_statistics,
    workload_statistics,
)
from repro.core.verify import VerificationReport, verify_solution
from repro.core.source_side_effect import (
    resilience,
    solve_source_exact,
    solve_source_greedy,
    source_cost,
)

__all__ = [
    "AttemptRecord",
    "BalancedDeletionPropagationProblem",
    "CompiledProblem",
    "DEFAULT_PORTFOLIO",
    "Deadline",
    "DeadlineExceededError",
    "DeltaOutcome",
    "EliminationOracle",
    "OracleCounters",
    "SolverStatistics",
    "VerificationReport",
    "WorkloadStatistics",
    "DeletionPropagationProblem",
    "PAPER_RESULTS",
    "ParetoPoint",
    "PortfolioResult",
    "PrimalDualTrace",
    "Propagation",
    "ROUTE_TABLE",
    "Route",
    "RouteStage",
    "SolvePolicy",
    "SolveReport",
    "SolveSession",
    "StructureProfile",
    "TraceStore",
    "TABLE_II",
    "TABLE_III",
    "TABLE_IV",
    "TABLE_V",
    "active_deadline",
    "available_solvers",
    "claim1_bound",
    "classification_flags",
    "compile_problem",
    "coverage_of",
    "deadline_scope",
    "derive_backoff_rng",
    "explain_solution",
    "improve",
    "improve_reference",
    "lemma1_bound",
    "lp_rounding_bound",
    "minimum_deletion_size",
    "default_store",
    "pareto_front",
    "parse_fallback",
    "preserved_degree",
    "record_from_report",
    "resilience",
    "route_plan",
    "run_delta_batch",
    "run_portfolio",
    "solve_bounded_exact",
    "solve",
    "solve_report",
    "solve_balanced",
    "solve_dp_tree",
    "solve_exact",
    "solve_exact_bruteforce",
    "solve_exact_ilp",
    "solve_general",
    "solve_greedy_max_coverage",
    "solve_greedy_min_damage",
    "solve_lowdeg_tree",
    "solve_lowdeg_tree_sweep",
    "solve_lp_rounding",
    "solve_portfolio",
    "solve_primal_dual",
    "solve_randomized_rounding",
    "solve_single_deletion",
    "solve_single_query",
    "solve_source_exact",
    "solve_source_greedy",
    "solve_two_atom_mincut",
    "solve_with_local_search",
    "solve_with_policy",
    "solver_statistics",
    "source_cost",
    "theorem4_bound",
    "validate_record",
    "verdict",
    "verify_solution",
    "workload_statistics",
]
