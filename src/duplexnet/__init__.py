"""Duplexing-conflict-free sub-band allocation and cross-layer resource optimization.

The package has two halves.  The combinatorial half builds connectivity
graphs, bounds the number of sub-bands needed so that no node must transmit
and receive on the same band, and runs a distributed allocation protocol that
achieves the bound.  The numeric half models SINR-coupled link costs on top
of an allocation and minimizes total network cost over power, band, routing,
and admission variables with a scaled gradient-projection solver, verified
against finite-difference and slow-reference oracles.
"""

from .graph import (
    ConnectivityGraph,
    GraphValidationError,
    NotConnectedError,
    NotSymmetricError,
    SelfLoopError,
    build_graph,
    chromatic_number,
    greedy_coloring,
    interference_stats,
)
from .coloring import (
    ColorSetFamily,
    InfeasibleFamilyError,
    LinkColoring,
    MatchingNotFoundError,
    TooLargeError,
    assign_link_colors,
    brute_force_min_colors,
    check_color_sets,
    equalize_family,
    family_from_coloring,
    min_subband_count,
)
from .subband import (
    DegreeBudgetExceededError,
    InsufficientBandsError,
    Join,
    Leave,
    SpectrumAllocation,
    allocate_subbands,
    allocation_from_family,
    apply_topology_change,
    check_allocation,
)
from .scenario import (
    ControlState,
    CostParams,
    CycleDetectedError,
    NetworkScenario,
    Session,
    Utility,
    check_m_psd,
    derive,
    evaluate_flows,
    evaluate_physical,
    total_cost,
    uniform_state,
    validate_state,
)
from .gradients import (
    delta_eta,
    delta_mu,
    delta_rho,
    gradient_bundle,
    power_messages,
    routing_marginals,
)
from .optimizer import (
    SolveResult,
    StalledStepError,
    optimality_residuals,
    project_scaled,
    solve,
    update_block,
)
from .oracle import (
    BoundaryTooCloseError,
    finite_diff_check,
    reference_solve_small,
)

__version__ = "0.1.0"
