"""Biased min-consensus shortest-path dynamics under a prescribed-time gain.

Simulation of the disturbed protocol, closed-form error bands, and a
guaranteed early-termination time that avoids the gain singularity while
still identifying correct shortest-path parents.
"""

from .bounds import (
    chain_initial_errors,
    early_termination_time,
    optimal_q,
    power_law_envelope,
    worst_case_offset,
)
from .disturbance import DisturbanceModel, DisturbanceSpec, build_model
from .dynamics import (
    PTGainParams,
    Trajectory,
    log_integrating_factor,
    simulate,
)
from .errors import (
    CycleError,
    DbmcError,
    DomainError,
    InfeasibleError,
    IntegrationError,
    MissingParentError,
    ParseError,
    PreconditionError,
    SpecError,
    UnreachableError,
    ValidationError,
)
from .generate import (
    generate_graph,
    grid_graph,
    hop_random_graph,
    line_graph,
    standin13,
    synthetic_positions,
)
from .graph import (
    ShortestPathSolution,
    WeightedDigraph,
    dump_graph,
    load_graph,
    minus_graph,
    parent_chain,
    solve_shortest_paths,
)
from .harness import RunResult, run_scenario
from .scenario import Scenario, load_scenario, parse_scenario
from .termination import (
    VERDICT_CORRECT,
    VERDICT_INCORRECT,
    VERDICT_SOURCE,
    TerminationReport,
    build_report,
    check_identification,
    current_parents,
    reconstruct_path,
)

__version__ = "0.1.0"
