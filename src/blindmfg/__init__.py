"""Numerical laboratory for mean field games with unknown population
distribution: blind-case equilibria over atomic beliefs, lifted
monotonicity certificates, and belief filtering from observed payments."""

from .torus import (  # noqa: F401
    TorusGrid,
    ScalarField,
    Density,
    build_grid,
    mollified_dirac,
    integrate,
    wasserstein1_circle,
)
from .hjb_fp import (  # noqa: F401
    Hamiltonian,
    TimeGrid,
    DriftField,
    ValuePath,
    DensityPath,
    solve_hjb_backward,
    optimal_drift,
    solve_fp_forward,
)
from .beliefs import (  # noqa: F401
    Belief,
    BeliefPath,
    CostModel,
    CylinderFunctional,
    push_forward,
    aggregate_running,
    aggregate_terminal,
    belief_distance,
    belief_holder_modulus,
    weak_solution_residual,
)
from .solver import (  # noqa: F401
    SolverConfig,
    EquilibriumSolution,
    solve_blind,
    solve_complete_info,
)
from .monotonicity import (  # noqa: F401
    PairingReport,
    l2_pairing,
    lifted_pairing,
    counterexample_gap,
    certify_blind_monotone,
)
from .payments import (  # noqa: F401
    FilterConfig,
    FilterTrace,
    in_consistency_set,
    partition_by_payment,
    tower_check,
    simulate_observed,
    illustrative_scenario,
)

__version__ = "0.1.0"
