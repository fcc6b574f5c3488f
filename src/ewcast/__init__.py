"""Expanding-window network-coded layered multicast toolkit."""

from .decode_prob import (
    DecodeProbability,
    LayerConfig,
    TransmissionPlan,
    expected_psnr,
    uncoded_survival,
    window_decode_probs,
)
from .gf_rlnc import simulate_decode_prob
from .channel import (
    NetworkLayout,
    Scenario,
    Users,
    bler,
    build_scenario,
    cqi_mcs,
    erasure_prob,
    n_hat,
    place_users,
    sinr_at,
    single_cell_layout,
    sfn_layout,
    source_elements,
    tb_capacity,
)
from .allocators import (
    AllocationProblem,
    AllocationSolution,
    PlanEvaluation,
    check_feasibility,
    direct_uep_ram,
    evaluate_plan,
    heuristic_uep_ram,
    solve_mrt,
    solve_s1,
    solve_s2,
)

__version__ = "0.1.0"
