"""Shared fixtures: desk-scale random problems and solver batteries."""

import math

import numpy as np
import pytest

from ewcast.allocators import (
    AllocationProblem,
    direct_uep_ram,
    heuristic_uep_ram,
)
from ewcast.channel import (
    CAPACITY_RATIO_PER_RBP,
    n_hat,
    place_users,
    single_cell_layout,
    source_elements,
    subframe_cap,
)
from ewcast.decode_prob import LayerConfig

TARGET_LADDER = (0.99, 0.8, 0.6)
RATE_LADDER = (47.3e3, 326.1e3, 1396.7e3)

_LAYOUT = single_cell_layout()


def random_problem(rng) -> AllocationProblem:
    """Desk-scale draw from the layered-multicast operating family.

    Scaled video rate ladders deep enough that block capacity binds, the
    standard coverage-target ladder, and radial user drops spanning the
    serving cell down to the lowest table-backed MCS.
    """
    L = int(rng.integers(1, 4))
    U = int(rng.integers(25, 41))
    n_rbp = int(rng.choice([1, 1, 2, 3]))
    caps = {m: r * n_rbp for m, r in CAPACITY_RATIO_PER_RBP.items()}
    scale = rng.uniform(0.6, 0.78) if n_rbp == 1 else rng.uniform(0.6, 1.2)
    k = tuple(source_elements(b * scale, 0.533, 16384) for b in RATE_LADDER[:L])
    start = rng.uniform(90.0, 130.0)
    end = rng.uniform(274.0, 288.0)
    users = place_users(_LAYOUT, "radial", count=U, step_m=(end - start) / U,
                        start_m=start, angle_deg=rng.uniform(0.0, 360.0))
    budget = tuple(
        min(n_hat(ki, 0.1, caps[4]), subframe_cap(0.533), 20) for ki in k
    )
    layers = LayerConfig(k, coverage_targets=TARGET_LADDER[:L])
    return AllocationProblem(layers, tuple(u.mcs_feedback for u in users),
                             budget, caps, 0.1, 0.99)


@pytest.fixture(scope="session")
def solver_battery():
    """110 random desk instances solved by both the heuristic and the exact
    reference; shared by the quality and soundness acceptance criteria."""
    return solve_battery()


def solve_battery():
    """The instances of the ``solver_battery`` fixture, as
    (problem, heuristic, reference) triples."""
    rng = np.random.default_rng(20250810)
    instances = []
    attempts = 0
    while len(instances) < 110 and attempts < 500:
        attempts += 1
        problem = random_problem(rng)
        # canonical (MCS, count) assignments the exact search walks
        space = math.prod(1 + len(problem.capacities) * b for b in problem.tb_budget)
        if space > 2_000_000:
            continue
        reference = direct_uep_ram(problem)
        if not reference.feasible:
            continue
        heuristic = heuristic_uep_ram(problem)
        instances.append((problem, heuristic, reference))
    assert len(instances) >= 100, "battery generation fell short"
    return instances
