"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The heavy batteries (validation grid, solver battery) are sized
to finish well inside their stated runtime budgets on a laptop.
"""

import math
import time

import numpy as np
import pytest

from ewcast.allocators import check_feasibility
from ewcast.channel import build_scenario
from ewcast.cli import (
    DEFAULT_SC_CONFIG,
    DEFAULT_SFN_CONFIG,
    run_coverage_sc,
    run_psnr_map_sfn,
    run_validate_approx,
)
from ewcast.decode_prob import (
    LayerConfig,
    TransmissionPlan,
    window_decode_probs,
)
from ewcast.gf_rlnc import simulate_decode_prob
from nested_sum import brute_force_decode_prob, window_decode_prob

VALIDATION_TRIALS = 100_000


def _report(criterion: str, detail: str):
    print(f"[acceptance] PASS {criterion}: {detail}")


def test_criterion_1_approximation_validation():
    """Analytic model within 7e-3 + 4*SE of Monte Carlo on the full grid."""
    start = time.perf_counter()
    result = run_validate_approx(trials=VALIDATION_TRIALS, seed=20260810)
    worst = 0.0
    for row in result.rows:
        analytic, simulated, std_err = row[4], row[5], row[6]
        gap = abs(analytic - simulated)
        assert gap <= 7e-3 + 4.0 * std_err, f"row {row} out of tolerance"
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert elapsed <= 600.0, "validation grid exceeded its runtime budget"
    _report("1 approximation validation",
            f"{len(result.rows)} points, worst |analytic-MC| = {worst:.2e}, "
            f"{elapsed:.0f}s")


def test_criterion_2_dp_equals_enumeration():
    """DP and literal nested summation agree to 1e-12 on 200+ instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    checked = 0
    worst = 0.0
    while checked < 200:
        L = int(rng.integers(1, 4))
        k = tuple(int(v) for v in rng.integers(1, 9, L))
        n = tuple(int(v) for v in rng.integers(1, 6, L))
        N = tuple(int(v) for v in rng.integers(0, 9, L))
        if math.prod(c + 1 for c in N) > 10**6:
            continue
        p = [float(v) for v in rng.uniform(0, 1, L)]
        layers = LayerConfig(k)
        plan = TransmissionPlan((0,) * L, N, n)
        window = int(rng.integers(1, L + 1))
        dp = window_decode_prob(layers, plan, p, window)
        bf = brute_force_decode_prob(layers, plan, p, window)
        assert abs(dp - bf) <= 1e-12, (k, n, N, p, window)
        worst = max(worst, abs(dp - bf))
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _report("2 DP-enumeration equivalence",
            f"{checked} instances, worst gap = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_heuristic_quality(solver_battery):
    """Relative profit-cost gap to the exact optimum <= 5% at the 95th pct."""
    gaps = []
    for _, heuristic, reference in solver_battery:
        if not heuristic.feasible:
            gaps.append(1.0)
        elif reference.tau > 0:
            gaps.append((reference.tau - heuristic.tau) / reference.tau)
        else:
            gaps.append(0.0)
    gaps = np.array(gaps)
    p95 = float(np.percentile(gaps, 95))
    assert len(gaps) >= 100
    assert p95 <= 0.05, f"95th percentile gap {p95:.4f} exceeds 5%"
    _report("3 heuristic quality",
            f"{len(gaps)} instances, gap p50 = {np.percentile(gaps, 50):.4f}, "
            f"p95 = {p95:.4f}, max = {gaps.max():.4f}")


def test_criterion_4_feasibility_soundness(solver_battery):
    """Feasible labels survive independent re-checking; refinement never
    returns a costlier plan than its intermediate one."""
    checked = 0
    for problem, heuristic, reference in solver_battery:
        for solution in (heuristic, reference):
            if solution.feasible:
                assert check_feasibility(solution, problem).feasible
                checked += 1
        if heuristic.feasible:
            assert heuristic.cost <= heuristic.intermediate_tb_total
    _report("4 feasibility soundness",
            f"{checked} feasible solutions re-verified, refinement cost "
            f"invariant held on all")


def test_criterion_5_coverage_dominance():
    """Coded allocation covers at least the baseline's fraction on every
    layer at Q = 0.99, strictly more on the base layer, in both cell modes."""
    sc = run_coverage_sc(DEFAULT_SC_CONFIG)
    assert sc.meta["uep_feasible"] == 1
    for level in (1, 2, 3):
        uep = sc.meta[f"uep_fraction_l{level}"]
        mrt = sc.meta[f"mrt_fraction_l{level}"]
        assert uep >= mrt, f"SC layer {level}: {uep} < {mrt}"
    assert sc.meta["uep_fraction_l1"] > sc.meta["mrt_fraction_l1"]

    sfn = run_psnr_map_sfn(DEFAULT_SFN_CONFIG)
    assert sfn.meta["uep_feasible"] == 1
    for level in (1, 2, 3, 4):
        uep = sfn.meta[f"uep_fraction_l{level}"]
        mrt = sfn.meta[f"mrt_fraction_l{level}"]
        assert uep >= mrt, f"SFN layer {level}: {uep} < {mrt}"
    assert sfn.meta["uep_fraction_l1"] > sfn.meta["mrt_fraction_l1"]
    _report("5 coverage dominance",
            "SC base {:.3f} vs {:.3f}; SFN base {:.3f} vs {:.3f}".format(
                sc.meta["uep_fraction_l1"], sc.meta["mrt_fraction_l1"],
                sfn.meta["uep_fraction_l1"], sfn.meta["mrt_fraction_l1"]))


def test_criterion_6_closed_form_anchor():
    """4 elements in blocks of 2, 3 blocks at 10% loss: exactly 0.972."""
    layers = LayerConfig((4,))
    plan = TransmissionPlan((0,), (3,), (2,))
    analytic = window_decode_prob(layers, plan, [0.1], 1)
    assert analytic == pytest.approx(0.972, abs=1e-12)
    sim = simulate_decode_prob(layers, plan, [0.1], VALIDATION_TRIALS,
                               seed=606060)
    gap = abs(sim.p_win[0] - 0.972)
    assert gap <= 4.0 * sim.std_err[0]
    _report("6 closed-form anchor",
            f"analytic = {analytic:.12f}, MC gap = {gap:.2e} "
            f"(4*SE = {4 * sim.std_err[0]:.2e})")


def test_criterion_7_determinism(tmp_path):
    """Same inputs, same outputs: bitwise analytic, identical Monte Carlo,
    identical experiment CSV bytes."""
    layers = LayerConfig((2, 11, 46))
    plan = TransmissionPlan((4, 6, 9), (2, 3, 4), (10, 25, 50))
    erasure = [0.1, 0.1, 0.1]
    a = window_decode_probs(layers, plan, erasure)
    b = window_decode_probs(layers, plan, erasure)
    assert a.tobytes() == b.tobytes()

    sim_a = simulate_decode_prob(layers, plan, erasure, 20000, seed=17)
    sim_b = simulate_decode_prob(layers, plan, erasure, 20000, seed=17)
    assert sim_a == sim_b

    scenario = build_scenario(DEFAULT_SC_CONFIG)
    assert scenario.digest() == build_scenario(DEFAULT_SC_CONFIG).digest()

    kwargs = dict(trials=12000, seed=99, capacities=(2,), losses=(0.1,),
                  layer_elements=(4, 6), t_max=5)
    first = run_validate_approx(**kwargs).write_csv(tmp_path / "run1.csv")
    second = run_validate_approx(**kwargs).write_csv(tmp_path / "run2.csv")
    assert first.read_bytes() == second.read_bytes()
    _report("7 determinism", "analytic bitwise, MC counts, and CSV bytes all "
                             "identical across reruns")
