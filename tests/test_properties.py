"""Property tests: monotonicity of the decode model, QoS nesting, the batched
window DP against one-receiver calls and literal enumeration, plan
evaluation against a per-user oracle, the agreement of the two feasibility
verdicts on random plans, plan canonicalisation, and S1 against its literal
definition."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ewcast.allocators import (
    AllocationProblem,
    AllocationSolution,
    _canonical_plan,
    check_feasibility,
    evaluate_plan,
    solve_s1,
)
from ewcast.channel import CAPACITY_RATIO_PER_RBP
from ewcast.decode_prob import (
    LayerConfig,
    TransmissionPlan,
    brute_force_decode_prob,
    qos_levels,
    window_decode_probs,
)

SLACK = 1e-12
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
MCS_TABLE = sorted(CAPACITY_RATIO_PER_RBP)


@st.composite
def decode_instances(draw):
    """(layers, plan, losses) with 1-3 windows and small element counts."""
    L = draw(st.integers(1, 3))
    k = draw(st.lists(st.integers(1, 8), min_size=L, max_size=L))
    n = draw(st.lists(st.integers(1, 4), min_size=L, max_size=L))
    N = draw(st.lists(st.integers(0, 7), min_size=L, max_size=L))
    p = draw(st.lists(st.floats(0.0, 1.0), min_size=L, max_size=L))
    return LayerConfig(tuple(k)), TransmissionPlan((0,) * L, tuple(N), tuple(n)), p


@PROPERTY_SETTINGS
@given(decode_instances(), st.integers(0, 2), st.floats(0.0, 1.0))
def test_more_blocks_or_less_loss_never_hurts(instance, window, shrink):
    layers, plan, p = instance
    i = window % layers.num_layers
    base = window_decode_probs(layers, plan, p)
    counts = list(plan.tb_counts)
    counts[i] += 1
    more = TransmissionPlan(plan.mcs, tuple(counts), plan.elements_per_tb)
    assert np.all(window_decode_probs(layers, more, p) >= base - SLACK)
    lower = list(p)
    lower[i] *= shrink
    assert np.all(window_decode_probs(layers, plan, lower) >= base - SLACK)


@PROPERTY_SETTINGS
@given(decode_instances(), st.floats(0.01, 1.0))
def test_qos_levels_nested(instance, q_hat):
    layers, plan, p = instance
    levels = qos_levels(layers, plan, p, q_hat)
    # meeting a level implies meeting every lower one
    assert np.all(levels[:-1] >= levels[1:])


# losses of exactly 0 and 1 are drawn often, not left to the float strategy
LOSSES = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@PROPERTY_SETTINGS
@given(decode_instances(), st.data())
def test_batched_rows_match_single_receiver_and_enumeration(instance, data):
    layers, plan, _ = instance
    L = layers.num_layers
    batch = np.array(data.draw(st.lists(st.lists(LOSSES, min_size=L, max_size=L),
                                        min_size=1, max_size=6)))
    probs = window_decode_probs(layers, plan, batch)
    assert probs.shape == batch.shape
    for row, losses in zip(probs, batch):
        single = window_decode_probs(layers, plan, losses)
        assert np.all(np.abs(row - single) <= 1e-15)
        for w in range(L):
            exact = brute_force_decode_prob(layers, plan, losses, w + 1)
            assert abs(row[w] - exact) <= 1e-12
        # a batch of one is the 1-D call
        assert window_decode_probs(layers, plan, losses[None])[0].tolist() == single.tolist()


@st.composite
def problems_and_plans(draw):
    """A small allocation problem plus an arbitrary plan, budgets possibly
    overrun by one block."""
    L = draw(st.integers(1, 3))
    k = draw(st.lists(st.integers(1, 6), min_size=L, max_size=L))
    targets = sorted(draw(st.lists(st.floats(0.05, 0.8), min_size=L, max_size=L)),
                     reverse=True)
    users = draw(st.lists(st.integers(1, 15), min_size=1, max_size=12))
    budget = draw(st.lists(st.integers(1, 6), min_size=L, max_size=L))
    q_hat = draw(st.floats(0.5, 0.95))
    problem = AllocationProblem(LayerConfig(tuple(k), coverage_targets=tuple(targets)),
                                tuple(users), tuple(budget),
                                dict(CAPACITY_RATIO_PER_RBP), 0.1, q_hat)
    mcs, counts = [], []
    for b in budget:
        m = draw(st.sampled_from([0] + MCS_TABLE))
        mcs.append(m)
        counts.append(draw(st.integers(1, b + 1)) if m else 0)
    return problem, tuple(mcs), tuple(counts)


@PROPERTY_SETTINGS
@given(problems_and_plans())
def test_evaluate_plan_matches_per_user_oracle(case):
    # one qos_levels call per user on allocator-view losses: p_hat on a
    # window the user qualifies on (0 < m <= report, blocks sent), else 1.0
    problem, mcs, counts = case
    ev = evaluate_plan(problem, mcs, counts)
    plan = TransmissionPlan(mcs, counts, tuple(problem.capacity(m) for m in mcs))
    delta = np.array([
        qos_levels(problem.layers, plan,
                   [problem.p_hat if 0 < m <= report and c > 0 else 1.0
                    for m, c in zip(mcs, counts)], problem.q_hat)
        for report in problem.user_mcs])
    assert ev.delta.dtype == delta.dtype and ev.delta.shape == delta.shape
    assert ev.delta.tobytes() == delta.tobytes()
    users = len(problem.user_mcs)
    layer_counts = delta.sum(axis=0)
    assert ev.layer_counts.tolist() == layer_counts.tolist()
    assert (ev.profit, ev.cost) == (int(delta.sum()), sum(counts))
    assert ev.tau == (ev.profit / ev.cost if ev.cost else 0.0)
    covered = all(n >= users * t - 1e-9
                  for n, t in zip(layer_counts, problem.layers.coverage_targets))
    assert ev.feasible == (covered and all(c <= b for c, b in zip(counts, problem.tb_budget)))


@PROPERTY_SETTINGS
@given(problems_and_plans())
def test_check_feasibility_agrees_with_evaluate_plan(case):
    problem, mcs, counts = case
    ev = evaluate_plan(problem, mcs, counts)
    caps = tuple(problem.capacity(m) for m in mcs)
    solution = AllocationSolution(plan=TransmissionPlan(mcs, counts, caps), tau=ev.tau,
                                  feasible=ev.feasible, delta=ev.delta, solver="heuristic")
    report = check_feasibility(solution, problem)
    assert report.feasible == ev.feasible
    assert report.feasible == (not report.violations)


@PROPERTY_SETTINGS
@given(problems_and_plans(), st.data())
def test_canonical_plan_is_idempotent_and_evaluates_alike(case, data):
    problem, mcs, counts = case
    # switch windows off while they keep their MCS: the canonical form drops it
    off = data.draw(st.lists(st.booleans(), min_size=len(counts), max_size=len(counts)))
    counts = tuple(0 if o else c for o, c in zip(off, counts))
    canon = _canonical_plan(problem, mcs, counts)
    assert _canonical_plan(problem, canon.mcs, canon.tb_counts) == canon
    raw = evaluate_plan(problem, mcs, counts)
    ev = evaluate_plan(problem, canon.mcs, canon.tb_counts)
    assert np.array_equal(raw.delta, ev.delta)
    assert (raw.profit, raw.cost, raw.tau, raw.feasible) == (
        ev.profit, ev.cost, ev.tau, ev.feasible)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(0, 17), min_size=1, max_size=30),
       st.one_of(st.floats(-0.5, 0.0), st.floats(0.0, 1.0), st.floats(1.0, 1.5)))
@example([7], 0.5)
@example([9, 9, 9], 1.0)
@example([4, 4, 4, 4], 0.0)
@example([4, 4, 4, 4], -0.25)
@example([12, 12], 1.2)
@example([0, 0, 3], 0.5)
def test_solve_s1_is_largest_mcs_with_enough_users(reports, t_prime):
    # the literal definition: the largest m from 15 down to 1 that at least
    # U * t' users report, else None
    literal = next((m for m in range(15, 0, -1)
                    if sum(r >= m for r in reports) >= len(reports) * t_prime - 1e-9), None)
    assert solve_s1(reports, t_prime) == literal
    assert solve_s1(np.array(reports), t_prime) == literal
