"""Property tests: monotonicity of the decode model, QoS nesting, the batched
window DP against one-receiver calls and literal enumeration, plan
evaluation against a per-user oracle, the plan verdict's violations against
their literal definition, plan canonicalisation, the reach rule both
allocators skip by against plan evaluation, the exact search's
all-budget ceiling and seed against plan evaluation, its skip counters and
viable-vector walk against a brute-force count over every MCS vector, S1
against its literal definition, user placement against a per-user rebuild,
finite SINR and valid reports at the corners of the radio envelope, the CQI
report against the error curve's anchor, and the Monte Carlo sampler's stage
rule against a literal walk down the deficits."""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_problem
from ewcast import allocators
from ewcast.allocators import (
    P_HAT,
    AllocationProblem,
    check_feasibility,
    direct_uep_ram,
    evaluate_plan,
    heuristic_uep_ram,
    solve_s1,
)
from ewcast.channel import (
    _SCHEMA,
    CAPACITY_RATIO_PER_RBP,
    bler,
    build_scenario,
    cqi_mcs,
    place_users,
    sfn_layout,
    single_cell_layout,
    sinr_at,
)
from ewcast.decode_prob import (
    LayerConfig,
    TransmissionPlan,
    level_probs,
    meets_qos,
    uncoded_survival,
    window_decode_probs,
)
from ewcast.gf_rlnc import _stage_gain
from nested_sum import brute_force_decode_prob

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
    levels = meets_qos(level_probs(window_decode_probs(layers, plan, p)), q_hat)
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


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.lists(st.integers(0, 3), max_size=2), st.floats(0.01, 1.0),
       st.data())
def test_level_rule_is_a_suffix(L, batch, q_hat, data):
    # level l takes the best window >= l, so it is met exactly when some window >= l is
    size = math.prod(batch) * L
    values = st.one_of(st.just(q_hat), st.just(q_hat - 2e-12), LOSSES)
    p = np.array(data.draw(st.lists(values, min_size=size, max_size=size)),
                 dtype=float).reshape(*batch, L)
    levels, met = level_probs(p), meets_qos(p, q_hat)
    assert levels.shape == p.shape
    for lv in range(L):
        assert np.array_equal(levels[..., lv], p[..., lv:].max(axis=-1))
        assert np.array_equal(meets_qos(levels, q_hat)[..., lv], met[..., lv:].any(axis=-1))


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
    # one window DP and verdict per user on allocator-view losses: p_hat on a
    # window the user qualifies on (0 < m <= report, blocks sent), else 1.0
    problem, mcs, counts = case
    ev = evaluate_plan(problem, mcs, counts)
    plan = TransmissionPlan(mcs, counts, tuple(problem.capacity(m) for m in mcs))
    reports = np.repeat(np.arange(16), problem.report_counts)
    losses = np.array([[problem.p_hat if 0 < m <= report and c > 0 else 1.0
                        for m, c in zip(mcs, counts)] for report in reports])
    # level l is met when some window >= l is, written out per user
    met = [meets_qos(window_decode_probs(problem.layers, plan, row), problem.q_hat)
           for row in losses]
    delta = np.array([[bool(m[lv:].any()) for lv in range(len(m))] for m in met],
                     dtype=bool).reshape(len(losses), problem.layers.num_layers)
    per_user = ev.delta[reports]
    assert per_user.dtype == delta.dtype and per_user.shape == delta.shape
    assert per_user.tobytes() == delta.tobytes()
    # the per-report rows a map reads, against one batched DP over every user
    batched = window_decode_probs(problem.layers, plan, losses)
    assert ev.window_probs[reports].tobytes() == batched.tobytes()
    # and the baseline's 16 survival rows, built by the one qualify rule
    rows = np.where(allocators._qualifies(np.array(ev.plan.mcs), np.arange(16)[:, None]),
                    problem.p_hat, 1.0)
    survival = uncoded_survival(rows, counts)[reports]
    assert survival.tobytes() == uncoded_survival(losses, counts).tobytes()
    users = len(reports)
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
    # one violation per layer short of its target, then one per window over
    # its budget; check_feasibility gives the same verdict for a solution
    problem, mcs, counts = case
    ev = evaluate_plan(problem, mcs, counts)
    users = int(problem.report_counts.sum())
    short = [f"layer {i + 1}" for i, (n, t) in enumerate(
        zip(ev.layer_counts.tolist(), problem.layers.coverage_targets)) if n < users * t - 1e-9]
    over = [f"window {i + 1}" for i, (c, b) in enumerate(zip(counts, problem.tb_budget))
            if c > b]
    assert [v.split(":")[0] for v in ev.violations] == short + over
    assert ev.feasible == (not ev.violations)
    assert ev.layer_fractions == tuple(n / users for n in ev.layer_counts.tolist())
    report = check_feasibility(replace(heuristic_uep_ram(problem), plan=ev.plan), problem)
    assert report.violations == ev.violations


@PROPERTY_SETTINGS
@given(problems_and_plans(), st.data())
def test_canonical_plan_is_idempotent_and_evaluates_alike(case, data):
    problem, mcs, counts = case
    # switch windows off while they keep their MCS: the canonical form drops it
    off = data.draw(st.lists(st.booleans(), min_size=len(counts), max_size=len(counts)))
    counts = tuple(0 if o else c for o, c in zip(off, counts))
    raw = evaluate_plan(problem, mcs, counts)
    canon = raw.plan
    assert canon.mcs == tuple(m if c else 0 for m, c in zip(mcs, counts))
    assert canon.tb_counts == counts
    assert canon.elements_per_tb == tuple(problem.capacity(m) for m in canon.mcs)
    ev = evaluate_plan(problem, canon.mcs, canon.tb_counts)
    assert ev.plan == canon
    assert np.array_equal(raw.delta, ev.delta)
    assert (raw.profit, raw.cost, raw.tau, raw.violations) == (
        ev.profit, ev.cost, ev.tau, ev.violations)


@PROPERTY_SETTINGS
@given(problems_and_plans(), st.data())
def test_plan_too_few_users_can_reach_misses_that_target(case, data):
    # the reach rule both allocators skip by (_viable_vectors' docstring): a
    # user decodes only the windows it qualifies on, so level l is reached
    # only by the users reporting at least the lowest MCS sent at a window
    # >= l, and as every q_hat lies above the float grace of 0, fewer users
    # than level l requires miss its target.  Windows are switched off at
    # random, the deepest one in about half the draws
    problem, mcs, counts = case
    off = data.draw(st.lists(st.booleans(), min_size=len(counts), max_size=len(counts)))
    counts = tuple(0 if o else c for o, c in zip(off, counts))
    users = int(problem.report_counts.sum())
    ev = evaluate_plan(problem, mcs, counts)
    for level, target in enumerate(problem.layers.coverage_targets):
        low = min((m for m, c in zip(mcs[level:], counts[level:]) if c), default=16)
        reach = int(problem.report_counts[low:].sum())
        assert ev.layer_counts[level] <= reach
        if reach < math.ceil(users * target - 1e-9):
            assert any(v.startswith(f"layer {level + 1}:") for v in ev.violations)
            assert not ev.feasible


def test_all_budget_cell_caps_its_vector_and_seeds_the_search(monkeypatch):
    # The exact search bounds an MCS vector by its all-budget cell (each sent
    # window at its budget): no cell of the vector has more profit, or meets
    # a coverage target that cell misses.  Its first incumbent is the best
    # feasible all-budget cell, which its first _better call compares
    # against.  Checked with evaluate_plan as the oracle on battery-family
    # draws: sampled cells of every vector, and on 1- and 2-layer draws the
    # seed against every vector's all-budget cell.
    seen = []
    better = allocators._better
    monkeypatch.setattr(allocators, "_better",
                        lambda *args: seen.append(args[2:]) or better(*args))
    draws, rng = np.random.default_rng(5), np.random.default_rng(6)
    contested = 0  # draws whose feasible all-budget cells differ in ratio
    met = 0  # sampled cells that are feasible
    for _ in range(8):
        pr = random_problem(draws)
        L, budget = pr.layers.num_layers, pr.tb_budget
        vectors = [m for m in product([0] + sorted(pr.capacities), repeat=L) if any(m)]
        if L == 3:
            vectors = [vectors[i] for i in rng.choice(len(vectors), 40, replace=False)]
        feasible = set()
        for mcs in vectors:
            top = evaluate_plan(pr, mcs, [b if m else 0 for m, b in zip(mcs, budget)])
            # cells anywhere and next to the all-budget cell, more of them
            # where that cell is feasible
            for near in (False, True) * (3 if top.feasible else 1):
                counts = [int(rng.integers(max(b - 1, 1) if near else 1, b + 1)) if m else 0
                          for m, b in zip(mcs, budget)]
                cell = evaluate_plan(pr, mcs, counts)
                assert cell.profit <= top.profit, (mcs, counts)
                assert top.feasible or not cell.feasible, (mcs, counts)
                met += cell.feasible
            if top.feasible:
                feasible.add((top.profit, top.cost))
        if L == 3:
            continue
        seen.clear()
        direct_uep_ram(pr)
        ratios = {Fraction(p, c) for p, c in feasible}
        contested += len(ratios) > 1
        if ratios:
            assert seen[0] in feasible and Fraction(*seen[0]) == max(ratios)
        else:
            assert not seen
    assert contested >= 2 and met >= 10


@st.composite
def search_problems(draw):
    """(k, coverage targets, reports, budgets, capacities) of a small exact
    search: 1-3 windows, budgets that may be 0, 1-5 capacity entries, and
    non-increasing targets where 1e-12 needs no user."""
    L = draw(st.integers(1, 3))
    k = draw(st.lists(st.integers(1, 4), min_size=L, max_size=L))
    targets = sorted(draw(st.lists(st.sampled_from([1e-12, 0.2, 0.5, 0.75, 1.0]),
                                   min_size=L, max_size=L)), reverse=True)
    users = draw(st.lists(st.integers(1, 15), min_size=1, max_size=12))
    budget = draw(st.lists(st.integers(0, 2), min_size=L, max_size=L))
    caps = draw(st.dictionaries(st.integers(1, 15), st.integers(1, 4), min_size=1, max_size=5))
    return tuple(k), tuple(targets), tuple(users), tuple(budget), caps


@PROPERTY_SETTINGS
@given(search_problems())
# no target needs a user, so the all-off vector reaches every level
@example(((4, 2), (1e-12, 1e-12), (5, 9, 9), (3, 2), {5: 2, 9: 3}))
# window 0 has no budget: the six vectors that send there are skipped
@example(((4, 2), (1e-12, 1e-12), (5, 9, 9), (0, 2), {5: 2, 9: 3}))
def test_skip_counters_match_brute_force_count(case):
    # the literal definition over every MCS vector but the all-off one: level
    # l is reachable when the users reporting at least the lowest MCS sent at
    # windows >= l number ceil(U * t - 1e-9) or more; a vector is skipped when
    # some level is not reachable, or when it sends on a window of budget 0
    k, targets, reports, budget, caps = case
    pr = AllocationProblem(LayerConfig(k, coverage_targets=targets), reports, budget, caps)
    table = [0, *sorted(pr.capacities)]
    vectors = [m for m in product(table, repeat=len(targets)) if any(m)]
    required = [math.ceil(len(reports) * t - 1e-9) for t in targets]

    def reachable(mcs, level):
        sent = [m for m in mcs[level:] if m]
        return (sum(r >= min(sent) for r in reports) if sent else 0) >= required[level]

    def skipped(mcs):
        return (not all(reachable(mcs, lv) for lv in range(len(targets)))
                or any(m and not b for m, b in zip(mcs, budget)))

    viable = [m for m in vectors if not skipped(m)]
    stats = direct_uep_ram(pr).stats
    assert (stats["mcs_vectors"], stats["vectors_skipped"]) == (len(vectors),
                                                                len(vectors) - len(viable))
    # the walk yields those vectors as choice indices, in lexicographic order
    walk = allocators._viable_vectors(np.array([16, *table[1:]]),
                                      np.array([sum(r >= m for r in reports) for m in range(17)]),
                                      np.array(required), budget)
    assert walk.tolist() == [[table.index(m) for m in v] for v in viable]


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
    # U * t' users report, else None; reports above 15 count as 15
    literal = next((m for m in range(15, 0, -1)
                    if sum(r >= m for r in reports) >= len(reports) * t_prime - 1e-9), None)
    counts = np.bincount(np.minimum(reports, 15), minlength=16)
    assert solve_s1(counts, t_prime) == literal
    assert solve_s1(tuple(counts.tolist()), t_prime) == literal


def literal_positions(layout, pattern, count, step_m, start_m, angle_deg, center):
    """User positions one at a time: a radial line from the first serving
    site, or a square lattice filled row by row around ``center``."""
    positions = []
    if pattern == "radial":
        origin = layout.sites[layout.serving[0]]
        direction = np.array([math.cos(math.radians(angle_deg)),
                              math.sin(math.radians(angle_deg))])
        for i in range(count):
            pos = origin + (start_m + i * step_m) * direction
            positions.append((float(pos[0]), float(pos[1])))
    else:
        if center is None:
            center = tuple(layout.sites[list(layout.serving)].mean(axis=0))
        cols = math.ceil(math.sqrt(count)) if count else 0
        rows = math.ceil(count / cols) if cols else 0
        x0 = center[0] - (cols - 1) * step_m / 2.0
        y0 = center[1] - (rows - 1) * step_m / 2.0
        for idx in range(count):
            r, c = divmod(idx, cols)
            positions.append((x0 + c * step_m, y0 + r * step_m))
    return np.reshape(np.array(positions, dtype=float), (-1, 2))


@PROPERTY_SETTINGS
@given(st.sampled_from(["radial", "grid"]), st.sampled_from(["SC", "SFN"]),
       st.one_of(st.just(0), st.just(1), st.integers(2, 120)),
       st.floats(0.5, 80.0), st.floats(1.0, 400.0), st.floats(-360.0, 360.0),
       st.none() | st.tuples(st.floats(-900.0, 900.0), st.floats(-900.0, 900.0)),
       st.none() | st.integers(0, 2**32 - 1))
def test_place_users_columns_match_per_user_rebuild(pattern, mode, count, step_m, start_m,
                                                    angle_deg, center, shadow_seed):
    # positions bitwise from the per-user formulas; SINR from one sinr_at call
    # on those positions (same shadowing draws), each report from cqi_mcs
    sigma = 0.0 if shadow_seed is None else 6.0
    layout = (single_cell_layout if mode == "SC" else sfn_layout)(shadow_sigma_db=sigma)

    def rng():
        return None if shadow_seed is None else np.random.default_rng(shadow_seed)

    users = place_users(layout, pattern, count=count, step_m=step_m, start_m=start_m,
                        angle_deg=angle_deg, center=center, rng=rng())
    positions = literal_positions(layout, pattern, count, step_m, start_m, angle_deg, center)
    sinr = np.reshape(sinr_at(layout, positions, rng=rng()), -1)
    assert len(users) == count
    assert users.positions.shape == (count, 2) and users.positions.dtype == np.float64
    assert users.positions.tobytes() == positions.tobytes()
    assert users.sinr_db.shape == (count,) and users.sinr_db.tobytes() == sinr.tobytes()
    assert users.mcs_feedback.shape == (count,)
    assert users.mcs_feedback.tolist() == [int(cqi_mcs(s)) for s in sinr.tolist()]
    assert not any(col.flags.writeable for col in (users.positions, users.sinr_db,
                                                   users.mcs_feedback))


# the schema rows that reach sinr_at: the radio rows, and the lengths that place sites and users
RADIO_ROWS = ("isd_m", "tx_power_dbm", "bandwidth_hz", "noise_figure_db", "antenna_gain_db",
              "shadow_sigma_db", "users.step_m", "users.start_m", "users.center")


def bound_ends(path):
    """The lowest and highest valid values of a bounded ``_SCHEMA`` row: an open
    end gives way to the nearest float inside it."""
    opening, low, high, closing = _SCHEMA[path].bound
    return (low if opening == "[" else math.nextafter(low, high),
            high if closing == "]" else math.nextafter(high, low))


def corner(mode="SC", pattern="radial", count=1, **high):
    """A scenario config at a corner of the radio envelope: each of ``RADIO_ROWS``
    at the high end of its bound where ``high`` names it true (dots as
    underscores), else at the low end; both ``users.center`` coordinates alike."""
    value = {path: bound_ends(path)[bool(high.get(path.replace(".", "_")))]
             for path in RADIO_ROWS}
    users = {path.split(".")[1]: value.pop(path) for path in RADIO_ROWS
             if path.startswith("users.")}
    users.update(pattern=pattern, count=count, center=[users["center"]] * 2)
    return {"mode": mode, "stream_preset": "A", **value, "users": users}


@st.composite
def radio_corners(draw):
    """``corner`` configs in either mode, with a 1-user or a 10^4-user drop in
    either pattern, and each of ``RADIO_ROWS`` at either end of its bound."""
    high = {path.replace(".", "_"): draw(st.booleans()) for path in RADIO_ROWS}
    return corner(draw(st.sampled_from(["SC", "SFN"])), draw(st.sampled_from(["radial", "grid"])),
                  draw(st.sampled_from([1, 10**4])), **high)


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=40, deadline=None)
@given(radio_corners())
# the weakest signal over the strongest noise: at the former [-1000, 1000] dB and
# [1e-100, 1e100] Hz rows, their ratio underflowed to 0 and the SINR read -inf
@example(corner(noise_figure_db=True, bandwidth_hz=True))
@example(corner(noise_figure_db=True, bandwidth_hz=True, isd_m=True, users_step_m=True,
                users_start_m=True, mode="SFN", count=10**4))
# the strongest signal over the weakest noise
@example(corner(tx_power_dbm=True, antenna_gain_db=True, pattern="grid", count=10**4))
def test_radio_corners_give_finite_sinr_and_valid_reports(config):
    # every row at an end of its bound keeps each received power, the noise
    # and their ratio inside float range: no warning, every SINR finite and
    # every report in 1..15
    users = build_scenario(config).users
    assert len(users) == config["users"]["count"]
    assert np.isfinite(users.sinr_db).all()
    assert ((users.mcs_feedback >= 1) & (users.mcs_feedback <= 15)).all()


@st.composite
def threshold_ladders(draw):
    """(thresholds, decade_db, SINRs): 15 thresholds in any order and SINRs
    at least 1e-9 dB from each, many of them within 1 dB of one."""
    thresholds = draw(st.lists(st.floats(-30.0, 30.0), min_size=15, max_size=15))
    near = st.tuples(st.sampled_from(thresholds), st.floats(2e-9, 1.0), st.sampled_from((-1, 1)))
    sinr = st.one_of(st.floats(-40.0, 40.0), near.map(lambda t: t[0] + t[2] * t[1]))
    apart = sinr.filter(lambda s: min(abs(s - t) for t in thresholds) >= 1e-9)
    return (dict(enumerate(thresholds, start=1)), draw(st.floats(0.1, 50.0)),
            draw(st.lists(apart, min_size=1, max_size=30)))


@PROPERTY_SETTINGS
@given(threshold_ladders())
def test_report_is_largest_mcs_within_the_error_anchor(ladder):
    # the report read from the thresholds alone against its definition on the error
    # curve: the largest MCS whose block error stays at or below P_HAT, floor 1
    thresholds, decade_db, sinr = ladder
    with np.errstate(over="ignore"):
        oracle = [max([m for m in thresholds
                       if bler(s, m, decade_db, thresholds) <= P_HAT], default=1)
                  for s in sinr]
    assert cqi_mcs(np.array(sinr), thresholds).tolist() == oracle
    assert [cqi_mcs(s, thresholds) for s in sinr] == oracle


@st.composite
def hit_trials(draw):
    """Trials that met dependent rows: (gap, elements, {hit deficit: G_d >= 1})."""
    trials = []
    for _ in range(draw(st.integers(1, 6))):
        gap = draw(st.integers(1, 12))
        hits = draw(st.lists(st.integers(1, gap), min_size=1, max_size=gap, unique=True))
        g_d = {d: draw(st.integers(1, 6)) for d in hits}
        # from none up to more than clearing every deficit and hit costs
        elements = draw(st.integers(0, gap + sum(g_d.values()) + 3))
        trials.append((gap, elements, g_d))
    return trials


def literal_gain(gap, elements, g_d):
    """Clear deficits from ``gap`` down, paying 1 + G_d each, until the
    elements run out."""
    cleared = 0
    for d in range(gap, 0, -1):
        cost = 1 + g_d.get(d, 0)
        if cost > elements:
            break
        elements -= cost
        cleared += 1
    return cleared


@PROPERTY_SETTINGS
@given(hit_trials())
@example([(4, 3, {1: 1})])  # E < g, the hit out of reach: only the top stage scores
@example([(4, 4, {1: 2})])  # E = g
@example([(4, 4, {2: 1, 4: 1})])  # the top hit is paid, the lower one is not
@example([(3, 9, {1: 1, 2: 1, 3: 1}), (5, 2, {5: 2})])  # all paid; nothing cleared
def test_stage_gain_matches_literal_walk(trials):
    # rounds as the sampler builds them: round k holds each trial's k-th
    # lowest hit, for the trials that have one
    ordered = [sorted(g_d.items()) for _, _, g_d in trials]
    rounds = []
    for k in range(max(map(len, ordered))):
        t = [i for i, hits in enumerate(ordered) if len(hits) > k]
        d, g = zip(*(ordered[i][k] for i in t))
        rounds.append((np.array(t), np.array(d), np.array(g)))
    gain = _stage_gain(np.array([e for _, e, _ in trials]),
                       np.array([gap for gap, _, _ in trials]), rounds)
    assert gain.tolist() == [literal_gain(*trial) for trial in trials]
