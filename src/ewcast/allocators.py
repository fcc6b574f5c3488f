"""Resource allocation for layered coded multicast.

Solvers share one objective: the per-user, per-level QoS indicators are
counted as profit, the transmitted blocks as cost, and the coverage
constraint demands that at least a target fraction of users reach each level
with probability >= Q.  All solvers work on the allocator-view erasure model:
a user loses a block with the anchor probability when its reported MCS covers
the block's MCS, and with certainty otherwise.

* :func:`heuristic_uep_ram` - window-skipping greedy with a merge refinement.
* :func:`direct_uep_ram` - reference optimum by exact branch-and-bound.
* :func:`solve_mrt` - uncoded multi-rate baseline with strictly increasing
  per-layer MCS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Mapping, Sequence

import numpy as np

from .decode_prob import (
    _PROB_EPS,
    _check_thresholds,
    LayerConfig,
    TransmissionPlan,
    advance_deficit,
    binomial_pmf_rows,
    expected_psnr,
    mrt_block_counts,
    qos_levels,
    receive_pmf,
    success_table,
    uncoded_survival,
)

_COUNT_EPS = 1e-9  # guard when comparing integer counts against U * fraction


@dataclass(frozen=True)
class AllocationProblem:
    """Allocator inputs: stream layout, user reports, budgets, capacities."""

    layers: LayerConfig
    user_mcs: tuple[int, ...]
    tb_budget: tuple[int, ...]
    capacities: Mapping[int, int]  # MCS index -> elements per block
    p_hat: float = 0.1
    q_hat: float = 0.99

    def __post_init__(self):
        object.__setattr__(self, "user_mcs", tuple(int(v) for v in self.user_mcs))
        object.__setattr__(self, "tb_budget", tuple(int(v) for v in self.tb_budget))
        object.__setattr__(self, "capacities", dict(self.capacities))
        if not self.user_mcs:
            raise ValueError("at least one user is required")
        if len(self.tb_budget) != self.layers.num_layers:
            raise ValueError("one block budget per window is required")
        if self.layers.coverage_targets is None:
            raise ValueError("layer configuration carries no coverage targets")
        _check_thresholds(self.p_hat, self.q_hat)

    def capacity(self, m: int) -> int:
        return self.capacities.get(m, 0)


@dataclass
class PlanEvaluation:
    """Allocator-view assessment of one (MCS, block-count) assignment."""

    delta: np.ndarray  # (U, L) QoS indicators
    profit: int
    cost: int
    tau: float
    layer_counts: np.ndarray
    feasible: bool


@dataclass
class AllocationSolution:
    plan: TransmissionPlan
    tau: float
    feasible: bool
    delta: np.ndarray
    solver: str  # "heuristic" | "direct" | "mrt"
    skipped_windows: int = 0
    profit: int = 0
    cost: int = 0
    intermediate_tb_total: int | None = None  # heuristic only
    stats: dict[str, int] = field(default_factory=dict)  # exact search only


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    layer_fractions: tuple[float, ...]
    required_fractions: tuple[float, ...]
    coverage_ok: tuple[bool, ...]
    budget_ok: tuple[bool, ...]
    violations: tuple[str, ...]


def _as_problem(scenario) -> AllocationProblem:
    if isinstance(scenario, AllocationProblem):
        return scenario
    return scenario.to_allocation_problem()


def _required_count(num_users: int, fraction: float) -> int:
    return math.ceil(num_users * fraction - _COUNT_EPS)


def evaluate_plan(problem, mcs: Sequence[int], tb_counts: Sequence[int]) -> PlanEvaluation:
    """QoS indicators, profit/cost and constraint compliance of a plan.

    Users sharing the same per-window qualification pattern get identical
    probabilities, so the recovery computation runs once per pattern, all
    patterns in one batched pass.
    """
    pr = _as_problem(problem)
    layers = pr.layers
    L = layers.num_layers
    U = len(pr.user_mcs)
    mcs = tuple(int(m) for m in mcs)
    counts = tuple(int(c) for c in tb_counts)
    caps_vec = tuple(pr.capacity(m) for m in mcs)
    plan = TransmissionPlan(mcs, counts, caps_vec)
    m_arr = np.asarray(mcs)
    good = ((m_arr > 0) & (m_arr <= np.asarray(pr.user_mcs)[:, None])
            & (np.asarray(counts) > 0))  # (U, L)
    _, first, inverse = np.unique(good @ (1 << np.arange(L)), return_index=True,
                                  return_inverse=True)
    losses = np.where(good[first], pr.p_hat, 1.0)
    delta = qos_levels(layers, plan, losses, pr.q_hat)[inverse.reshape(-1)]
    layer_counts = delta.sum(axis=0)
    profit = int(delta.sum())
    cost = int(sum(counts))
    tau = profit / cost if cost > 0 else 0.0
    required = [_required_count(U, t) for t in layers.coverage_targets]
    coverage_ok = all(int(layer_counts[i]) >= required[i] for i in range(L))
    budget_ok = all(0 <= counts[i] <= pr.tb_budget[i] for i in range(L))
    return PlanEvaluation(delta, profit, cost, tau, layer_counts,
                          coverage_ok and budget_ok)


def solve_s1(user_mcs: Sequence[int], t_prime: float) -> int | None:
    """Largest MCS that still reaches the required user fraction.

    A user qualifies when its reported MCS is at least the candidate; the
    answer is the largest candidate in [1, 15] with enough qualifying users,
    or None when even MCS 1 falls short (only possible for fractions > 1).
    """
    if not len(user_mcs):
        raise ValueError("at least one user report is required")
    required = _required_count(len(user_mcs), t_prime)
    reports = np.asarray(user_mcs)
    for m in range(15, 0, -1):
        if int(np.count_nonzero(reports >= m)) >= required:
            return m
    return None


def solve_s2(
    layers: LayerConfig,
    tb_prefix: Sequence[int],
    capacities: Sequence[int],
    window: int,
    p_hat: float,
    q_hat: float,
    budget: int,
) -> int | None:
    """Fewest blocks making window ``window`` decodable with prob >= q_hat.

    User-agnostic: every transmitted block of every window is assumed lost
    with probability ``p_hat``.  Returns None when no count within the budget
    reaches the threshold.
    """
    if not 1 <= window <= layers.num_layers:
        raise ValueError("window index out of range")
    if len(tb_prefix) != window - 1:
        raise ValueError("prefix must fix the counts of all earlier windows")
    k = layers.k
    dist = np.ones(1)
    for i, count in enumerate(tb_prefix):
        dist = advance_deficit(dist, k[i], capacities[i], receive_pmf(count, p_hat))
    success = dist @ success_table(len(dist), k[window - 1], capacities[window - 1],
                                   budget, p_hat)
    hits = np.nonzero(success >= q_hat - _PROB_EPS)[0]
    return int(hits[0]) if hits.size else None


def _canonical_plan(pr: AllocationProblem, mcs, counts) -> TransmissionPlan:
    mcs = [m if c > 0 else 0 for m, c in zip(mcs, counts)]
    caps = [pr.capacity(m) for m in mcs]
    return TransmissionPlan(tuple(mcs), tuple(int(c) for c in counts), tuple(caps))


def _solution(pr, mcs, counts, ev: PlanEvaluation, solver: str, **extra) -> AllocationSolution:
    return AllocationSolution(
        plan=_canonical_plan(pr, mcs, counts),
        tau=ev.tau,
        feasible=ev.feasible,
        delta=ev.delta,
        solver=solver,
        profit=ev.profit,
        cost=ev.cost,
        **extra,
    )


def _no_solution(pr, solver: str, **extra) -> AllocationSolution:
    L = pr.layers.num_layers
    return AllocationSolution(
        plan=TransmissionPlan((0,) * L, (0,) * L, (0,) * L),
        tau=0.0,
        feasible=False,
        delta=np.zeros((len(pr.user_mcs), L), dtype=bool),
        solver=solver,
        skipped_windows=-1,
        **extra,
    )


def heuristic_uep_ram(scenario) -> AllocationSolution:
    """Window-skipping greedy allocation with a merge refinement pass.

    Starting from the deepest skip count s = L-1, the first s windows are
    dropped; the first delivered window inherits the strictest coverage
    target.  Each delivered window gets the largest MCS keeping enough users
    qualified, then the fewest blocks reaching the recovery threshold.  When
    the coverage constraint holds, a refinement tries to merge each window
    into its successor (re-transmitting the successor at the more robust MCS
    and dropping the predecessor); failed merges are rolled back, and the
    refined plan is only returned when it is feasible and no more expensive
    than the intermediate one.  Otherwise s is decreased; with s exhausted an
    explicit no-solution result is returned.
    """
    pr = _as_problem(scenario)
    layers = pr.layers
    L = layers.num_layers
    targets = layers.coverage_targets
    for skip in range(L - 1, -1, -1):
        mcs = [0] * L
        counts = [0] * L
        t_prime = [0.0] * L
        t_prime[skip] = targets[0]
        for i in range(skip + 1, L):
            t_prime[i] = targets[i]
        for i in range(skip, L):
            m = solve_s1(pr.user_mcs, t_prime[i])
            if m is not None:
                mcs[i] = m
        caps_vec = [pr.capacity(m) for m in mcs]
        for i in range(skip, L):
            if caps_vec[i] >= 1:
                found = solve_s2(layers, counts[:i], caps_vec, i + 1,
                                 pr.p_hat, pr.q_hat, pr.tb_budget[i])
                if found is not None:
                    counts[i] = found
        intermediate = evaluate_plan(pr, mcs, counts)
        if not intermediate.feasible:
            continue
        mcs_int = list(mcs)
        counts_int = list(counts)
        for i in range(L - 1, skip, -1):
            if counts[i - 1] > 0 and counts[i] > 0:
                saved = (mcs[i - 1], counts[i - 1], mcs[i], counts[i])
                mcs[i] = mcs[i - 1]
                mcs[i - 1] = 0
                counts[i - 1] = 0
                counts[i] = 0
                caps_vec = [pr.capacity(m) for m in mcs]
                found = solve_s2(layers, counts[:i], caps_vec, i + 1,
                                 pr.p_hat, pr.q_hat, pr.tb_budget[i])
                if found is not None:
                    counts[i] = found
                else:
                    # unsolvable merge would leave the window untransmitted;
                    # roll the pair back to its intermediate values
                    mcs[i - 1], counts[i - 1], mcs[i], counts[i] = saved
        refined = evaluate_plan(pr, mcs, counts)
        if not refined.feasible or sum(counts_int) < sum(counts):
            mcs, counts, chosen = mcs_int, counts_int, intermediate
        else:
            chosen = refined
        return _solution(pr, mcs, counts, chosen, solver="heuristic",
                         skipped_windows=skip,
                         intermediate_tb_total=sum(counts_int))
    return _no_solution(pr, solver="heuristic", intermediate_tb_total=None)


def check_feasibility(solution: AllocationSolution, scenario) -> FeasibilityReport:
    """Re-derive the QoS indicators of a solution and verify both constraint
    families (coverage fractions and block budgets)."""
    pr = _as_problem(scenario)
    ev = evaluate_plan(pr, solution.plan.mcs, solution.plan.tb_counts)
    U = len(pr.user_mcs)
    targets = pr.layers.coverage_targets
    fractions = tuple(float(c) / U for c in ev.layer_counts)
    coverage_ok = tuple(
        int(ev.layer_counts[i]) >= _required_count(U, targets[i])
        for i in range(pr.layers.num_layers)
    )
    budget_ok = tuple(
        0 <= solution.plan.tb_counts[i] <= pr.tb_budget[i]
        for i in range(pr.layers.num_layers)
    )
    violations = []
    for i, ok in enumerate(coverage_ok):
        if not ok:
            violations.append(
                f"layer {i + 1}: coverage {fractions[i]:.4f} < target {targets[i]:.4f}"
            )
    for i, ok in enumerate(budget_ok):
        if not ok:
            violations.append(
                f"window {i + 1}: block count {solution.plan.tb_counts[i]} "
                f"outside [0, {pr.tb_budget[i]}]"
            )
    return FeasibilityReport(
        feasible=all(coverage_ok) and all(budget_ok),
        layer_fractions=fractions,
        required_fractions=tuple(targets),
        coverage_ok=coverage_ok,
        budget_ok=budget_ok,
        violations=tuple(violations),
    )


def _better(profit: int, cost: int, best_profit: int, best_cost: int) -> bool:
    # exact fraction comparison; ties go to the cheaper plan, and the caller's
    # lexicographic iteration order settles the rest via strict improvement
    lhs = profit * best_cost
    rhs = best_profit * cost
    if lhs != rhs:
        return lhs > rhs
    return cost < best_cost


def direct_uep_ram(scenario) -> AllocationSolution:
    """Exact optimum by branch-and-bound over every canonical assignment.

    A window is either off, or carries 1..budget blocks at a table-backed
    MCS; the feasible assignment with the largest profit-cost ratio wins,
    ties preferring fewer blocks, then the lexicographically smaller MCS
    vector, then the smaller count vector.  MCS vectors are visited in
    lexicographic order, each evaluated as one array over its count grid.
    Two exact bounds skip work without changing the answer: an MCS vector
    on which too few users qualify for some level is skipped, and one whose
    profit ceiling over cost floor cannot beat the incumbent is cut whole.
    ``stats`` on the result counts both ("vectors_skipped", "vectors_cut"),
    the count vectors evaluated ("leaves"), the (template, capacity) success
    products formed ("tables") and the deficit grids memoised ("grids").
    """
    pr = _as_problem(scenario)
    # Per-user recovery depends only on the physical path: per window either
    # nothing received (off, or the user does not qualify) or a qualified
    # reception with a given capacity and count.  A window template (the
    # capacity of each earlier window the user qualifies on, None elsewhere)
    # therefore fixes one deficit distribution per count vector, memoised as
    # one grid (grid_dist), and the decode outcomes of the next window over
    # that grid (window_levels), shared across all MCS vectors and profiles.
    layers = pr.layers
    L = layers.num_layers
    k = layers.k
    U = len(pr.user_mcs)
    required = np.array([_required_count(U, t) for t in layers.coverage_targets])
    budgets = pr.tb_budget
    mcs_choices = [0] + sorted(pr.capacities)
    report_vals, report_counts = np.unique(np.asarray(pr.user_mcs), return_counts=True)
    q_thresh = pr.q_hat - _PROB_EPS
    p_hat = pr.p_hat

    # Every MCS vector but the all-off one, in lexicographic order.  A user
    # can only decode a window it qualifies on (0 < m <= report), so level l
    # is reachable only by users qualifying on some sent window >= l: that
    # count must meet the level's requirement, and summed over levels it
    # caps the profit of every count vector under the MCS vector.
    m_vecs = np.array(list(product(mcs_choices, repeat=L)))[1:]
    qualify = (m_vecs[:, None, :] > 0) & (m_vecs[:, None, :] <= report_vals[None, :, None])
    top = np.max(qualify * np.arange(1, L + 1), axis=2)  # (vectors, reports)
    reachable = report_counts @ (top[:, :, None] >= np.arange(1, L + 1))
    viable = np.all(reachable >= required, axis=1)
    ceilings = reachable.sum(axis=1)
    stats = {"mcs_vectors": len(m_vecs), "vectors_skipped": int(np.sum(~viable)),
             "vectors_cut": 0, "leaves": 0, "tables": 0}

    # pmfs of counts 1..budget, zero-padded to budget + 1, window j's on axis j
    pascal = [binomial_pmf_rows(b, p_hat)[1:].reshape((1,) * j + (b, b + 1))
              for j, b in enumerate(budgets)]
    grid_cache: dict[tuple, np.ndarray] = {(): np.ones(1)}

    def grid_dist(template: tuple) -> np.ndarray:
        # deficit distribution after the windows of ``template``: axis j holds
        # window j's counts 1..budget where the template holds a capacity,
        # else size 1 (nothing received); the deficit axis comes last
        if template not in grid_cache:
            j, capacity = len(template) - 1, template[-1]
            pmf = np.ones((1,) * (j + 2)) if capacity is None else pascal[j]
            prev = grid_dist(template[:-1])[..., None, :]
            prev = np.broadcast_to(prev, prev.shape[:-2] + pmf.shape[-2:-1] + prev.shape[-1:])
            grid_cache[template] = advance_deficit(prev, k[j], capacity or 0, pmf)
        return grid_cache[template]

    levels_cache: dict[tuple, np.ndarray] = {}

    def window_levels(template: tuple, capacity: int) -> np.ndarray:
        # window d = len(template) sent at ``capacity``: d + 1 where it
        # decodes, else 0, over the count grid of ``template`` and the
        # counts of window d (size-1 axes for the windows after it)
        if (template, capacity) not in levels_cache:
            d, dist = len(template), grid_dist(template)
            stats["tables"] += 1
            table = success_table(dist.shape[-1], k[d], capacity, budgets[d], p_hat)
            hit = (dist @ table)[..., 1:] >= q_thresh
            levels_cache[(template, capacity)] = (hit * np.int8(d + 1)).reshape(
                hit.shape + (1,) * (L - d - 1))
        return levels_cache[(template, capacity)]

    # sent pattern -> per-window count choices (only 0 when off) and the
    # cost over their grid, whose C order is the lexicographic count order
    cost_grids: dict[tuple[bool, ...], tuple[list[range], np.ndarray]] = {}
    level_axis = np.arange(L).reshape((L,) + (1,) * L)
    best_profit, best_cost = -1, 1
    best_assignment: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for vi in np.flatnonzero(viable):
        m_vec = tuple(int(m) for m in m_vecs[vi])
        # cheapest cost at which no count vector (profit at most the
        # ceiling) beats the incumbent or ties it at a lower cost
        cut = unbounded = np.iinfo(np.int64).max
        if best_profit > 0:
            cut, rem = divmod(int(ceilings[vi]) * best_cost, best_profit)
            cut += 0 if rem == 0 and cut >= best_cost else 1
        sent = tuple(m > 0 for m in m_vec)
        if sent not in cost_grids:
            choices = [range(1, budgets[d] + 1) if sent[d] else range(1) for d in range(L)]
            cost_grids[sent] = (choices, sum(np.ix_(*choices)))
        choices, cost = cost_grids[sent]
        if sum(sent) >= cut:  # one block per sent window, the cheapest
            stats["vectors_cut"] += 1
            continue
        caps = [pr.capacity(m) for m in m_vec]
        # users sharing a qualification profile share every probability
        profiles: dict[tuple[bool, ...], int] = {}
        for good, cnt in zip(map(tuple, qualify[vi].tolist()), report_counts.tolist()):
            profiles[good] = profiles.get(good, 0) + cnt
        # deepest decoded window per profile: it yields every level up to it
        deepest = np.zeros((len(profiles),) + cost.shape, dtype=np.int8)
        for reached, good in zip(deepest, profiles):
            template = ()
            for d in range(L):
                if good[d]:
                    np.maximum(reached, window_levels(template, caps[d]), out=reached)
                template += (caps[d] if good[d] else None,)
        weights = np.array(list(profiles.values())).reshape((-1,) + (1,) * (L + 1))
        coverage = (weights * (deepest[:, None] > level_axis)).sum(axis=0)
        live = cost < cut
        stats["leaves"] += int(np.count_nonzero(live))
        feasible = live & np.all(coverage >= required.reshape(level_axis.shape), axis=0)
        if not feasible.any():
            continue
        profit = coverage.sum(axis=0)
        taus = np.where(feasible, profit / cost, -1.0)
        # best ratio, then fewest blocks, then the first in count order
        ties = np.where(taus == taus.max(), cost, unbounded)
        pick = np.unravel_index(int(np.argmin(ties)), cost.shape)
        if _better(int(profit[pick]), int(cost[pick]), best_profit, best_cost):
            best_profit, best_cost = int(profit[pick]), int(cost[pick])
            best_assignment = (m_vec, tuple(choices[d][pick[d]] for d in range(L)))

    stats["grids"] = len(grid_cache)
    if best_assignment is None:
        return _no_solution(pr, solver="direct", stats=stats)
    m_best, counts_best = best_assignment
    ev = evaluate_plan(pr, m_best, counts_best)
    return _solution(pr, m_best, counts_best, ev, solver="direct", stats=stats)


def solve_mrt(scenario) -> AllocationSolution:
    """Uncoded multi-rate baseline.

    Each layer is sent on its own MCS, strictly increasing across layers, with
    the fixed lossless block count ceil(k_i / n_i); the search maximises the
    summed per-user quality metric (PSNR plateau times the probability that
    every block of the first ``l`` layers arrives) over all increasing MCS
    vectors from the capacity table.
    """
    pr = _as_problem(scenario)
    layers = pr.layers
    L = layers.num_layers
    if layers.psnr is None:
        raise ValueError("layer configuration carries no PSNR plateaus")
    mcs_list = sorted(pr.capacities)
    if L > len(mcs_list):
        raise ValueError(
            f"{L} layers cannot take strictly increasing MCS from "
            f"{len(mcs_list)} table entries"
        )
    report_vals, report_counts = np.unique(np.asarray(pr.user_mcs), return_counts=True)
    m_vecs = list(combinations(mcs_list, L))
    blocks = np.array([mrt_block_counts(layers, [pr.capacity(m) for m in m_vec])
                       for m_vec in m_vecs])  # (C, L)
    # (C, V, L): a user loses every block sent above its reported MCS
    losses = np.where(np.array(m_vecs)[:, None, :] <= report_vals[:, None],
                      pr.p_hat, 1.0)
    survive = uncoded_survival(losses, blocks[:, None, :])
    best_u = expected_psnr(layers, survive)
    # summed user by user in report order (cumsum is sequential), so the
    # first best vector wins ties exactly as a running comparison would
    scores = np.cumsum(report_counts * best_u, axis=-1)[:, -1]
    pick = int(np.argmax(scores))
    m_vec, counts = m_vecs[pick], tuple(int(b) for b in blocks[pick])
    ev = evaluate_plan(pr, m_vec, counts)
    return _solution(pr, m_vec, counts, ev, solver="mrt")
