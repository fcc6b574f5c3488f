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
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .decode_prob import (
    _PROB_EPS,
    _check_thresholds,
    _met_levels,
    _window_dp,
    LayerConfig,
    TransmissionPlan,
    advance_deficit,
    binomial_pmf_rows,
    expected_psnr,
    mrt_block_counts,
    receive_pmf,
    success_table,
    uncoded_survival,
)

_COUNT_EPS = 1e-9  # guard when comparing integer counts against U * fraction
_CHUNK = 1 << 20  # (MCS vector, profile, cell) entries the exact search holds at once
_MAX_ENTRIES = 10**8  # set-up plus level-table entries beyond which the exact search refuses


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

    Users with one report share every probability, so the window DP runs
    once per distinct report, on the memoised ``receive_pmf`` row at
    ``p_hat`` where the report qualifies (``0 < m <= report``, blocks sent)
    and the "nothing received" row elsewhere.  The plan needs one entry per layer.
    """
    pr = _as_problem(problem)
    layers = pr.layers
    L = layers.num_layers
    U = len(pr.user_mcs)
    mcs = tuple(int(m) for m in mcs)
    counts = tuple(int(c) for c in tb_counts)
    plan = TransmissionPlan(mcs, counts, tuple(pr.capacity(m) for m in mcs))
    if len(mcs) != L:
        raise ValueError(f"plan length {len(mcs)} does not match the layer count {L}")
    reports, _, inverse = np.unique(pr.user_mcs, return_index=True, return_inverse=True)
    pmfs = [np.where(((0 < m) & (m <= reports) & (c > 0))[:, None],
                     receive_pmf(c, pr.p_hat), receive_pmf(c, 1.0)) for m, c in zip(mcs, counts)]
    delta = _met_levels(_window_dp(layers.k, plan.elements_per_tb, pmfs), pr.q_hat)[inverse]
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
    answer, the largest candidate in [1, 15] with enough qualifying users,
    is the ``required``-th largest report capped at 15 (15 when no user is
    required), or None when that is below 1 or exceeds the user count.
    """
    if not len(user_mcs):
        raise ValueError("at least one user report is required")
    required = _required_count(len(user_mcs), t_prime)
    if required > len(user_mcs):
        return None
    m = min(int(sorted(user_mcs)[-required]), 15) if required > 0 else 15
    return m if m >= 1 else None


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
        refined = (intermediate if (mcs, counts) == (mcs_int, counts_int)
                   else evaluate_plan(pr, mcs, counts))
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


def _level_tables(k, counts, caps, p_hat: float, q_thresh: float) -> list[np.ndarray]:
    """Decode outcome of every window over every window template.

    Window ``j`` is read at position 0 (nothing received: off, or the user
    does not qualify) or at position ``i``, blocks of ``caps[j][i - 1]``
    elements each lost with probability ``p_hat``.  A depth-``d`` template
    codes one position per window before ``d`` in mixed radix, window 0
    first.  Row ``t * (len(caps[d]) + 1) + i`` of ``tables[d]`` is template
    ``t`` with window ``d`` at position ``i``; its columns are the count
    vectors ``1..counts[j]`` of windows ``0..d`` in C order.  An entry is
    ``d + 1`` where window ``d`` decodes with probability >= ``q_thresh``,
    else 0 (always 0 at position 0).
    """
    radix = [len(c) + 1 for c in caps]
    tables = [np.zeros((math.prod(radix[:d + 1]), math.prod(counts[:d + 1])), np.int8)
              for d in range(len(k))]
    pmfs = [binomial_pmf_rows(n, p_hat)[1:] for n in counts]  # counts 1..n, one row each

    def fill(grid, d, start):
        # grid: depth-d deficit grids of the templates from ``start`` on, as
        # (templates, count axes of windows 0..d-1, deficit)
        rows = tables[d][start * radix[d]:(start + len(grid)) * radix[d]]
        rows = rows.reshape(len(grid), radix[d], -1, counts[d])
        for i, cap in enumerate(caps[d], 1):
            table = success_table(grid.shape[-1], k[d], cap, counts[d], p_hat)
            hit = (grid.reshape(-1, len(table)) @ table)[:, 1:] >= q_thresh
            rows[:, i] = hit.reshape(rows[:, i].shape) * np.int8(d + 1)

    def extend(grid, d):
        # depth d to d + 1: one deficit step per choice of window d, over
        # its count axis; templates gain window d's choice as last digit
        prev = np.broadcast_to(grid[..., None, :], grid.shape[:-1] + (counts[d], grid.shape[-1]))
        pmf = pmfs[d].reshape((1,) * (d + 1) + pmfs[d].shape)
        new = np.stack([advance_deficit(prev, k[d], 0, np.ones(1))]
                       + [advance_deficit(prev, k[d], cap, pmf) for cap in caps[d]], axis=1)
        return new.reshape((-1,) + new.shape[2:])

    grid = np.ones((1, 1))  # depth 0: one template, no count axis, no deficit
    fill(grid, 0, 0)
    for d in range(1, len(k)):
        # the last depth's grids are read by no later window: they are
        # formed a block of templates at a time (about _CHUNK float entries)
        size = radix[d - 1] * math.prod(counts[:d]) * (grid.shape[-1] + k[d - 1])
        step = max(1, _CHUNK // size) if d == len(k) - 1 else len(grid)
        for start in range(0, len(grid), step):
            block = extend(grid[start:start + step], d - 1)
            fill(block, d, start * radix[d - 1])
        grid = block
    return tables


def direct_uep_ram(scenario) -> AllocationSolution:
    """Exact optimum by branch-and-bound over every canonical assignment.

    A window is either off, or carries 1..budget blocks at a table-backed
    MCS; the feasible assignment with the largest profit-cost ratio wins,
    ties preferring fewer blocks, then the lexicographically smaller MCS
    vector, then the smaller count vector.  MCS vectors sharing a sent
    pattern share one count grid and are evaluated a chunk at a time as one
    array; the per-vector winners are then scanned in lexicographic order.
    Two exact bounds skip work without changing the answer: an MCS vector
    on which too few users qualify for some level is skipped, and count
    vectors whose profit ceiling over cost cannot beat or tie the best plan
    found so far are cut (a whole MCS vector when none is left).  ``stats``
    counts both ("vectors_skipped", "vectors_cut"), the count vectors
    evaluated ("leaves"), the (template, choice) level tables built
    ("tables") and the deficit grids they are read from, one per template
    and depth ("grids").  The cut sees the incumbents in batch order, so
    "vectors_cut" and "leaves" depend on that order; the plan does not, nor
    do the other counts, fixed by the choices the viable vectors send.

    A search whose set-up and level tables would exceed ``_MAX_ENTRIES``
    array entries is refused with a ``ValueError`` before anything is built.
    """
    pr = _as_problem(scenario)
    # Per-user recovery depends only on the physical path: per window either
    # nothing received (off, or the user does not qualify) or a qualified
    # reception with a given capacity and count.  A window template (the
    # choice of each earlier window, 0 where nothing is received) therefore
    # fixes the decode outcome of the next window over all count vectors,
    # shared across all MCS vectors and profiles: one level table per
    # template and choice, all built up front (_level_tables).
    layers = pr.layers
    L = layers.num_layers
    U = len(pr.user_mcs)
    required = np.array([_required_count(U, t) for t in layers.coverage_targets])
    budgets = pr.tb_budget
    mcs_choices = np.array([0] + sorted(pr.capacities))
    n_choices = len(mcs_choices)
    size = n_choices ** L * L + sum(n_choices ** (d + 1) * math.prod(
        max(b, 1) for b in budgets[:d + 1]) for d in range(L))
    if size > _MAX_ENTRIES:
        raise ValueError(f"exact search needs up to {size:,} array entries, over the "
                         f"limit of {_MAX_ENTRIES:,}")
    # users reporting at least MCS m, for m = 0..top; index top counts none
    top = int(mcs_choices[-1]) + 1
    at_least = np.append(np.count_nonzero(
        np.asarray(pr.user_mcs)[:, None] >= np.arange(top), axis=0), 0)

    # Every MCS vector but the all-off one, in lexicographic order, with its
    # choice indices.  A user can only decode a window it qualifies on
    # (0 < m <= report), so level l is reachable only by users reporting at
    # least the lowest MCS sent at a window >= l: that count must meet the
    # level's requirement, and summed over levels it caps the profit of
    # every count vector under the MCS vector.
    choice = np.indices((n_choices,) * L).reshape(L, -1).T[1:]
    m_vecs = mcs_choices[choice]
    lowest = np.minimum.accumulate(np.where(m_vecs > 0, m_vecs, top)[:, ::-1], axis=1)
    reachable = at_least[lowest[:, ::-1]]
    viable = np.all(reachable >= required, axis=1)
    ceilings = reachable.sum(axis=1)
    vis = np.flatnonzero(viable)
    # the choices window j is read at: 0 and each one a viable vector sends
    # there (none without budget); a window read only at 0 has one count
    opts = [np.union1d(choice[vis, j], 0) if b else np.zeros(1, int)
            for j, b in enumerate(budgets)]
    counts = [b if len(o) > 1 else 1 for b, o in zip(budgets, opts)]
    templates = [math.prod(len(o) for o in opts[:d]) for d in range(L)] if vis.size else []
    stats = {"mcs_vectors": len(m_vecs), "vectors_skipped": int(np.sum(~viable)),
             "vectors_cut": 0, "leaves": 0,
             "tables": sum(t * (len(o) - 1) for t, o in zip(templates, opts)),
             "grids": sum(templates)}
    tables = _level_tables(layers.k, counts, [[pr.capacity(m) for m in mcs_choices[o[1:]]]
                                              for o in opts],
                           pr.p_hat, pr.q_hat - _PROB_EPS) if vis.size else []

    best_profit, best_cost = -1, 1
    winners = []  # (vector index, profit, cost, grid shape, flat cell) of each best cell
    pattern = (m_vecs[vis] > 0) @ (1 << np.arange(L)[::-1])  # sorts as the sent flags do
    for code in np.unique(pattern):
        # the count grid of the sent pattern, its cells in order of cost and
        # then of C order (the lexicographic count order)
        group = vis[pattern == code]
        sent = m_vecs[group[0]] > 0
        shape = tuple(np.where(sent, budgets, 1).tolist())
        cost = sum(np.ix_(*(np.arange(1, n + 1) * s for n, s in zip(shape, sent)))).ravel()
        if not cost.size:  # a sent window without budget: no count vector
            continue
        order = np.argsort(cost, kind="stable")
        cost = cost[order]
        # each cell's column in the level tables of each window
        cells = np.unravel_index(order, shape)
        cols = [np.ravel_multi_index(cells[:d + 1], counts[:d + 1]) for d in range(L)]
        step = max(1, _CHUNK // (sent.sum() * cost.size))
        for start in range(0, len(group), step):
            vecs = group[start:start + step]
            # live cells: count vectors (profit at most the ceiling) that may
            # beat or tie the incumbent, a prefix of the cost order; a tie
            # must stay, as a vector batched later may precede the incumbent's
            live = np.searchsorted(cost * max(best_profit, 0), ceilings[vecs] * best_cost,
                                   side="right")
            stats["vectors_cut"] += int(np.count_nonzero(live == 0))
            vecs, live = vecs[live > 0], live[live > 0]
            if not vecs.size:
                continue
            stats["leaves"] += int(live.sum())
            width = int(live.max())
            # profile i: users reporting from the i-th lowest sent MCS up to
            # the next qualify on the sent windows up to it and share every
            # probability; empty profiles qualify nowhere
            idx, m = choice[vecs], m_vecs[vecs]
            bounds = np.sort(m[:, sent], axis=1)
            shares = -np.diff(at_least[bounds], axis=1, append=0).astype(np.min_scalar_type(U))
            qualify = ((m[:, None, :] <= bounds[:, :, None]) & sent
                       & (shares > 0)[:, :, None])  # (vectors, profiles, windows)
            # window d's table row codes the position of each qualified
            # window's choice among opts, 0 elsewhere, over windows 0..d
            row = np.zeros(qualify.shape[:2], dtype=np.intp)
            # deepest decoded window per profile: it yields every level up to it
            deepest = np.zeros(qualify.shape[:2] + (width,), dtype=np.int8)
            for d in range(L):
                digit = np.searchsorted(opts[d], idx[:, d])[:, None]
                row = row * len(opts[d]) + np.where(qualify[:, :, d], digit, 0)
                if sent[d]:
                    np.maximum(deepest, tables[d][row[:, :, None], cols[d][:width]],
                               out=deepest)
            feasible = np.arange(width) < live[:, None]
            profit = np.zeros(feasible.shape, dtype=np.min_scalar_type(U * L))
            for level, need in enumerate(required.tolist()):
                covered = np.einsum("vp,vpc->vc", shares, deepest > level)
                feasible &= covered >= need
                profit += covered
            # best ratio, then fewest blocks, then the first in count order:
            # the first best cell in cell order
            taus = np.where(feasible, profit / cost[:width], -1.0)
            picks = np.argmax(taus == taus.max(axis=1, keepdims=True), axis=1)
            for v in np.flatnonzero(feasible.any(axis=1)).tolist():
                p, c = int(profit[v, picks[v]]), int(cost[picks[v]])
                winners.append((int(vecs[v]), p, c, shape, order[picks[v]]))
                if _better(p, c, best_profit, best_cost):
                    best_profit, best_cost = p, c

    best = (None, -1, 1)
    for winner in sorted(winners):  # lexicographic: an exact tie keeps the first vector
        if _better(*winner[1:3], *best[1:3]):
            best = winner
    if best[0] is None:
        return _no_solution(pr, solver="direct", stats=stats)
    vi, _, _, shape, cell = best
    m_best = tuple(int(m) for m in m_vecs[vi])
    counts_best = tuple(int(i) + (m > 0) for m, i in zip(m_best, np.unravel_index(cell, shape)))
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
    idx = np.array(list(combinations(range(len(mcs_list)), L)))  # (C, L)
    m_vecs = np.array(mcs_list)[idx]
    blocks = mrt_block_counts(layers, np.array([pr.capacity(m) for m in mcs_list])[idx])
    # MCS rise across layers, so a user qualifying on n windows (a prefix)
    # scores their survival at p_hat and loses every block after them
    survive = uncoded_survival(np.full(L, pr.p_hat), blocks)
    prefix = np.where(np.tri(L + 1, L, -1, dtype=bool), survive[:, None, :], 0.0)
    qualified = np.count_nonzero(m_vecs[:, None, :] <= report_vals[:, None], axis=2)
    best_u = np.take_along_axis(expected_psnr(layers, prefix), qualified, axis=1)
    # summed user by user in report order (cumsum is sequential), so the
    # first best vector wins ties exactly as a running comparison would
    scores = np.cumsum(report_counts * best_u, axis=-1)[:, -1]
    pick = int(np.argmax(scores))
    m_vec, counts = tuple(int(m) for m in m_vecs[pick]), tuple(int(b) for b in blocks[pick])
    ev = evaluate_plan(pr, m_vec, counts)
    return _solution(pr, m_vec, counts, ev, solver="mrt")
