"""Resource allocation for layered coded multicast.

Solvers share one objective: the users reaching each level with probability
>= Q are counted as profit, the transmitted blocks as cost, and the coverage
constraint demands that at least a target fraction of users reach each level.
All solvers work on the allocator-view erasure model: a user loses a block
with the anchor probability when its reported MCS covers the block's MCS, and
with certainty otherwise.  Users with one report are thus interchangeable,
and a problem keeps only the number of users per reported MCS.

* :func:`heuristic_uep_ram` - window-skipping greedy with a merge refinement.
* :func:`direct_uep_ram` - reference optimum by exact branch-and-bound.
* :func:`solve_mrt` - uncoded multi-rate baseline with strictly increasing
  per-layer MCS.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import chain, combinations
from typing import Mapping, Sequence

import numpy as np

from .decode_prob import (
    _check_thresholds,
    _integers,
    _memo,
    _window_dp,
    LayerConfig,
    TransmissionPlan,
    advance_deficit,
    binomial_pmf_rows,
    blocks_needed,
    expected_psnr,
    level_probs,
    meets_qos,
    mrt_block_counts,
    receive_pmf,
    receive_tail,
    uncoded_survival,
)

# P_HAT: the block loss on a report's MCS threshold (a CQI is the highest index whose block
# error is at most 0.1, TS 36.213 7.2.3), the allocator's default p_hat. Q_HAT: QoS a level needs
P_HAT, Q_HAT = 0.1, 0.99
_COUNT_EPS = 1e-9  # guard when comparing integer counts against U * fraction
_CHUNK = 1 << 20  # (MCS vector, profile, cell) entries the exact search holds at once
_MAX_ENTRIES = 10**8  # set-up plus level-table entries beyond which the exact search refuses


@dataclass(frozen=True, eq=False)
class AllocationProblem:
    """Allocator inputs: stream layout, report histogram, budgets, capacities."""

    layers: LayerConfig
    user_mcs: InitVar[Sequence[int]]  # one reported MCS in 1..15 per user
    tb_budget: tuple[int, ...]
    capacities: Mapping[int, int]  # MCS index -> elements per block
    p_hat: float = P_HAT
    q_hat: float = Q_HAT
    report_counts: np.ndarray = field(init=False)  # users per reported MCS 0..15, read-only

    def __post_init__(self, user_mcs):
        reports = np.asarray(_integers("user_mcs", user_mcs))
        if not (reports.size and 1 <= reports.min() and reports.max() <= 15):
            raise ValueError("user_mcs must hold one or more reports, each in [1, 15]")
        counts = np.bincount(reports, minlength=16)
        counts.flags.writeable = False
        object.__setattr__(self, "report_counts", counts)
        budget = tuple(map(int, _integers("tb_budget", self.tb_budget)))
        if any(b < 0 for b in budget):
            raise ValueError(f"tb_budget must hold counts >= 0, got {budget}")
        object.__setattr__(self, "tb_budget", budget)
        caps = dict(self.capacities)
        _integers("capacities", [*caps, *caps.values()])
        if not all(1 <= m <= 15 and n >= 0 for m, n in caps.items()):
            raise ValueError(f"capacities must map MCS in [1, 15] to counts >= 0, got {caps}")
        object.__setattr__(self, "capacities", {int(m): int(n) for m, n in caps.items()})
        if len(self.tb_budget) != self.layers.num_layers:
            raise ValueError("one block budget per window is required")
        if self.layers.coverage_targets is None:
            raise ValueError("layer configuration carries no coverage targets")
        _check_thresholds(self.p_hat, self.q_hat)

    def capacity(self, m: int) -> int:
        return self.capacities.get(m, 0)


@dataclass
class PlanEvaluation:
    """Allocator-view verdict on one (MCS, block-count) assignment.

    ``plan`` is canonical: a window sent with no blocks carries MCS 0.  The
    plan is feasible exactly when ``violations`` (coverage targets missed,
    block counts outside their budgets) is empty.
    """

    plan: TransmissionPlan
    window_probs: np.ndarray  # (16, L) per report: coded window or baseline level survival chances
    delta: np.ndarray  # (16, L) QoS indicators of those rows
    profit: int
    cost: int
    tau: float
    layer_counts: np.ndarray  # users meeting each level: report_counts @ delta
    layer_fractions: tuple[float, ...]
    violations: tuple[str, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations


@dataclass
class AllocationSolution(PlanEvaluation):
    """A solver's result: the evaluation of its plan, plus how it was found."""

    solver: str  # "heuristic" | "direct" | "mrt"
    skipped_windows: int = 0
    intermediate_tb_total: int | None = None  # heuristic only
    stats: dict[str, int] = field(default_factory=dict)  # exact search only


def _required_count(num_users: int, fraction: float) -> int:
    return math.ceil(num_users * fraction - _COUNT_EPS)


def _at_least(report_counts) -> np.ndarray:
    # users reporting MCS m or more, for m = 0..15: suffix sums of the histogram
    return np.cumsum(np.asarray(report_counts)[::-1])[::-1]


def _qualifies(m, report):
    # the allocator view: a block of MCS m is lost with p_hat where this holds, else surely
    return (0 < m) & (m <= report)


@_memo
def _report_rows(m: int, count: int, p_hat: float) -> np.ndarray:  # (report, arrivals)
    return np.where(_qualifies(m, np.arange(16))[:, None],
                    receive_pmf(count, p_hat), receive_pmf(count, 1.0))


def _canonical_plan(problem: AllocationProblem, mcs, tb_counts) -> TransmissionPlan:
    # one integer MCS and block count per layer; a window sent with no blocks carries MCS 0
    L = problem.layers.num_layers
    if len(mcs) != L:
        raise ValueError(f"plan length {len(mcs)} does not match the layer count {L}")
    if len(tb_counts) != L:
        raise ValueError(f"{len(tb_counts)} block counts do not match the layer count {L}")
    counts = tuple(map(int, _integers("block counts", tb_counts)))
    mcs = tuple(int(m) if c > 0 else 0 for m, c in zip(_integers("plan MCS", mcs), counts))
    return TransmissionPlan(mcs, counts, tuple(problem.capacity(m) for m in mcs))


def evaluate_plan(problem: AllocationProblem, mcs: Sequence[int],
                  tb_counts: Sequence[int]) -> PlanEvaluation:
    """QoS indicators, profit/cost and constraint violations of a coded plan: users with
    one report share every probability, so the window DP runs once per reported MCS
    0..15, on the memoised ``receive_pmf`` row at ``p_hat`` where the report qualifies,
    else the "nothing received" row, and ``_verdict`` judges those rows."""
    plan = _canonical_plan(problem, mcs, tb_counts)
    pmfs = [_report_rows(m, c, problem.p_hat) for m, c in zip(plan.mcs, plan.tb_counts)]
    return _verdict(problem, plan, _window_dp(problem.layers.k, plan.elements_per_tb, pmfs))


def _verdict(problem: AllocationProblem, plan: TransmissionPlan, rows) -> PlanEvaluation:
    # the one verdict on a plan: its (16, L) per-report rows, weighted by the report histogram
    delta = meets_qos(level_probs(rows), problem.q_hat)
    layer_counts = problem.report_counts @ delta
    U = int(problem.report_counts.sum())
    fractions = tuple(n / U for n in layer_counts.tolist())
    violations = [f"layer {i + 1}: coverage {fractions[i]:.4f} < target {t:.4f}" for i, (n, t)
                  in enumerate(zip(layer_counts.tolist(), problem.layers.coverage_targets))
                  if n < _required_count(U, t)]
    violations += [f"window {i + 1}: block count {c} outside [0, {b}]" for i, (c, b)
                   in enumerate(zip(plan.tb_counts, problem.tb_budget)) if not 0 <= c <= b]
    profit, cost = int(layer_counts.sum()), sum(plan.tb_counts)
    return PlanEvaluation(plan, rows, delta, profit, cost, profit / cost if cost > 0 else 0.0,
                          layer_counts, fractions, tuple(violations))


def solve_s1(report_counts, t_prime: float) -> int | None:
    """Largest MCS in [1, 15] that at least a ``t_prime`` fraction of the users
    report or exceed, else None; ``report_counts[m]`` users report MCS m."""
    at_least = _at_least(report_counts)
    if not at_least.size or not at_least[0]:
        raise ValueError("at least one user report is required")
    hits = np.flatnonzero(at_least[1:16] >= _required_count(int(at_least[0]), t_prime))
    return int(hits[-1]) + 1 if hits.size else None


def solve_s2(dist: np.ndarray, k_w: int, capacity: int, budget: int,
             p_hat: float, q_hat: float) -> int | None:
    """Fewest blocks, up to ``budget``, making a window of ``k_w`` fresh elements
    decodable with prob >= q_hat from the deficit distribution ``dist`` it starts at
    (``advance_deficit`` over the earlier windows), or None when no count does.  It is
    user-agnostic: every block is lost with probability ``p_hat``.  The deficits fold
    onto the count each needs, then the bins onto the arrival tail.
    """
    success = np.bincount(blocks_needed(len(dist), k_w, capacity, budget), dist,
                          budget + 2) @ receive_tail(budget, p_hat)
    hits = np.nonzero(meets_qos(success, q_hat))[0]
    return int(hits[0]) if hits.size else None


def _no_solution(pr: AllocationProblem, solver: str, **extra) -> AllocationSolution:
    # the all-off plan: nothing sent, every coverage target missed
    off = (0,) * pr.layers.num_layers
    return AllocationSolution(**vars(evaluate_plan(pr, off, off)), solver=solver,
                              skipped_windows=-1, **extra)


def heuristic_uep_ram(pr: AllocationProblem) -> AllocationSolution:
    """Window-skipping greedy allocation with a merge refinement pass.

    Starting from the deepest skip count s = L-1, the first s windows are
    dropped; the first delivered window inherits the strictest coverage
    target.  Each delivered window gets the largest MCS keeping enough users
    qualified, then the fewest blocks reaching the recovery threshold.  When
    the coverage constraint holds, a refinement tries to merge each window
    into its successor (re-transmitting the successor at the more robust MCS
    and dropping the predecessor); a merge applies only when S2 solves the
    merged window, and the refined plan is only returned when it is feasible
    and no more expensive than the intermediate one.  Otherwise s is
    decreased; with s exhausted an explicit no-solution result is returned.
    """
    k = pr.layers.k
    L = len(k)
    targets = pr.layers.coverage_targets
    for skip in range(L - 1, -1, -1):
        mcs = [0] * skip + [solve_s1(pr.report_counts, targets[0 if i == skip else i]) or 0
                            for i in range(skip, L)]
        caps = [pr.capacity(m) for m in mcs]
        counts = [0] * L
        dists = [np.ones(1)]  # deficit distribution entering each window
        for i in range(L):
            if caps[i] >= 1:
                counts[i] = solve_s2(dists[i], k[i], caps[i], pr.tb_budget[i],
                                     pr.p_hat, pr.q_hat) or 0
            if i < L - 1:
                dists.append(advance_deficit(dists[i], k[i], caps[i],
                                             receive_pmf(counts[i], pr.p_hat)))
        if (not counts[-1] and not meets_qos(0.0, pr.q_hat)
                and _required_count(int(pr.report_counts.sum()), targets[-1])):
            continue  # no user reaches the deepest level: its target is missed
        intermediate = evaluate_plan(pr, mcs, counts)
        if not intermediate.feasible:
            continue
        mcs_int, counts_int = list(mcs), list(counts)
        for i in range(L - 1, skip, -1):
            if counts[i - 1] > 0 and counts[i] > 0:
                # window i at window i-1's MCS, window i-1 dropped; no window
                # below i-1 has changed, so dists[i - 1] still leads into it
                found = solve_s2(advance_deficit(dists[i - 1], k[i - 1], 0, np.ones(1)), k[i],
                                 caps[i - 1], pr.tb_budget[i], pr.p_hat, pr.q_hat)
                if found is not None:
                    mcs[i - 1:i + 1] = [0, mcs[i - 1]]
                    counts[i - 1:i + 1] = [0, found]
        refined = (intermediate if (mcs, counts) == (mcs_int, counts_int)
                   else evaluate_plan(pr, mcs, counts))
        chosen = (refined if refined.feasible and refined.cost <= intermediate.cost
                  else intermediate)
        return AllocationSolution(**vars(chosen), solver="heuristic", skipped_windows=skip,
                                  intermediate_tb_total=intermediate.cost)
    return _no_solution(pr, solver="heuristic")


def check_feasibility(solution: AllocationSolution, problem: AllocationProblem) -> PlanEvaluation:
    """Re-derive a coded solution's verdict: ``evaluate_plan`` of its plan."""
    if solution.solver == "mrt":
        raise ValueError('solver="mrt": a baseline plan is judged by its own survival rows, '
                         "not re-derived through the coded window DP")
    return evaluate_plan(problem, solution.plan.mcs, solution.plan.tb_counts)


def _better(profit: int, cost: int, best_profit: int, best_cost: int) -> bool:
    # exact fraction comparison; ties go to the cheaper plan, and the caller
    # settles an exact tie (same profit and cost)
    lhs = profit * best_cost
    rhs = best_profit * cost
    if lhs != rhs:
        return lhs > rhs
    return cost < best_cost


def _level_tables(k, counts, caps, p_hat: float, q_hat: float) -> list[np.ndarray]:
    """Decode outcome of every window over every window template.

    Window ``j`` is read at position 0 (nothing received: off, or the user
    does not qualify) or at position ``i``, blocks of ``caps[j][i - 1]``
    elements each lost with probability ``p_hat``.  A depth-``d`` template
    codes one position per window before ``d`` in mixed radix, window 0
    first.  Row ``t * (len(caps[d]) + 1) + i`` of ``tables[d]`` is template
    ``t`` with window ``d`` at position ``i``; its columns are the count
    vectors ``1..counts[j]`` of windows ``0..d`` in C order.  An entry is
    ``d + 1`` where window ``d`` decodes with probability >= ``q_hat``,
    else 0 (always 0 at position 0).
    """
    radix = [len(c) + 1 for c in caps]
    tables = [np.zeros((math.prod(radix[:d + 1]), math.prod(counts[:d + 1])), np.int8)
              for d in range(len(k))]
    pmfs = [binomial_pmf_rows(max(counts), p_hat)[1:n + 1, :n + 1] for n in counts]  # memoised

    def fill(grid, d, start):
        # grid: depth-d deficit grids of the templates from ``start`` on, as (templates,
        # count axes of windows 0..d-1, deficit); one product serves every choice of window d
        rows = tables[d][start * radix[d]:(start + len(grid)) * radix[d]]
        rows = rows.reshape(len(grid), radix[d], -1, counts[d])[:, 1:].swapaxes(0, 1)
        table = receive_tail(counts[d], p_hat)[:, 1:][blocks_needed(  # (choice, deficit, count)
            grid.shape[-1], k[d], tuple(caps[d]), counts[d])]
        # products of about _CHUNK / 16 entries: 512 KB of float, cache-sized
        step = max(1, _CHUNK // 16 // (rows[:, :1].size or 1))
        for t in range(0, len(grid), step):
            hit = meets_qos(grid[t:t + step].reshape(-1, grid.shape[-1]) @ table, q_hat)
            rows[:, t:t + step] = hit.reshape(rows[:, t:t + step].shape) * np.int8(d + 1)

    def extend(grid, d):
        # depth d to d + 1: one deficit step per choice of window d, over
        # its count axis; templates gain window d's choice as last digit
        prev = np.broadcast_to(grid[..., None, :], grid.shape[:-1] + (counts[d], grid.shape[-1]))
        pmf = pmfs[d].reshape((1,) * (d + 1) + pmfs[d].shape)
        # a block of k[d] + the largest deficit clears any deficit, as every
        # larger block does: one step serves all such capacities
        most = k[d] + grid.shape[-1] - 1
        steps = {c: advance_deficit(prev, k[d], c, pmf) for c in {min(n, most) for n in caps[d]}}
        new = np.stack([advance_deficit(prev, k[d], 0, np.ones(1))]
                       + [steps[min(n, most)] for n in caps[d]], axis=1)
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


def _viable_vectors(sends, at_least, required, budgets) -> np.ndarray:
    """The viable MCS vectors but the all-off one, as rows of indices into
    ``sends`` in lexicographic order.  A window without budget sends nothing:
    it offers only choice 0.  As a user decodes only the windows it qualifies
    on (``_qualifies``), level l is reachable only by the ``at_least`` users
    reporting at least the lowest MCS sent at a window >= l.  Suffixes grow
    from the last window: row c * len(choice) + s prepends choice c, the
    major digit, to suffix s, and is kept while enough users reach its level.
    """
    choice, low = np.zeros((1, 0), int), np.array([16])  # the empty suffix sends nothing
    for need, b in zip(required[::-1].tolist(), budgets[::-1]):
        low = np.minimum.outer(sends if b else sends[:1], low).ravel()  # lowest MCS from here on
        pick = np.flatnonzero(at_least[low] >= need)
        choice, low = np.column_stack([pick // len(choice), choice[pick % len(choice)]]), low[pick]
    return choice[choice.any(axis=1)]


def direct_uep_ram(pr: AllocationProblem) -> AllocationSolution:
    """Exact optimum by branch-and-bound over every canonical assignment.

    A window is either off, or carries 1..budget blocks at a table-backed
    MCS; the feasible assignment with the largest profit-cost ratio wins,
    ties preferring fewer blocks, then the lexicographically smaller MCS
    vector, then the smaller count vector.  Exact bounds skip work without
    changing the answer.  An MCS vector that sends on a window without
    budget, or on which too few users qualify for some level, is skipped.
    As no verdict drops when a window gets more blocks, one pass over every
    vector's all-budget cell (each sent window at its budget) caps the
    vector's profit and coverage: the vector is cut if that cell misses a
    target, and the best feasible one seeds the incumbent.  Vectors sharing
    a sent pattern share one count grid and are evaluated a chunk at a time;
    count vectors whose ceiling over cost cannot beat or tie the incumbent
    are cut (a whole vector when none is left): every MCS vector is skipped,
    cut or evaluated.  A vector's best cell replaces the incumbent when
    better, or on an exact tie when the vector is lexicographically first.
    ``stats`` counts the vectors skipped ("vectors_skipped") and cut by
    either test ("vectors_cut"), the count vectors evaluated ("leaves"), the
    (template, choice) level tables built ("tables") and the deficit grids
    they are read from, one per template and depth ("grids").  The cut sees
    the incumbents in batch order, so "vectors_cut" and "leaves" depend on
    that order; the plan does not, nor do the other counts, fixed by the
    choices the viable vectors send.

    A search whose set-up and level tables would exceed ``_MAX_ENTRIES``
    array entries is refused with a ``ValueError`` before anything is built.
    """
    # Per-user recovery depends only on the physical path: per window either
    # nothing received (off, or the user does not qualify) or a qualified
    # reception with a given capacity and count.  A window template (the
    # choice of each earlier window, 0 where nothing is received) fixes the
    # decode outcome of the next window over all count vectors, shared by all
    # MCS vectors and profiles: one level table per template and choice.
    layers = pr.layers
    L = layers.num_layers
    U = int(pr.report_counts.sum())
    required = np.array([_required_count(U, t) for t in layers.coverage_targets])
    budgets = pr.tb_budget
    mcs_choices = np.array([0] + sorted(pr.capacities))
    n_choices = len(mcs_choices)
    size = n_choices ** L * L + sum(n_choices ** (d + 1) * math.prod(
        max(b, 1) for b in budgets[:d + 1]) for d in range(L))
    if size > _MAX_ENTRIES:
        raise ValueError(f"exact search needs up to {size:,} array entries, over the "
                         f"limit of {_MAX_ENTRIES:,}")
    at_least = np.append(_at_least(pr.report_counts), 0)  # index 16 counts none
    sends = np.append(16, mcs_choices[1:])  # the MCS each choice sends, 16 where none is

    choice = _viable_vectors(sends, at_least, required, budgets)
    # the choices window j is read at: 0 and each one a viable vector sends there
    opts = [np.union1d(choice[:, j], 0) for j in range(L)]
    counts = [b if len(o) > 1 else 1 for b, o in zip(budgets, opts)]  # 1 if read only at 0
    templates = [math.prod(len(o) for o in opts[:d]) for d in range(L)] if len(choice) else []
    stats = {"mcs_vectors": n_choices ** L - 1,
             "vectors_skipped": n_choices ** L - 1 - len(choice), "vectors_cut": 0, "leaves": 0,
             "tables": sum(t * (len(o) - 1) for t, o in zip(templates, opts)),
             "grids": sum(templates)}
    if not len(choice):
        return _no_solution(pr, solver="direct", stats=stats)
    tables = _level_tables(layers.k, counts, [[pr.capacity(m) for m in mcs_choices[o[1:]]]
                                              for o in opts], pr.p_hat, pr.q_hat)

    def outcome(idx, cols):
        # profit and coverage verdict of each vector (a row of choice indices)
        # at its cells (columns cols[d] of tables[d]).  Profile i: users reporting
        # from the i-th lowest sent MCS up to the next qualify on the sent windows
        # up to it and share every probability.  An unsent window reads as MCS
        # 16, above every profile with users; empty profiles qualify nowhere
        m = sends[idx]
        bounds = np.sort(m, axis=1)[:, :(idx > 0).sum(axis=1).max(initial=0)]
        shares = -np.diff(at_least[bounds], axis=1, append=0).astype(np.min_scalar_type(U))
        # ``_qualifies`` per profile: an unsent window's 16 is covered by no report
        qualify = _qualifies(m[:, None, :], bounds[:, :, None]) & (shares > 0)[:, :, None]
        # window d's table row codes the position of each qualified
        # window's choice among opts, 0 elsewhere, over windows 0..d
        row = 0
        # deepest decoded window per profile: it yields every level up to it
        deepest = np.zeros(qualify.shape[:2] + cols[0].shape[-1:], dtype=np.int8)
        for d in range(L):
            digit = np.searchsorted(opts[d], idx[:, d])[:, None]
            row = row * len(opts[d]) + np.where(qualify[:, :, d], digit, 0)
            if idx[:, d].any():
                np.maximum(deepest, tables[d][row[:, :, None], cols[d][:, None]], out=deepest)
        met, profit = True, np.zeros(deepest.shape[::2], dtype=np.min_scalar_type(U * L))
        for level, need in enumerate(required.tolist()):
            covered = np.einsum("vp,vpc->vc", shares, deepest > level)
            met = met & (covered >= need)
            profit += covered
        return profit, met

    # the all-budget pass: ceilings, cuts and the first incumbent
    on = choice > 0
    top = on * (np.array(budgets) - 1)  # each window's count index, 0 where unsent
    spend = (top + on).sum(axis=1)
    ceilings, met = outcome(choice, [np.ravel_multi_index(top[:, :d + 1].T, counts[:d + 1])[:, None]
                                     for d in range(L)])
    stats["vectors_cut"] = int(np.count_nonzero(~met))
    choice, ceilings, spend = choice[met[:, 0]], ceilings[met].astype(np.int64), spend[met[:, 0]]
    if not len(choice):  # no vector has a feasible cell
        return _no_solution(pr, solver="direct", stats=stats)
    seed = np.argmax(ceilings / spend)  # any feasible cell is exact
    # the incumbent (row of choice, profit, cost, grid shape, flat cell): the
    # seed's row is past every vector's, so its own cell replaces it on the tie
    best = (len(choice), int(ceilings[seed]), int(spend[seed]), None, None)
    pattern = (choice > 0) @ (1 << np.arange(L)[::-1])  # sorts as the sent flags do
    for code in np.unique(pattern):
        # the count grid of the sent pattern, its cells in order of cost and
        # then of C order (the lexicographic count order)
        group = np.flatnonzero(pattern == code)
        sent = choice[group[0]] > 0
        shape = tuple(np.where(sent, budgets, 1).tolist())
        cost = sum(np.ix_(*(np.arange(1, n + 1) * s for n, s in zip(shape, sent)))).ravel()
        order = np.argsort(cost, kind="stable")
        cost = cost[order]
        # each cell's column in the level tables of each window
        cells = np.unravel_index(order, shape)
        cols = [np.ravel_multi_index(cells[:d + 1], counts[:d + 1]) for d in range(L)]
        step = max(1, _CHUNK // (sent.sum() * cost.size))
        for start in range(0, len(group), step):
            chunk = group[start:start + step]
            # live cells: count vectors (profit at most the ceiling) that may
            # beat or tie the incumbent, a prefix of the cost order; a tie
            # must stay, as a vector batched later may precede the incumbent's
            live = np.searchsorted(cost * max(best[1], 0), ceilings[chunk] * best[2], side="right")
            stats["vectors_cut"] += int(np.count_nonzero(live == 0))
            vecs, live = chunk[live > 0], live[live > 0]
            if not vecs.size:
                continue
            stats["leaves"] += int(live.sum())
            width = int(live.max())
            profit, feasible = outcome(choice[vecs], [c[None, :width] for c in cols])
            feasible &= np.arange(width) < live[:, None]
            # best ratio, then fewest blocks, then the first in count order:
            # the first best cell in cell order
            taus = np.where(feasible, profit / cost[:width], -1.0)
            picks = np.argmax(taus == taus.max(axis=1, keepdims=True), axis=1)
            for v in np.flatnonzero(feasible.any(axis=1)).tolist():
                row, p, c = int(vecs[v]), int(profit[v, picks[v]]), int(cost[picks[v]])
                if _better(p, c, *best[1:3]) or ((p, c) == best[1:3] and row < best[0]):
                    best = (row, p, c, shape, order[picks[v]])
    vi, _, _, shape, cell = best
    m_best = tuple(int(m) for m in mcs_choices[choice[vi]])
    counts_best = tuple(int(i) + (m > 0) for m, i in zip(m_best, np.unravel_index(cell, shape)))
    return AllocationSolution(**vars(evaluate_plan(pr, m_best, counts_best)), solver="direct",
                              stats=stats)


def solve_mrt(pr: AllocationProblem) -> AllocationSolution:
    """Uncoded multi-rate baseline.

    Each layer is sent on its own MCS, strictly increasing across layers, with
    the fixed lossless block count ceil(k_i / n_i); the search maximises the
    summed per-user quality metric (PSNR plateau times the probability that
    every block of the first ``l`` layers arrives) over all increasing MCS
    vectors from the capacity table.  ``_verdict`` judges the plan on the 16 report
    rows of that survival its search scored (``window_probs``), not the coded window DP.
    The counts do not read ``tb_budget``; ``_verdict`` flags each window over budget.
    """
    layers = pr.layers
    L = layers.num_layers
    mcs_list = sorted(pr.capacities)
    if L > len(mcs_list):
        raise ValueError(f"{L} layers cannot take strictly increasing MCS from "
                         f"{len(mcs_list)} table entries")
    idx = np.fromiter(chain.from_iterable(combinations(range(len(mcs_list)), L)),
                      np.intp).reshape(-1, L)  # (C, L)
    m_vecs = np.array(mcs_list)[idx]
    blocks = mrt_block_counts(layers, np.array([pr.capacity(m) for m in mcs_list])[idx])
    # MCS rise across layers, so a user qualifying on n windows (a prefix)
    # scores their survival at p_hat and loses every block after them
    survive = uncoded_survival(np.full(L, pr.p_hat), blocks)
    prefix = np.where(np.tri(L + 1, L, -1, dtype=bool), survive[:, None, :], 0.0)
    qualified = sum(_qualifies(m[:, None], np.arange(16)) for m in m_vecs.T)  # (C, 16) per report
    best_u = expected_psnr(layers, prefix)[np.arange(len(idx))[:, None], qualified]
    # summed report by report in order (cumsum is sequential; an empty bin
    # adds +0.0), so the first best vector wins ties as a running comparison would
    scores = np.cumsum(pr.report_counts * best_u, axis=-1)[:, -1]
    pick = int(np.argmax(scores))
    plan = _canonical_plan(pr, m_vecs[pick], blocks[pick])
    rows = prefix[pick, qualified[pick]]  # the rows the search scored, one per report
    return AllocationSolution(**vars(_verdict(pr, plan, rows)), solver="mrt")
