import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest

from ewcast import allocators
from ewcast.allocators import (
    AllocationProblem,
    check_feasibility,
    direct_uep_ram,
    evaluate_plan,
    heuristic_uep_ram,
    solve_mrt,
    solve_s1,
    solve_s2,
)
from ewcast.channel import CAPACITY_RATIO_PER_RBP, build_scenario
from ewcast.cli import DEFAULT_SC_CONFIG, DEFAULT_SFN_CONFIG
from ewcast.decode_prob import (
    LayerConfig,
    TransmissionPlan,
    advance_deficit,
    meets_qos,
    mrt_block_counts,
    receive_pmf,
    uncoded_survival,
    window_decode_probs,
)
from same_outputs import FIVE_LAYER_SC, SIX_LAYER_SC


def table(n_rbp):
    return {m: r * n_rbp for m, r in CAPACITY_RATIO_PER_RBP.items()}


def histogram(reports):
    """Users per reported MCS 0..15, as ``AllocationProblem.report_counts``."""
    return np.bincount(reports, minlength=16)


def small_problem(user_mcs, k=(4,), targets=(0.8,), budget=(6,), n_rbp=1,
                  p_hat=0.1, q_hat=0.9, psnr=None):
    layers = LayerConfig(k, psnr=psnr, coverage_targets=targets)
    return AllocationProblem(layers, tuple(user_mcs), tuple(budget),
                             table(n_rbp), p_hat, q_hat)


class TestAllocationProblem:
    @pytest.mark.parametrize("q_hat", [math.nan, 1.5, -1.0, 0.0])
    def test_rejects_q_hat_outside_unit_interval(self, q_hat):
        with pytest.raises(ValueError, match="q_hat"):
            small_problem([5], q_hat=q_hat)

    def test_rejects_report_outside_mcs_range(self):
        # non-integral reports are refused too, not truncated or read as 1 or 7
        layers = LayerConfig((4,), coverage_targets=(0.8,))
        for reports in ([0, 20, -3, 7, 9], [], [5.7, 9.2], [True, 9], ["7"], [math.nan],
                        [7, math.nan], np.array([5.0, 9.0]), np.array([True, False])):
            with pytest.raises(ValueError, match="user_mcs"):
                AllocationProblem(layers, reports, (6,), table(1))

    @pytest.mark.parametrize("layers, budget, message", [
        (LayerConfig((4, 2), coverage_targets=(0.8, 0.5)), (6,),
         "one block budget per window is required"),
        (LayerConfig((4,), coverage_targets=(0.8,)), (6, 6),
         "one block budget per window is required"),
        (LayerConfig((4,)), (6,), "layer configuration carries no coverage targets"),
        # a negative budget would reach the solvers as an index or an array size
        (LayerConfig((4,), coverage_targets=(0.8,)), (-1,),
         "tb_budget must hold counts >= 0, got (-1,)"),
    ])
    def test_refusals_name_the_rule(self, layers, budget, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AllocationProblem(layers, (5, 9), budget, table(1))

    def test_rejects_non_integral_budget(self):
        with pytest.raises(ValueError, match="tb_budget"):
            small_problem([5, 9], budget=(6.9,))

    def test_rejects_bad_capacities_by_name(self):
        # non-integral or negative counts, and keys that are no MCS in [1, 15]
        layers = LayerConfig((4,), coverage_targets=(0.8,))
        for caps in ({5: 2.5}, {5: True}, {5: -3}, {20: 3, 5: 2}, {"5": 3, 6: 2}, {0: 3},
                     {5.0: 3}):
            with pytest.raises(ValueError, match="capacities"):
                AllocationProblem(layers, [5, 9], (6,), caps)

    def test_accepts_python_and_numpy_integers(self):
        layers = LayerConfig((4,), coverage_targets=(0.8,))
        for reports in ([5, 9, 9], (np.int64(5), 9, np.int32(9)), np.array([5, 9, 9], np.uint8)):
            pr = AllocationProblem(layers, reports, (np.int64(6),), table(1))
            assert pr.report_counts.tolist() == histogram([5, 9, 9]).tolist()
            assert pr.tb_budget == (6,) and type(pr.tb_budget[0]) is int
        # a count of 0 marks an unusable MCS
        pr = AllocationProblem(layers, [5, 9], (6,), {np.int64(5): np.int32(3), 9: 0})
        assert pr.capacities == {5: 3, 9: 0}
        assert {type(v) for v in (*pr.capacities, *pr.capacities.values())} == {int}

    def test_q_hat_of_one_accepted(self):
        assert small_problem([5], q_hat=1.0).q_hat == 1.0


class TestSolveS1:
    def test_two_of_three_users(self):
        assert solve_s1(histogram((5, 7, 10)), 0.66) == 7

    def test_all_users_required(self):
        assert solve_s1(histogram((5, 7, 10)), 1.0) == 5

    def test_homogeneous_top(self):
        assert solve_s1(histogram((15, 15, 15)), 0.8) == 15

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            solve_s1((), 0.5)

    def test_fraction_above_one_unservable(self):
        assert solve_s1(histogram((9, 9)), 1.2) is None

    def test_exact_boundary_counts(self):
        # 0.8 of 40 = 32 users exactly: boundary must qualify
        reports = [10] * 32 + [1] * 8
        assert solve_s1(histogram(reports), 0.8) == 10


def deficit(k, caps, counts, p_hat=0.1):
    """Deficit distribution after windows of ``k`` fresh elements sent as
    ``counts`` blocks of ``caps`` elements, from a start with no deficit."""
    dist = np.ones(1)
    for k_i, cap, count in zip(k, caps, counts):
        dist = advance_deficit(dist, k_i, cap, receive_pmf(count, p_hat))
    return dist


class TestSolveS2:
    def test_minimum_count_reaching_threshold(self):
        assert solve_s2(np.ones(1), 4, 2, 10, 0.1, 0.95) == 3

    def test_zero_threshold_needs_nothing(self):
        assert solve_s2(np.ones(1), 4, 2, 10, 0.1, 0.0) == 0

    def test_budget_too_small(self):
        assert solve_s2(np.ones(1), 4, 2, 2, 0.1, 0.9999) is None

    def test_prefix_supply_reduces_requirement(self):
        lone = solve_s2(deficit([4], [2], [0]), 4, 2, 30, 0.1, 0.9)
        helped = solve_s2(deficit([4], [2], [6]), 4, 2, 30, 0.1, 0.9)
        assert helped < lone

    def test_result_meets_threshold_and_is_minimal(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            L = int(rng.integers(1, 4))
            k = tuple(int(v) for v in rng.integers(1, 9, L))
            caps = [int(v) for v in rng.integers(1, 6, L)]
            prefix = [int(v) for v in rng.integers(0, 6, L - 1)]
            layers = LayerConfig(k)
            found = solve_s2(deficit(k, caps, prefix), k[-1], caps[-1], 25, 0.1, 0.95)
            if found is None:
                continue
            plan = TransmissionPlan((0,) * L, tuple(prefix + [found]), tuple(caps))
            probs = window_decode_probs(layers, plan, [0.1] * L)
            assert probs[L - 1] >= 0.95 - 1e-9
            if found > 0:
                lesser = TransmissionPlan((0,) * L, tuple(prefix + [found - 1]), tuple(caps))
                assert window_decode_probs(layers, lesser, [0.1] * L)[L - 1] < 0.95


class TestHeuristic:
    def test_homogeneous_users_feasible(self):
        pr = small_problem([10] * 12, k=(2, 6), targets=(0.99, 0.6),
                           budget=(8, 12), q_hat=0.99)
        sol = heuristic_uep_ram(pr)
        assert sol.feasible
        assert sol.tau > 0
        assert check_feasibility(sol, pr).feasible

    def test_no_budget_no_solution(self):
        pr = small_problem([1] * 5, budget=(0,))
        sol = heuristic_uep_ram(pr)
        assert not sol.feasible
        assert sol.plan.tb_counts == (0,)

    def test_deterministic(self):
        pr = small_problem([4, 7, 9, 12, 15] * 4, k=(2, 5, 12),
                           targets=(0.95, 0.7, 0.5), budget=(4, 6, 10))
        a = heuristic_uep_ram(pr)
        b = heuristic_uep_ram(pr)
        assert a.plan == b.plan and a.tau == b.tau

    def test_refinement_never_costs_more(self, solver_battery):
        for _, heuristic, _ in solver_battery:
            if heuristic.feasible:
                assert heuristic.cost <= heuristic.intermediate_tb_total

    def test_intermediate_cost_matches_a_literal_pass(self, solver_battery):
        # the greedy's pass at its returned skip level, rebuilt from the
        # definitions: S1 by counting the users reporting each MCS or more,
        # S2 by growing the block count until window_decode_probs of the
        # plan so far meets the threshold
        for problem, heuristic, _ in solver_battery:
            if not heuristic.feasible:
                continue
            layers, skip = problem.layers, heuristic.skipped_windows
            L = layers.num_layers
            U = int(problem.report_counts.sum())
            mcs, counts = [0] * L, [0] * L
            for i in range(skip, L):
                need = math.ceil(U * layers.coverage_targets[0 if i == skip else i] - 1e-9)
                mcs[i] = max((m for m in range(1, 16) if problem.report_counts[m:].sum() >= need),
                             default=0)
                caps = tuple(problem.capacity(m) for m in mcs)
                if caps[i] < 1:
                    continue
                for n in range(problem.tb_budget[i] + 1):
                    counts[i] = n
                    plan = TransmissionPlan(tuple(mcs), tuple(counts), caps)
                    probs = window_decode_probs(layers, plan, [problem.p_hat] * L)
                    if probs[i] >= problem.q_hat - 1e-12:
                        break
                else:
                    counts[i] = 0
            assert sum(counts) == heuristic.intermediate_tb_total

    def test_skip_concentrates_on_deep_window(self):
        # tiny base layers, deep final window: expect skipped windows
        pr = small_problem([8] * 10, k=(1, 1, 20), targets=(0.99, 0.8, 0.6),
                           budget=(2, 2, 14), q_hat=0.99)
        sol = heuristic_uep_ram(pr)
        assert sol.feasible
        assert sol.skipped_windows >= 1
        assert sol.plan.tb_counts[0] == 0


    @pytest.mark.parametrize("budget, plan, skip", [
        ((8, 0), ((10, 0), (2, 0)), 0), ((8, 3), ((0, 10), (0, 2)), 1)])
    def test_deepest_target_of_no_users_keeps_its_plan(self, budget, plan, skip):
        # a deepest target of 1e-12 needs 0 of 12 users, so a plan with no
        # deepest block is still evaluated: with no budget there, it is the
        # plan found at skip 0 (pinned from the greedy that evaluated every
        # skip level)
        pr = small_problem([10] * 12, k=(2, 6), targets=(0.99, 1e-12), budget=budget,
                           q_hat=0.99)
        sol = heuristic_uep_ram(pr)
        assert sol.feasible and sol.skipped_windows == skip
        assert (sol.plan.mcs, sol.plan.tb_counts) == plan
        assert sol.intermediate_tb_total == 2


    @pytest.mark.parametrize("budget", [(8, 3), (8, 0), (4, 6)])
    def test_threshold_at_the_float_grace_keeps_its_plan(self, budget):
        # q_hat 1e-13 is within the 1e-12 grace of probability 0, so every
        # user meets every level whatever is sent: the all-zero plan of skip
        # L-1 is feasible and returned (pinned from the greedy that evaluated
        # every skip level)
        pr = small_problem([6, 9, 12] * 4, k=(2, 6), targets=(0.99, 0.5), budget=budget,
                           q_hat=1e-13)
        sol = heuristic_uep_ram(pr)
        assert sol.feasible and sol.skipped_windows == 1
        assert (sol.plan.mcs, sol.plan.tb_counts) == ((0, 0), (0, 0))
        assert sol.intermediate_tb_total == 0 and sol.layer_counts.tolist() == [12, 12]


class TestDirect:
    def test_exhaustive_dominates_heuristic(self, solver_battery):
        for _, heuristic, reference in solver_battery:
            if heuristic.feasible:
                assert (reference.profit * heuristic.cost
                        >= heuristic.profit * reference.cost)

    def test_tiny_instance_equals_hand_enumeration(self):
        reports = [4, 9]
        pr = small_problem(reports, k=(4,), targets=(0.5,), budget=(5,),
                           n_rbp=1, q_hat=0.9)
        best_tau, best = -1.0, None
        for m, count in product(sorted(pr.capacities), range(1, 6)):
            n = pr.capacities[m]
            needed = math.ceil(4 / n)
            prob = sum(
                math.comb(count, r) * 0.9 ** r * 0.1 ** (count - r)
                for r in range(needed, count + 1)
            )
            covered = sum(1 for u in reports if m <= u) if prob >= 0.9 - 1e-12 else 0
            if covered < math.ceil(0.5 * len(reports)):
                continue
            tau = covered / count
            if tau > best_tau:
                best_tau, best = tau, (m, count)
        sol = direct_uep_ram(pr)
        assert sol.feasible
        assert sol.tau == pytest.approx(best_tau)
        assert (sol.plan.mcs[0], sol.plan.tb_counts[0]) == best

    @pytest.mark.parametrize("seed, depth, instances, min_feasible, mcs_count, budget", [
        (5150, (1, 3), 60, 25, (3, 5), (1, 4)),
        (5151, (3, 4), 16, 5, (3, 4), (1, 3)),
        (5152, (4, 5), 8, 3, (3, 4), (1, 3)),
    ], ids=["L1-2", "L3", "L4"])
    def test_matches_brute_force_on_shrunk_instances(self, seed, depth, instances,
                                                     min_feasible, mcs_count, budget):
        # the last two cases reach the four layers of the SFN default
        rng = np.random.default_rng(seed)
        feasible = 0
        for _ in range(instances):
            L = int(rng.integers(*depth))
            mcs = sorted(int(m) for m in rng.choice(np.arange(1, 13), int(rng.integers(*mcs_count)),
                                                    replace=False))
            caps = dict(zip(mcs, sorted(int(c) for c in rng.integers(1, 7, len(mcs)))))
            targets = sorted((float(t) for t in rng.uniform(0.2, 0.8, L)), reverse=True)
            layers = LayerConfig(tuple(int(v) for v in rng.integers(1, 7, L)),
                                 coverage_targets=targets)
            pr = AllocationProblem(layers, tuple(int(u) for u in rng.integers(6, 16, 8)),
                                   tuple(int(b) for b in rng.integers(*budget, L)), caps,
                                   float(rng.choice([0.05, 0.1])),
                                   float(rng.choice([0.9, 0.99])))
            best = brute_force_optimum(pr)
            sol = direct_uep_ram(pr)
            assert sol.feasible == (best is not None)
            if best is not None:
                feasible += 1
                assert (sol.plan.mcs, sol.plan.tb_counts) == best
        assert feasible >= min_feasible

    @pytest.mark.parametrize("budget", [(0,), (0, 4), (4, 0)])
    def test_window_without_budget_matches_brute_force(self, budget):
        # a window of budget 0 has no count to send: only plans that leave
        # it off remain, and with none of those a solve finds nothing
        pr = small_problem([9] * 5, k=(2,) * len(budget), targets=(0.5,) * len(budget),
                           budget=budget)
        best, sol = brute_force_optimum(pr), direct_uep_ram(pr)
        assert sol.feasible == (best is not None)
        if best is not None:
            assert (sol.plan.mcs, sol.plan.tb_counts) == best

    def test_equal_tau_and_cost_takes_first_plan(self):
        # across MCS vectors: MCS 3 and 7 carry equal blocks and every user
        # qualifies on both
        pr = AllocationProblem(LayerConfig((4,), coverage_targets=(0.5,)), (9,) * 6,
                               (4,), {3: 2, 7: 2}, 0.01, 0.9)
        taus = {(m, c): Fraction(evaluate_plan(pr, (m,), (c,)).profit, c)
                for m in (3, 7) for c in (2, 3)}
        assert taus[(3, 2)] == taus[(7, 2)] == max(taus.values())
        sol = direct_uep_ram(pr)
        assert (sol.plan.mcs, sol.plan.tb_counts) == ((3,), (2,)) == brute_force_optimum(pr)
        # within one MCS vector: counts (1, 3) and (2, 2) reach the same profit
        pr = AllocationProblem(LayerConfig((6, 1), coverage_targets=(0.7, 0.6)),
                               (11, 11, 7, 8, 13, 8, 8, 12), (3, 3), {4: 1, 6: 3, 9: 3},
                               0.05, 0.9)
        assert (evaluate_plan(pr, (4, 6), (1, 3)).profit
                == evaluate_plan(pr, (4, 6), (2, 2)).profit == 16)
        sol = direct_uep_ram(pr)
        assert (sol.plan.mcs, sol.plan.tb_counts) == ((4, 6), (1, 3)) == brute_force_optimum(pr)

    def test_equal_tau_takes_fewer_blocks(self):
        # across MCS vectors: ten users decode MCS 3 with 4 blocks, five of
        # them MCS 7 with 2
        pr = AllocationProblem(LayerConfig((4,), coverage_targets=(0.5,)),
                               (5,) * 5 + (9,) * 5, (4,), {3: 1, 7: 2}, 0.01, 0.9)
        assert (Fraction(evaluate_plan(pr, (3,), (4,)).profit, 4)
                == Fraction(evaluate_plan(pr, (7,), (2,)).profit, 2) == Fraction(5, 2))
        sol = direct_uep_ram(pr)
        assert (sol.plan.mcs, sol.plan.tb_counts) == ((7,), (2,)) == brute_force_optimum(pr)
        # within one MCS vector: counts (1, 3) and (2, 3) both reach tau 2
        pr = AllocationProblem(LayerConfig((1, 3), coverage_targets=(0.55, 0.4)),
                               (6, 11, 13, 4, 4, 11), (2, 3), {1: 2, 6: 3, 12: 3}, 0.1, 0.99)
        assert (Fraction(evaluate_plan(pr, (1, 6), (1, 3)).profit, 4)
                == Fraction(evaluate_plan(pr, (1, 6), (2, 3)).profit, 5) == 2)
        sol = direct_uep_ram(pr)
        assert (sol.plan.mcs, sol.plan.tb_counts) == ((1, 6), (1, 3)) == brute_force_optimum(pr)

    def test_tie_across_patterns_takes_first_vector(self):
        # (5, 7, 7) and (7, 0, 7) both reach profit 15 at cost 5, the best
        # ratio.  The search batches the pattern (on, off, on) before (on,
        # on, on), so it meets (7, 0, 7) first: its cut must keep a cost
        # that only ties that incumbent (the ceiling of (5, 7, 7) is its
        # profit, so a cut at exactly ceiling * 5 / 15 drops the tie), and
        # the final pick must take the lexicographically first vector.  Two
        # layers cannot show this: every viable vector sends window 2, and
        # each (0, m) both precedes and is batched before each (m', m).
        pr = AllocationProblem(LayerConfig((4, 1, 2), coverage_targets=(0.75, 0.5, 0.45)),
                               (7, 7, 7, 15, 7), (3, 1, 2), {5: 1, 7: 3}, 0.05, 0.99)
        first, later = ((5, 7, 7), (2, 1, 2)), ((7, 0, 7), (3, 0, 2))
        for mcs, counts in (first, later):
            ev = evaluate_plan(pr, mcs, counts)
            assert ev.feasible and (ev.profit, ev.cost) == (15, 5)
        sol = direct_uep_ram(pr)
        assert (sol.plan.mcs, sol.plan.tb_counts) == first == brute_force_optimum(pr)

    @pytest.mark.parametrize("chunk, draws", [(1, 5), (3000, None)])
    def test_chunk_bound_leaves_plan_unchanged(self, monkeypatch, solver_battery, chunk,
                                               draws):
        # 1 evaluates one MCS vector at a time (slow, so on five 3-layer
        # draws); 3000 splits the all-sent pattern of the SFN default at
        # n_rbp=5 (32 cells, four profiles per vector) into chunks of 23
        # vectors, and that of each 3-layer draw into chunks of a few
        cases = [(build_scenario(dict(DEFAULT_SFN_CONFIG, n_rbp=5)).problem,
                  ((0, 0, 5, 9), (0, 0, 2, 2), 1688, 4))]
        cases += [(problem, (ref.plan.mcs, ref.plan.tb_counts, ref.profit, ref.cost))
                  for problem, _, ref in solver_battery if problem.layers.num_layers == 3][:draws]
        assert len(cases) >= 6
        monkeypatch.setattr(allocators, "_CHUNK", chunk)
        for problem, expected in cases:
            sol = direct_uep_ram(problem)
            assert sol.feasible
            assert (sol.plan.mcs, sol.plan.tb_counts, sol.profit, sol.cost) == expected

    def test_stats_count_both_prunes(self):
        config = dict(DEFAULT_SFN_CONFIG, n_rbp=5,
                      users={"pattern": "grid", "count": 49, "step_m": 100.0})
        problem = build_scenario(config).problem
        sol = direct_uep_ram(problem)
        stats = sol.stats
        assert stats["mcs_vectors"] == (len(problem.capacities) + 1) ** 4 - 1
        assert 0 < stats["vectors_skipped"] < stats["mcs_vectors"]
        assert stats["vectors_cut"] > 0
        assert stats["leaves"] > 0 and stats["tables"] > 0 and stats["grids"] > 1
        assert sol.feasible
        assert heuristic_uep_ram(problem).stats == {}

    def test_five_layer_stream_plan_and_memory(self):
        # 371,292 MCS vectors, of which the suffix walk builds only the
        # 51,196 viable ones (the full product held about 58 MB here): the
        # level tables hold about 53 MB of int8, and the last depth's deficit
        # grids, about 200 MB whole, are formed a block at a time
        problem = build_scenario(FIVE_LAYER_SC).problem
        assert problem.tb_budget == (2, 2, 2, 3, 6)
        tracemalloc.start()
        try:
            sol = direct_uep_ram(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.feasible
        assert (sol.plan.mcs, sol.plan.tb_counts, sol.profit, sol.cost) == (
            (0, 4, 0, 0, 6), (0, 2, 0, 0, 5), 352, 7)
        assert sol.stats == {"mcs_vectors": 371_292, "vectors_skipped": 320_096,
                             "vectors_cut": 48_074, "leaves": 49_911, "tables": 171_365,
                             "grids": 30_941}
        assert peak < 64 * 2**20

    def test_oversized_search_refused_before_building(self):
        # six layers: 13^6 MCS vectors, and level tables of up to 2.8e9 entries
        problem = build_scenario(SIX_LAYER_SC).problem
        assert problem.tb_budget == (2, 2, 2, 3, 4, 6)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"2,845,550,708 array entries, over the "
                                                 r"limit of 100,000,000"):
                direct_uep_ram(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("chunk", [None, 1])
    def test_level_tables_match_window_decode_probs(self, monkeypatch, solver_battery, chunk):
        # (template, own choice, count vector) entries against one receiver's
        # window_decode_probs, which loses every block of a window it
        # receives nothing on: 100 random entries where each window is read
        # at a random subset of the capacity table, and every entry of a
        # small-block case where earlier windows carry a deficit forward
        if chunk is not None:
            monkeypatch.setattr(allocators, "_CHUNK", chunk)
        rng = np.random.default_rng(1717)
        cases = [(build_scenario(dict(DEFAULT_SFN_CONFIG, n_rbp=2)).problem, None)]
        cases += [(problem, None) for problem, _, _ in solver_battery[:40:8]]
        cases.append((small_problem([9] * 5, k=(5, 6, 7), targets=(0.8, 0.6, 0.5),
                                    budget=(4, 5, 4)), [[2, 3], [2, 5], [3]]))
        outcomes = set()
        for pr, caps in cases:
            L, k, counts = pr.layers.num_layers, pr.layers.k, list(pr.tb_budget)
            every = caps is not None
            if not every:
                caps = [[pr.capacities[m] for m in sorted(rng.choice(
                            sorted(pr.capacities), int(rng.integers(1, 4)), replace=False))]
                        for _ in range(L)]
            radix = [len(c) + 1 for c in caps]
            tables = allocators._level_tables(k, counts, caps, pr.p_hat, pr.q_hat)
            shapes = [(math.prod(radix[:d + 1]), math.prod(counts[:d + 1])) for d in range(L)]
            assert [t.shape for t in tables] == shapes
            if every:
                entries = [(d, *ix) for d in range(L) for ix in np.ndindex(shapes[d])]
            else:
                entries = [(d, *(int(rng.integers(n)) for n in shapes[d]))
                           for d in rng.integers(L, size=100).tolist()]
            for d, row, col in entries:
                choices = np.unravel_index(row, radix[:d + 1])
                cells = np.unravel_index(col, counts[:d + 1])
                plan = TransmissionPlan(
                    (0,) * (d + 1), tuple(int(c) + 1 for c in cells),
                    tuple(caps[j][c - 1] if c else 1 for j, c in enumerate(choices)))
                loss = [pr.p_hat if c else 1.0 for c in choices]
                prob = window_decode_probs(LayerConfig(k[:d + 1]), plan, loss)[d]
                expected = d + 1 if choices[d] and prob >= pr.q_hat - 1e-12 else 0
                assert tables[d][row, col] == expected, (d, row, col, prob)
                outcomes.add(expected > 0)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("n_rbp, direct, heuristic", [
        (2, ((0, 5, 0, 9), (0, 2, 0, 4), 1628, 6), ((0, 5, 0, 10), (0, 2, 0, 4), 1576, 6)),
        (5, ((0, 0, 5, 9), (0, 0, 2, 2), 1688, 4), ((0, 0, 5, 11), (0, 0, 2, 2), 1628, 4)),
    ], ids=["n_rbp2", "n_rbp5"])
    def test_four_layer_sfn_default_plans(self, n_rbp, direct, heuristic):
        # the full 4-layer exact path on the SFN default, pinned to its plans
        problem = build_scenario(dict(DEFAULT_SFN_CONFIG, n_rbp=n_rbp)).problem
        for solver, expected in ((direct_uep_ram, direct), (heuristic_uep_ram, heuristic)):
            sol = solver(problem)
            assert sol.feasible
            assert (sol.plan.mcs, sol.plan.tb_counts, sol.profit, sol.cost) == expected


def brute_force_optimum(pr: AllocationProblem):
    """Independent oracle: evaluate_plan on every canonical assignment, best
    by (-tau, cost, mcs, counts); None when nothing is feasible."""
    options = [[(0, 0)] + [(m, c) for m in sorted(pr.capacities) for c in range(1, b + 1)]
               for b in pr.tb_budget]
    best = None
    for assignment in product(*options):
        mcs, counts = zip(*assignment)
        if sum(counts) == 0:
            continue
        ev = evaluate_plan(pr, mcs, counts)
        if ev.feasible:
            key = (-Fraction(ev.profit, ev.cost), ev.cost, mcs, counts)
            best = key if best is None else min(best, key)
    return None if best is None else (best[2], best[3])


class TestMrt:
    def test_missing_psnr_refused_by_name(self):
        # the PSNR plateaus weigh the survival of each level
        with pytest.raises(ValueError, match="^layer configuration carries no PSNR plateaus$"):
            solve_mrt(small_problem([5, 9], budget=(9,)))

    def test_single_layer_best_tradeoff(self):
        psnr = (30.0,)
        reports = [5, 5, 12]
        pr = small_problem(reports, k=(8,), targets=(0.5,), budget=(20,),
                           psnr=psnr, n_rbp=1)
        sol = solve_mrt(pr)
        best = None
        for m in sorted(pr.capacities):
            blocks = math.ceil(8 / pr.capacities[m])
            score = sum(30.0 * 0.9 ** blocks for u in reports if m <= u)
            if best is None or score > best[0]:
                best = (score, m, blocks)
        assert sol.plan.mcs[0] == best[1]
        assert sol.plan.tb_counts[0] == best[2]

    def test_two_layer_hand_enumeration(self):
        psnr = (28.0, 40.0)
        reports = [5, 8, 11]
        pr = small_problem(reports, k=(3, 6), targets=(0.9, 0.5),
                           budget=(9, 9), psnr=psnr, n_rbp=1)
        best = None
        for m1, m2 in product(sorted(pr.capacities), repeat=2):
            if not m1 < m2:
                continue
            n1, n2 = pr.capacities[m1], pr.capacities[m2]
            b1, b2 = math.ceil(3 / n1), math.ceil(6 / n2)
            score = 0.0
            for u in reports:
                s1 = 0.9 ** b1 if m1 <= u else 0.0
                s2 = s1 * (0.9 ** b2 if m2 <= u else 0.0)
                score += max(28.0 * s1, 40.0 * s2)
            if best is None or score > best[0]:
                best = (score, (m1, m2), (b1, b2))
        sol = solve_mrt(pr)
        assert sol.plan.mcs == best[1]
        assert sol.plan.tb_counts == best[2]

    def test_strictly_increasing_mcs(self):
        psnr = (28.0, 34.0, 40.0)
        pr = small_problem([4, 7, 9, 13] * 5, k=(2, 5, 11),
                           targets=(0.9, 0.7, 0.5), budget=(9, 9, 9), psnr=psnr)
        sol = solve_mrt(pr)
        assert all(a < b for a, b in zip(sol.plan.mcs, sol.plan.mcs[1:]))

    def test_homogeneous_users_scale_invariant(self):
        psnr = (28.0, 40.0)
        base = small_problem([9, 9, 9], k=(3, 6), targets=(0.9, 0.5),
                             budget=(9, 9), psnr=psnr)
        tripled = small_problem([9] * 9, k=(3, 6), targets=(0.9, 0.5),
                                budget=(9, 9), psnr=psnr)
        assert solve_mrt(base).plan == solve_mrt(tripled).plan

    def test_too_many_layers(self):
        psnr = tuple(range(20, 33))
        pr = small_problem([9] * 3, k=(1,) * 13, targets=(0.9,) * 13,
                           budget=(2,) * 13, psnr=psnr)
        with pytest.raises(ValueError):
            solve_mrt(pr)


    @staticmethod
    def loop_over_combinations(pr):
        """(score, plan, rows) of every strictly increasing MCS vector, in the
        order of ``itertools.combinations``, each scored by a per-report loop;
        ``rows[report][l]`` is the chance that every block of levels 1..l+1
        reaches a user with that report."""
        k, psnr = pr.layers.k, pr.layers.psnr
        scored = []
        for mcs in combinations(sorted(pr.capacities), len(k)):
            caps = [pr.capacities[m] for m in mcs]
            blocks = tuple(-(-ki // n) if n >= 1 else 0 for ki, n in zip(k, caps))
            survive, run = [], 1.0
            for b in blocks:
                run *= (1.0 - pr.p_hat) ** b if b > 0 else 0.0
                survive.append(run)
            score, rows = 0.0, []
            for report, users in enumerate(pr.report_counts.tolist()):
                reached = sum(m <= report for m in mcs)  # a prefix: the MCS rise
                score += users * max([0.0] + [psnr[lv] * survive[lv] for lv in range(reached)])
                rows.append([survive[lv] if lv < reached else 0.0 for lv in range(len(k))])
            plan = (tuple(m if b else 0 for m, b in zip(mcs, blocks)), blocks)
            scored.append((score, plan, rows))
        return scored

    @staticmethod
    def draws(seed, count=15):
        """``count`` random problems, some with capacities repeated across MCS
        (and so tied vectors) or zero."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            L = int(rng.integers(1, 4))
            pool = rng.integers(0 if seed % 2 else 1, 12, size=int(rng.integers(1, 5)))
            caps = {m: int(rng.choice(pool)) for m in range(1, 16)}
            reports = rng.integers(1, 16, int(rng.integers(1, 30)))
            if seed >= 4:
                reports[:] = 15  # every user qualifies everywhere: ties on equal blocks
            layers = LayerConfig(tuple(rng.integers(1, 30, L).tolist()),
                                 psnr=tuple(np.sort(rng.uniform(20.0, 45.0, L)).tolist()),
                                 coverage_targets=(0.5,) * L)
            yield AllocationProblem(layers, reports, (9,) * L, caps, float(rng.uniform(0, 0.5)))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_loop_over_combinations(self, seed):
        # the first best vector of the loop wins
        for pr in self.draws(seed):
            scored = self.loop_over_combinations(pr)
            best = max(score for score, *_ in scored)
            first = next(plan for score, plan, _ in scored if score == best)
            sol = solve_mrt(pr)
            assert (sol.plan.mcs, sol.plan.tb_counts) == first

    def test_verdict_rows_are_the_rows_the_search_scored(self):
        # the first draw of seed 114: survival powers taken over a (16, L) verdict
        # layout read the report-15 row 1 ulp (5.55e-17) away from the row of
        # the (vectors, L) table the search scored the picked vector by
        pr = next(self.draws(114))
        L = pr.layers.num_layers
        vectors = list(combinations(sorted(pr.capacities), L))
        blocks = mrt_block_counts(pr.layers, [[pr.capacities[m] for m in v] for v in vectors])
        survive = uncoded_survival(np.full(L, pr.p_hat), blocks)
        sol = solve_mrt(pr)
        row = survive[vectors.index(sol.plan.mcs)]
        for report in range(16):
            reached = sum(0 < m <= report for m in sol.plan.mcs)  # a prefix: the MCS rise
            want = np.where(np.arange(L) < reached, row, 0.0)
            assert sol.window_probs[report].tobytes() == want.tobytes(), report

    @pytest.mark.parametrize("seed", range(4))
    def test_verdict_reads_the_plans_own_survival(self, seed):
        # the plan is judged by its uncoded survival per report, not by the coded
        # window DP; at small losses (p_hat <= 0.01 in three draws of four) that
        # survival meets q_hat on some levels, where the coded chances can meet it on more
        rng = np.random.default_rng(seed)
        for _ in range(20):
            L = int(rng.integers(1, 4))
            caps = {m: int(rng.integers(0 if seed % 2 else 1, 12)) for m in range(1, 16)}
            reports = rng.integers(1, 16, int(rng.integers(1, 30)))
            layers = LayerConfig(tuple(rng.integers(1, 30, L).tolist()),
                                 psnr=tuple(np.sort(rng.uniform(20.0, 45.0, L)).tolist()),
                                 coverage_targets=(0.5,) * L)
            p_hat = float(rng.choice([0.0, rng.uniform(0.0, 0.01), rng.uniform(0.0, 0.003),
                                      rng.uniform(0.0, 0.5)]))
            pr = AllocationProblem(layers, reports, (9,) * L, caps, p_hat,
                                   float(rng.choice([0.9, 0.99])))
            sol = solve_mrt(pr)
            rows = next(rows for _, plan, rows in self.loop_over_combinations(pr)
                        if plan == (sol.plan.mcs, sol.plan.tb_counts))
            assert sol.window_probs.shape == (16, L)
            assert np.abs(sol.window_probs - np.array(rows)).max() <= 1e-15
            met = np.array(rows) >= pr.q_hat - 1e-12  # survival falls with the level
            users = pr.report_counts.tolist()
            assert sol.layer_counts.tolist() == [sum(u for u, row in zip(users, met) if row[lv])
                                                 for lv in range(L)]


class TestCheckFeasibility:
    def test_battery_round_trip(self, solver_battery):
        for problem, heuristic, reference in solver_battery:
            if heuristic.feasible:
                assert check_feasibility(heuristic, problem).feasible
            assert check_feasibility(reference, problem).feasible

    def test_baseline_solution_refused_by_name(self):
        # the SC default at p_hat 0.003: the baseline's own verdict misses a
        # target, where the coded DP on its plan would read it feasible
        pr = build_scenario(dict(DEFAULT_SC_CONFIG, p_hat=0.003)).problem
        mrt = solve_mrt(pr)
        assert not mrt.feasible and evaluate_plan(pr, mrt.plan.mcs, mrt.plan.tb_counts).feasible
        with pytest.raises(ValueError, match='^solver="mrt": '):
            check_feasibility(mrt, pr)

    def test_budget_violation_flagged(self):
        pr = small_problem([10] * 10, k=(2,), targets=(0.5,), budget=(3,))
        sol = heuristic_uep_ram(pr)
        assert sol.feasible
        bloated = TransmissionPlan(sol.plan.mcs, (pr.tb_budget[0] + 1,),
                                   sol.plan.elements_per_tb)
        report = check_feasibility(replace(sol, plan=bloated), pr)
        assert not report.feasible
        assert any("block count" in v for v in report.violations)

    def test_coverage_and_budget_violations_named(self):
        # one user in three reports MCS 12: layer 1 misses its 0.6 target,
        # layer 2 meets its 0.3, and window 1 carries one block too many
        pr = small_problem([6, 9, 12], k=(2, 4), targets=(0.6, 0.3), budget=(4, 6))
        ev = evaluate_plan(pr, (12, 12), (5, 6))
        assert ev.layer_counts.tolist() == [1, 1]
        assert ev.violations == ("layer 1: coverage 0.3333 < target 0.6000",
                                 "window 1: block count 5 outside [0, 4]")
        assert not ev.feasible
        sol = replace(heuristic_uep_ram(pr), plan=ev.plan)
        assert check_feasibility(sol, pr).violations == ev.violations

    def test_coverage_boundary_is_inclusive(self):
        # exactly U * t users covered: feasible under >=, not >
        pr = small_problem([10] * 5 + [1] * 5, k=(2,), targets=(0.5,),
                           budget=(6,), q_hat=0.9)
        sol = heuristic_uep_ram(pr)
        report = check_feasibility(sol, pr)
        assert sol.feasible and report.feasible
        assert report.layer_fractions[0] == pytest.approx(0.5)

    def test_scenario_problem_accepted(self):
        scenario = build_scenario({
            "mode": "SC", "stream_preset": "A", "n_rbp": 5,
            "users": {"pattern": "radial", "count": 24, "step_m": 6.0, "start_m": 90.0},
        })
        sol = heuristic_uep_ram(scenario.problem)
        assert sol.feasible
        assert check_feasibility(sol, scenario.problem).feasible


class TestEvaluatePlan:
    def test_million_reports_share_the_rows_of_the_default(self):
        # the SFN default's 441 reports resampled to 10^6: the problem keeps
        # 16 counts, and the plan's rows do not depend on them
        base = build_scenario(dict(DEFAULT_SFN_CONFIG, n_rbp=5)).problem
        reports = np.repeat(np.arange(16), base.report_counts)
        big = AllocationProblem(base.layers, np.random.default_rng(7).choice(reports, 10**6),
                                base.tb_budget, base.capacities, base.p_hat, base.q_hat)
        assert big.report_counts.shape == (16,) and big.report_counts.sum() == 10**6
        assert not hasattr(big, "user_mcs")
        assert all(np.size(value) <= 16 for value in vars(big).values())
        plan = heuristic_uep_ram(base).plan
        small = evaluate_plan(base, plan.mcs, plan.tb_counts)
        large = evaluate_plan(big, plan.mcs, plan.tb_counts)
        assert large.delta.shape == (16, base.layers.num_layers)
        assert np.array_equal(large.delta, small.delta)
        assert large.layer_counts.tolist() == (big.report_counts @ large.delta).tolist()

    @pytest.mark.parametrize("mcs, counts", [((4,), (1,)), ((4, 6, 8), (1, 1, 1))])
    def test_plan_of_wrong_length_refused_by_name(self, mcs, counts):
        pr = small_problem([6, 9, 12], k=(2, 4), targets=(0.6, 0.3), budget=(4, 6))
        message = rf"plan length {len(mcs)} does not match the layer count 2"
        with pytest.raises(ValueError, match=message):
            evaluate_plan(pr, mcs, counts)
        plan = TransmissionPlan(mcs, counts, tuple(pr.capacities[m] for m in mcs))
        with pytest.raises(ValueError, match=message):
            check_feasibility(replace(heuristic_uep_ram(pr), plan=plan), pr)

    @pytest.mark.parametrize("mcs, counts", [((4, 6), (1,)), ((4, 6), (1, 1, 1))])
    def test_counts_of_other_length_refused(self, mcs, counts):
        # pairing the vectors up would silently drop the longer one's tail
        pr = small_problem([6, 9, 12], k=(2, 4), targets=(0.6, 0.3), budget=(4, 6))
        message = rf"{len(counts)} block counts do not match the layer count 2"
        with pytest.raises(ValueError, match=message):
            evaluate_plan(pr, mcs, counts)
        # TransmissionPlan refuses such a plan, so a stand-in carries it
        solution = replace(heuristic_uep_ram(pr), plan=SimpleNamespace(mcs=mcs, tb_counts=counts))
        with pytest.raises(ValueError, match=message):
            check_feasibility(solution, pr)

    def test_profile_sharing_matches_direct_probabilities(self):
        reports = [4, 4, 9, 9, 15]
        pr = small_problem(reports, k=(2, 5), targets=(0.8, 0.4),
                           budget=(4, 8), q_hat=0.9)
        mcs = (4, 9)
        counts = (2, 3)
        ev = evaluate_plan(pr, mcs, counts)
        plan = TransmissionPlan(mcs, counts, tuple(pr.capacities[m] for m in mcs))
        for reported in reports:
            losses = [0.1 if 0 < m <= reported else 1.0 for m in mcs]
            probs = window_decode_probs(pr.layers, plan, losses)
            hit = probs >= 0.9 - 1e-12
            expected = np.logical_or.accumulate(hit[::-1])[::-1]
            assert np.array_equal(ev.delta[reported], expected)

    @pytest.mark.parametrize("mcs, counts, field", [
        ((5,), (2.5,), "block counts"), ((5,), (True,), "block counts"),
        ((5,), ("2",), "block counts"), ((5.7,), (2,), "plan MCS"), ((True,), (2,), "plan MCS"),
    ])
    def test_non_integral_plan_refused_by_name(self, mcs, counts, field):
        # not truncated to 2 blocks or MCS 5, nor read as 1
        pr = small_problem([5, 9], k=(2,), targets=(0.5,), budget=(4,))
        with pytest.raises(ValueError, match=field):
            evaluate_plan(pr, mcs, counts)

    def test_report_rows_memo_is_read_only_and_fresh(self, fresh_memo):
        # each (MCS, count, p_hat) gives the p_hat pmf on the reports that
        # qualify (0 < m <= report, blocks sent) and "nothing arrives" elsewhere
        for m, count, p_hat in ((0, 3, 0.1), (4, 0, 0.1), (4, 5, 0.1), (15, 2, 0.3),
                                (7, 1, 0.0), (1, 9, 0.25)):
            rows = allocators._report_rows(m, count, p_hat)
            assert allocators._report_rows(m, count, p_hat) is rows
            assert not rows.flags.writeable
            fresh = np.array([receive_pmf(count, p_hat if 0 < m <= report and count else 1.0)
                              for report in range(16)])
            assert rows.shape == (16, count + 1) and rows.tobytes() == fresh.tobytes()
            assert fresh_memo[allocators._report_rows.__wrapped__, (m, count, p_hat)] is rows

    def test_allocator_view_rule(self):
        # a user reporting MCS 9 loses a block of MCS 9 or 4 with p_hat, and
        # one of MCS 10, or of an unsent window (MCS 0), surely
        assert [bool(allocators._qualifies(m, 9)) for m in (9, 4, 10, 0)] == [
            True, True, False, False]
        for m, loss in ((9, 0.1), (4, 0.1), (10, 1.0)):
            assert allocators._report_rows(m, 3, 0.1)[9].tolist() == receive_pmf(3, loss).tolist()

    def test_probability_short_of_q_hat_beyond_the_grace_is_refused(self):
        # one element sent as 2 blocks of 1 at p_hat 0.1 decodes with 0.99,
        # which q_hat = 0.99 + 1e-9 misses by far more than float rounding:
        # a grace wide enough to forgive that (1e-6, say) fails this test
        layers = LayerConfig((1,), coverage_targets=(0.99,))
        on = AllocationProblem(layers, (15,) * 10, (2,), {15: 1}, 0.1, 0.99)
        assert evaluate_plan(on, (15,), (2,)).feasible  # on the threshold
        q_hat = 0.99 + 1e-9
        ev = evaluate_plan(AllocationProblem(layers, (15,) * 10, (2,), {15: 1}, 0.1, q_hat),
                           (15,), (2,))
        assert ev.window_probs[15].tolist() == pytest.approx([0.99], abs=1e-15)
        assert not ev.feasible and ev.layer_counts.tolist() == [0]
        assert not meets_qos(0.99, q_hat)

    def test_tau_matches_profit_over_cost(self):
        pr = small_problem([6, 9, 12], k=(2, 4), targets=(0.6, 0.3), budget=(4, 6))
        ev = evaluate_plan(pr, (5, 8), (2, 2))
        assert ev.tau == pytest.approx(ev.profit / ev.cost)

    def test_invariant_under_user_order(self):
        rng = np.random.default_rng(3)
        reports = rng.integers(1, 16, 17)
        order = rng.permutation(17)
        shape = dict(k=(2, 4, 6), targets=(0.9, 0.6, 0.3), budget=(4, 6, 8))
        base = small_problem(reports, **shape)
        permuted = small_problem(reports[order], **shape)
        profits = []
        for mcs, counts in (((5, 8, 11), (2, 3, 4)), ((4, 0, 9), (3, 0, 6)),
                            ((12, 12, 15), (1, 1, 1))):
            a = evaluate_plan(base, mcs, counts)
            b = evaluate_plan(permuted, mcs, counts)
            # the per-user rows, each user's row picked by its report
            assert np.array_equal(a.delta[reports][order], b.delta[reports[order]])
            assert np.array_equal(a.layer_counts, b.layer_counts)
            assert (a.profit, a.cost, a.tau, a.feasible) == (
                b.profit, b.cost, b.tau, b.feasible)
            profits.append(a.profit)
        assert min(profits) < max(profits)
