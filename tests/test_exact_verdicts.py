"""QoS verdicts against the literal nested sum in exact arithmetic.

Every solver counts a user on a level through ``meets_qos``, a float
comparison with a 1e-12 grace.  Here each expected verdict comes instead from
``nested_sum.literal_decode_prob`` over ``Fraction``, with the losses and the
threshold read as the decimals they print as, so a probability of exactly
99/100 meets a 0.99 threshold with no grace at all.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_problem
from ewcast.allocators import (
    AllocationProblem,
    _level_tables,
    direct_uep_ram,
    evaluate_plan,
    heuristic_uep_ram,
)
from ewcast.decode_prob import LayerConfig
from nested_sum import exact, literal_decode_prob


@functools.lru_cache(maxsize=None)
def exact_prob(k, n, N, p, window) -> Fraction:
    """Recovery chance of window ``window`` (1-based), every loss ``p``, exactly."""
    return literal_decode_prob(k, n, N, (exact(p),) * len(k), window, one=Fraction(1))


def exact_levels(k, n, N, p, q) -> list[bool]:
    # level l is met when some window >= l recovers with chance >= q
    meets = [exact_prob(k, n, N, p, w) >= exact(q) for w in range(1, len(k) + 1)]
    return [any(meets[level:]) for level in range(len(k))]


@pytest.mark.parametrize("solver", [heuristic_uep_ram, direct_uep_ram],
                         ids=["heuristic", "exact"])
def test_plan_rows_are_exact_verdicts(solver):
    # a window the report does not qualify on loses every block, which is
    # the same law as sending it none
    rng = np.random.default_rng(7)
    for _ in range(20):
        pr = random_problem(rng)
        plan = solver(pr).plan
        ev = evaluate_plan(pr, plan.mcs, plan.tb_counts)
        plan = ev.plan
        for report, row in enumerate(ev.delta.tolist()):
            N = tuple(c if 0 < m <= report else 0 for m, c in zip(plan.mcs, plan.tb_counts))
            expect = exact_levels(pr.layers.k, plan.elements_per_tb, N, pr.p_hat, pr.q_hat)
            assert row == expect, (pr.layers.k, plan, report)


def test_plan_exactly_on_the_threshold_is_met():
    # one of two blocks suffices at loss 0.1: P = 1 - 0.1^2 = 99/100
    assert exact_prob((2,), (2,), (2,), 0.1, 1) == Fraction(99, 100)
    pr = AllocationProblem(LayerConfig((2,), coverage_targets=(0.99,)), [4, 9],
                           (2,), {4: 2}, 0.1, 0.99)
    ev = evaluate_plan(pr, (4,), (2,))
    assert ev.delta[4:].all() and not ev.delta[:4].any()
    assert ev.feasible


def exact_level_tables(k, counts, caps, p_hat, q_hat) -> list[list[list[int]]]:
    """The entries ``_level_tables`` promises, one nested sum each: window
    ``j`` at position 0 sends nothing, at position ``i`` blocks of
    ``caps[j][i - 1]`` elements."""
    radix = [len(c) + 1 for c in caps]
    tables = []
    for d in range(len(k)):
        rows = []
        for pos in np.ndindex(*radix[:d + 1]):
            n = tuple(caps[j][i - 1] if i else 0 for j, i in enumerate(pos))
            row = []
            for sent in np.ndindex(*counts[:d + 1]):
                N = tuple(c + 1 if i else 0 for c, i in zip(sent, pos))
                met = pos[d] and exact_prob(k[:d + 1], n, N, p_hat, d + 1) >= exact(q_hat)
                row.append(d + 1 if met else 0)
            rows.append(row)
        tables.append(rows)
    return tables


def test_level_table_entries_are_exact_verdicts():
    # template (cap 2, cap 2), counts (2, 4, 2): window 3 needs one of its
    # two 66-element blocks whatever it carries in, so P = 99/100 exactly
    args = ((2, 8, 34), [2, 4, 2], [[2], [2], [66]], 0.1, 0.99)
    tables = _level_tables(*args)
    assert exact_prob((2, 8, 34), (2, 2, 66), (2, 4, 2), 0.1, 3) == Fraction(99, 100)
    assert tables[2][7, 15] == 3
    assert [t.tolist() for t in tables] == exact_level_tables(*args)


def test_level_tables_never_drop_along_a_count_axis():
    # more blocks of any window never lose a verdict: the soundness
    # condition of the exact search's profit ceiling
    rng = np.random.default_rng(11)
    for _ in range(80):
        pr = random_problem(rng)
        # three of the problem's capacities per window keep the tables small
        caps = [sorted(rng.choice(sorted(set(pr.capacities.values())), 3, replace=False).tolist())
                for _ in range(pr.layers.num_layers)]
        counts = list(pr.tb_budget)
        for d, table in enumerate(_level_tables(pr.layers.k, counts, caps, pr.p_hat, pr.q_hat)):
            grid = table.reshape(len(table), *counts[:d + 1])
            for axis in range(1, d + 2):
                assert np.all(np.diff(grid, axis=axis) >= 0), (pr.layers.k, counts, caps, d)
