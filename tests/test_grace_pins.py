"""Pins on the verdicts that only the float grace of ``meets_qos`` decides.

``meets_qos`` passes a probability up to 1e-12 below ``q_hat``, and the plans
sit on that boundary: window 1 of both default plans reads 1 - 0.1² = ``q_hat``.
A sum reordered so that one probability moves by an ulp across ``q_hat - 1e-12``
changes a level table or an S2 answer, often without moving a plan that the
other pins see.  So this file pins:

* per exact solve, the sha256 over its level tables (int8, whose bytes do not
  depend on the SIMD loops or the BLAS kernel) and the count of verdicts that
  fall inside the grace, in [q_hat - 1e-12, q_hat);
* every S2 answer of the heuristic, as (k_w, capacity, budget, blocks) in call
  order, in ``s2_pins.json`` beside this file.

Rewrite that file with ``PYTHONPATH=src python tests/test_grace_pins.py --write``.
A rewrite changes results: say which answers moved, and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_problem
from ewcast import allocators
from ewcast.channel import build_scenario
from ewcast.cli import DEFAULT_SC_CONFIG, DEFAULT_SFN_CONFIG
from same_outputs import FIVE_LAYER_SC

PINS = Path(__file__).with_name("s2_pins.json")
GRACE = 1e-12  # the grace of meets_qos, as a literal: a changed _PROB_EPS moves the digests
DEFAULTS = {"sc": DEFAULT_SC_CONFIG, "sfn-rbp1": DEFAULT_SFN_CONFIG,
            "sfn-rbp5": dict(DEFAULT_SFN_CONFIG, n_rbp=5), "five-layer": FIVE_LAYER_SC}
# problem: (level-table entries, first 16 hex digits of their sha256 in depth
# order, verdicts in [q_hat - 1e-12, q_hat), all verdicts) over one exact solve
EXACT = {"sc": (37_544, "f64ad73f6d70f85d", 0, 31_428),
         "sfn-rbp1": (11_469_380, "acd1edd52307c869", 576, 10_197_808),
         "five-layer": (25_380_446, "940bd508f4421f82", 34_032, 21_213_608)}


def exact_record(config) -> tuple[int, str, int, int]:
    """One exact solve of ``config``, read through its level tables and every
    ``meets_qos`` verdict it takes."""
    tables, grace, verdicts = [], [], []
    level_tables, meets_qos = allocators._level_tables, allocators.meets_qos

    def keep(*args):
        tables.extend(level_tables(*args))
        return tables

    def count(probs, q_hat):
        p = np.asarray(probs)
        grace.append(int(np.count_nonzero((p >= q_hat - GRACE) & (p < q_hat))))
        verdicts.append(p.size)
        return meets_qos(probs, q_hat)

    allocators._level_tables, allocators.meets_qos = keep, count
    try:
        allocators.direct_uep_ram(build_scenario(config).problem)
    finally:
        allocators._level_tables, allocators.meets_qos = level_tables, meets_qos
    digest = hashlib.sha256()
    for table in tables:
        digest.update(np.ascontiguousarray(table).tobytes())
    return sum(t.size for t in tables), digest.hexdigest()[:16], sum(grace), sum(verdicts)


def s2_problems() -> dict:
    """The defaults, then ``random_problem`` draws 0-59 from ``default_rng(0)``."""
    problems = {name: build_scenario(config).problem for name, config in DEFAULTS.items()}
    rng = np.random.default_rng(0)
    problems.update((f"draw-{i}", random_problem(rng)) for i in range(60))
    return problems


def s2_answers(problem) -> list[list]:
    """Every ``solve_s2`` call of one heuristic solve: (k_w, capacity, budget, blocks)."""
    solve_s2, calls = allocators.solve_s2, []

    def record(dist, k_w, capacity, budget, p_hat, q_hat):
        found = solve_s2(dist, k_w, capacity, budget, p_hat, q_hat)
        calls.append([k_w, capacity, budget, found])
        return found

    allocators.solve_s2 = record
    try:
        allocators.heuristic_uep_ram(problem)
    finally:
        allocators.solve_s2 = solve_s2
    return calls


@pytest.mark.parametrize("name", ["sc", "sfn-rbp1"])
def test_default_level_tables_and_grace_pinned(name):
    assert exact_record(DEFAULTS[name]) == EXACT[name]


def test_five_layer_level_tables_and_grace_pinned():
    # apart from test_five_layer_stream_plan_and_memory: its memory bound
    # must not count these wrappers
    assert exact_record(FIVE_LAYER_SC) == EXACT["five-layer"]


def test_heuristic_s2_answers_pinned():
    pinned = json.loads(PINS.read_text())
    got = {name: s2_answers(problem) for name, problem in s2_problems().items()}
    assert list(got) == list(pinned)
    moved = [name for name in got if got[name] != pinned[name]]
    assert not moved, f"S2 answers moved on {moved}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite s2_pins.json")
    if parser.parse_args().write:
        answers = {name: s2_answers(problem) for name, problem in s2_problems().items()}
        PINS.write_text("{\n" + ",\n".join(f"  {json.dumps(name)}: {json.dumps(calls)}"
                                           for name, calls in answers.items()) + "\n}\n")
