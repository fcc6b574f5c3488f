"""Pinned plans: the integer results of every solver on fixed cases.

``plan_pins.json`` beside this file holds, per case and solver, the MCS
vector, the block counts, the profit, the cost and the feasibility, plus the
exact search's counters that do not depend on batch order.  The cases are
the 110 ``solver_battery`` instances (heuristic and exact), the SC default
at ``n_rbp`` 1 to 5 and the SFN default at 1, 2 and 5 (exact, heuristic and
uncoded baseline), and two small problems whose best ratio is tied.  No
float is pinned: floats move in their last bits when a sum changes order.
``tests/test_plan_pins.py`` compares against the file.

Rewrite it with ``PYTHONPATH=src python tests/pin_plans.py --write``.  A
rewrite changes results: say which pins moved, and why.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from ewcast.allocators import AllocationProblem, direct_uep_ram, heuristic_uep_ram, solve_mrt
from ewcast.channel import build_scenario
from ewcast.cli import DEFAULT_SC_CONFIG, DEFAULT_SFN_CONFIG
from ewcast.decode_prob import LayerConfig

PINS = Path(__file__).with_name("plan_pins.json")
COUNTERS = ("mcs_vectors", "vectors_skipped", "grids")
SOLVERS = {"direct": direct_uep_ram, "heuristic": heuristic_uep_ram, "mrt": solve_mrt}


def _default(config, n_rbp):
    return lambda: build_scenario(dict(config, n_rbp=n_rbp)).problem


CASES = {f"{name}-rbp{n}": _default(config, n)
         for name, config, rbps in (("sc", DEFAULT_SC_CONFIG, (1, 2, 3, 4, 5)),
                                    ("sfn", DEFAULT_SFN_CONFIG, (1, 2, 5)))
         for n in rbps}
# exact ratio ties, which none of the cases above meets: the exact search
# must take the fewer blocks ((7,) x 2 against (3,) x 4), and the
# lexicographically first MCS vector although it batches (7, 0, 7) before
# (5, 7, 7); these carry no PSNR, so the uncoded baseline sits them out
CASES["tie-fewer-blocks"] = lambda: AllocationProblem(
    LayerConfig((4,), coverage_targets=(0.5,)), (5,) * 5 + (9,) * 5, (4,), {3: 1, 7: 2},
    0.01, 0.9)
CASES["tie-across-patterns"] = lambda: AllocationProblem(
    LayerConfig((4, 1, 2), coverage_targets=(0.75, 0.5, 0.45)), (7, 7, 7, 15, 7), (3, 1, 2),
    {5: 1, 7: 3}, 0.05, 0.99)


def record(solution) -> dict:
    """The integer results of one solution."""
    out = {"mcs": list(solution.plan.mcs), "tb": list(solution.plan.tb_counts),
           "profit": solution.profit, "cost": solution.cost,
           "feasible": solution.feasible}
    out.update({key: solution.stats[key] for key in COUNTERS if key in solution.stats})
    return out


def battery_records(battery) -> list[dict]:
    """One record pair per ``solver_battery`` instance, in battery order."""
    return [{"heuristic": record(heuristic), "direct": record(reference)}
            for _, heuristic, reference in battery]


def case_records(case: str) -> dict:
    """Every solver's record on one named case."""
    problem = CASES[case]()
    return {name: record(solver(problem)) for name, solver in SOLVERS.items()
            if name != "mrt" or problem.layers.psnr is not None}


def load() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def write(battery) -> None:
    # one case per line, so that a moved pin shows as one changed line
    cases = ",\n".join(f"  {json.dumps(case)}: {json.dumps(case_records(case))}"
                       for case in CASES)
    pairs = ",\n".join(f"  {json.dumps(pair)}" for pair in battery_records(battery))
    PINS.write_text(f'{{"cases": {{\n{cases}\n}},\n"battery": [\n{pairs}\n]}}\n',
                    encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {PINS.name}")
    if parser.parse_args().write:
        from conftest import solve_battery

        write(solve_battery())
        print(f"wrote {PINS}")
    else:
        parser.print_help()
