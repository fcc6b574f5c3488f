"""The three benchmark workloads: inputs, one timed call per item, checks.

Every workload is a list of passes; a pass is a fixed number of items whose
inputs derive from ``SeedSequence([seed, pass])`` alone, so pass ``p`` holds
the same inputs whatever the run length.  ``run`` is the timed part of an
item; ``check`` (untimed) returns a list of error strings, checked against
the recorded golden outputs when one exists for the item, and against
seed-independent invariants always.

``nominal_pass_s`` is a pass's time on the 2-core x86_64 host the baseline was
taken on; it only sets how many passes a run of ``--seconds`` makes.

Calls go through the ``ewcast`` module attributes (``decode_prob.x``, not a
local name bound at import), so the wrappers installed by ``spans`` see them.
"""

from __future__ import annotations

import copy
import inspect
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from ewcast import allocators, channel, cli, decode_prob, gf_rlnc

GRID_TOL = 7e-3  # criterion 1 of the acceptance suite: |gap| <= 7e-3 + 4 SE
GOLDEN_TOL = 1e-9


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, pass_index]))


# --------------------------------------------------------------------------
# mc-grid: the validate-approx grid, point by point, at reduced trials.

class MCGrid:
    name = "mc-grid"
    golden_any_seed = True  # the point set, hence the analytic values, is fixed
    nominal_pass_s = 6.9
    trials = 20_000
    layers = decode_prob.LayerConfig(cli.VALIDATION_LAYERS)
    # Saturation block counts of the default grid, fixed here so the point
    # set does not move when the program's own saturation search changes.
    t_limits = {(2, 0.1): 40, (2, 0.4): 69, (5, 0.1): 21, (5, 0.4): 37}

    def make_inputs(self, seed: int, pass_index: int) -> list[dict]:
        points = [(cap, loss, t) for (cap, loss), lim in self.t_limits.items()
                  for t in range(1, lim + 1)]
        states = np.random.SeedSequence([seed, pass_index]).generate_state(len(points))
        return [{"key": f"c{cap}_p{loss}_t{t}", "cap": cap, "loss": loss, "t": t,
                 "seed": int(s)} for (cap, loss, t), s in zip(points, states)]

    def run(self, item: dict, tmp_dir: str) -> dict:
        L = self.layers.num_layers
        plan = decode_prob.TransmissionPlan.uniform(L, item["t"], item["cap"])
        erasure = [item["loss"]] * L
        analytic = decode_prob.window_decode_probs(self.layers, plan, erasure)
        sim = gf_rlnc.simulate_decode_prob(self.layers, plan, erasure,
                                           self.trials, item["seed"])
        return {"analytic": [float(v) for v in analytic],
                "simulated": list(sim.p_win), "std_err": list(sim.std_err)}

    def golden(self, out: dict) -> dict:
        return {"analytic": out["analytic"]}

    def check(self, item: dict, out: dict, golden: dict | None) -> list[str]:
        errors = []
        for w, (a, s, se) in enumerate(zip(out["analytic"], out["simulated"],
                                           out["std_err"])):
            if abs(a - s) > GRID_TOL + 4.0 * se:
                errors.append(f"window {w + 1}: |{a:.6f} - {s:.6f}| > "
                              f"{GRID_TOL} + 4*{se:.2e}")
        if golden is not None:
            for w, (a, g) in enumerate(zip(out["analytic"], golden["analytic"])):
                if abs(a - g) > GOLDEN_TOL:
                    errors.append(f"window {w + 1}: analytic {a!r} != golden {g!r}")
        return errors


# --------------------------------------------------------------------------
# exact-battery: random desk instances, exact search + heuristic + check.

TARGET_LADDER = (0.99, 0.8, 0.6)
RATE_LADDER = (47.3e3, 326.1e3, 1396.7e3)
_SC_LAYOUT = channel.single_cell_layout()

# direct_uep_ram picks exhaustive search through ``method`` at this commit;
# pass it only while the parameter exists, so the workload keeps running the
# exact search if a later version drops the switch.
_DIRECT_KW = ({"method": "exhaustive"}
              if "method" in inspect.signature(allocators.direct_uep_ram).parameters
              else {})


def random_problem(rng) -> allocators.AllocationProblem:
    """One draw of the acceptance suite's desk family (tests/conftest.py)."""
    L = int(rng.integers(1, 4))
    U = int(rng.integers(25, 41))
    n_rbp = int(rng.choice([1, 1, 2, 3]))
    caps = {m: r * n_rbp for m, r in channel.CAPACITY_RATIO_PER_RBP.items()}
    scale = rng.uniform(0.6, 0.78) if n_rbp == 1 else rng.uniform(0.6, 1.2)
    k = tuple(channel.source_elements(b * scale, 0.533, 16384) for b in RATE_LADDER[:L])
    start = rng.uniform(90.0, 130.0)
    end = rng.uniform(274.0, 288.0)
    users = channel.place_users(_SC_LAYOUT, "radial", count=U, step_m=(end - start) / U,
                                start_m=start, angle_deg=rng.uniform(0.0, 360.0))
    budget = tuple(
        min(channel.n_hat(ki, 0.1, caps[4]), channel.subframe_cap(0.533), 20) for ki in k
    )
    layers = decode_prob.LayerConfig(k, coverage_targets=TARGET_LADDER[:L])
    return allocators.AllocationProblem(layers, tuple(u.mcs_feedback for u in users),
                                        budget, caps, 0.1, 0.99)


def search_points(problem: allocators.AllocationProblem) -> int:
    """Canonical (MCS, count) assignments the exhaustive search walks."""
    return math.prod(1 + len(problem.capacities) * b for b in problem.tb_budget)


def _plan(sol) -> dict:
    return {"feasible": bool(sol.feasible), "profit": int(sol.profit),
            "cost": int(sol.cost), "mcs": list(sol.plan.mcs),
            "tb": list(sol.plan.tb_counts)}


class ExactBattery:
    name = "exact-battery"
    nominal_pass_s = 4.3
    # Instances per pass by (layer count, search-space class).  Solve time is
    # bimodal (L <= 2 in milliseconds, L = 3 near a second) and, for L = 3,
    # grows with the space: under ``large_points`` ~0.8 s, over it ~1.3 s.
    # Fixed quotas keep the work of a pass steady across seeds, and keep the
    # item median inside the L = 2 block and the tail inside the large L = 3
    # block rather than on the edge between two blocks.  L = 2 solve times
    # vary twofold between instances, so the median needs many of them.
    quota = {(1, False): 2, (2, False): 16, (3, False): 1, (3, True): 2}
    max_points = 2_000_000
    large_points = 150_000

    def make_inputs(self, seed: int, pass_index: int) -> list[dict]:
        rng = _rng(seed, pass_index)
        need = dict(self.quota)
        items = []
        while any(need.values()):
            problem = random_problem(rng)
            points = search_points(problem)
            stratum = (problem.layers.num_layers,
                       problem.layers.num_layers == 3 and points >= self.large_points)
            if need[stratum] == 0 or points > self.max_points:
                continue
            need[stratum] -= 1
            items.append({"key": f"p{pass_index}_i{len(items)}", "problem": problem,
                          "points": points})
        return items

    def run(self, item: dict, tmp_dir: str) -> dict:
        problem = item["problem"]
        exact = allocators.direct_uep_ram(problem, **_DIRECT_KW)
        heur = allocators.heuristic_uep_ram(problem)
        report = allocators.check_feasibility(exact, problem)
        return {"exact": exact, "heuristic": heur, "report": report}

    def golden(self, out: dict) -> dict:
        return {"exact": _plan(out["exact"]), "heuristic": _plan(out["heuristic"])}

    def check(self, item: dict, out: dict, golden: dict | None) -> list[str]:
        problem = item["problem"]
        exact, heur = out["exact"], out["heuristic"]
        errors = []
        if exact.feasible and not out["report"].feasible:
            errors.append(f"exact plan fails check_feasibility: {out['report'].violations}")
        for label, sol in (("exact", exact), ("heuristic", heur)):
            if not sol.feasible:
                continue
            if label == "heuristic" and not allocators.check_feasibility(sol, problem).feasible:
                errors.append("heuristic plan fails check_feasibility")
            ev = allocators.evaluate_plan(problem, sol.plan.mcs, sol.plan.tb_counts)
            if (ev.profit, ev.cost) != (sol.profit, sol.cost):
                errors.append(f"{label}: evaluate_plan gives {(ev.profit, ev.cost)}, "
                              f"solver reported {(sol.profit, sol.cost)}")
        if heur.feasible:
            if not exact.feasible:
                errors.append("heuristic feasible but exact search infeasible")
            elif Fraction(exact.profit, exact.cost) < Fraction(heur.profit, heur.cost):
                errors.append(f"tau_exact {exact.profit}/{exact.cost} < "
                              f"tau_h {heur.profit}/{heur.cost}")
            if heur.cost > heur.intermediate_tb_total:
                errors.append(f"heuristic cost {heur.cost} > intermediate "
                              f"{heur.intermediate_tb_total}")
        if golden is not None:
            got = self.golden(out)
            for label in ("exact", "heuristic"):
                if got[label] != golden[label]:
                    errors.append(f"{label} {got[label]} != golden {golden[label]}")
        return errors


# --------------------------------------------------------------------------
# coverage-sweep: perturbed default CLI scenarios, CSV written per scenario.

SFN_SPAN_M = 760.0  # default SFN grid: 21 x 21 users, 38 m apart
SFN_SIDES = (19, 21, 23)
SC_PER_PASS = 12


class CoverageSweep:
    name = "coverage-sweep"
    nominal_pass_s = 2.4
    # A pass is 12 SC radial lines and one SFN grid of each side in SFN_SIDES
    # (seeded order), so every pass serves the same user count, the item
    # median falls among the SC items and the tail among the SFN grids.
    # The perturbations stay inside a family checked to be heuristic-feasible
    # (SC start 80-88 m on any of the six sector axes; SFN centre jitter
    # within half a grid step); wider draws (random ISD, spacing, shadowing)
    # go infeasible and skip the coded path.

    def make_inputs(self, seed: int, pass_index: int) -> list[dict]:
        rng = _rng(seed, pass_index)
        items = []
        for _ in range(SC_PER_PASS):
            cfg = copy.deepcopy(cli.DEFAULT_SC_CONFIG)
            cfg["users"]["angle_deg"] = 30.0 + 60.0 * int(rng.integers(6))
            cfg["users"]["start_m"] = float(rng.uniform(80.0, 88.0))
            rows = cfg["users"]["count"] * 3  # one row per user and layer
            items.append({"kind": "sc", "config": cfg, "rows": rows})
        centre = channel.sfn_layout().sites[[0, 1, 2, 3]].mean(axis=0)
        for side in rng.permutation(SFN_SIDES):
            step = SFN_SPAN_M / (int(side) - 1)
            jitter = rng.uniform(-0.5, 0.5, size=2) * step
            cfg = copy.deepcopy(cli.DEFAULT_SFN_CONFIG)
            cfg["users"] = {"pattern": "grid", "count": int(side) ** 2, "step_m": step,
                            "center": [float(centre[0] + jitter[0]),
                                       float(centre[1] + jitter[1])]}
            items.append({"kind": "sfn", "config": cfg, "rows": int(side) ** 2})
        for i, item in enumerate(items):
            item["key"] = f"p{pass_index}_i{i}_{item['kind']}"
        return items

    def run(self, item: dict, tmp_dir: str) -> dict:
        if item["kind"] == "sc":
            result = cli.run_coverage_sc(item["config"])
        else:
            result = cli.run_psnr_map_sfn(item["config"])
        path = result.write_csv(Path(tmp_dir) / f"{item['key']}.csv")
        return {"meta": result.meta, "rows": len(result.rows),
                "bytes": path.stat().st_size}

    def golden(self, out: dict) -> dict:
        meta = out["meta"]
        return {k: meta[k] for k in sorted(meta)
                if k.startswith(("uep_plan", "mrt_plan", "uep_fraction", "mrt_fraction"))}

    def check(self, item: dict, out: dict, golden: dict | None) -> list[str]:
        meta = out["meta"]
        errors = []
        if meta.get("uep_feasible") != 1:
            errors.append("coded allocation infeasible on an in-family scenario")
        if out["rows"] != item["rows"]:
            errors.append(f"{out['rows']} CSV rows, expected {item['rows']}")
        for key, value in meta.items():
            if "fraction" in key and not 0.0 <= value <= 1.0:
                errors.append(f"{key}={value} outside [0, 1]")
        if golden is not None:
            got = self.golden(out)
            for key, want in golden.items():
                have = got.get(key)
                if isinstance(want, float):
                    ok = have is not None and abs(have - want) <= GOLDEN_TOL
                else:
                    ok = have == want
                if not ok:
                    errors.append(f"{key}={have!r} != golden {want!r}")
        return errors


WORKLOADS = {w.name: w for w in (MCGrid(), ExactBattery(), CoverageSweep())}
