"""Experiment runner: model validation, allocation sweeps, coverage maps.

Each experiment produces an :class:`ExperimentResult` whose columns hold its
rows sorted by the independent variable; ``write_csv`` emits a headered
UTF-8 CSV with ``# key=value`` provenance lines (scenario digest and seeds)
so re-runs with identical inputs are byte-identical.  Plots are not rendered
here - the output is plot-ready data.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .allocators import AllocationSolution, direct_uep_ram, heuristic_uep_ram, solve_mrt
from .channel import Scenario, build_scenario, config_digest, normalized_config
from .decode_prob import (
    LayerConfig,
    TransmissionPlan,
    expected_psnr,
    level_probs,
    meets_qos,
    uncoded_survival,
    window_decode_probs,
)
from .gf_rlnc import simulate_decode_prob

# Validation sweep defaults: three nested windows of 10/50/100 elements.
VALIDATION_LAYERS = (10, 40, 50)
VALIDATION_CAPACITIES = (2, 5)
VALIDATION_LOSSES = (0.1, 0.4)
# Without t_max, a (capacity, loss) sweep runs until the deepest window fails
# with probability below SATURATION_TAIL, then SATURATION_MARGIN blocks more;
# SATURATION_CAP bounds it for losses that never get there.
SATURATION_TAIL = 1e-4
SATURATION_MARGIN = 3
SATURATION_CAP = 400
CSV_BLOCK_ROWS = 4096  # CSV rows formatted and written with one write
MAX_TRIALS = 10**7  # default grid: ~5 s at this limit; the sampler needs ~0.4 bytes a trial
ERASURE_VIEWS = ("allocator", "evaluation")  # the losses a coverage map reads, by report or SINR

# Desk-scale default scenarios.  The radial line and the grid both extend to
# the edge of the lowest table-backed MCS, and the evaluation-view error curve
# uses a fading-averaged 5 dB/decade slope so the uncoded baseline pays a
# realistic reliability price; the allocators only ever see the reported MCS,
# so these choices affect evaluation, not the plans.
DEFAULT_SC_CONFIG = {
    "stream_preset": "A",
    "users": {"pattern": "radial", "count": 80, "step_m": 2.5},
    "bler": {"decade_db": 5.0},
    "seed": 1,
}

DEFAULT_SFN_CONFIG = {
    "mode": "SFN",
    "stream_preset": "B",
    "n_rbp": 1,
    "users": {"pattern": "grid", "count": 441, "step_m": 38.0},
    "bler": {"decade_db": 5.0},
    "seed": 1,
}


@dataclass
class ExperimentResult:
    """CSV columns plus enough provenance to reproduce them exactly.

    ``values`` holds one equal-length sequence per column (none without rows),
    read as tuples by ``rows``.  ``feasible`` is down when a solver found no
    plan; the CLI exits 2 on it, and it is never written to the CSV.
    """

    experiment: str
    digest: str
    seeds: dict[str, int]
    columns: list[str]
    values: list
    meta: dict = field(default_factory=dict)
    feasible: bool = True

    @property
    def row_count(self) -> int:
        return len(self.values[0]) if self.values else 0

    @property
    def rows(self) -> list[tuple]:
        return list(zip(*(col.tolist() if isinstance(col, np.ndarray) else col
                          for col in self.values)))

    def write_csv(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(f"# experiment={self.experiment}\n")
            fh.write(f"# digest={self.digest}\n")
            for key in sorted(self.seeds):
                fh.write(f"# seed.{key}={self.seeds[key]}\n")
            for key in sorted(self.meta):
                fh.write(f"# {key}={self.meta[key]}\n")
            fh.write(",".join(self.columns) + "\r\n")
            for start in range(0, self.row_count, CSV_BLOCK_ROWS):
                cells = [_cells(col[start:start + CSV_BLOCK_ROWS]) for col in self.values]
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
        return path


def _cells(col) -> list[str]:
    """A block of one column as CSV text: ``str`` of each value (of an int or float
    the repr csv.writer writes, of "" nothing); a float64 array's text is formatted
    once per distinct bit pattern (keyed by value, 0.0 and -0.0 would share one)."""
    if not isinstance(col, np.ndarray) or col.dtype != np.float64:
        return list(map(str, col.tolist() if isinstance(col, np.ndarray) else col))
    bits, index = np.unique(col.view(np.int64), return_inverse=True)
    texts = list(map(repr, bits.view(np.float64).tolist()))  # a float's str
    return [texts[i] for i in index.tolist()]


def _round6(values: np.ndarray) -> np.ndarray:
    """``round(v, 6)`` of each entry, bit for bit: rint(v * 1e6) / 1e6, whose product
    crosses a half only by landing on it and whose quotient is correctly rounded.  Such
    ties, and entries not finite or of 2**52 millionths or more, take ``round`` itself."""
    scaled = values * 1e6
    out = np.rint(scaled) / 1e6
    slow = ~(np.abs(scaled) < 2.0**52) | (np.abs(np.modf(scaled)[0]) == 0.5)
    out[slow] = [round(v, 6) for v in values[slow].tolist()]
    return out


def _point_seed(base: int, *indices: int) -> int:
    return int(np.random.SeedSequence([base, *indices]).generate_state(1)[0])


def run_validate_approx(
    trials: int = 100_000,
    seed: int = 0,
    capacities=VALIDATION_CAPACITIES,
    losses=VALIDATION_LOSSES,
    layer_elements=VALIDATION_LAYERS,
    t_max: int | None = None,
) -> ExperimentResult:
    """Sweep the block count and compare analytic vs Monte Carlo recovery.

    For every (capacity, loss) pair all windows get ``t`` blocks, ``t`` swept
    until the deepest window saturates (or to ``t_max``); the emitted rows
    hold the analytic value, the simulated value with its standard error, and
    the absolute gap.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS:,}], got {trials!r}")
    if t_max is not None and not 1 <= t_max <= SATURATION_CAP:
        raise ValueError(f"t_max must lie in [1, {SATURATION_CAP}], got {t_max!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    if trials < 10_000:
        warnings.warn("fewer than 1e4 trials gives wide confidence bands", stacklevel=2)
    layers = LayerConfig(layer_elements)
    L = layers.num_layers
    rows = []
    for ci, cap in enumerate(capacities):
        for pi, loss in enumerate(losses):
            limit = SATURATION_CAP if t_max is None else t_max
            saturated = t_max is not None
            t = 0
            while t < limit:
                t += 1
                plan = TransmissionPlan.uniform(L, t, cap)
                analytic = window_decode_probs(layers, plan, [loss] * L)
                if not saturated and analytic[-1] >= 1.0 - SATURATION_TAIL:
                    saturated = True
                    limit = min(t + SATURATION_MARGIN, SATURATION_CAP)
                sim = simulate_decode_prob(
                    layers, plan, [loss] * L, trials,
                    _point_seed(seed, ci, pi, t),
                )
                for w in range(L):
                    rows.append((
                        cap, loss, t, w + 1,
                        float(analytic[w]), sim.p_win[w], sim.std_err[w],
                        abs(float(analytic[w]) - sim.p_win[w]),
                    ))
            if not saturated:
                warnings.warn(
                    f"deepest window not saturated within {SATURATION_CAP} blocks "
                    f"(capacity {cap}, loss {loss}); sweep truncated there", stacklevel=2)
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    config = {
        "layer_elements": list(layer_elements), "capacities": list(capacities),
        "losses": list(losses), "trials": trials, "t_max": t_max,
    }
    return ExperimentResult(
        experiment="validate-approx",
        digest=config_digest(config),
        seeds={"base": seed},
        columns=["elements_per_tb", "loss", "tb_count", "window",
                 "analytic", "simulated", "std_err", "abs_gap"],
        values=list(zip(*rows)),
        meta={"trials": trials},
    )


def run_rbp_sweep(
    config: dict,
    rbp_values=(1, 2, 3, 4, 5),
    direct: str = "exhaustive",
) -> ExperimentResult:
    """Solve the allocation at several block sizes and compare the solvers.

    Infeasible points are emitted with their feasibility flags down and NaN
    ratios rather than being dropped; the result is feasible when every
    heuristic point is.  The digest names the normalized config without the
    ``n_rbp`` each point overrides, the sorted block sizes and ``direct``.
    """
    config, rows = normalized_config(config), []
    for rbp in sorted(rbp_values):
        problem = build_scenario(dict(config, n_rbp=int(rbp))).problem
        heur = heuristic_uep_ram(problem)
        tau_h = heur.tau if heur.feasible else float("nan")
        if direct == "off":
            rows.append((rbp, int(heur.feasible), tau_h, heur.cost,
                         "", "", "", ""))
            continue
        ref = direct_uep_ram(problem)
        tau_d = ref.tau if ref.feasible else float("nan")
        gap = ((tau_d - tau_h) / tau_d
               if heur.feasible and ref.feasible and tau_d > 0 else float("nan"))
        rows.append((rbp, int(heur.feasible), tau_h, heur.cost,
                     int(ref.feasible), tau_d, ref.cost, gap))
    return ExperimentResult(
        experiment="sweep-rbp",
        digest=config_digest({"config": {k: v for k, v in config.items() if k != "n_rbp"},
                              "rbp_values": sorted(rbp_values), "direct": direct}),
        seeds={},
        columns=["n_rbp", "heuristic_feasible", "tau_heuristic", "cost_heuristic",
                 "direct_feasible", "tau_direct", "cost_direct", "relative_gap"],
        values=list(zip(*rows)),
        meta={"direct": direct},
        feasible=all(row[1] for row in rows),
    )


def _evaluate_users(config: dict, view: str):
    """The scenario, then (users, levels) arrays of the coded plan's window and
    level probabilities (``level_probs``) and of the baseline's survival (None
    without users), and the meta block.  An unknown ``view`` is refused before
    anything is built; the allocator view reads each report's row of either
    solver's verdict (``window_probs``)."""
    if view not in ERASURE_VIEWS:
        raise ValueError(f"erasure_view must be one of {ERASURE_VIEWS}, got {view!r}")
    scenario = build_scenario(config)
    if not scenario.users:
        return scenario, None, None, None, {"erasure_view": view, "uep_feasible": 0}
    heur = heuristic_uep_ram(scenario.problem)
    mrt = solve_mrt(scenario.problem)
    if view == "allocator":
        reports = scenario.users.mcs_feedback
        p_win, p_mrt = heur.window_probs[reports], mrt.window_probs[reports]
    else:
        p_win = window_decode_probs(scenario.layers, heur.plan, scenario.losses(heur.plan.mcs))
        p_mrt = uncoded_survival(scenario.losses(mrt.plan.mcs), mrt.plan.tb_counts)
    p_uep = level_probs(p_win)
    meta = {
        "erasure_view": view,
        "uep_feasible": int(heur.feasible),
        "uep_plan_mcs": list(heur.plan.mcs),
        "uep_plan_tb": list(heur.plan.tb_counts),
        "mrt_plan_mcs": list(mrt.plan.mcs),
        "mrt_plan_tb": list(mrt.plan.tb_counts),
    }
    for name, probs in (("uep", p_uep), ("mrt", p_mrt)):
        fractions = np.mean(meets_qos(probs, scenario.config["q_hat"]), axis=0)
        for lv, frac in enumerate(fractions.tolist(), start=1):
            meta[f"{name}_fraction_l{lv}"] = round(frac, 6)
    return scenario, p_win, p_uep, p_mrt, meta


def _map_result(experiment: str, scenario: Scenario, columns, values, meta) -> ExperimentResult:
    return ExperimentResult(experiment, scenario.digest(), {"scenario": scenario.config["seed"]},
                            columns, values, meta, feasible=bool(meta["uep_feasible"]))


def run_coverage_sc(config: dict, erasure_view: str = "evaluation") -> ExperimentResult:
    """Radial coverage curves for the coded allocation and the baseline.

    Users sit on a line through the serving cell; for every user and level
    the result holds both strategies' recovery probability under the chosen
    erasure view, and the meta block carries per-level coverage fractions and
    radii at the scenario's QoS threshold.  A scenario without users gives
    no rows and ``uep_feasible=0``.
    """
    scenario, _, p_uep, p_mrt, meta = _evaluate_users(config, erasure_view)
    columns = ["distance_m", "mcs_feedback", "level",
               "p_uep", "p_mrt", "covered_uep", "covered_mrt"]
    if not scenario.users:
        return _map_result("coverage-sc", scenario, columns, [], meta)
    origin = scenario.layout.sites[scenario.layout.serving[0]]
    distances = np.hypot(*(scenario.users.positions - origin).T)
    order = np.argsort(distances, kind="stable")
    distances = distances[order]
    p_uep, p_mrt = p_uep[order], p_mrt[order]
    covered_uep, covered_mrt = (meets_qos(p, scenario.config["q_hat"]) for p in (p_uep, p_mrt))
    L = scenario.layers.num_layers
    values = [np.repeat(_round6(distances), L), np.repeat(scenario.users.mcs_feedback[order], L),
              np.tile(np.arange(1, L + 1), len(order)), p_uep.ravel(), p_mrt.ravel(),
              covered_uep.ravel().astype(int), covered_mrt.ravel().astype(int)]
    for name, covered in (("uep", covered_uep), ("mrt", covered_mrt)):
        # per level, the farthest user with every nearer user covered too
        reach = np.logical_and.accumulate(covered, axis=0).sum(axis=0).tolist()
        for lv, n in enumerate(reach, start=1):
            meta[f"{name}_radius_l{lv}"] = distances[n - 1].item() if n else 0.0
    return _map_result("coverage-sc", scenario, columns, values, meta)


def run_psnr_map_sfn(config: dict, erasure_view: str = "evaluation") -> ExperimentResult:
    """Grid map of the best expected quality over the synchronised-cell area.

    Emits one row per grid point with both strategies' quality metric, and
    per-level recovery fractions at the QoS threshold in the meta block.  A
    scenario without users gives no rows and ``uep_feasible=0``.
    """
    scenario, p_win, _, p_mrt, meta = _evaluate_users(config, erasure_view)
    columns = ["x_m", "y_m", "sinr_db", "psnr_uep", "psnr_mrt"]
    if not scenario.users:
        return _map_result("psnr-map-sfn", scenario, columns, [], meta)
    users, layers = scenario.users, scenario.layers
    x, y, sinr = map(_round6, (users.positions[:, 0], users.positions[:, 1], users.sinr_db))
    order = np.lexsort((x, y))  # by y, then x; stable, as list.sort is
    values = [col[order] for col in (x, y, sinr, expected_psnr(layers, p_win),
                                     expected_psnr(layers, p_mrt))]
    return _map_result("psnr-map-sfn", scenario, columns, values, meta)


def run_solve(
    config: dict,
    direct: str = "off",
) -> tuple[Scenario, dict[str, AllocationSolution]]:
    """Single-scenario debug solve: heuristic, optional reference, baseline."""
    scenario = build_scenario(config)
    solutions = {"heuristic": heuristic_uep_ram(scenario.problem)}
    if direct != "off":
        solutions["direct"] = direct_uep_ram(scenario.problem)
    solutions["mrt"] = solve_mrt(scenario.problem)
    return scenario, solutions


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are errors, not "infeasible"
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ewcast", description="Layered coded multicast experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, scenario=None, out=True):
        """A subcommand, with ``--scenario`` when it reads one (``scenario``
        is its default config) and ``--out`` when it writes a CSV."""
        p = sub.add_parser(name, help=summary)
        if scenario is not None:
            p.add_argument("--scenario", type=Path, default=None,
                           help="scenario config JSON (see README for the schema)")
        if out:
            p.add_argument("--out", type=Path, default=Path("results"),
                           help="output directory for CSV files")
        p.set_defaults(default_scenario=scenario)
        return p

    p = command("validate-approx", "analytic model vs Monte Carlo")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--t-max", type=int, default=None)

    p = command("sweep-rbp", "profit-cost ratio vs resource-block pairs", DEFAULT_SC_CONFIG)
    p.add_argument("--rbp", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p.add_argument("--direct", choices=("off", "exhaustive"), default="exhaustive")

    for name, summary, scenario in (
            ("coverage-sc", "radial coverage curves, single cell", DEFAULT_SC_CONFIG),
            ("psnr-map-sfn", "quality map over the synchronised area", DEFAULT_SFN_CONFIG)):
        p = command(name, summary, scenario)
        p.add_argument("--erasure-view", choices=ERASURE_VIEWS, default="evaluation")

    p = command("solve", "solve one scenario and print the plans", DEFAULT_SC_CONFIG,
                out=False)
    p.add_argument("--direct", choices=("off", "exhaustive"), default="off")
    return parser


def _load_config(args) -> dict | None:
    """The ``--scenario`` config, else the subcommand's default one (None
    for a subcommand that reads no scenario)."""
    if getattr(args, "scenario", None) is None:
        return args.default_scenario
    with open(args.scenario, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"scenario config must be a JSON object, got {type(config).__name__}")
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    config = _load_config(args)
    if args.command == "solve":
        scenario, solutions = run_solve(config, direct=args.direct)
        print(f"scenario digest={scenario.digest()} users={len(scenario.users)} "
              f"budget={scenario.problem.tb_budget}")
        for name, sol in solutions.items():
            print(f"{name}: feasible={sol.feasible} tau={sol.tau:.4f} "
                  f"mcs={sol.plan.mcs} tb={sol.plan.tb_counts} "
                  f"fractions={[round(f, 3) for f in sol.layer_fractions]}")
        if "direct" in solutions:
            counters = " ".join(f"{k}={v}" for k, v in solutions["direct"].stats.items())
            print(f"direct stats: {counters}", file=sys.stderr)
        return 0 if solutions["heuristic"].feasible else 2

    start = time.perf_counter()
    if args.command == "validate-approx":
        result = run_validate_approx(trials=args.trials, seed=args.seed, t_max=args.t_max)
    elif args.command == "sweep-rbp":
        result = run_rbp_sweep(config, rbp_values=args.rbp, direct=args.direct)
    else:
        run = run_coverage_sc if args.command == "coverage-sc" else run_psnr_map_sfn
        result = run(config, erasure_view=args.erasure_view)
    path = result.write_csv(args.out / f"{args.command.replace('-', '_')}.csv")
    print(f"wrote {path} ({result.row_count} rows, {time.perf_counter() - start:.1f}s)")
    return 0 if result.feasible else 2
