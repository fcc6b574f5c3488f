"""Same outputs: one fixed table of CLI runs in two source trees, compared byte for byte.

Run from anywhere::

    python tests/same_outputs.py --parent ../parent --change . [--large] \\
        [--expect-change NAME ...]

``--parent`` and ``--change`` are two trees with ``src/`` (a ``git archive``
of the parent commit, and the working tree; the same directory twice checks
that every run rewrites the same bytes).  Each run of the table is
``python -m ewcast ...`` in a fresh process per tree, with that tree's
``src/`` on ``PYTHONPATH``; the scenario configs are literals of this file,
so both trees read the same input.  A run compares its exit code, its
stderr (the tree's own path replaced) and its output: the CSV it writes, or
the stdout of ``solve``.  ``--large`` adds the 10^6-user maps.

One line per run: its name, its exit code, its time in each tree, and
"equal", "header differs" (only the ``# key=value`` lines differ) or the
first differing body line of an output.  The script exits 1 when a run differs, unless that run
is named by ``--expect-change`` (a change that moves an output on purpose
names it there and says why).
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from itertools import zip_longest
from pathlib import Path

SC = {"stream_preset": "A", "users": {"pattern": "radial", "count": 80, "step_m": 2.5},
      "bler": {"decade_db": 5.0}, "seed": 1}
SFN = {"mode": "SFN", "stream_preset": "B", "n_rbp": 1,
       "users": {"pattern": "grid", "count": 441, "step_m": 38.0},
       "bler": {"decade_db": 5.0}, "seed": 1}
STREAM_20_40 = {"mode": "SC", "gop_seconds": 20, "n_rbp": 5,
                "stream": {"bitrates_kbps": [20000, 40000], "psnr_db": [30, 40],
                           "coverage_targets": [0.99, 0.8]},
                "users": {"pattern": "radial", "count": 80, "step_m": 2.5}}
INFEASIBLE_SC = dict(SC, n_rbp=1, users={"pattern": "radial", "count": 300, "step_m": 0.8})
INFEASIBLE_SFN = dict(SFN, q_hat=0.999999,
                      users={"pattern": "grid", "count": 2500, "step_m": 30.0})
# the SC default at a report loss where the baseline's plan reaches level 3 under the
# coded window DP but not by its own uncoded survival: the two models disagree
SMALL_LOSS_SC = dict(SC, p_hat=0.003)
# the SC default with an allocator that assumes no report loss: the reports still come
# from the thresholds alone, and the evaluation view's curve stays at its 0.1 anchor
ZERO_LOSS_SC = dict(SC, p_hat=0.0)
# that allocator beside a curve so steep that its power overflows far below a threshold
STEEP_ZERO_LOSS_SC = dict(SC, p_hat=0.0, bler={"decade_db": 0.01})
# the SC default with five layers (bitrates geometric over stream A's range): the largest
# exact search the solver accepts; the stderr of its solve pins the six search counters
FIVE_LAYER_SC = {**{key: value for key, value in SC.items() if key != "stream_preset"},
                 "stream": {"bitrates_kbps": [47.3, 110.3, 257.0, 599.2, 1396.7],
                            "psnr_db": [27.9, 32.4, 36.8, 41.3, 45.8],
                            "coverage_targets": [0.99, 0.892, 0.795, 0.698, 0.6]}}
# the SC stream at a GOP so short that every window's budget is 0: the exact search skips
# every MCS vector, as the stderr of its solve pins, and the baseline's plan is over budget
TINY_GOP_SC = {"stream_preset": "A", "gop_seconds": 0.0005}
# every radio and model row away from its default, on a grid where the heuristic finds a
# four-window plan and the baseline covers users in both erasure views
RADIO_SFN = {"mode": "SFN", "isd_m": 420.0, "sfn_members": [0, 2, 5], "tx_power_dbm": 43.0,
             "antenna_gain_db": 2.0, "noise_figure_db": 7.0, "bandwidth_hz": 1.0e7,
             "shadow_sigma_db": 3.0, "seed": 7,
             "stream": {"bitrates_kbps": [40.0, 90.0, 300.0, 800.0],
                        "psnr_db": [28.0, 33.0, 40.0, 46.0],
                        "coverage_targets": [0.85, 0.7, 0.5, 0.3]},
             "p_hat": 0.02, "q_hat": 0.97, "element_kb": 1.5, "gop_seconds": 0.6, "n_rbp": 2,
             "bler": {"decade_db": 4.0, "thresholds_db": [-9.0 + 1.7 * m for m in range(15)]},
             "users": {"pattern": "grid", "count": 400, "step_m": 24.0}}


def _sfn_grid(count: int, step_m: float) -> dict:
    """The SFN default area (760 m across) held by ``count`` grid users."""
    return dict(SFN, users={"pattern": "grid", "count": count, "step_m": step_m})


def _maps(name: str, command: str, scenario: dict | None) -> list[tuple]:
    """A map run in each erasure view."""
    out = command.replace("-", "_") + ".csv"
    return [(f"{name}{suffix}", [command, "--erasure-view", view], scenario, out)
            for suffix, view in (("", "evaluation"), ("-allocator", "allocator"))]


# (name, ewcast arguments, scenario config or None for the default, output)
RUNS = [
    ("validate-approx", ["validate-approx"], None, "validate_approx.csv"),
    ("sweep-rbp", ["sweep-rbp"], None, "sweep_rbp.csv"),
    ("sweep-rbp-sfn", ["sweep-rbp", "--rbp", "1", "2", "5"], SFN, "sweep_rbp.csv"),
    *_maps("coverage-sc", "coverage-sc", None),
    *_maps("psnr-map-sfn", "psnr-map-sfn", None),
    ("solve", ["solve", "--direct", "exhaustive"], None, "stdout"),
    ("solve-20-40", ["solve"], STREAM_20_40, "stdout"),
    ("solve-small-loss", ["solve"], SMALL_LOSS_SC, "stdout"),
    ("solve-five", ["solve", "--direct", "exhaustive"], FIVE_LAYER_SC, "stdout"),
    ("solve-tiny-gop", ["solve", "--direct", "exhaustive"], TINY_GOP_SC, "stdout"),
    *_maps("small-loss-sc", "coverage-sc", SMALL_LOSS_SC),
    *_maps("zero-loss-sc", "coverage-sc", ZERO_LOSS_SC),
    *_maps("steep-zero-loss-sc", "coverage-sc", STEEP_ZERO_LOSS_SC),
    *_maps("infeasible-sc", "coverage-sc", INFEASIBLE_SC),
    *_maps("infeasible-sfn", "psnr-map-sfn", INFEASIBLE_SFN),
    *_maps("radio-sfn", "psnr-map-sfn", RADIO_SFN),
    *_maps("users-1e5", "psnr-map-sfn", _sfn_grid(10**5, 760 / 315)),
]
LARGE_RUNS = _maps("users-1e6", "psnr-map-sfn", _sfn_grid(10**6, 760 / 999))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="parent tree, with src/")
    p.add_argument("--change", type=Path, required=True, help="change tree, with src/")
    p.add_argument("--large", action="store_true", help="add the 10^6-user maps")
    p.add_argument("--expect-change", nargs="+", action="extend", default=[], metavar="NAME",
                   help="runs whose outputs this change moves on purpose")
    return p.parse_args(argv)


def run(tree: Path, argv: list[str], scenario: Path | None, out: str, work: Path) -> dict:
    """One fresh ``python -m ewcast`` in ``tree``: exit code, stderr, output, time."""
    work.mkdir(parents=True)
    cmd = [sys.executable, "-m", "ewcast", *argv]
    if scenario is not None:
        cmd += ["--scenario", str(scenario)]
    if out != "stdout":
        cmd += ["--out", str(work)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=600)
    seconds, output = time.perf_counter() - start, done.stdout
    if out != "stdout":  # a run that fails writes no CSV
        output = (work / out).read_text() if (work / out).exists() else None
    return {"exit": done.returncode, "seconds": seconds, out: output,
            "stderr": done.stderr.replace(str(tree), "<tree>")}


def compare(name: str, a: str | None, b: str | None) -> str | None:
    """None when equal, else "header differs" or the first differing body line
    (the lines after the ``# key=value`` header; all of a stdout)."""
    if a == b:
        return None
    if a is None or b is None:
        return f"{name} written by one tree only"
    body_a, body_b = ([line for line in text.splitlines() if not line.startswith("# ")]
                      for text in (a, b))
    for i, (x, y) in enumerate(zip_longest(body_a, body_b, fillvalue="<end>")):
        if x != y:
            return f"{name} body line {i + 1}: {x[:80]!r} != {y[:80]!r}"
    return "header differs" if a.splitlines() != b.splitlines() else f"{name} line ends differ"


def main(argv=None) -> int:
    args = parse_args(argv)
    table = RUNS + (LARGE_RUNS if args.large else [])
    unknown = sorted(set(args.expect_change) - {name for name, *_ in table})
    if unknown:
        raise SystemExit(f"--expect-change names no run of the table: {unknown}")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "ewcast" / "__init__.py").is_file():
            raise SystemExit(f"no src/ewcast under {tree}")
    failed = []
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for name, argv_, scenario, out in table:
            path = None
            if scenario is not None:
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(scenario))
            a, b = (run(tree.resolve(), argv_, path, out, Path(tmp) / side / name)
                    for side, tree in (("parent", args.parent), ("change", args.change)))
            verdicts = [f"exit {a['exit']} != {b['exit']}"] if a["exit"] != b["exit"] else []
            verdicts += filter(None, (compare(key, a[key], b[key]) for key in (out, "stderr")))
            expected = name in args.expect_change
            if verdicts and not expected:
                failed.append(name)
            note = " (expected)" if expected else ""
            print(f"{name:<24} exit {a['exit']} {a['seconds']:6.2f}s {b['seconds']:6.2f}s  "
                  f"{'; '.join(verdicts) or 'equal'}{note}", flush=True)
    if failed:
        print(f"differ: {' '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
