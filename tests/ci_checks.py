"""The checks of tier1.yml that time or bound a run: ``python tests/ci_checks.py CHECK``.

Each run is a fresh ``python`` in this checkout, ``src/`` first on its path, killed at
its timeout (exit -9); it prints the child's stdout and ``exit= wall= peak_rss=``, the
last from the child's own ``ru_maxrss``.  A check exits 0 when it holds, else 1.  Its
files go to ``--out`` (default: a temporary directory).  pytest does not collect this.
"""

import argparse
import filecmp
import functools
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

from same_outputs import FIVE_LAYER_SC, SC, SFN, SIX_LAYER_SC, STREAM_20_40, USERS_1E5, USERS_1E6

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src"), str(ROOT / "tests"), *filter(None, [os.environ.get("PYTHONPATH")])]))


def python(*args: str, timeout: float) -> tuple[int, float, str]:
    """``python *args`` in a fresh child: its exit code, peak RSS in MB and stdout."""
    with tempfile.TemporaryFile("w+") as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=ENV, stdout=out)
        # reaped here, not by Popen, for the child's rusage (Linux counts in it this process's
        # RSS at the spawn, about 15 MB); unreaped, its pid stays its own
        while not (done := os.wait4(child.pid, os.WNOHANG))[0]:
            if time.perf_counter() - start > timeout:
                os.kill(child.pid, signal.SIGKILL)
            time.sleep(0.01)
        child.returncode = code = os.waitstatus_to_exitcode(done[1])
        wall, peak_mb = time.perf_counter() - start, done[2].ru_maxrss / 1024  # ru_maxrss: KB
        out.seek(0)
        text = out.read()
    print(f"{text}exit={code} wall={wall:.2f}s peak_rss={peak_mb:.0f}MB")
    return code, peak_mb, text


def config_file(work: Path, name: str, config: dict) -> str:
    (work / f"{name}.json").write_text(json.dumps(config))
    return str(work / f"{name}.json")


def pytest_without_grace():
    """lost-grace's child: the exact verdict tests with ``meets_qos``' 1e-12 grace at 0."""
    import pytest
    from ewcast import decode_prob
    decode_prob._PROB_EPS = 0.0
    code = pytest.main(["-q", "tests/test_exact_verdicts.py"])
    print(f"without the grace: pytest exit {int(code)}")
    sys.exit(0 if code == pytest.ExitCode.TESTS_FAILED else 1)


def time_reports():
    """reports-1e6's child: build and solve times at 441 reports and 10^6 drawn from them."""
    import numpy as np
    from ewcast.allocators import (AllocationProblem, direct_uep_ram, evaluate_plan,
                                   heuristic_uep_ram, solve_mrt)
    from ewcast.channel import build_scenario

    def ms(run):  # with the collector on, as in a CLI run
        return 1e3 * min(timeit.repeat(run, "import gc; gc.enable()", number=1, repeat=3))
    base = build_scenario(dict(SFN, n_rbp=5)).problem
    reports = np.repeat(np.arange(16), base.report_counts)
    for sample in (reports, np.random.default_rng(0).choice(reports, 10**6)):
        build = functools.partial(AllocationProblem, base.layers, sample, base.tb_budget,
                                  base.capacities, base.p_hat, base.q_hat)
        problem, line = build(), [f"reports={len(sample)}", f"build={ms(build):.2f}ms"]
        for solver in (heuristic_uep_ram, solve_mrt, direct_uep_ram):
            line.append(f"{solver.__name__}={ms(lambda: solver(problem)):.2f}ms")
        mcs, counts = (plan := direct_uep_ram(problem).plan).mcs, plan.tb_counts
        print(*line, f"evaluate_plan={ms(lambda: evaluate_plan(problem, mcs, counts)):.3f}ms")


def maps(work: Path, config: dict, views, timeout: float, max_mb=float("inf")) -> bool:
    """psnr-map-sfn twice per view: each run exits 0 within ``max_mb``, each pair of CSVs the same."""
    for view, run in ((view, run) for view in views for run in (1, 2)):
        print(f"view={view} run={run}")
        code, peak_mb, _ = python("-m", "ewcast", "psnr-map-sfn", "--scenario",
                                  config_file(work, "users", config), "--erasure-view", view,
                                  "--out", str(work / f"{view}{run}"), timeout=timeout)
        if code or peak_mb > max_mb or run == 2 and not filecmp.cmp(
                *(work / f"{view}{r}/psnr_map_sfn.csv" for r in (1, 2)), shallow=False):
            return False
    return True


def memo_20_40(work: Path) -> bool:
    """solve on the 20/40 Mbps stream: no plan (exit 2) within 10 s and 400 MB."""
    start = time.perf_counter()
    code, peak_mb, out = python("-m", "ewcast", "solve", "--scenario",
                                config_file(work, "stream_20_40", STREAM_20_40), timeout=120)
    wall = time.perf_counter() - start
    return code == 2 and "budget=(2687, 5372)" in out and peak_mb <= 400 and wall <= 10


CHECKS = {
    "lost-grace": lambda work: python(
        "-c", "import ci_checks; ci_checks.pytest_without_grace()", timeout=120)[0] == 0,
    "reports-1e6": lambda work: python(
        "-c", "import ci_checks; ci_checks.time_reports()", timeout=120)[0] == 0,
    "users-1e5": lambda work: maps(work, USERS_1E5, ("evaluation", "allocator"), 60),
    "users-1e6": lambda work: maps(work, USERS_1E6, ("evaluation",), 120, max_mb=400),
    "memo-20-40": memo_20_40,
    "trials-1e7": lambda work: python("-m", "ewcast", "validate-approx", "--trials", "10000000",
                                      "--t-max", "2", "--out", str(work), timeout=120)[0] == 0,
    "scenarios": lambda work: all(config_file(work, name, config) for name, config in (
        ("five", FIVE_LAYER_SC), ("six", SIX_LAYER_SC), ("sfn", SFN),
        ("starved", dict(SC, gop_seconds=0.001)))),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("check", choices=CHECKS)
    p.add_argument("--out", type=Path, help="directory for its files (default: a temporary one)")
    args = p.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    with tempfile.TemporaryDirectory(prefix="ci-checks-") as tmp:
        (work := args.out or Path(tmp)).mkdir(parents=True, exist_ok=True)
        ok = CHECKS[args.check](work)
    print(f"{args.check}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
