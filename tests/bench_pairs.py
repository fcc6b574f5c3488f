"""Before/after benchmark numbers: alternating pairs of ``bench/run.py`` runs.

Run from anywhere::

    python tests/bench_pairs.py --parent ../parent --change . --pr 34 \\
        --pairs 10 --seconds 30 --seeds 0 7 --trace 5 --tier1 2 --out BENCH_34.json

``--parent`` and ``--change`` are two source checkouts (a ``git clone`` of
the parent commit, and the working tree; the same directory twice measures
the noise floor).  For each seed and pair, every workload runs once per
side, one after the other: the parent first on even pairs, the change first
on odd ones.  Each run is ``python3 bench/run.py --workload W --seed S
--seconds N`` in its checkout; its last stdout line is the result object and
the line before it the run details.

The JSON written holds, per workload and end-to-end metric: the median and
quartiles of each side, their ratio (change over parent) and the pairs the
change won (ties count for neither), as ``BENCH_33.json`` does.  The first
seed fills ``workloads``, later seeds ``held_out``.  ``--trace T`` adds T
alternating pairs of ``--trace 1`` runs per workload (first seed) and the
median of each per-layer metric per side; ``--tier1 R`` adds R alternating
Tier-1 runs per side with pytest's reported time; the net ``src/`` line
count of both sides is always written.  The script exits 1, after writing,
when a run of either side is not correct.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mc-grid", "exact-battery", "coverage-sweep")
HOST_KEYS = ("cores", "affinity_cores", "machine", "python", "numpy")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p.add_argument("--change", type=Path, required=True, help="change checkout")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    p.add_argument("--pr", type=int, default=None, help="number recorded in the JSON")
    p.add_argument("--note", default="", help="one line saying what the change is")
    p.add_argument("--claims-gain", default=None,
                   help="the metric the change claims to improve, as workload.metric")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--trace", type=int, default=0, metavar="T",
                   help="traced runs per side and workload, first seed (0: none)")
    p.add_argument("--tier1", type=int, default=0, metavar="R",
                   help="Tier-1 runs per side (0: none)")
    return p.parse_args(argv)


def bench(root: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One ``bench/run.py`` run in checkout ``root``: its result and details."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600, check=True)
    *_, info, result = done.stdout.strip().splitlines()
    result = json.loads(result)
    return {"correct": result["correct"], "info": json.loads(info)["info"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def better_direction(root: Path) -> dict[str, str]:
    """``lower``/``higher`` per end-to-end metric, from the checkout's BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summarise(runs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric: medians, quartiles, ratio and pair wins of (parent, change) runs."""
    out = {}
    for name, direction in better.items():
        parent = [p["metrics"][name] for p, _ in runs]
        change = [c["metrics"][name] for _, c in runs]
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        p_mid, c_mid = statistics.median(parent), statistics.median(change)
        out[name] = {
            "parent_median": round(p_mid, 4), "change_median": round(c_mid, 4),
            "ratio": round(c_mid / p_mid, 3) if p_mid else None,
            "parent_q1_q3": quartiles(parent), "change_q1_q3": quartiles(change),
            "change_better_pairs": wins, "pairs": len(runs),
        }
    out["correct_all"] = all(p["correct"] and c["correct"] for p, c in runs)
    return out


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(values[0], 4)] * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def alternating(count: int):
    """Side order of each of ``count`` pairs: the parent first on even pairs."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent") for i in range(count)]


def src_lines(root: Path) -> int:
    return sum(len(path.read_bytes().splitlines()) for path in (root / "src/ewcast").glob("*.py"))


def tier1(root: Path) -> tuple[int, float]:
    """Passed tests and pytest's reported seconds of one Tier-1 run."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=1800,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    last = done.stdout.strip().splitlines()[-1]
    passed = re.search(r"(\d+) passed", last)
    seconds = re.search(r"in ([\d.]+)s", last)
    return int(passed.group(1)) if passed else 0, float(seconds.group(1)) if seconds else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = better_direction(sides["change"])
    host, by_seed = {}, {}
    for seed in args.seeds:
        runs = {w: [] for w in WORKLOADS}
        for pair, order in enumerate(alternating(args.pairs)):
            for workload in WORKLOADS:
                got = {side: bench(sides[side], workload, seed, args.seconds) for side in order}
                runs[workload].append((got["parent"], got["change"]))
                host = host or {k: got["change"]["info"]["env"][k] for k in HOST_KEYS}
                print(f"seed {seed} pair {pair} {workload}: " + " ".join(
                    f"{side}={got[side]['metrics']['item_p50_ms']:.3f}ms" for side in order),
                    file=sys.stderr)
        by_seed[seed] = {w: summarise(r, better) for w, r in runs.items()}

    first, *held_out = args.seeds
    record = {
        "pr": args.pr, "change": args.note, "claims_gain": args.claims_gain or False,
        "host": host,
        "method": {
            "end_to_end": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds} "
                          f"in the parent and change checkouts; {args.pairs} alternating pairs "
                          "per workload and seed (parent first on even pairs), the workloads "
                          "interleaved within each pair; medians and inclusive quartiles per "
                          "side; change_better_pairs counts pairs the change won (ties count "
                          "for neither); written by tests/bench_pairs.py",
        },
        "seed": first,
        "workloads": by_seed[first],
        "held_out": {str(s): {"pairs": args.pairs, "workloads": by_seed[s]} for s in held_out},
        "src_lines": {side: src_lines(root) for side, root in sides.items()},
    }
    record["src_lines"]["net"] = record["src_lines"]["change"] - record["src_lines"]["parent"]
    if args.trace:
        traced = {}
        for workload in WORKLOADS:
            got = {side: [] for side in sides}
            for order in alternating(args.trace):
                for side in order:
                    got[side].append(bench(sides[side], workload, first, args.seconds,
                                           trace=1)["metrics"])
            names = sorted(set().union(*(run.keys() for runs in got.values() for run in runs)))
            medians = {name: {side: round(statistics.median(run.get(name, 0.0) for run in runs), 6)
                              for side, runs in got.items()} for name in names}
            traced[workload] = {name: m for name, m in medians.items() if any(m.values())}
        record["method"]["traced"] = (f"{args.trace} alternating pairs of --trace 1 runs per "
                                      f"workload, seed {first}, --seconds {args.seconds}; the "
                                      "median of each per-layer metric per side")
        record["traced"] = traced
    if args.tier1:
        results = {side: [] for side in sides}
        for order in alternating(args.tier1):
            for side in order:
                results[side].append(tier1(sides[side]))
        record["tier1"] = {side: {"passed": [p for p, _ in r], "pytest_s": [s for _, s in r]}
                           for side, r in results.items()}
        record["method"]["tier1"] = ("PYTHONPATH=src python -m pytest -q "
                                     "--continue-on-collection-errors, pytest's reported time, "
                                     f"{args.tier1} alternating runs per side")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if all(w["correct_all"] for runs in by_seed.values() for w in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
