#!/usr/bin/env python3
"""ewcast benchmark: one workload per run, timed end to end or per module.

    python3 bench/run.py --workload mc-grid --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  Workloads
(``bench/workloads.py``) run serially, one item after another, in this one
process; the run length sets a fixed number of passes, ``round(seconds /
nominal pass time)``, so two commits measured with the same ``--seconds`` do
the same work.  Set-up (a fresh interpreter importing ``ewcast`` and building
the inputs) is timed in this process and in SETUP_PROBES fresh child
interpreters, and the median is reported.

Timed end-to-end metrics are scaled by a calibration loop timed between
items (``HostClock``), because this host's speed drifts over minutes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs pass 0
untraced (warm-up), then every pass with call spans around each module's
public functions (``bench/spans.py``), and prints the per-layer metrics.  In
pass 0 each item also runs untraced next to its traced run, which gives the
tracing overhead.  The last stdout line is the result object; the line
before it carries run details (host, versions, raw times, counts, failures).
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
# the keys of workloads.WORKLOADS, which cannot be imported before set-up
WORKLOAD_NAMES = ("mc-grid", "exact-battery", "coverage-sweep")
DEFAULT_SEED = 0
SETUP_PROBES = 2
CALIB_EVERY_S = 0.5
CALIB_REF_MS = 8.0  # chunk time of the 2-core x86_64 host the baseline was taken on
PASS_DEADLINE_S = 120.0  # start no pass after this long, so a run ends in time
MAX_FAILURE_LINES = 20


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up only and print it (used by the run itself)")
    p.add_argument("--write-golden", action="store_true",
                   help="record this run's outputs in golden.json as the "
                        "golden outputs for its seed")
    return p.parse_args(argv)


def setup(name: str, seed: int, seconds: int):
    """Import ewcast from the checkout and build the inputs; timed."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ewcast

    if Path(ewcast.__file__).resolve().parent != SRC / "ewcast":
        raise SystemExit(f"ewcast imported from {ewcast.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[name]
    passes = max(1, round(seconds / wl.nominal_pass_s))
    inputs = [wl.make_inputs(seed, p) for p in range(passes)]
    return wl, inputs, time.perf_counter() - start


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def import_times() -> dict:
    """Cumulative import time of ewcast and of all scipy modules, in s."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ewcast"
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, timeout=120, check=True,
                          cwd=ROOT)
    entries = []
    for line in done.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    ewcast_s = scipy_s = 0.0
    stack: list[tuple[int, bool]] = []  # (depth, inside a scipy import)
    # importtime prints children before their parent; walk it parent first
    for depth, module, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = module == "scipy" or module.startswith("scipy.")
        if is_scipy and not inside:
            scipy_s += cumulative
        if module == "ewcast":
            ewcast_s = cumulative
        stack.append((depth, inside or is_scipy))
    return {"import.ewcast_s": ewcast_s, "import.scipy_s": scipy_s}


def calib_chunk_ms() -> float:
    """One fixed pure-Python plus small-array numpy loop, timed in ms."""
    import numpy as np  # here, not at the top: ewcast's import of numpy is set-up

    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
    a = np.arange(64, dtype=float)
    for _ in range(600):
        a = np.sqrt(a * a + 1.0)[::-1].copy()
    return (time.perf_counter() - start) * 1e3


class HostClock:
    """Host-speed calibration interleaved with the workload.

    The host's speed drifts by tens of percent over minutes: ten mc-grid
    runs, whose work hardly depends on the seed, took 18.8-26.4 s within ten
    minutes on a 2-core x86_64 host, and the calibration chunk moved with
    them.  So between items, at least every CALIB_EVERY_S, one calibration
    chunk is timed, and each item time is scaled by CALIB_REF_MS over the
    median of the five chunks nearest to it (about 2.5 s of run): a time in
    seconds of a host whose chunk takes CALIB_REF_MS.  The median keeps one disturbed chunk from moving an item.
    Raw times are reported beside the scaled ones.
    """

    def __init__(self):
        self.chunks: list[float] = []
        self.items: list[tuple[float, int]] = []  # (raw s, chunks before it)
        self._last = -math.inf

    def between_items(self) -> None:
        if time.perf_counter() - self._last >= CALIB_EVERY_S:
            self.chunks.append(calib_chunk_ms())
            self._last = time.perf_counter()

    def add(self, raw_s: float) -> None:
        self.items.append((raw_s, len(self.chunks)))

    def scaled(self) -> list[float]:
        self.chunks.append(calib_chunk_ms())  # closes the last segment
        return [raw * CALIB_REF_MS / statistics.median(self.chunks[max(k - 3, 0):k + 2])
                for raw, k in self.items]


def setup_samples(args, own_setup_s: float) -> tuple[list[float], list[float]]:
    """Raw and host-scaled set-up times: this process plus SETUP_PROBES.

    Each sample is scaled by the median of the calibration chunks timed just
    before and just after it (three each; only after, for this process).
    """
    def chunks():
        return [calib_chunk_ms() for _ in range(3)]

    before = chunks()
    raw, scaled = [own_setup_s], [own_setup_s * CALIB_REF_MS / statistics.median(before)]
    for _ in range(SETUP_PROBES):
        sample = probe_setup(args)
        after = chunks()
        raw.append(sample)
        scaled.append(sample * CALIB_REF_MS / statistics.median(before + after))
        before = after
    return raw, scaled


def run_items(wl, items, tmp_dir, golden, clock, tracer=None, paired=False):
    """Run items serially; return item times, base times, failures, outputs.

    With ``paired``, each item also runs once untraced (its time goes to the
    base times, its output is dropped) right before its traced run or, on odd
    items, right after it, so host speed drift and warm-cache order effects
    cancel out of the tracing overhead ratio.
    """
    times, base, failures, outputs = [], [], [], []

    def untraced(item):
        start = time.perf_counter()
        try:
            wl.run(item, tmp_dir)
        except Exception:  # the traced run records the failure
            pass
        base.append(time.perf_counter() - start)

    for i, item in enumerate(items):
        clock.between_items()
        if paired and i % 2 == 0:
            untraced(item)
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = wl.run(item, tmp_dir)
        except Exception:  # an item that raises is a failed item, not a crash
            out = None
            failures.append(f"{item['key']}: raised\n{traceback.format_exc()}")
        finally:
            if tracer is not None:
                tracer.active = False
        times.append(time.perf_counter() - start)
        clock.add(times[-1])
        if paired and i % 2 == 1:
            untraced(item)
        if out is None:
            continue
        try:
            errors = wl.check(item, out, golden.get(item["key"]))
        except Exception:
            errors = [f"check raised\n{traceback.format_exc()}"]
        if errors:
            failures.append(f"{item['key']}: " + "; ".join(errors))
        outputs.append((item, out))
    return times, base, failures, outputs


def load_golden(wl, seed: int) -> dict:
    if not GOLDEN.is_file():
        return {}
    record = json.loads(GOLDEN.read_text()).get(wl.name, {})
    if record.get("any_seed") or record.get("seed") == seed:
        return record.get("items", {})
    return {}


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with 10 items beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def layer_metrics(tracer, wl, outputs, traced_s: float, base_s: float,
                  base_traced_s: float) -> dict:
    stats = tracer.summary()
    metrics = {}
    for name, rec in stats.items():
        metrics[f"{name}.calls"] = (rec["calls"], "count")
        metrics[f"{name}.busy_s"] = (rec["busy_s"], "s")
        metrics[f"{name}.self_s"] = (rec["self_s"], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    sim = stats["gf_rlnc.simulate_decode_prob"]
    trials = getattr(wl, "trials", 0) * sim["calls"]
    metrics["gf_rlnc.simulate_decode_prob.trials_per_s"] = (
        ratio(trials, sim["busy_s"]), "1/s")
    solves = stats["allocators.direct_uep_ram"]["calls"]
    tables = tracer.calls_under("decode_prob.success_over_budget",
                                "allocators.direct_uep_ram")
    deficits = tracer.calls_under("decode_prob.advance_deficit",
                                  "allocators.direct_uep_ram")
    points = sum(item.get("points", 0) for item, _ in outputs)
    metrics["allocators.direct_uep_ram.tables_per_solve"] = (ratio(tables, solves), "count")
    metrics["allocators.direct_uep_ram.deficits_per_solve"] = (ratio(deficits, solves), "count")
    metrics["allocators.direct_uep_ram.tables_per_point"] = (ratio(tables, points), "ratio")
    s2 = tracer.calls_under("allocators.solve_s2", "allocators.heuristic_uep_ram")
    metrics["allocators.heuristic_uep_ram.s2_per_solve"] = (
        ratio(s2, stats["allocators.heuristic_uep_ram"]["calls"]), "count")
    metrics["cli.write_csv.bytes"] = (
        sum(out.get("bytes", 0) for _, out in outputs), "B")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead"] = (ratio(base_traced_s, base_s), "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ewcast" / "__init__.py").is_file():
        print(f"error: no ewcast sources under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    wl, inputs, own_setup_s = setup(args.workload, args.seed, args.seconds)
    passes = len(inputs)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    run_start = time.perf_counter()
    setup_raw, setup_scaled = setup_samples(args, own_setup_s)
    golden = {} if args.write_golden else load_golden(wl, args.seed)
    clock = HostClock()

    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".run-") as tmp:
        times, failures, outputs, done, untraced_items = [], [], [], 0, 0
        base_s = base_traced_s = 0.0
        tracer = None
        if args.trace:
            import spans

            # Pass 0 runs untraced first to warm lazy imports and caches.
            t0, _, failures, _ = run_items(wl, inputs[0], tmp, golden, HostClock())
            untraced_items = len(t0)
            tracer = spans.Tracer()
            tracer.install()
        for p, items in enumerate(inputs):
            if time.perf_counter() - run_start > PASS_DEADLINE_S:
                break
            t, b, f, o = run_items(wl, items, tmp, golden, clock, tracer,
                                   paired=tracer is not None and p == 0)
            if b:
                base_s, base_traced_s = sum(b), sum(t)
            times += t
            failures += f
            outputs += o
            done += 1
            if not (args.trace or args.write_golden):
                outputs.clear()  # only tracing and golden recording read them

    scaled = clock.scaled()
    calib = statistics.median(clock.chunks)
    attempted = len(times) + untraced_items
    failed = len(failures)
    tail_s, tail_pct = tail(scaled)
    raw_tail_s, _ = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": done, "passes_planned": passes,
        "items": len(times), "fail_frac": failed / max(attempted, 1),
        "item_tail_percentile": tail_pct,
        "raw": {"wall_s": sum(times), "setup_s": statistics.median(setup_raw),
                "item_p50_ms": statistics.median(times) * 1e3,
                "item_tail_ms": raw_tail_s * 1e3},
        "setup_samples_s": setup_raw, "setup_samples_scaled_s": setup_scaled,
        "host.calib_ms": calib, "calib_chunks": len(clock.chunks),
        "calib_range_ms": [min(clock.chunks), max(clock.chunks)],
        "env": environment(),
    }
    for line in failures[:MAX_FAILURE_LINES]:
        print(f"FAIL {line}", file=sys.stderr)

    if args.write_golden:
        if failures:
            print("error: not recording golden outputs from a failing run", file=sys.stderr)
            return 1
        record = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        record[wl.name] = {
            "seed": args.seed, "any_seed": bool(getattr(wl, "golden_any_seed", False)),
            "items": {item["key"]: wl.golden(out) for item, out in outputs},
        }
        GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    if args.trace:
        metrics = layer_metrics(tracer, wl, outputs, sum(times), base_s, base_traced_s)
        metrics.update({k: (v, "s") for k, v in import_times().items()})
        metrics["host.calib_ms"] = (calib, "ms")
        info["missing_functions"] = tracer.missing
    else:
        metrics = {
            "wall_s": (sum(scaled), "s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "item_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "item_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_frac": ((attempted - failed) / max(attempted, 1), "frac"),
        }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and done == passes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
