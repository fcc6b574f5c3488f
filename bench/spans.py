"""Call spans around each module's public functions, recorded from outside.

``Tracer.install`` replaces every boundary function in every loaded
``ewcast`` module that binds it (the defining module, ``ewcast.allocators``,
``ewcast.cli``, the package itself), so calls across modules and calls
within one module both pass through a wrapper.  Spans are kept in memory as
flat arrays (function, parent span, start, end); ``summary`` derives calls,
inclusive busy time and self time (busy time minus time covered by child
spans) per function.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# display name -> (defining module, attribute path)
TARGETS = {
    "gf_rlnc.simulate_decode_prob": ("ewcast.gf_rlnc", "simulate_decode_prob"),
    **{f"decode_prob.{f}": ("ewcast.decode_prob", f) for f in (
        "window_decode_probs", "advance_deficit", "deficit_distribution",
        "success_over_budget", "receive_tail_table", "qos_levels",
        "max_psnr_uep", "max_psnr_mrt")},
    **{f"channel.{f}": ("ewcast.channel", f) for f in (
        "build_scenario", "sinr_at", "erasure_prob")},
    **{f"allocators.{f}": ("ewcast.allocators", f) for f in (
        "direct_uep_ram", "heuristic_uep_ram", "solve_s2", "evaluate_plan",
        "solve_mrt", "check_feasibility")},
    "cli.run_coverage_sc": ("ewcast.cli", "run_coverage_sc"),
    "cli.run_psnr_map_sfn": ("ewcast.cli", "run_psnr_map_sfn"),
    "cli.write_csv": ("ewcast.cli", "ExperimentResult.write_csv"),
}


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.missing: list[str] = []
        self.active = False
        self._fn = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []

    def _wrap(self, fid: int, fn):
        fns, parents, starts, ends, stack = (self._fn, self._parent, self._start,
                                             self._end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Patch every binding of each target; names absent are recorded."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ewcast" or n.startswith("ewcast."))]
        for fid, name in enumerate(self.names):
            module_name, path = TARGETS[name]
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(fid, original)
            setattr(owner, attr, wrapper)
            if outer:
                continue  # a method: patching the class covers every caller
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        setattr(module, key, wrapper)

    def summary(self) -> dict:
        """Per function: calls, busy_s (inclusive) and self_s."""
        n_fn = len(self.names)
        calls = [0] * n_fn
        busy = [0.0] * n_fn
        child = [0.0] * n_fn
        for fid, parent, start, end in zip(self._fn, self._parent,
                                           self._start, self._end):
            dur = end - start
            calls[fid] += 1
            busy[fid] += dur
            if parent >= 0:
                child[self._fn[parent]] += dur
        return {name: {"calls": calls[i], "busy_s": busy[i],
                       "self_s": busy[i] - child[i]}
                for i, name in enumerate(self.names)}

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made (at any depth) inside a call of ``ancestor``."""
        fid, aid = self.names.index(name), self.names.index(ancestor)
        under = array("b", bytes(len(self._fn)))
        count = 0
        for span, (f, parent) in enumerate(zip(self._fn, self._parent)):
            if parent >= 0 and (self._fn[parent] == aid or under[parent]):
                under[span] = 1
                if f == fid:
                    count += 1
        return count
