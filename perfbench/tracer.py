"""Span tracing installed from outside the package.

`Tracer.install()` replaces each traced function under every name its
callers look it up by (a module attribute or a `STRATEGIES` entry) with a
wrapper that records a span: name, start, end, parent span and solve id.
`Tracer.uninstall()` puts every original object back. Nothing under
`src/` is edited, and with tracing off no name is touched.

A solve id is allocated when a strategy function is entered outside any
other solve, so every span below it carries that id. Spans stay in memory
until `write_spans` is called at the end of a run.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

import tera_tc.distance_power
import tera_tc.strategies

# By module name: `tera_tc.waterfill` the attribute is the function, which
# the package re-exports over its submodule.
_MODULES = {
    name: importlib.import_module(f"tera_tc.{name}")
    for name in ("assignment", "channel", "cli", "distance_power", "experiments",
                 "scenario", "strategies", "waterfill")
}
_STRATEGIES = tera_tc.strategies.STRATEGIES

#: (metric name, defining module, function, modules whose callers bind it).
#: A strategy function is also replaced in the shared `STRATEGIES` table,
#: which is how the experiment drivers call it.
TRACED = (
    ("cli.main", "cli", "main", ("cli",)),
    ("scenario.load_scenario", "scenario", "load_scenario", ("scenario", "cli")),
    ("channel.bundled_absorption_table", "channel", "bundled_absorption_table", ("channel", "scenario")),
    ("channel.log_inverse_gain", "channel", "log_inverse_gain", ("channel", "strategies", "distance_power")),
    ("assignment.hungarian_assign", "assignment", "hungarian_assign", ("strategies",)),
    ("waterfill.waterfill", "waterfill", "waterfill", ("strategies",)),
    ("distance_power.solve_stationarity_snr", "distance_power", "solve_stationarity_snr", ("distance_power",)),
    ("distance_power.optimal_distance_pair", "distance_power", "optimal_distance_pair", ("distance_power", "experiments")),
    ("distance_power.max_distance", "distance_power", "max_distance", ("distance_power",)),
    ("distance_power.classify_regime", "distance_power", "classify_regime", ("strategies",)),
    ("distance_power.iterate_power_distance", "distance_power", "iterate_power_distance", ("strategies",)),
    ("strategies.fixed_distance_tc_max", "strategies", "fixed_distance_tc_max", ("strategies",)),
    ("strategies.sum_rate_max", "strategies", "sum_rate_max", ("strategies",)),
    ("strategies.proposed_tc_max", "strategies", "proposed_tc_max", ("strategies",)),
    ("strategies.distance_max_benchmark", "strategies", "distance_max_benchmark", ("strategies",)),
    ("strategies.non_adaptive_benchmark", "strategies", "non_adaptive_benchmark", ("strategies",)),
    ("strategies.audit_allocation", "strategies", "audit_allocation", ("strategies", "experiments")),
    ("experiments.run_experiment", "experiments", "run_experiment", ("experiments", "cli")),
    ("experiments.write_results", "experiments", "write_results", ("experiments", "cli")),
)

#: Counters derived at the traced boundaries (see `Tracer` hooks).
COUNTERS = (
    ("channel.log_inverse_gain.elems", "count"),
    ("distance_power.solve_stationarity_snr.elems", "count"),
    ("distance_power.inner_iters", "count"),
    ("distance_power.pinned_devices", "count"),
    ("assignment.churn", "count"),
    ("assignment.changed_rounds_ratio", "ratio"),
    ("strategies.proposed.improving_rounds_ratio", "ratio"),
    ("experiments.bytes_written", "B"),
)

_STRATEGY_FUNCS = {
    "fixed_distance_tc_max", "sum_rate_max", "proposed_tc_max",
    "distance_max_benchmark", "non_adaptive_benchmark",
}
_IMPROVING_REL = 1e-9


def targets():
    """Every (owner, key, original) slot the tracer replaces.

    `original` is the function object defined by its own module, so a
    slot holding anything else has been left patched.
    """
    out = []
    for _, home, func, callers in TRACED:
        original = getattr(_MODULES[home], func)
        for caller in callers:
            out.append((_MODULES[caller], func, original))
        if func in _STRATEGY_FUNCS:
            for key, fn in _STRATEGIES.items():
                if fn is original:
                    out.append((_STRATEGIES, key, original))
    return out


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, solve]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._solve = 0
        self._solve_strategy: dict[int, str] = {}
        self._last_assign: dict[int, np.ndarray] = {}
        self._best_tc: dict[int, float] = {}
        self._saved: list[tuple] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, home, func, _ in TRACED:
            original = getattr(_MODULES[home], func)
            wrappers[id(original)] = self._wrap(name, func, original)
        for owner, key, original in targets():
            current = _get(owner, key)
            if current is not original:
                self.uninstall()
                raise RuntimeError(f"{key} is already replaced; refusing to trace")
            self._saved.append((owner, key, original))
            _set(owner, key, wrappers[id(original)])

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, func: str, fn):
        hook = getattr(self, "_after_" + func, None)
        starts_solve = func in _STRATEGY_FUNCS
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            new_solve = starts_solve and self._solve_of_stack() == 0
            if new_solve:
                self._solve += 1
                self._solve_strategy[self._solve] = func
            idx = len(spans)
            solve = self._solve if new_solve else self._solve_of_stack()
            span = [name, clock(), 0.0, stack[-1] if stack else -1, solve]
            spans.append(span)
            stack.append(idx)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(span[4], args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _solve_of_stack(self) -> int:
        return self.spans[self._stack[-1]][4] if self._stack else 0

    def _after_log_inverse_gain(self, solve, args, kwargs, result, error):
        if error is None:
            self.counters["channel.log_inverse_gain.elems"] += np.size(result)

    def _after_solve_stationarity_snr(self, solve, args, kwargs, result, error):
        if error is None:
            self.counters["distance_power.solve_stationarity_snr.elems"] += np.size(result)

    def _after_iterate_power_distance(self, solve, args, kwargs, result, error):
        if error is None:
            self.counters["distance_power.inner_iters"] += result.iterations
        elif isinstance(error, tera_tc.distance_power.ConvergenceError):
            config = args[5] if len(args) > 5 else kwargs.get(
                "config", tera_tc.distance_power.SolverConfig()
            )
            self.counters["distance_power.inner_iters"] += config.max_inner
        if self._solve_strategy.get(solve) != "proposed_tc_max":
            return
        self.counters["proposed.rounds"] += 1
        if error is None:
            best = self._best_tc.get(solve)
            if best is None or result.tc > best * (1.0 + _IMPROVING_REL):
                self.counters["proposed.improving_rounds"] += 1
            if best is None or result.tc > best:
                self._best_tc[solve] = result.tc

    def _after_hungarian_assign(self, solve, args, kwargs, result, error):
        if error is not None:
            return
        prev = self._last_assign.get(solve)
        self._last_assign[solve] = result
        if prev is not None and prev.shape == result.shape:
            changed = int(np.count_nonzero(prev != result))
            self.counters["assignment.churn"] += changed
            self.counters["assignment.rounds_after_first"] += 1
            self.counters["assignment.changed_rounds"] += changed > 0

    def _after_proposed_tc_max(self, solve, args, kwargs, result, error):
        self._last_assign.pop(solve, None)
        self._best_tc.pop(solve, None)
        if error is None:
            self.counters["distance_power.pinned_devices"] += sum(
                r == tera_tc.distance_power.Regime.DISTANCE_MAXIMIZED.value
                for r in result.regimes
            )

    def _after_write_results(self, solve, args, kwargs, result, error):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        if error is None and path is not None and os.path.exists(path):
            self.counters["experiments.bytes_written"] += os.path.getsize(path)

    # -- reduction -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total_s (span durations) and self_s
        (duration minus the time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name, *_ in TRACED}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def derived(self) -> dict[str, float]:
        """The COUNTERS values, ratios taken against their stated bases."""
        c = self.counters
        out = {name: float(c.get(name, 0.0)) for name, _ in COUNTERS}
        after_first = c.get("assignment.rounds_after_first", 0.0)
        out["assignment.changed_rounds_ratio"] = (
            c.get("assignment.changed_rounds", 0.0) / after_first if after_first else 0.0
        )
        rounds = c.get("proposed.rounds", 0.0)
        out["strategies.proposed.improving_rounds_ratio"] = (
            c.get("proposed.improving_rounds", 0.0) / rounds if rounds else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines (times relative to the
        first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, solve) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "solve": solve,
                }) + "\n")
