"""Layer spans and counters recorded from outside the program.

`Tracer.install` wraps the public entry points of each ghznet layer and
rebinds every module-level name bound to them (``expected_key_length`` in
``finite``, ``analysis`` and ``cli``, and so on), so calls between layers
go through the wrappers.  A span is (name, start, end, parent, unit); spans
are kept in flat arrays and written out by `Tracer.save`.  High-volume
helpers (yields, sifting, binary entropy) are only counted: a span per call
would distort the self times around them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable

# (module, attribute, span name); the layer is the first dotted component.
SPANS = (
    ("ghznet.cli", "main", "cli"),
    ("ghznet.config", "load_config", "config"),
    ("ghznet.config", "resolve_scenario", "config"),
    ("ghznet.tables", "ResultTable.render", "tables"),
    ("ghznet.reproduce", "run_reproduce", "reproduce"),
    ("ghznet.analysis", "find_threshold", "analysis.threshold"),
    ("ghznet.analysis", "advantage_profile", "analysis.profile"),
    ("ghznet.analysis", "optimized_fraction", "analysis.fraction"),
    ("ghznet.analysis", "best_cka_fraction", "analysis.fraction"),
    ("ghznet.analysis", "scenario_qbers", "analysis.scenario_qbers"),
    ("ghznet.optimize", "maximize_unit_interval", "optimize"),
    ("ghznet.finite", "expected_key_length", "finite.key_length"),
    ("ghznet.finite", "bipartite_optimal", "finite.bipartite"),
    ("ghznet.rates", "asymptotic_rate", "rates"),
    ("ghznet.rates", "hbb_rate", "rates"),
    ("ghznet.rates", "cka_equals_qss_check", "rates"),
    ("ghznet.memory", "expected_memory_qbers", "memory.qbers"),
    ("ghznet.memory", "expected_alpha_beta", "memory.alpha_beta"),
    ("ghznet.noise", "memoryless_qber", "noise"),
    ("ghznet.noise", "memory_qbers", "noise"),
    ("ghznet.noise", "memory_qbers_from_exponents", "noise"),
    ("ghznet.noise", "ghz_prefactors", "noise"),
    ("ghznet.noise", "pair_coefficients", "noise"),
    ("ghznet.noise", "alpha_beta_closed_form", "noise"),
    ("ghznet.oracle", "oracle_grid", "oracle.grid"),
    ("ghznet.oracle", "alpha_beta_subset_sum", "oracle.subset_sum"),
    ("ghznet.network", "simulate_sifting", "network.sift_mc"),
)

# (module, attribute, counter name): call counts only, no spans.
COUNTED = (
    ("ghznet.network", "yields", "network.calls"),
    ("ghznet.network", "sifting", "network.calls"),
    ("ghznet.network", "expected_counts", "network.calls"),
    ("ghznet.core", "binary_entropy", "core.entropy.calls"),
)

ROOT = "bench.unit"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.name_id = {ROOT: 0}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.unit = array("q")
        self.stack: list[int] = [-1]
        self.counts: Counter[str] = Counter()
        self.active = False
        self.unit_index = -1
        self.missing: list[str] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.unit.append(self.unit_index)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def run_unit(self, unit_index: int, fn: Callable[[], Any]) -> Any:
        """Call fn as one traced unit: the root span of its layer spans."""
        self.unit_index = unit_index
        self.active = True
        index = self._open(0)
        try:
            return fn()
        finally:
            self._close(index)
            self.active = False

    def inside(self, name: str) -> bool:
        name_id = self.name_id.get(name)
        return any(i >= 0 and self.span_name[i] == name_id for i in self.stack)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        name_id = self.name_id.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        before, after = self._hooks(fn, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, counter: str) -> Callable:
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, fn: Callable, name: str):
        """Per-layer counters taken at the span boundary."""
        counts = self.counts
        signature = inspect.signature(fn)

        def argument(args, kwargs, key):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments[key]

        if name == "optimize":

            def count_evals(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                objective = bound.arguments["f"]

                def counted(x):
                    value = objective(x)
                    counts["optimize.evals"] += 1
                    if value > 0.0:
                        counts["optimize.positive"] += 1
                    return value

                bound.arguments["f"] = counted
                return bound.args, bound.kwargs

            def indeterminate(args, kwargs, result):
                counts["optimize.indeterminate"] += bool(result.indeterminate)

            return count_evals, indeterminate
        if name == "finite.key_length":
            return None, lambda a, k, r: counts.update(["finite.key_length.ok"] if r.status == "ok" else ())
        if name == "finite.bipartite":

            def rate_eval(args, kwargs, result):
                if self.inside("analysis.threshold"):
                    counts["analysis.threshold.rate_evals"] += 1

            return None, rate_eval
        if name == "analysis.profile":
            return None, lambda a, k, r: counts.update({"analysis.profile.rows": len(r.rows)})
        if name == "memory.alpha_beta":
            return None, lambda a, k, r: counts.update({"memory.samples": argument(a, k, "samples")})
        if name == "network.sift_mc":
            return None, lambda a, k, r: counts.update({"network.sift_mc.rounds": argument(a, k, "rounds")})
        if name == "oracle.grid":
            return None, lambda a, k, r: counts.update({"oracle.grid_points": len(r)})
        if name == "tables":

            def table_size(args, kwargs, result):
                counts["tables.rows"] += len(args[0].rows)
                counts["tables.bytes"] += len(result.encode("utf-8"))

            return None, table_size
        return None, None

    def install(self) -> None:
        """Wrap every listed entry point and rebind it in all ghznet modules."""
        for module_name, attribute, name in SPANS:
            self._patch(module_name, attribute, lambda fn, n=name: self._span_wrapper(fn, n))
        for module_name, attribute, counter in COUNTED:
            self._patch(module_name, attribute, lambda fn, c=counter: self._count_wrapper(fn, c))

    def _patch(self, module_name: str, attribute: str, make: Callable[[Callable], Callable]) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}")
            return
        owner_name, _, attr = attribute.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{attribute}")
            return
        wrapper = make(original)
        if owner_name:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ghznet" or mod_name.startswith("ghznet.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, self seconds); and the root spans' total."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.span_name, dtype=np.uint16)
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
        self_time = duration - child
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self_time, minlength=len(self.names))
        per_name = {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}
        root_total = float(duration[names == 0].sum())
        return per_name, root_total

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            unit=np.frombuffer(self.unit, dtype=np.int64),
        )


PER_LAYER = (
    # (metric, unit)
    ("finite.key_length.calls", "count"),
    ("finite.key_length.self_s", "s"),
    ("finite.key_length.ok_frac", "ratio"),
    ("finite.bipartite.calls", "count"),
    ("finite.bipartite.self_s", "s"),
    ("finite.self_s", "s"),
    ("optimize.calls", "count"),
    ("optimize.evals", "count"),
    ("optimize.evals_per_call", "count"),
    ("optimize.positive_frac", "ratio"),
    ("optimize.indeterminate", "count"),
    ("optimize.self_s", "s"),
    ("analysis.threshold.calls", "count"),
    ("analysis.threshold.rate_evals", "count"),
    ("analysis.threshold.self_s", "s"),
    ("analysis.profile.calls", "count"),
    ("analysis.profile.rows", "count"),
    ("analysis.profile.self_s", "s"),
    ("analysis.fraction.calls", "count"),
    ("analysis.scenario_qbers.calls", "count"),
    ("analysis.self_s", "s"),
    ("memory.calls", "count"),
    ("memory.samples", "count"),
    ("memory.self_s", "s"),
    ("noise.calls", "count"),
    ("noise.self_s", "s"),
    ("rates.calls", "count"),
    ("rates.self_s", "s"),
    ("config.calls", "count"),
    ("config.self_s", "s"),
    ("tables.rows", "count"),
    ("tables.bytes", "bytes"),
    ("tables.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("oracle.grid_points", "count"),
    ("oracle.grid.self_s", "s"),
    ("oracle.subset_sum.calls", "count"),
    ("oracle.subset_sum.self_s", "s"),
    ("oracle.self_s", "s"),
    ("network.sift_mc.rounds", "count"),
    ("network.sift_mc.self_s", "s"),
    ("network.calls", "count"),
    ("core.entropy.calls", "count"),
    ("tracing.overhead_s", "s"),
    ("tracing.coverage", "ratio"),
)


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced run, every name in PER_LAYER."""
    per_name, root_total = tracer.totals()
    counts = tracer.counts

    def calls(*names: str) -> int:
        return sum(per_name.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names: str) -> float:
        return sum(per_name.get(n, (0, 0.0))[1] for n in names)

    def layer(prefix: str) -> list[str]:
        return [n for n in per_name if n == prefix or n.startswith(prefix + ".")]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    key_length_calls = calls("finite.key_length")
    optimize_calls = calls("optimize")
    evals = counts["optimize.evals"]
    covered = sum(s for n, (_, s) in per_name.items() if n != ROOT)
    return {
        "finite.key_length.calls": key_length_calls,
        "finite.key_length.self_s": self_s("finite.key_length"),
        "finite.key_length.ok_frac": ratio(counts["finite.key_length.ok"], key_length_calls),
        "finite.bipartite.calls": calls("finite.bipartite"),
        "finite.bipartite.self_s": self_s("finite.bipartite"),
        "finite.self_s": self_s(*layer("finite")),
        "optimize.calls": optimize_calls,
        "optimize.evals": evals,
        "optimize.evals_per_call": ratio(evals, optimize_calls),
        "optimize.positive_frac": ratio(counts["optimize.positive"], evals),
        "optimize.indeterminate": counts["optimize.indeterminate"],
        "optimize.self_s": self_s("optimize"),
        "analysis.threshold.calls": calls("analysis.threshold"),
        "analysis.threshold.rate_evals": counts["analysis.threshold.rate_evals"],
        "analysis.threshold.self_s": self_s("analysis.threshold"),
        "analysis.profile.calls": calls("analysis.profile"),
        "analysis.profile.rows": counts["analysis.profile.rows"],
        "analysis.profile.self_s": self_s("analysis.profile"),
        "analysis.fraction.calls": calls("analysis.fraction"),
        "analysis.scenario_qbers.calls": calls("analysis.scenario_qbers"),
        "analysis.self_s": self_s(*layer("analysis")),
        "memory.calls": calls("memory.alpha_beta"),
        "memory.samples": counts["memory.samples"],
        "memory.self_s": self_s(*layer("memory")),
        "noise.calls": calls("noise"),
        "noise.self_s": self_s("noise"),
        "rates.calls": calls("rates"),
        "rates.self_s": self_s("rates"),
        "config.calls": calls("config"),
        "config.self_s": self_s("config"),
        "tables.rows": counts["tables.rows"],
        "tables.bytes": counts["tables.bytes"],
        "tables.self_s": self_s("tables"),
        "cli.calls": calls("cli"),
        "cli.self_s": self_s("cli"),
        "oracle.grid_points": counts["oracle.grid_points"],
        "oracle.grid.self_s": self_s("oracle.grid"),
        "oracle.subset_sum.calls": calls("oracle.subset_sum"),
        "oracle.subset_sum.self_s": self_s("oracle.subset_sum"),
        "oracle.self_s": self_s(*layer("oracle")),
        "network.sift_mc.rounds": counts["network.sift_mc.rounds"],
        "network.sift_mc.self_s": self_s("network.sift_mc"),
        "network.calls": counts["network.calls"],
        "core.entropy.calls": counts["core.entropy.calls"],
        "tracing.overhead_s": overhead_s,
        "tracing.coverage": ratio(covered, root_total),
    }
