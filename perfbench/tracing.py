"""Outside-in tracing of freightsim: wrap public functions, record stage spans.

freightsim's modules import each other's functions by name (``from
.stochastics import derive_stream``), so a caller looks a function up in its
own module's namespace.  :class:`Tracer` therefore replaces every binding of a
target function in every loaded ``freightsim`` module with a timing wrapper,
one wrapper per binding, and puts the originals back on exit.  Aggregates
are kept per lookup name (``freightsim.tripsim.sample_lognormal``) and can be
summed per defining function (``stochastics.sample_lognormal``).

Self time is a call's wall time minus the wall time of wrapped calls made
inside it.  The call stack is a plain list, so trace single-threaded runs
only.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "freightsim"

# (defining module, function) pairs, by layer.
TARGETS = (
    ("stochastics", "derive_stream"),
    ("stochastics", "lognormal_from_moments"),
    ("stochastics", "sample_lognormal"),
    ("tripsim", "simulate_trip"),
    ("tripsim", "generate_leg_distances"),
    ("tripsim", "assign_modes"),
    ("tripsim", "leg_cost"),
    ("evolution", "evolve_mode_state"),
    ("evolution", "compute_shared_means"),
    ("evolution", "run_replicate"),
    ("evolution", "run_scenario"),
    ("analysis", "summarize"),
    ("analysis", "empirical_crossover"),
    ("report", "write_records_csv"),
    ("report", "render_scatter_svg"),
    ("config", "load_config"),
    ("config", "resolve_registry"),
    ("modes", "builtin_modes"),
)

# Functions whose per-call wall times are kept, for percentiles.
KEEP_DURATIONS = ("evolution.run_replicate",)


class Tracer:
    """Per-name call counts, total and self time of wrapped functions."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.durations_ns: dict[str, list[int]] = defaultdict(list)
        self._qualname: dict[str, str] = {}
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or
                                           name.startswith(PACKAGE + "."))}
        try:
            for home, fn_name in TARGETS:
                original = getattr(modules[f"{PACKAGE}.{home}"], fn_name)
                for mod_name, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, self._wrap(
                                f"{mod_name}.{attr}", f"{home}.{fn_name}",
                                original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _wrap(self, lookup: str, qualname: str, fn):
        self._qualname[lookup] = qualname
        stack = self._stack
        calls, total, own = self.calls, self.total_ns, self.self_ns
        durations = (self.durations_ns[qualname]
                     if qualname in KEEP_DURATIONS else None)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[lookup] += 1
                total[lookup] += dt
                own[lookup] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if durations is not None:
                    durations.append(dt)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def by_function(self) -> dict[str, dict[str, float]]:
        """Aggregates summed over lookup names, keyed ``<module>.<fn>``."""
        out = {f"{home}.{fn_name}": {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for home, fn_name in TARGETS}
        for lookup, qual in self._qualname.items():
            agg = out[qual]
            agg["calls"] += self.calls[lookup]
            agg["total_s"] += self.total_ns[lookup] / 1e9
            agg["self_s"] += self.self_ns[lookup] / 1e9
        return out

    def snapshot(self) -> dict:
        """Plain-data copy of the aggregates, for the trace file."""
        return {name: {"calls": self.calls[name],
                       "total_s": self.total_ns[name] / 1e9,
                       "self_s": self.self_ns[name] / 1e9}
                for name in sorted(self.calls)}


class Spans:
    """Stage spans (name, start, end, parent) kept in memory."""

    def __init__(self):
        self.records: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter_ns()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    def __init__(self, owner: Spans, name: str):
        self.owner = owner
        self.name = name

    def __enter__(self):
        owner = self.owner
        self.record = {"id": len(owner.records), "name": self.name,
                       "parent": owner._open[-1] if owner._open else None,
                       "start_ns": time.perf_counter_ns() - owner._t0,
                       "end_ns": None}
        owner.records.append(self.record)
        owner._open.append(self.record["id"])
        return self

    def __exit__(self, *exc):
        self.record["end_ns"] = time.perf_counter_ns() - self.owner._t0
        self.owner._open.pop()
        return False
