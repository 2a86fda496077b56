"""In-memory span tracer that wraps cohdasim functions from outside.

A span records (name, start, end, parent, delivery). Spans are created by
replacing a module attribute with a timing wrapper, so the package itself
carries no tracing code. Hot helpers are "leaf" spans: their calls are
aggregated per parent span as (count, total seconds) instead of one record
each, which bounds memory and overhead. Every span opened while an agent
handles one delivery carries that delivery's id.

Self time of a span is its duration minus the time covered by its child
spans (full and aggregated), so the self times of all spans of a tree sum
to the duration of its root.
"""

from __future__ import annotations

import json
import time
from typing import Callable

# Span record fields.
NAME, START, END, PARENT, DELIVERY, AGG, NOTE = range(7)

# Layer of every span name: the module whose code the span's self time runs.
LAYER_OF = {
    "bench.rep": "bench",
    "cli.main": "cli",
    "cli.cmd_run": "cli",
    "cli.load_scenario": "cli",
    "cli.load_design": "cli",
    "evaluation.run_scenario_full": "evaluation",
    "evaluation.run_sweep": "evaluation",
    "evaluation.brute_force_optimum": "evaluation",
    "evaluation.worst_case_bound": "evaluation",
    "evaluation.greedy_baseline": "evaluation",
    "evaluation.EnumerationOracle": "evaluation",
    "evaluation.materialize": "scenario",
    "scenario.sample_feasible_schedules": "flexibility",
    "scenario.topology.small_world": "topology",
    "evaluation.run": "simnet",
    "simnet.handle_start": "agent",
    "simnet.handle_message": "agent",
    "agent._merge": "agent",
    "agent._choose_index": "agent",
    "simnet.encoded_length": "wire",
    "simnet.compare": "core",
    "agent.compare": "core",
    "core.configuration_key": "core",
}


class Tracer:
    """Collects spans of one process; not thread-safe (cohdasim is not
    threaded)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.delivery: int | None = None
        self.deliveries = 0
        self.observed: dict[str, list] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.delivery, None, None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, *, leaf: bool = False, delivery: bool = False,
             observe: Callable | None = None):
        """Timing wrapper around ``fn``. ``leaf`` aggregates calls into the
        parent span; ``delivery`` starts a new delivery id; ``observe(args,
        result)`` returns a value kept under ``name`` (called after the span
        closed, so its cost lands in the parent's self time)."""
        clock, spans, stack = time.perf_counter, self.spans, self.stack
        kept = self.observed.setdefault(name, [])

        if leaf:
            def leaf_wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    if stack:
                        parent = spans[stack[-1]]
                        agg = parent[AGG]
                        if agg is None:
                            agg = parent[AGG] = {}
                        entry = agg.get(name)
                        if entry is None:
                            agg[name] = [1, dt]
                        else:
                            entry[0] += 1
                            entry[1] += dt
                    else:  # a leaf outside every span: keep it as an orphan
                        spans.append([name, t0, t0 + dt, None, self.delivery, None, None])

            return leaf_wrapper

        def wrapper(*args, **kwargs):
            if delivery:
                self.delivery = self.deliveries
                self.deliveries += 1
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
                if delivery:
                    self.delivery = None
            if observe is not None:
                note = observe(args, result)
                spans[index][NOTE] = note
                kept.append(note)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> bool:
        """Replace ``owner.attr`` by a wrapper; False if the name is gone."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, **options))
        return True

    def unpatch(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, list]]:
        """Per-name self seconds, and per-name [calls, inclusive seconds]."""
        child_cover = [0.0] * len(self.spans)
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                child_cover[parent] += span[END] - span[START]
        self_s: dict[str, float] = {}
        totals: dict[str, list] = {}
        for i, span in enumerate(self.spans):
            name, duration = span[NAME], span[END] - span[START]
            covered = child_cover[i]
            for leaf, (count, seconds) in (span[AGG] or {}).items():
                covered += seconds
                self_s[leaf] = self_s.get(leaf, 0.0) + seconds
                entry = totals.setdefault(leaf, [0, 0.0])
                entry[0] += count
                entry[1] += seconds
            self_s[name] = self_s.get(name, 0.0) + duration - covered
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += duration
        return self_s, totals

    def roots(self) -> list[list]:
        return [s for s in self.spans if s[PARENT] is None]

    def durations(self, name: str, note=...) -> list[float]:
        """Durations of the full spans called ``name`` (optionally only those
        whose note equals ``note``)."""
        return [
            s[END] - s[START]
            for s in self.spans
            if s[NAME] == name and (note is ... or s[NOTE] == note)
        ]

    def write(self, path) -> None:
        """One JSON line per span: [name, start, end, parent index, delivery
        id, aggregated leaf children {name: [count, seconds]}]."""
        with open(path, "w") as fh:
            for name, start, end, parent, delivery, agg, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, delivery, agg]) + "\n")
