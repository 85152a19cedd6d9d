"""Spans around each layer's public functions, recorded by the benchmark.

A traced pass replaces each layer function at the module attribute its
caller looks it up through (``harness.simulate``, ``qzd.eig_sym_tridiag``,
``cli.run_scenario``, ...) with a wrapper that records a span, and puts the
originals back after the pass. Nothing under ``src/`` changes. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name) for every place a caller binds a layer
# function. ``chain.build_chain`` itself is listed because ``cli`` imports
# it at call time.
BINDINGS = (
    ("harness", "run_scenario", "harness.run_scenario"),
    ("harness", "effective_reports", "harness.effective_reports"),
    ("harness", "build_chain", "chain.build_chain"),
    ("harness", "classify", "qzd.classify"),
    ("harness", "simulate", "dynamics.simulate"),
    ("harness", "measure_leakage", "dynamics.measure_leakage"),
    ("harness", "eig_sym_tridiag", "linalg.eig_sym_tridiag"),
    ("harness", "group_levels", "perturbation.group_levels"),
    ("harness", "reduced_resolvent", "perturbation.reduced_resolvent"),
    ("harness", "hqzd_order0", "perturbation.hqzd_order0"),
    ("harness", "hqzd_order1", "perturbation.hqzd_order1"),
    ("qzd", "eig_sym_tridiag", "linalg.eig_sym_tridiag"),
    ("qzd", "group_levels", "perturbation.group_levels"),
    ("qzd", "reduced_resolvent", "perturbation.reduced_resolvent"),
    ("qzd", "hqzd_order0", "perturbation.hqzd_order0"),
    ("qzd", "hqzd_order1", "perturbation.hqzd_order1"),
    ("dynamics", "eig_sym_tridiag", "linalg.eig_sym_tridiag"),
    ("dynamics", "evolve_grid", "linalg.evolve_grid"),
    ("cli", "main", "cli.main"),
    ("cli", "run_scenario", "harness.run_scenario"),
    ("cli", "effective_reports", "harness.effective_reports"),
    ("chain", "build_chain", "chain.build_chain"),
)

# Bytes computed from array shapes, per call.
SIZES = {
    # the evolved states, N x (steps + 1) complex
    "linalg.evolve_grid": lambda result: result.nbytes,
    # one dense N x N projector per level
    "perturbation.group_levels": lambda result: sum(
        lvl.projector.nbytes for lvl in result.levels
    ),
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # 0 for a root span
    op: int  # index of the operation that caused it
    name: str
    thread: int
    start: float
    end: float
    nbytes: int


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.active = False  # spans are only taken while an operation runs
        self.output_bytes = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            size = SIZES.get(name)
            nbytes = size(result) if size is not None and result is not None else 0
            self.spans.append(
                Span(span_id, parent, self.op, name, threading.get_ident(), start, end, nbytes)
            )

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding for the duration of one traced pass."""
        saved = []
        try:
            for mod_name, attr, span in BINDINGS:
                mod = importlib.import_module(f"zenochain.{mod_name}")
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

class PassSpans:
    """Queries over the spans of one traced pass."""

    def __init__(self, spans: list[Span]) -> None:
        self.by_id = {s.id: s for s in spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            self.children[s.parent].append(s)

    def calls(self, *names: str) -> int:
        return sum(len(self.by_name[n]) for n in names)

    def busy(self, *names: str) -> float:
        """Summed span durations; spans on parallel workers each count."""
        return sum(s.end - s.start for n in names for s in self.by_name[n])

    def self_time(self, name: str) -> float:
        """Busy time minus the part of each span its children cover."""
        total = 0.0
        for s in self.by_name[name]:
            total += (s.end - s.start) - _covered(self.children[s.id], s.start, s.end)
        return total

    def nbytes(self, name: str) -> int:
        return sum(s.nbytes for s in self.by_name[name])

    def calls_under(self, name: str, ancestor: str) -> int:
        count = 0
        for s in self.by_name[name]:
            p = self.by_id.get(s.parent)
            while p is not None and p.name != ancestor:
                p = self.by_id.get(p.parent)
            count += p is not None
        return count


def _covered(children: list[Span], start: float, end: float) -> float:
    """Length of the union of the children's intervals inside [start, end]."""
    total = 0.0
    cur_start = cur_end = None
    for lo, hi in sorted((max(c.start, start), min(c.end, end)) for c in children):
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# name, unit, better, end-to-end metrics it should move, workloads where it
# should, and how it is computed from one traced pass (p) and the CLI's
# output bytes (b). ``trace.overhead_s`` is traced minus untraced pass time,
# so it needs both kinds of pass.
LAYER_METRICS = (
    ("linalg.eig_sym_tridiag.calls", "count", "lower",
     "wall_s op_p50_ms peak_rss_mb", "scenario_large cli_session",
     lambda p, b: p.calls("linalg.eig_sym_tridiag")),
    ("linalg.eig_per_scenario", "eig/scenario", "lower",
     "wall_s op_p50_ms", "scenario_large cli_session",
     lambda p, b: _ratio(
         p.calls_under("linalg.eig_sym_tridiag", "harness.run_scenario"),
         p.calls("harness.run_scenario"))),
    ("linalg.eig_s", "s", "lower",
     "wall_s op_p50_ms", "scenario_large cli_session",
     lambda p, b: p.busy("linalg.eig_sym_tridiag")),
    ("linalg.evolve_grid_s", "s", "lower",
     "wall_s op_p50_ms", "scenario_large cli_session",
     lambda p, b: p.busy("linalg.evolve_grid")),
    ("linalg.evolve_grid.bytes", "B", "lower",
     "wall_s peak_rss_mb", "scenario_large cli_session",
     lambda p, b: p.nbytes("linalg.evolve_grid")),
    ("perturbation.group_levels.calls", "count", "lower",
     "wall_s op_p50_ms peak_rss_mb", "scenario_large cli_session",
     lambda p, b: p.calls("perturbation.group_levels")),
    ("perturbation.group_levels_s", "s", "lower",
     "wall_s op_p50_ms", "scenario_large cli_session",
     lambda p, b: p.busy("perturbation.group_levels")),
    ("perturbation.projector_bytes", "B", "lower",
     "peak_rss_mb", "scenario_large cli_session",
     lambda p, b: p.nbytes("perturbation.group_levels")),
    ("perturbation.reduced_resolvent_s", "s", "lower",
     "wall_s op_p50_ms", "scenario_large cli_session",
     lambda p, b: p.busy("perturbation.reduced_resolvent")),
    ("perturbation.hqzd_s", "s", "lower",
     "wall_s op_p50_ms", "scenario_large cli_session",
     lambda p, b: p.busy("perturbation.hqzd_order0", "perturbation.hqzd_order1")),
    ("qzd.classify.calls", "count", "lower",
     "wall_s op_p50_ms", "scenario_large cli_session",
     lambda p, b: p.calls("qzd.classify")),
    ("qzd.classify.self_s", "s", "lower",
     "wall_s op_p50_ms", "scenario_large cli_session",
     lambda p, b: p.self_time("qzd.classify")),
    ("dynamics.simulate.calls", "count", "lower",
     "wall_s op_p50_ms op_tail_ms", "scenario_large cli_session",
     lambda p, b: p.calls("dynamics.simulate")),
    ("dynamics.simulate.self_s", "s", "lower",
     "wall_s op_p50_ms op_tail_ms peak_rss_mb", "scenario_large (most) cli_session",
     lambda p, b: p.self_time("dynamics.simulate")),
    ("dynamics.measure_leakage_s", "s", "lower",
     "wall_s op_p50_ms", "scenario_large cli_session",
     lambda p, b: p.busy("dynamics.measure_leakage")),
    ("chain.build_chain.calls", "count", "lower",
     "op_p50_ms", "scenario_large cli_session",
     lambda p, b: p.calls("chain.build_chain")),
    ("chain.build_chain_s", "s", "lower",
     "op_p50_ms", "scenario_large cli_session",
     lambda p, b: p.busy("chain.build_chain")),
    ("harness.run_scenario.self_s", "s", "lower",
     "wall_s", "scenario_large",
     lambda p, b: p.self_time("harness.run_scenario")),
    ("harness.effective_reports.self_s", "s", "lower",
     "wall_s", "scenario_large",
     lambda p, b: p.self_time("harness.effective_reports")),
    ("cli.self_s", "s", "lower",
     "wall_s op_p50_ms", "cli_session",
     lambda p, b: p.self_time("cli.main")),
    ("cli.output_bytes", "B", "lower",
     "wall_s", "cli_session",
     lambda p, b: b),
    ("cli.output_mb_per_s", "MB/s", "higher",
     "wall_s op_p50_ms", "cli_session",
     lambda p, b: _ratio(b / 1e6, p.self_time("cli.main"))),
    ("trace.overhead_s", "s", "lower",
     "none (cost of tracing itself)", "scenario_large cli_session",
     None),
)


def dump_spans(path, header: dict, tracers: list[Tracer]) -> None:
    """Write the spans of every traced pass, one list per pass."""
    fields = ["id", "parent", "op", "name", "thread", "start", "end", "nbytes"]
    passes = [
        [[s.id, s.parent, s.op, s.name, s.thread, s.start, s.end, s.nbytes] for s in t.spans]
        for t in tracers
    ]
    path.write_text(json.dumps({**header, "fields": fields, "passes": passes}))


# Units whose values are exact and must repeat between traced passes.
EXACT_UNITS = {"count", "B", "eig/scenario"}


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass except the tracing overhead."""
    p = PassSpans(tracer.spans)
    return {
        name: fn(p, tracer.output_bytes)
        for name, _unit, _better, _moves, _where, fn in LAYER_METRICS
        if fn is not None
    }
