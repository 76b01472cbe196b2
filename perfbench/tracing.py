"""Spans and work counters recorded around calls into statdisc.

The tracer wraps each public callable listed in ``TRACED`` at every
attribute of the statdisc package that refers to it: the modules import
one another's functions by name (``discrimination`` calls its own binding
of ``interfere``), so patching only the defining module would miss those
callers.  Spans and counters stay in memory while the work runs; the
process that did the work reduces them to totals once its timed part has
ended and hands those to the benchmark.  Nothing inside ``src/`` changes.

A span is ``(id, parent, name, start, end, task, tags)``.  Self time is a
span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

# (module, callable) pairs; the span name is "<module>.<callable>".
# core.DensityMatrix times construction, including eigenvalue validation.
# cli.render covers the three renderers, which main reaches through
# cli.RENDERERS rather than through a module attribute.
TRACED = (
    ("core", "DensityMatrix"),
    ("core", "trace_norm"),
    ("core", "symmetric_projector"),
    ("states", "aligned_mixture"),
    ("states", "maximally_mixed"),
    ("multiport", "dft_unitary"),
    ("multiport", "prepare_input"),
    ("multiport", "evolve"),
    ("multiport", "spatial_distribution"),
    ("multiport", "interfere"),
    ("discrimination", "beam_splitter_discrimination"),
    ("discrimination", "map_strategy"),
    ("discrimination", "helstrom_bound"),
    ("discrimination", "aligned_vs_mixed_bound"),
    ("applications", "classical_pauli_success"),
    ("applications", "scan_discrimination"),
    ("applications", "detect_entanglement"),
    ("applications", "purify_symmetric"),
    ("cli", "main"),
    ("cli", "render"),
)
SPAN_NAMES = tuple(f"{module}.{name}" for module, name in TRACED)

COUNTERS = ("multiport.input_configs", "multiport.distinct_input_configs",
            "multiport.output_configs", "multiport.ensemble_members",
            "multiport.patterns")

# Per-n profile of beam_splitter_discrimination: the n each statistics
# reaches in the scan workload.
PROFILE_N = {"fermion": range(1, 8), "boson": range(1, 7)}
PROFILE = "discrimination.beam_splitter_discrimination"


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    task: int | None
    tags: list | None


def _count_evolve(tracer, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    u = args[1] if len(args) > 1 else kwargs["u"]
    unitary = u.matrix.tobytes()
    tracer.counters["multiport.input_configs"] += len(state.amplitudes)
    tracer.counters["multiport.output_configs"] += len(result.amplitudes)
    tracer.distinct.update((config, state.statistics, unitary)
                           for config in state.amplitudes)


def _count_members(tracer, args, kwargs, result):
    tracer.counters["multiport.ensemble_members"] += len(result)


def _count_patterns(tracer, args, kwargs, result):
    tracer.counters["multiport.patterns"] += len(result.probabilities)


def _tag_report(tracer, args, kwargs, result):
    return [result.statistics.value, result.n]


OBSERVERS = {
    "multiport.evolve": _count_evolve,
    "multiport.prepare_input": _count_members,
    "multiport.spatial_distribution": _count_patterns,
    PROFILE: _tag_report,
}


class Tracer:
    """Records a span per traced call; install() patches, uninstall() restores."""

    def __init__(self):
        self.task: int | None = None
        self._restore: list = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.distinct: set = set()
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = ok = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                tags = (observe(self, args, kwargs, result)
                        if ok and observe else None)
                self.spans.append(Span(span_id, parent, name, start, end,
                                       self.task, tags))

        return traced

    def _patch(self, owner, key, value, item=False):
        if item:
            original = owner[key]
            owner[key] = value
            self._restore.append(lambda: owner.__setitem__(key, original))
        else:
            original = getattr(owner, key)
            setattr(owner, key, value)
            self._restore.append(lambda: setattr(owner, key, original))

    def install(self) -> None:
        """Wrap every traced callable wherever statdisc binds it."""
        import statdisc.cli  # noqa: F401 -- loads every statdisc module

        modules = [m for name, m in list(sys.modules.items())
                   if name == "statdisc" or name.startswith("statdisc.")]
        for module_name, attr in TRACED:
            span = f"{module_name}.{attr}"
            home = sys.modules[f"statdisc.{module_name}"]
            if span == "cli.render":
                for key, fn in list(home.RENDERERS.items()):
                    self._patch(home.RENDERERS, key, self._wrap(span, fn),
                                item=True)
                continue
            original = getattr(home, attr)
            if isinstance(original, type):
                self._patch(original, "__init__",
                            self._wrap(span, original.__init__))
                continue
            wrapped = self._wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def totals(self) -> dict[str, float]:
        """Additive totals of everything recorded since the last reset()."""
        totals = summarize(self.spans)
        for name, value in self.counters.items():
            totals[name] += value
        totals["multiport.distinct_input_configs"] = len(self.distinct)
        return dict(totals)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children[span.id]):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


def summarize(spans) -> dict[str, float]:
    """Additive totals of a span list: self time and calls per span name,
    and the per-n profile as a sum of durations and a call count."""
    totals: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for span in spans:
        totals[f"{span.name}.self_s"] += own[span.id]
        totals[f"{span.name}.calls"] += 1
        if span.name == PROFILE and span.tags:
            statistics, n = span.tags
            totals[f"profile.{statistics}.{n}.sum"] += span.end - span.start
            totals[f"profile.{statistics}.{n}.count"] += 1
    return totals


def layer_metrics(totals: dict[str, float], iterations: int) -> dict:
    """Per-layer metrics per iteration from summed process totals.

    ``scan.<statistics>.n<k>_s`` is the mean duration of one
    beam_splitter_discrimination call at that statistics and n, or 0 when
    the workload makes no such call.
    """
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (totals.get(f"{name}.self_s", 0.0)
                                     / iterations, "s")
        metrics[f"{name}.calls"] = (totals.get(f"{name}.calls", 0)
                                    / iterations, "count")
    for name in COUNTERS:
        metrics[name] = (totals.get(name, 0) / iterations, "count")
    inputs = totals.get("multiport.input_configs", 0)
    distinct = totals.get("multiport.distinct_input_configs", 0)
    metrics["multiport.expansion_reuse"] = (
        1.0 - distinct / inputs if inputs else 0.0, "ratio")
    for statistics, ns in PROFILE_N.items():
        for n in ns:
            count = totals.get(f"profile.{statistics}.{n}.count", 0)
            mean = (totals[f"profile.{statistics}.{n}.sum"] / count
                    if count else 0.0)
            metrics[f"scan.{statistics}.n{n}_s"] = (mean, "s")
    return metrics


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, trace overhead included."""
    names = [(name, unit) for name, (_, unit) in layer_metrics({}, 1).items()]
    return names + [("trace.overhead_s", "s")]
