"""Outside-in stage spans for the traced benchmark run.

Spans come only from timing shims installed around the public seams of
``repro.query``, ``repro.core`` and ``repro.serve`` at the names their
callers look them up under; no program file is edited.  The shims are
installed for the traced run only and removed afterwards.

A span records its name, start, end, the span that caused it and the
request id it belongs to.  Every stage that runs a bounded number of
times per request (``decompose``, ``search[i]``, ``assemble``,
``coordinate``, ``submit``, ``cache``, ``dispatch``) is one span per
call.  Weight materialization runs once per expanded state, hundreds of
thousands of times a pass, so its calls are rolled up: one ``materialize``
record per parent span, carrying the summed duration (``busy``) and the
call count of its calls.

Self time is a span's busy time minus the time its children cover: the
union of its ordinary children's intervals, clipped to the span, plus the
busy time of its rolled-up children (those run on the parent's thread
strictly between its ordinary children, so they never overlap them).
Rolled-up calls are leaves: a view method never calls back into a
shimmed seam.
"""

from __future__ import annotations

import itertools
import threading
import time
import types
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

ROOT = "request"


@dataclass
class Span:
    """One recorded stage interval (or a rolled-up set of leaf calls)."""

    span_id: int
    parent: Optional[int]
    request: int
    name: str
    start: float
    end: float
    busy: float
    calls: int = 1
    rolled_up: bool = False
    #: This span's rolled-up children by name (created on first use).
    rollups: Optional[Dict[str, "Span"]] = None


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Values the shims observed on the way out (e.g. Eq. 1 pivot costs).
        self.observed: Dict[str, List[float]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- per-thread state ---------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.observed.setdefault(name, []).append(value)

    def _new(self, parent: Optional[int], request: int, name: str,
             start: float, end: float, busy: float, calls: int = 1,
             rolled_up: bool = False) -> Span:
        with self._lock:
            span = Span(next(self._ids), parent, request, name, start, end,
                        busy, calls, rolled_up)
            self.spans.append(span)
        return span

    # -- requests -----------------------------------------------------
    def open_request(self, request: int, start: float) -> Span:
        """Open the root span of one request on the calling thread."""
        span = self._new(None, request, ROOT, start, start, 0.0)
        self._stack().append(span)
        return span

    def leave_request(self, root: Span) -> None:
        """Pop ``root`` off the calling thread's stack (it may end later)."""
        stack = self._stack()
        if stack and stack[-1] is root:
            stack.pop()

    @staticmethod
    def close_request(root: Span, end: float) -> None:
        root.end = end
        root.busy = end - root.start

    def record(self, parent: Span, name: str, start: float, end: float) -> Span:
        """Record a span measured outside any shim (e.g. a dispatch wait)."""
        return self._new(parent.span_id, parent.request, name, start, end,
                         end - start)

    # -- shim entry points ----------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside an ordinary span named ``name``.

        A call made while a span of the same name is already innermost
        (``next_match`` driving ``step``) does not open a nested span.
        """
        stack = self._stack()
        if not stack or stack[-1].name == name:
            return fn(*args, **kwargs)
        parent = stack[-1]
        start = time.perf_counter()
        span = self._new(parent.span_id, parent.request, name, start, start, 0.0)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span.end = end
            span.busy = end - start

    def rolled(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` and add its duration to the rolled-up child ``name``.

        A generator result is drained inside the timed region, so the
        time of producing its items is what gets measured.
        """
        stack = self._stack()
        if not stack:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        if type(result) is types.GeneratorType:
            result = list(result)
        end = time.perf_counter()
        parent = stack[-1]
        if parent.rollups is None:
            parent.rollups = {}
        span = parent.rollups.get(name)
        if span is None:
            parent.rollups[name] = self._new(parent.span_id, parent.request, name,
                                             start, end, end - start, 1, True)
        else:
            span.end = end
            span.busy += end - start
            span.calls += 1
        return result

    # -- output ----------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as columns of one compressed ``.npz`` file."""
        names = sorted({s.name for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        spans = self.spans
        np.savez_compressed(
            path,
            names=np.array(names),
            span_id=np.array([s.span_id for s in spans], dtype=np.int64),
            parent=np.array([s.parent or 0 for s in spans], dtype=np.int64),
            request=np.array([s.request for s in spans], dtype=np.int64),
            name=np.array([index[s.name] for s in spans], dtype=np.int32),
            start=np.array([s.start for s in spans]),
            end=np.array([s.end for s in spans]),
            busy=np.array([s.busy for s in spans]),
            calls=np.array([s.calls for s in spans], dtype=np.int64),
        )


def _covered(parent: Span, children: Iterable[Span]) -> float:
    """Time of ``parent`` covered by its children (see module docstring)."""
    intervals = []
    rolled = 0.0
    for child in children:
        if child.rolled_up:
            rolled += child.busy
            continue
        start = max(child.start, parent.start)
        end = min(child.end, parent.end)
        if end > start:
            intervals.append((start, end))
    intervals.sort()
    covered = 0.0
    cursor = None
    for start, end in intervals:
        if cursor is None or start > cursor:
            covered += end - start
            cursor = end
        elif end > cursor:
            covered += end - cursor
            cursor = end
    return covered + rolled


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time per span id: busy time minus what its children cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {
        span.span_id: span.busy - _covered(span, children.get(span.span_id, ()))
        for span in spans
    }


def stage_name(name: str) -> str:
    """``search[2]`` -> ``search``: the stage a span name belongs to."""
    return name.split("[", 1)[0]


def stage_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per stage (sub-query indices folded together): total self time,
    total busy time and number of calls."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = totals.setdefault(stage_name(span.name),
                                {"self": 0.0, "busy": 0.0, "calls": 0})
        row["self"] += own[span.span_id]
        row["busy"] += span.busy
        row["calls"] += span.calls
    return totals


# ----------------------------------------------------------------------
# shims
# ----------------------------------------------------------------------
class TracedView:
    """Proxy over a weighted-graph view timing every method call.

    Every callable attribute becomes a rolled-up ``materialize`` call, so
    the proxy times whichever view surface the search kernel consumes
    (the lazy view's ``weighted_incident``/``m(u)`` or a compact view's
    row arrays).  Plain attributes and properties pass through.
    """

    def __init__(self, view, tracer: Tracer):
        object.__setattr__(self, "_view", view)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name):
        value = getattr(self._view, name)
        if not callable(value):
            return value
        tracer = self._tracer

        def timed(*args, **kwargs):
            return tracer.rolled("materialize", value, *args, **kwargs)

        # Later lookups find the wrapper without reaching __getattr__.
        object.__setattr__(self, name, timed)
        return timed

    def __setattr__(self, name, value):
        setattr(self._view, name, value)


class EngineShims:
    """Install/remove the engine-side shims (a context manager).

    Wraps, at the names :mod:`repro.core.engine` looks them up under:
    ``decompose_query``, ``assemble_top_k``, ``build_subquery_search``
    (and each built search's ``next_match`` and ``step``), and
    ``TimeBoundedCoordinator`` (its ``run``); plus, per engine, the view
    returned by ``view_factory``.
    """

    def __init__(self, tracer: Tracer, engines: Iterable = ()):
        self.tracer = tracer
        self.engines = list(engines)
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "EngineShims":
        import repro.core.engine as engine_module

        tracer = self.tracer
        decompose = engine_module.decompose_query
        assemble = engine_module.assemble_top_k
        build_search = engine_module.build_subquery_search
        coordinator_cls = engine_module.TimeBoundedCoordinator

        def traced_decompose(*args, **kwargs):
            decomposition = tracer.call("decompose", decompose, *args, **kwargs)
            tracer.observe("pivot_cost", decomposition.cost)
            return decomposition

        def traced_assemble(*args, **kwargs):
            return tracer.call("assemble", assemble, *args, **kwargs)

        def traced_build(*args, **kwargs):
            search = build_search(*args, **kwargs)
            index = kwargs.get("subquery_index", args[4] if len(args) > 4 else 0)
            name = f"search[{index}]"
            for method in ("next_match", "step"):
                bound = getattr(search, method)
                setattr(search, method, _span_wrapper(tracer, name, bound))
            return search

        class TracedCoordinator(coordinator_cls):
            def run(self):
                outcome = tracer.call("coordinate", super().run)
                tracer.observe("harvested", outcome.total_harvested)
                return outcome

        self._patch(engine_module, "decompose_query", traced_decompose)
        self._patch(engine_module, "assemble_top_k", traced_assemble)
        self._patch(engine_module, "build_subquery_search", traced_build)
        self._patch(engine_module, "TimeBoundedCoordinator", TracedCoordinator)
        for engine in self.engines:
            factory = engine.view_factory

            def traced_factory(*args, _factory=factory, **kwargs):
                view = tracer.rolled("materialize", _factory, *args, **kwargs)
                return TracedView(view, tracer)

            self._patch(engine, "view_factory", traced_factory)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _span_wrapper(tracer: Tracer, name: str, fn):
    def timed(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return timed


class ServeShims(EngineShims):
    """Install/remove the service-front shims (a context manager).

    Wraps ``QueryService.submit_request`` (span ``submit``) and the
    ``canonicalize`` that :mod:`repro.serve.service` calls (span
    ``cache``).  Worker-side spans are not recorded: a miss's time in
    the worker is the engine's own ``elapsed_seconds``.
    """

    def __enter__(self) -> "ServeShims":
        import repro.serve.service as service_module

        tracer = self.tracer
        submit = service_module.QueryService.submit_request
        canonicalize = service_module.canonicalize

        def traced_submit(service, request):
            return tracer.call("submit", submit, service, request)

        def traced_canonicalize(*args, **kwargs):
            return tracer.call("cache", canonicalize, *args, **kwargs)

        self._patch(service_module.QueryService, "submit_request", traced_submit)
        self._patch(service_module, "canonicalize", traced_canonicalize)
        return self
