"""Per-layer spans, recorded from the benchmark's own wrappers.

The program has no spans of its own at every layer boundary yet, so
for the traced run this module wraps the public entry point of each
layer and times it.  A wrapper is installed on every name a caller
looks it up by: the engine imports ``parse_xpath``, ``compile_path``
and ``materialize_subtree`` by name, so those are patched in
``repro.core.engine`` as well as in their home modules.  Nothing is
wrapped during the untraced run that gives the end-to-end metrics.

Spans nest per thread.  A layer's *self* time is its span minus the
spans opened inside it, so summing self times never counts a
nanosecond twice.  A call into a layer from inside the same layer
(``Optimizer.optimize`` recursing, say) is part of the outer span.

Requests are followed across threads by their ``request_id``: the
client registers each request before sending it, ``QueryServer.submit``
stamps the server span's start and the future's resolution its end,
and the engine span binds the worker thread to the request so later
top-level spans on that thread (flight recorder, SLO tracker) are
charged to it.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from importlib import import_module
from time import monotonic, perf_counter
from typing import Dict, List, Optional

from stats import median, percentile

#: ``(layer, module, class or None, attribute)`` for every timed entry
#: point.
SPANS = (
    ("engine", "repro.core.engine", "SecureQueryEngine", "execute_request"),
    ("compile", "repro.core.engine", None, "parse_xpath"),
    ("compile", "repro.xpath.parser", None, "parse_xpath"),
    ("compile", "repro.core.rewrite", "Rewriter", "rewrite"),
    ("compile", "repro.core.optimize", "Optimizer", "optimize"),
    ("compile", "repro.core.engine", None, "compile_path"),
    ("compile", "repro.xpath.plan", None, "compile_path"),
    ("plan", "repro.xpath.plan", "CompiledPlan", "execute"),
    ("materialize", "repro.core.engine", None, "materialize_subtree"),
    ("serialize", "repro.xmlmodel.serialize", None, "serialize"),
    ("store", "repro.xmlmodel.store", "NodeTable", "__init__"),
    ("store", "repro.xmlmodel.index", "DocumentIndex", "__init__"),
    ("protocol", "repro.serving.protocol", "QueryRequest", "from_dict"),
    ("protocol", "repro.serving.protocol", "QueryResponse", "from_result"),
    ("protocol", "repro.serving.protocol", "QueryResponse", "to_dict"),
    ("obs", "repro.obs.flight", "FlightRecorder", "record"),
    ("obs", "repro.obs.slo", "SLOTracker", "observe"),
    ("obs", "repro.obs.workload", "WorkloadProfiler", "record_query"),
    ("obs", "repro.obs.workload", "WorkloadProfiler", "record_error"),
    ("obs", "repro.obs.events", "EventPipeline", "emit"),
)

#: Entry points that are counted, not timed.
COUNTED = (
    ("accessibility", "repro.core.materialize", None, "compute_accessibility"),
)

#: Metrics that report a layer's self time per request, in ms.
PER_REQUEST = {
    "compile.ms_per_request": "compile",
    "plan.execute_ms_per_request": "plan",
    "materialize.ms_per_request": "materialize",
    "serialize.ms_per_request": "serialize",
    "protocol.encode_ms_mean": "protocol",
    "obs.ms_per_request": "obs",
}


class RequestSpans(object):
    """What the spans saw of one request (seconds; ``None`` = unseen)."""

    __slots__ = (
        "round_trip",
        "connect",
        "submit",
        "resolve",
        "wait",
        "worker",
        "execute",
        "handler",
        "handler_protocol",
    )

    def __init__(self):
        self.round_trip = None
        self.connect = 0.0
        self.submit = None
        self.resolve = None
        self.wait = None
        self.worker = 0.0
        self.execute = None
        self.handler = None
        self.handler_protocol = 0.0

    @property
    def server(self) -> Optional[float]:
        if self.submit is None or self.resolve is None:
            return None
        return self.resolve - self.submit


class _Admission(object):
    """Delegates to ``AdmissionController.admit``'s context manager and
    counts the requests it refuses."""

    __slots__ = ("inner", "counts")

    def __init__(self, inner, counts):
        self.inner = inner
        self.counts = counts

    def __enter__(self):
        try:
            return self.inner.__enter__()
        except BaseException:
            self.counts["admission.rejected"] += 1
            raise

    def __exit__(self, *exc_info):
        return self.inner.__exit__(*exc_info)


class _ThreadSpans(object):
    """One thread's open spans and running totals."""

    def __init__(self):
        self.stack: List[list] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.waits: List[float] = []
        self.rid: Optional[str] = None
        self.wait: Optional[float] = None
        self.http_rid: Optional[str] = None
        self.http_start: Optional[float] = None


class LayerTrace(object):
    """Installs the wrappers, collects spans, and turns them into the
    per-layer metrics."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadSpans] = []
        self._patches: List[tuple] = []
        self.requests: Dict[str, RequestSpans] = {}

    # -- per-thread state ------------------------------------------------

    def _thread(self) -> "_ThreadSpans":
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadSpans()
            with self._lock:
                self._threads.append(state)
        return state

    def begin(self, rid: str) -> RequestSpans:
        """Register a request before the client sends it."""
        spans = RequestSpans()
        self.requests[rid] = spans
        return spans

    # -- installation ----------------------------------------------------

    def install(self, server) -> None:
        """Wrap every layer's entry points; ``server`` is the HTTP
        server whose handler class gets the transport span, or
        ``None`` for in-process workloads."""
        for layer, module, owner, name in SPANS:
            self._patch(module, owner, name, lambda f, layer=layer: self._span(layer, f))
        for counter, module, owner, name in COUNTED:
            self._patch(module, owner, name, lambda f, c=counter: self._count(c, f))
        self._patch("repro.serving.admission", "AdmissionController", "admit", self._admit)
        self._patch("repro.serving.server", "QueryServer", "submit", self._submit)
        if server is not None:
            handler = server.RequestHandlerClass
            self._patch_attr(handler, "parse_request", self._http_start)
            self._patch_attr(handler, "handle_one_request", self._http_span)

    def uninstall(self) -> None:
        for owner, name, original, existed in reversed(self._patches):
            if existed:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches = []

    def _patch(self, module: str, owner: Optional[str], name: str, wrap) -> None:
        target = import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        self._patch_attr(target, name, wrap)

    def _patch_attr(self, target, name: str, wrap) -> None:
        existed = name in vars(target)
        raw = vars(target)[name] if existed else getattr(target, name)
        if isinstance(raw, classmethod):
            replacement = classmethod(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        self._patches.append((target, name, raw, existed))
        setattr(target, name, replacement)

    # -- wrappers --------------------------------------------------------

    def _span(self, layer: str, function):
        trace = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            local = trace._thread()
            stack = local.stack
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            if layer == "engine":
                spans = trace.requests.get(args[1].request_id)
                local.rid = args[1].request_id if spans is not None else None
                if spans is not None:
                    spans.wait = local.wait
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                local.self_seconds[layer] += elapsed - frame[1]
                local.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
                elif local.rid is not None:
                    trace.requests[local.rid].worker += elapsed
            if layer == "engine" and local.rid is not None:
                trace.requests[local.rid].execute = elapsed
            elif layer == "protocol" and not stack:
                # request decoding / response encoding in the HTTP handler
                rid = getattr(result if function.__name__ == "from_dict" else args[0],
                              "request_id", None)
                spans = trace.requests.get(rid)
                if spans is not None:
                    spans.handler_protocol += elapsed
                    local.http_rid = rid
            return result

        return wrapper

    def _count(self, counter: str, function):
        trace = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            trace._thread().counts[counter] += 1
            return function(*args, **kwargs)

        return wrapper

    def _admit(self, function):
        trace = self

        @functools.wraps(function)
        def admit(controller, tenant, *args, **kwargs):
            local = trace._thread()
            enqueued_at = kwargs.get("enqueued_at", args[0] if args else None)
            local.wait = monotonic() - enqueued_at if enqueued_at is not None else 0.0
            local.waits.append(local.wait)
            local.rid = None
            local.counts["admission.calls"] += 1
            return _Admission(function(controller, tenant, *args, **kwargs), local.counts)

        return admit

    def _submit(self, function):
        trace = self

        @functools.wraps(function)
        def submit(server, request, *args, **kwargs):
            start = perf_counter()
            future = function(server, request, *args, **kwargs)
            spans = trace.requests.get(request.request_id)
            if spans is not None:
                spans.submit = start

                def resolved(_, spans=spans):
                    spans.resolve = perf_counter()

                future.add_done_callback(resolved)
            return future

        return submit

    def _http_start(self, function):
        trace = self

        @functools.wraps(function)
        def parse_request(handler):
            trace._thread().http_start = perf_counter()
            return function(handler)

        return parse_request

    def _http_span(self, function):
        trace = self

        @functools.wraps(function)
        def handle_one_request(handler):
            local = trace._thread()
            try:
                return function(handler)
            finally:
                spans = trace.requests.get(local.http_rid)
                if spans is not None and local.http_start is not None:
                    spans.handler = perf_counter() - local.http_start
                local.http_rid = None
                local.http_start = None

        return handle_one_request

    # -- results ---------------------------------------------------------

    def totals(self):
        """``(self seconds, calls, counts, queue waits)`` over every
        thread that recorded a span."""
        self_seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        counts: Dict[str, int] = defaultdict(int)
        waits: List[float] = []
        with self._lock:
            threads = list(self._threads)
        for local in threads:
            for key, value in list(local.self_seconds.items()):
                self_seconds[key] += value
            for key, value in list(local.calls.items()):
                calls[key] += value
            for key, value in list(local.counts.items()):
                counts[key] += value
            waits.extend(local.waits)
        return self_seconds, calls, counts, waits

    def timing_metrics(self, http: bool) -> Dict[str, float]:
        """The per-layer timing metrics of the traced phase (ms unless
        the name says otherwise)."""
        self_seconds, calls, counts, waits = self.totals()
        done = [s for s in self.requests.values() if s.round_trip is not None]
        served = [s for s in done if s.server is not None]
        n = max(1, len(done))
        metrics = {
            name: self_seconds[layer] * 1e3 / n for name, layer in PER_REQUEST.items()
        }
        executes = [s.execute for s in done if s.execute is not None]
        metrics["engine.execute_ms_p50"] = percentile(executes, 50) * 1e3
        metrics["engine.execute_ms_p99"] = percentile(executes, 99) * 1e3
        metrics["engine.self_ms_mean"] = (
            self_seconds["engine"] * 1e3 / max(1, calls["engine"])
        )
        metrics["admission.queue_wait_ms_p50"] = percentile(waits, 50) * 1e3
        metrics["admission.queue_wait_ms_p99"] = percentile(waits, 99) * 1e3
        metrics["admission.rejected_ratio"] = counts["admission.rejected"] / max(
            1, counts["admission.calls"]
        )
        metrics["server.self_ms_p50"] = median(
            [s.server - (s.wait or 0.0) - s.worker for s in served]
        ) * 1e3
        metrics["store.build_ms_total"] = self_seconds["store"] * 1e3
        if http:
            metrics["httpd.self_ms_p50"] = median(
                [s.round_trip - s.server - s.handler_protocol for s in served]
            ) * 1e3
            covered = [
                (s.round_trip, s.connect + (s.handler or 0.0)) for s in done
            ]
        else:
            metrics["httpd.self_ms_p50"] = 0.0
            covered = [(s.round_trip, s.server or 0.0) for s in done]
        total = sum(rtt for rtt, _ in covered)
        uncovered = sum(max(0.0, rtt - spanned) for rtt, spanned in covered)
        metrics["trace.unaccounted_ratio"] = uncovered / total if total else 0.0
        return metrics
