"""One record per request, fed to every telemetry consumer.

A :class:`RequestRecord` is the outcome of one request as immutable
data: answered through the view, denied, or failed.  The engine builds
it once per query, on success and on any exception; the server builds
it for requests it refuses before the engine.  A :class:`Publisher`
hands it to each consumer exactly once, behind a never-raise guard
(see ``docs/observability.md``, "One request record").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import time
from typing import List

from repro.errors import QueryRejectedError, error_code as _error_code

__all__ = ["Publisher", "RequestRecord"]

#: Error codes the flight recorder files under status ``denied``.
DENIAL_CODES = frozenset({"E_LABEL_DENIED", "E_SECURITY"})

#: The attributes :meth:`RequestRecord.to_dict` exports as they are.
_PAYLOAD_FIELDS = (
    "trace_id", "request_id", "tenant", "policy", "query", "document",
    "status", "ok", "error_code", "latency_seconds", "queued_seconds",
    "slow", "canary_violations", "recorded_at", "spans",
)


@dataclass(frozen=True, eq=False)
class RequestRecord:
    """The outcome of one request.  ``label`` is the view label a
    strict-mode denial rejected; ``report`` the
    :class:`~repro.core.engine.QueryReport` of an answered query, and
    ``latency_seconds`` its engine time, until the server sets its own
    and adds ``queued_seconds`` (submit to worker pick-up) and ``span``
    (the closed ``request`` root span).  ``slow``: past the query's
    ``slow_query_threshold`` or the server's SLO threshold."""

    policy: str
    query: str
    tenant: str = ""
    trace_id: str = ""
    request_id: str = ""
    document: str = ""
    fingerprint: object = None
    ok: bool = True
    error_code: str = ""
    error_message: str = ""
    label: str = ""
    report: object = field(default=None, repr=False)
    latency_seconds: float = 0.0
    queued_seconds: float = 0.0
    slow: bool = False
    canary_violations: int = 0
    span: object = field(default=None, repr=False)
    recorded_at: float = field(default_factory=time)

    @classmethod
    def of(cls, request, **fields) -> "RequestRecord":
        """A record with the identity of ``request`` (a
        :class:`~repro.serving.protocol.QueryRequest`)."""
        return cls(
            policy=request.policy,
            query=str(request.query),
            tenant=request.tenant_id,
            trace_id=request.trace_id,
            request_id=request.request_id,
            document=request.document,
            **fields,
        )

    @classmethod
    def from_error(cls, request, error: BaseException) -> "RequestRecord":
        """The record of ``request`` failing with ``error``; its
        fingerprint is the query text's."""
        from repro.xpath.fingerprint import query_fingerprint

        return cls.of(
            request,
            fingerprint=query_fingerprint(str(request.query)),
            ok=False,
            error_code=_error_code(error),
            error_message=str(error),
            label=getattr(error, "label", ""),
        )

    # -- classification ------------------------------------------------

    @property
    def denied(self) -> bool:
        """Whether a strict-mode label check rejected the query."""
        return self.error_code == QueryRejectedError.code

    @property
    def interesting(self) -> bool:
        """The flight recorder's always-kept tail class."""
        return not self.ok or self.slow or self.canary_violations > 0

    @property
    def status(self) -> str:
        if not self.ok:
            return "denied" if self.error_code in DENIAL_CODES else "error"
        if self.canary_violations > 0:
            return "canary-violation"
        if self.slow:
            return "slow"
        return "ok"

    # -- export --------------------------------------------------------

    @property
    def spans(self) -> dict:
        """The root span tree as dicts, with preorder ``span_id`` /
        ``parent_span_id`` fields (``{}`` without a span)."""
        if self.span is None:
            return {}
        return _span_dict(self.span, [0], "")

    def to_dict(self) -> dict:
        """The JSON-safe ``/debug/traces`` payload of this request."""
        out = {name: getattr(self, name) for name in _PAYLOAD_FIELDS}
        out["fingerprint"] = str(self.fingerprint or "")
        return out


def _span_dict(span, counter: List[int], parent_id: str) -> dict:
    counter[0] += 1
    span_id = "%04x" % counter[0]
    out: dict = {
        "name": span.name,
        "span_id": span_id,
        "parent_span_id": parent_id,
        "duration_seconds": span.duration,
    }
    if span.attributes:
        out["attributes"] = dict(span.attributes)
    if span.children:
        out["children"] = [
            _span_dict(child, counter, span_id) for child in span.children
        ]
    return out


class Publisher:
    """Feeds each :class:`RequestRecord` to ``consumers`` in order,
    each exactly once.  A consumer that raises is counted in
    ``dropped`` and skipped, as
    :meth:`~repro.obs.events.EventPipeline.emit` does for sinks."""

    __slots__ = ("consumers", "dropped")

    def __init__(self, *consumers):
        self.consumers = consumers
        self.dropped = 0

    def publish(self, record: RequestRecord) -> None:
        for consumer in self.consumers:
            try:
                consumer(record)
            except Exception:
                self.dropped += 1
