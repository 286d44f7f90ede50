"""The measured process: one fresh interpreter per timed run or count
pass, so that set-up time starts from a cold process and peak memory
belongs to one workload alone.

Reads one JSON payload on stdin (the workload's generated inputs and
what to do), prints ``READY`` once the server can serve, then prints
one JSON result line.  ``run.py`` drives it; it is not meant to be
started by hand.

Modes:

``run``
    Set up, then a closed loop for ``seconds`` with the layers
    unwrapped.
``trace``
    Set up, then ``seconds`` of closed loop split into slices that
    alternate between unwrapped layers and wrapped ones.
``count``
    Set up, then exactly ``ops`` operations from one client with
    every layer wrapped, reporting work counters only.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import resource
import socket
import struct
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from inputs import WRITE  # noqa: E402
from layers import LayerTrace  # noqa: E402
from stats import percentile  # noqa: E402

#: A request unresolved past this counts as a transport error.
CLIENT_TIMEOUT_SECONDS = 60.0

#: ``SO_LINGER`` on, zero timeout: close() sends a reset.
_RESET_ON_CLOSE = struct.pack("ii", 1, 0)

#: Unwrapped/wrapped slice pairs in a traced run.
TRACE_SLICES = 4

#: Workloads served over loopback HTTP rather than in-process.
HTTP_WORKLOADS = ("http_small",)


def emit(message) -> None:
    sys.stdout.write(message if isinstance(message, str) else json.dumps(message))
    sys.stdout.write("\n")
    sys.stdout.flush()


class _CountingConnection(http.client.HTTPConnection):
    """An HTTP/1.1 connection that counts and times its connects.

    Closing resets the connection instead of leaving a TIME_WAIT
    socket behind, so thousands of closed connections from one run do
    not slow the connects of the next."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connects = 0
        self.connect_seconds = 0.0

    def connect(self):
        start = perf_counter()
        super().connect()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _RESET_ON_CLOSE)
        self.connects += 1
        self.connect_seconds += perf_counter() - start


class HttpClient(object):
    """One client's connection: kept while the server allows it, opened
    again when the server closes it (``http.client`` reconnects on the
    next request after a ``Connection: close`` or HTTP/1.0 reply)."""

    def __init__(self, port: int, bodies):
        self.bodies = bodies
        self.conn = _CountingConnection(
            "127.0.0.1", port, timeout=CLIENT_TIMEOUT_SECONDS
        )

    def send(self, index: int, rid: str):
        """``(ok, results, error code, report, connect seconds)``."""
        body = self.bodies[index] % rid
        connect_before = self.conn.connect_seconds
        for attempt in (0, 1):
            reused = self.conn.sock is not None
            try:
                self.conn.request(
                    "POST", "/query", body,
                    {"Content-Type": "application/json"},
                )
                response = self.conn.getresponse()
                data = response.read()
                break
            except (http.client.RemoteDisconnected, ConnectionError):
                # the server dropped an idle kept-alive connection
                self.conn.close()
                if attempt or not reused:
                    raise
        payload = json.loads(data)
        connect = self.conn.connect_seconds - connect_before
        ok = response.status == 200 and bool(payload.get("ok"))
        return (
            ok,
            tuple(payload.get("results") or ()),
            payload.get("error_code") or ("" if ok else "HTTP_%d" % response.status),
            payload.get("report"),
            connect,
        )

    def close(self):
        self.conn.close()


class InProcessClient(object):
    def __init__(self, server, requests):
        self.server = server
        self.requests = requests

    def send(self, index: int, rid: str):
        response = self.server.query(
            self.requests[index].with_(request_id=rid),
            timeout=CLIENT_TIMEOUT_SECONDS,
        )
        return (
            response.ok,
            response.results,
            response.error_code,
            response.report,
            0.0,
        )

    def close(self):
        pass


class Service(object):
    """The program under test, built from the payload's text inputs
    through the public API, with ``QueryServer`` defaults."""

    def __init__(self, payload):
        from repro import SecureQueryEngine, parse_document, parse_dtd
        from repro.core.spec import parse_spec_text
        from repro.serving.protocol import QueryRequest
        from repro.serving.server import EngineCatalog, QueryServer

        self.http = payload["workload"] in HTTP_WORKLOADS
        catalog = EngineCatalog()
        self.engines = []
        for ref, document in sorted(payload["documents"].items()):
            dtd = parse_dtd(document["dtd"])
            engine = SecureQueryEngine(dtd)
            for policy in document["policies"]:
                engine.register_policy(
                    policy["name"],
                    parse_spec_text(dtd, policy["spec"], name=policy["name"]),
                    **policy["params"]
                )
            catalog.add(ref, engine, parse_document(document["xml"]))
            self.engines.append(engine)
        self.server = QueryServer(catalog).start()
        self.httpd = None
        self.http_thread = None
        if self.http:
            from repro.serving.httpd import make_http_server

            self.httpd = make_http_server(self.server, "127.0.0.1", 0)
            self.http_thread = threading.Thread(
                target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}
            )
            self.http_thread.start()
            self.bodies = [
                json.dumps(
                    {"policy": p, "query": q, "document": d, "request_id": "@RID@"}
                ).replace("%", "%%").replace("@RID@", "%s")
                for p, q, d in payload["requests"]
            ]
        else:
            self.requests = [
                QueryRequest(policy=p, query=q, document=d)
                for p, q, d in payload["requests"]
            ]

    def client(self):
        if self.http:
            return HttpClient(self.httpd.server_address[1], self.bodies)
        return InProcessClient(self.server, self.requests)

    def write(self) -> None:
        """A document/policy update: the documented invalidation."""
        for engine in self.engines:
            engine.invalidate()

    def plan_cache(self):
        hits = misses = 0
        for engine in self.engines:
            stats = engine.plan_cache_stats()
            hits += stats.hits
            misses += stats.misses
        return hits, misses

    def close(self) -> None:
        if self.httpd is not None:
            self.httpd.shutdown()
            self.httpd.server_close()
            self.http_thread.join()
        self.server.stop()


def add_answers(target: dict, answers: dict) -> None:
    """Fold ``{request index: {results: times served}}`` into ``target``."""
    for index, seen in answers.items():
        mine = target.setdefault(index, {})
        for values, count in seen.items():
            mine[values] = mine.get(values, 0) + count


class Loop(object):
    """A closed loop: each client sends its next operation only after
    the previous one completes.  Clients share one cursor over the
    seeded stream, so the operations run are always a prefix of it."""

    def __init__(self, service, stream, cursor, trace=None):
        self.service = service
        self.stream = stream
        self.cursor = cursor
        self.trace = trace
        self.latencies = []
        self.failures = {}
        self.answers = {}
        self.writes = 0
        self.visits = 0
        self.results = 0
        self.connects = 0
        self.elapsed = 0.0
        self._lock = threading.Lock()

    def run(self, clients: int, seconds=None, ops=None) -> None:
        start = perf_counter()
        stop = start + seconds if seconds is not None else None
        threads = [
            threading.Thread(target=self._client, args=(stop, ops))
            for _ in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.elapsed += perf_counter() - start

    def _client(self, stop, ops) -> None:
        client = self.service.client()
        latencies, failures, answers = [], {}, {}
        writes = visits = results = 0
        try:
            while stop is None or perf_counter() < stop:
                position = next(self.cursor)
                if ops is not None and position >= ops:
                    break
                index = self.stream[position % len(self.stream)]
                if index == WRITE:
                    self.service.write()
                    writes += 1
                    continue
                rid = "r%d" % position
                spans = self.trace.begin(rid) if self.trace is not None else None
                started = perf_counter()
                try:
                    ok, values, code, report, connect = client.send(index, rid)
                except Exception as error:  # a transport error is a failure
                    ok, values, code, report, connect = (
                        False, (), type(error).__name__, None, 0.0,
                    )
                elapsed = perf_counter() - started
                if spans is not None:
                    spans.round_trip = elapsed
                    spans.connect = connect
                if not ok:
                    failures[code] = failures.get(code, 0) + 1
                    continue
                latencies.append(elapsed)
                seen = answers.setdefault(index, {})
                seen[values] = seen.get(values, 0) + 1
                if report:
                    visits += report.get("visits", 0)
                    results += report.get("result_count", 0)
        finally:
            connects = getattr(getattr(client, "conn", None), "connects", 0)
            client.close()
            with self._lock:
                self.latencies.extend(latencies)
                for code, count in failures.items():
                    self.failures[code] = self.failures.get(code, 0) + count
                add_answers(self.answers, answers)
                self.writes += writes
                self.visits += visits
                self.results += results
                self.connects += connects

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def attempted(self) -> int:
        return self.completed + sum(self.failures.values()) + self.writes

    def summary(self) -> dict:
        return {
            "completed": self.completed,
            "attempted": self.attempted,
            "failed": sum(self.failures.values()),
            "failures": self.failures,
            "writes": self.writes,
            "elapsed_s": self.elapsed,
            "throughput_rps": self.completed / self.elapsed if self.elapsed else 0.0,
            "latency_p50_ms": percentile(self.latencies, 50) * 1e3,
            "latency_p99_ms": percentile(self.latencies, 99) * 1e3,
        }


def main() -> int:
    payload = json.loads(sys.stdin.read())
    mode = payload["mode"]
    service = Service(payload)
    stream = payload["stream"]
    answers: dict = {}
    try:
        warm = Loop(service, list(range(len(payload["requests"]))), itertools.count())
        warm.run(1, ops=len(payload["requests"]))
        add_answers(answers, warm.answers)
        emit("READY")
        result = {"mode": mode, "warm_failures": warm.failures}
        cursor = itertools.count()
        clients = payload["clients"]
        if mode == "run":
            loop = Loop(service, stream, cursor)
            loop.run(clients, seconds=payload["seconds"])
            add_answers(answers, loop.answers)
            result["run"] = loop.summary()
        if mode == "trace":
            # unwrapped and wrapped slices alternate, so both halves see
            # the same stretch of the server's life
            plain = Loop(service, stream, cursor)
            trace = LayerTrace()
            traced = Loop(service, stream, cursor, trace)
            seconds = payload["seconds"] / (2.0 * TRACE_SLICES)
            for _ in range(TRACE_SLICES):
                plain.run(clients, seconds=seconds)
                trace.install(service.httpd)
                try:
                    traced.run(clients, seconds=seconds)
                finally:
                    trace.uninstall()
            add_answers(answers, plain.answers)
            add_answers(answers, traced.answers)
            result["run"] = plain.summary()
            result["traced"] = traced.summary()
            result["layers"] = trace.timing_metrics(service.http)
            result["layers"]["trace.overhead_ratio"] = (
                result["run"]["throughput_rps"] / result["traced"]["throughput_rps"]
            )
        if mode == "count":
            trace = LayerTrace()
            hits, misses = service.plan_cache()
            trace.install(service.httpd)
            try:
                counted = Loop(service, stream, cursor, trace)
                counted.run(1, ops=payload["ops"])
            finally:
                trace.uninstall()
            add_answers(answers, counted.answers)
            _, calls, counts, _ = trace.totals()
            hits_after, misses_after = service.plan_cache()
            hits, misses = hits_after - hits, misses_after - misses
            requests = max(1, counted.completed)
            result["run"] = counted.summary()
            result["counts"] = {
                "plan.visits_per_result": counted.visits / max(1, counted.results),
                "materialize.accessibility_calls_per_result": (
                    counts["accessibility"] / max(1, calls["materialize"])
                ),
                "compile.calls_per_request": calls["compile"] / requests,
                "store.builds": calls["store"],
                "plancache.hit_ratio": hits / max(1, hits + misses),
                "httpd.connections_per_request": counted.connects / requests,
            }
    finally:
        service.close()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["answers"] = [
        [index, list(values), count]
        for index, seen in sorted(answers.items())
        for values, count in seen.items()
    ]
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
