"""End-to-end benchmark of the secure XML query service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list        # every metric, its unit and what moves it
    python3 perfbench/run.py --self-test   # the oracle gate rejects a perturbed answer

Users of the service are tenants that send a view query and wait for
the answer, so every workload is a closed loop of two client threads
in one process against a ``QueryServer`` built with its defaults
(tracing, profiling, four workers).  Requests carry no
``ExecutionOptions``: the program's defaults pick the strategy and
projection, so changing a default shows in the numbers.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``, measured with no wrappers installed.  With
``--trace 1`` it reports the per-layer metrics: timings from a run
whose layers are wrapped by ``layers.py``, and work counters from two
deterministic single-client passes over a fixed seed, which must agree
exactly.  Either way every answer is checked against the materialized
view (``oracle.py``); the last line of output is one JSON object.

Each measurement runs in a fresh worker process (``worker.py``), so
set-up time starts cold and peak memory belongs to that workload only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SOURCE)

import inputs  # noqa: E402
import oracle  # noqa: E402
from layers import PER_REQUEST  # noqa: E402
from stats import median  # noqa: E402

WORKLOADS = ("replay_mix", "http_small", "scan_churn")
CLIENTS = 2
#: Worker processes per end-to-end run, each measuring an equal share
#: of ``--seconds``.  Every end-to-end metric is the median over the
#: processes: throughput and latency vary more from one process to the
#: next than within one, and a burst of load from outside the benchmark
#: slows one or two processes, not the median.
PROCESSES = 5
#: The count pass always uses this seed, so its counters can be named
#: before a change is made.
COUNT_SEED = 0
#: Operations in one count pass (whole blocks / write windows).
COUNT_OPS = {"replay_mix": 54, "http_small": 140, "scan_churn": 150}
#: Every run ends within this many seconds or fails.
RUN_DEADLINE_SECONDS = 170.0

#: What each per-layer metric measures and which end-to-end metric it
#: should move on which workload.
LAYER_NOTES = {
    "httpd.self_ms_p50": "client round trip minus server submit-to-resolve and handler protocol work (serving.httpd); moves latency_p50_ms/throughput_rps on http_small",
    "httpd.connections_per_request": "TCP connections the client opened per request (count pass); moves latency_p50_ms/throughput_rps on http_small",
    "protocol.encode_ms_mean": "QueryRequest.from_dict + QueryResponse.from_result (minus serialize) + to_dict (serving.protocol); moves latency_p50_ms on http_small",
    "admission.queue_wait_ms_p50": "submit to entry of AdmissionController.admit (serving.admission); moves latency_p99_ms on replay_mix",
    "admission.queue_wait_ms_p99": "submit to entry of AdmissionController.admit (serving.admission); moves latency_p99_ms on replay_mix",
    "admission.rejected_ratio": "share of requests admission refuses; moves success_ratio",
    "server.self_ms_p50": "submit-to-resolve minus queue wait, execute_request and obs calls (serving.server); moves latency_p50_ms on http_small",
    "engine.execute_ms_p50": "SecureQueryEngine.execute_request (core.engine); moves latency_p50_ms everywhere",
    "engine.execute_ms_p99": "SecureQueryEngine.execute_request (core.engine); moves latency_p99_ms everywhere",
    "engine.self_ms_mean": "execute_request minus the layer spans inside it: report and telemetry glue; moves latency_p50_ms on http_small",
    "plancache.hit_ratio": "plan_cache_stats() hit delta over the count pass (core.plancache); moves latency_p50_ms on scan_churn",
    "compile.ms_per_request": "parse_xpath + Rewriter.rewrite + Optimizer.optimize + compile_path; moves latency_p99_ms on scan_churn",
    "compile.calls_per_request": "outermost compile calls per request (count pass); moves latency_p99_ms on scan_churn",
    "plan.execute_ms_per_request": "CompiledPlan.execute (xpath.plan); moves throughput_rps/latency_p50_ms on scan_churn",
    "plan.visits_per_result": "plan visits per answer from the response report (count pass); moves throughput_rps/latency_p50_ms on scan_churn",
    "store.builds": "NodeTable/DocumentIndex constructions (count pass; xmlmodel.store, xmlmodel.index); moves latency_p99_ms on scan_churn and setup_s",
    "store.build_ms_total": "time in NodeTable/DocumentIndex construction during the traced run; moves latency_p99_ms on scan_churn and setup_s",
    "materialize.ms_per_request": "materialize_subtree, the view projection (core.materialize); moves throughput_rps and both latencies on replay_mix, flat on scan_churn",
    "materialize.accessibility_calls_per_result": "compute_accessibility calls per projected result (count pass); moves throughput_rps and latencies on replay_mix",
    "serialize.ms_per_request": "xmlmodel.serialize.serialize; moves replay_mix and http_small",
    "obs.ms_per_request": "FlightRecorder.record, SLOTracker.observe, WorkloadProfiler.record_*, EventPipeline.emit; moves latency_p50_ms on http_small",
    "trace.overhead_ratio": "untraced over traced throughput: the cost of the wrappers",
    "trace.unaccounted_ratio": "share of client round-trip time no layer span covers: exposes a missing layer",
}


class WorkerFailed(RuntimeError):
    pass


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spawn(payload: dict, deadline: float):
    """Run one worker; returns ``(seconds from spawn to READY, result)``."""
    # a fixed hash seed makes set and dict iteration orders, and so the
    # count pass's counters, repeat from one process to the next
    environment = dict(os.environ, PYTHONHASHSEED="0")
    started = perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        cwd=ROOT,
        env=environment,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), process.kill)
    watchdog.start()
    ready = None
    last = b""
    try:
        try:
            process.stdin.write(json.dumps(payload).encode("utf-8"))
            process.stdin.close()
        except BrokenPipeError:
            pass
        for line in process.stdout:
            if ready is None and line.strip() == b"READY":
                ready = perf_counter() - started
            elif line.strip():
                last = line
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if process.returncode != 0 or ready is None:
        raise WorkerFailed(
            "worker (%s) exited with code %s" % (payload["mode"], process.returncode)
        )
    return ready, json.loads(last)


def payload_for(workload_inputs: dict, mode: str, seconds: float, ops: int = 0) -> dict:
    return dict(workload_inputs, mode=mode, seconds=seconds, clients=CLIENTS, ops=ops)


def gate(expected, result: dict, label: str, problems: list) -> None:
    for line in oracle.mismatches(expected, result["answers"]):
        problems.append("%s: %s" % (label, line))
    for code, count in result["warm_failures"].items():
        problems.append("%s: warm pass failed %d time(s) with %s" % (label, count, code))


def run_end_to_end(workload: str, seed: int, seconds: float, deadline: float, problems: list):
    workload_inputs = inputs.build(workload, seed)
    expected = oracle.expected_answers(workload_inputs)
    setups, runs, memory = [], [], []
    for number in range(PROCESSES):
        ready, result = spawn(
            payload_for(workload_inputs, "run", seconds / PROCESSES), deadline
        )
        gate(expected, result, "process %d" % number, problems)
        setups.append(ready)
        runs.append(result["run"])
        memory.append(result["rss_mb"])
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(
        "%s seed %d: %d processes of %.1f s, %d failed, %d writes; per process: "
        "latency samples %s; throughput %s 1/s; p50 %s ms; p99 %s ms; setup %s s"
        % (
            workload, seed, PROCESSES, seconds / PROCESSES, failed,
            sum(run["writes"] for run in runs),
            ", ".join("%d" % run["completed"] for run in runs),
            ", ".join("%.1f" % run["throughput_rps"] for run in runs),
            ", ".join("%.2f" % run["latency_p50_ms"] for run in runs),
            ", ".join("%.1f" % run["latency_p99_ms"] for run in runs),
            ", ".join("%.3f" % value for value in setups),
        )
    )
    if sum(run["completed"] for run in runs) < 1000:
        print("warning: fewer than 1000 latency samples in the run", file=sys.stderr)
    metrics = {
        "setup_s": median(setups),
        "throughput_rps": median([run["throughput_rps"] for run in runs]),
        "latency_p50_ms": median([run["latency_p50_ms"] for run in runs]),
        "latency_p99_ms": median([run["latency_p99_ms"] for run in runs]),
        "success_ratio": 1.0 - failed / max(1, attempted),
        "rss_mb": median(memory),
    }
    return metrics, attempted, failed


def run_traced(workload: str, seed: int, seconds: float, deadline: float, problems: list):
    count_inputs = inputs.build(workload, COUNT_SEED)
    count_expected = oracle.expected_answers(count_inputs)
    passes = []
    for number in (1, 2):
        _, result = spawn(
            payload_for(count_inputs, "count", seconds, COUNT_OPS[workload]), deadline
        )
        gate(count_expected, result, "count pass %d" % number, problems)
        if result["run"]["failed"]:
            problems.append("count pass %d: %s" % (number, result["run"]["failures"]))
        passes.append(result["counts"])
    if passes[0] != passes[1]:
        problems.append("count passes differ: %s != %s" % (passes[0], passes[1]))
    workload_inputs = inputs.build(workload, seed)
    expected = oracle.expected_answers(workload_inputs)
    _, result = spawn(payload_for(workload_inputs, "trace", seconds), deadline)
    gate(expected, result, "trace", problems)
    metrics = dict(result["layers"])
    metrics.update(passes[0])
    attempted = result["run"]["attempted"] + result["traced"]["attempted"]
    failed = result["run"]["failed"] + result["traced"]["failed"]
    layers = {name: metrics[name] for name in PER_REQUEST}
    largest = max(layers, key=layers.get)
    layer_ms = sum(layers.values()) + metrics["engine.self_ms_mean"]
    print(
        "%s seed %d traced: %d requests; layer ms per request: %s; "
        "largest: %s, %.1f%% of the time in layer spans"
        % (
            workload, seed, result["traced"]["completed"],
            ", ".join("%s %.3f" % item for item in sorted(layers.items())),
            largest, 100.0 * layers[largest] / layer_ms,
        )
    )
    return metrics, attempted, failed


def list_metrics() -> int:
    benchmark = load_benchmark()
    print("workloads:")
    for workload in benchmark["workloads"]:
        print("  %-12s %s" % (workload["name"], workload["why"]))
    print("end-to-end metrics (--trace 0):")
    for metric in benchmark["end_to_end"]:
        print("  %-20s %-6s %s is better, bound %s"
              % (metric["name"], metric["unit"], metric["better"], metric["bound"]))
    print("per-layer metrics (--trace 1):")
    for metric in benchmark["per_layer"]:
        print("  %-44s %-6s %s is better; %s"
              % (metric["name"], metric["unit"], metric["better"],
                 LAYER_NOTES[metric["name"]]))
    return 0


def self_test(deadline: float) -> int:
    """The oracle gate passes real answers and rejects one perturbed
    expected answer; the count pass repeats exactly."""
    workload_inputs = inputs.build("http_small", COUNT_SEED)
    expected = oracle.expected_answers(workload_inputs)
    results = []
    for _ in range(2):
        _, result = spawn(payload_for(workload_inputs, "count", 1, 28), deadline)
        results.append(result)
    failures = []
    problems: list = []
    gate(expected, results[0], "real answers", problems)
    failures.extend(problems)
    index = next(i for i, answers in sorted(expected.items()) if answers)
    perturbed = dict(expected)
    perturbed[index] = expected[index].copy()
    answer = next(iter(perturbed[index]))
    perturbed[index][answer] -= 1
    perturbed[index][answer + "<!-- perturbed -->"] += 1
    problems = []
    gate(perturbed, results[0], "perturbed", problems)
    if not problems:
        failures.append("a perturbed expected answer passes the gate")
    if results[0]["counts"] != results[1]["counts"]:
        failures.append("count passes differ")
    for failure in failures:
        print("FAIL: %s" % failure)
    print("self-test %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    arguments = parser.parse_args(argv)
    deadline = perf_counter() + RUN_DEADLINE_SECONDS
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print("error: the program's source (src/repro) is missing", file=sys.stderr)
        return 2
    if arguments.list:
        return list_metrics()
    compileall.compile_dir(SOURCE, quiet=1)
    if arguments.self_test:
        return self_test(deadline)
    if arguments.workload is None:
        parser.error("--workload is required")
    problems: list = []
    run = run_traced if arguments.trace else run_end_to_end
    try:
        metrics, attempted, failed = run(
            arguments.workload, arguments.seed, arguments.seconds, deadline, problems
        )
    except WorkerFailed as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    benchmark = load_benchmark()
    names = benchmark["per_layer" if arguments.trace else "end_to_end"]
    for problem in problems:
        print("INCORRECT: %s" % problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in names
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
