"""Wire-level benchmark of the Aria cluster: one workload, one seed.

    python3 perfbench/run.py --workload hot-batch --seed 1 --seconds 10 \\
        --trace 0

Run from the repository root.  The server runs in its own process
(``perfbench/server.py``); this process is the load generator and speaks
to it only through attested ``ClusterClient`` sessions.  Each run checks
every answer (see ``workloads.Checker``) and the server's own counters.

``--trace 0`` measures the end-to-end metrics: the cluster is set up
three times (``setup_s`` is the median) and the last set-up is measured.
``--trace 1`` measures for half the time untraced and half with span
wrappers around every layer boundary, and reports the per-layer metrics plus the tracing
overhead.  Human-readable lines come first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_ROOT = os.path.join(ROOT, ".perfbench_run")
#: Where the traced run leaves its spans (the latest run per workload).
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from server import proc_table  # noqa: E402
from workloads import (  # noqa: E402
    GET, KEY_SIZE, PUT, WORKLOADS, Checker, Stream, make_key)

SETUPS = 3
READY_TIMEOUT = 60.0
REPLY_TIMEOUT = 60.0
STOP_TIMEOUT = 45.0


class RunFailed(Exception):
    """A check failed or the server misbehaved; the run is not valid."""


# -- the server process -------------------------------------------------------


class ServerProcess:
    """``server.py`` in its own session, spoken to by JSON lines."""

    def __init__(self, workload, seed: int, trace: bool, run_dir: str):
        os.makedirs(run_dir, exist_ok=True)
        self.run_dir = run_dir
        env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=run_dir,
                   PYTHONDONTWRITEBYTECODE="1")
        self._stderr = open(os.path.join(run_dir, "server.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             "--workload", workload.name, "--seed", str(seed),
             "--trace", str(int(trace)), "--run-dir", run_dir,
             "--spans", spans_path(workload, "server")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, cwd=ROOT, env=env, text=True,
            start_new_session=True)
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def expect(self, event: str, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RunFailed(f"server sent no {event!r} in {timeout}s")
            if not line:
                raise RunFailed(f"server exited before {event!r}; see "
                                f"{self._stderr.name}")
            message = json.loads(line)
            if message.get("event") == event:
                return message
            if message.get("event") == "error":
                raise RunFailed(f"server error: {message}")

    def ask(self, command: str, event: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.expect(event, REPLY_TIMEOUT)

    def stop(self) -> list:
        """Stop the server, then kill whatever is left of its session."""
        leaked = []
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
                leaked = self.expect("stopped", STOP_TIMEOUT)["leaked"]
        except (RunFailed, OSError, ValueError):
            pass
        try:
            self.proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        stragglers = reap_session(self.proc.pid)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self._stderr.close()
        return leaked + [f"pid {pid}" for pid in stragglers]


def spans_path(workload, side: str) -> str:
    os.makedirs(SPANS_DIR, exist_ok=True)
    return os.path.join(SPANS_DIR, f"{workload.name}.{side}.spans.json")


def _session_members(sid: int):
    return [pid for pid, state, _, session in proc_table()
            if session == sid and state != "Z"]


def reap_session(sid: int, timeout: float = 10.0):
    """SIGKILL every process left in the server's session; wait for them."""
    stragglers = _session_members(sid)
    for pid in stragglers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while _session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return stragglers


# -- one connection's traffic ------------------------------------------------


class Connection:
    """One attested client with its own stream, checker and samples."""

    def __init__(self, client, workload, seed: int, conn: int):
        from repro.server.protocol import Status, get, put

        self.client = client
        self.stream = Stream(workload, seed, conn)
        self.checker = Checker(self.stream.values)
        self._ok = Status.OK
        self._get = get
        self._put = put
        self.reset()
        self.sent = 0
        self.error = None

    def reset(self) -> None:
        self.latencies = []
        self.lags = []
        #: (reply time, ops answered correctly, latency) per frame.
        self.completions = []
        self.ops = self.gets = self.puts = self.failed = 0
        self.user_bytes = 0
        self.last_done = 0.0

    def one_frame(self) -> bool:
        """Build, send and check one frame; False after a wire error.

        Latency runs from the send; lag is the generator's own time since
        the previous reply (building and checking frames).
        """
        ops = self.stream.frame()
        requests = [self._get(make_key(i)) if op == GET
                    else self._put(make_key(i), value)
                    for op, i, value in ops]
        sent = time.perf_counter()
        try:
            responses = self.client.request_batch(requests)
        except Exception as exc:  # any wire failure ends the run
            self.error = f"{type(exc).__name__}: {exc}"
            responses = []
        done = time.perf_counter()
        self.sent += len(ops)
        self.ops += len(ops)
        for op, _, value in ops:
            if op == PUT:
                self.puts += 1
                self.user_bytes += KEY_SIZE + len(value)
            else:
                self.gets += 1
        failed = self.checker.check(ops, responses, self._ok)
        self.failed += failed
        latency = done - sent
        self.completions.append((done, len(ops) - failed, latency))
        self.latencies.append(latency)
        self.lags.append(sent - self.last_done)
        self.last_done = done
        return self.error is None

    def closed_loop(self, frames: int = 0, until: float = 0.0) -> None:
        """``frames`` frames, or frames until ``until``, back to back."""
        n = 0
        while (n < frames) if frames else (time.perf_counter() < until):
            if not self.one_frame():
                return
            n += 1


def _parallel(conns, target) -> None:
    threads = [threading.Thread(target=target, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# -- one measured pass ----------------------------------------------------------


def install_client_spans(recorder) -> None:
    from repro.cluster.netserver import ClusterClient
    from repro.cluster.session import SecureSession
    from repro.server import protocol

    recorder.wrap(ClusterClient, "request_batch", "client.request")
    recorder.wrap(protocol, "encode_batch", "client.encode", opaque=True)
    recorder.wrap(protocol, "decode_batch_responses", "client.decode",
                  opaque=True)
    recorder.wrap(SecureSession, "seal", "session.seal", opaque=True)
    recorder.wrap(SecureSession, "open", "session.open", opaque=True)


def measure(workload, seed: int, seconds: float, *, trace: bool,
            setups: int, run_dir: str) -> dict:
    """Set up ``setups`` times, measure the last set-up, tear down."""
    from repro.cluster import ClusterClient

    setup_times = []
    for attempt in range(setups):
        started = time.perf_counter()
        server = ServerProcess(workload, seed, trace,
                               os.path.join(run_dir, f"setup{attempt}"))
        clients = []
        try:
            ready = server.expect("ready", READY_TIMEOUT)
            for _ in range(workload.connections):
                clients.append(ClusterClient.connect(ready["host"],
                                                     ready["port"]))
                if len(clients) == 1:
                    setup_times.append(time.perf_counter() - started)
            if attempt == setups - 1:
                result = drive(workload, seed, seconds, trace, server,
                               clients)
        finally:
            for client in clients:
                client.close()
            leaked = server.stop()
            shutil.rmtree(server.run_dir, ignore_errors=True)
        if leaked:
            print(f"teardown reaped leftovers: {leaked}")
    result["setup_s"] = statistics.median(setup_times)
    result["setup_times"] = setup_times
    return result


def drive(workload, seed, seconds, trace, server, clients) -> dict:
    conns = [Connection(c, workload, seed, i) for i, c in enumerate(clients)]
    _parallel(conns, lambda c: c.closed_loop(frames=workload.warmup_frames))
    recorder = None
    if trace:
        from tracing import SpanRecorder

        recorder = SpanRecorder(frame_starts=("client.request",))
        install_client_spans(recorder)
    wire_before = sum(c.wire_meter.cycles for c in clients)
    for conn in conns:
        conn.reset()
    server.ask("window", "window")
    if recorder is not None:
        recorder.enabled = True
    # The generator's own collector must not pause it inside the window.
    gc.collect()
    gc.disable()
    start = time.perf_counter() + 0.01
    end = start + seconds
    while time.perf_counter() < start:
        pass
    for conn in conns:
        conn.last_done = start
    _parallel(conns, lambda c: c.closed_loop(until=end))
    gc.enable()
    spans = None
    if recorder is not None:
        recorder.enabled = False
        recorder.unwrap_all()
        from tracing import self_times

        names, parents, _, starts, ends = recorder.columns()
        spans = self_times(names, parents, starts, ends)
        recorder.write(spans_path(workload, "client"))
    report = server.ask("report", "report")
    latencies = sorted(x for c in conns for x in c.latencies)
    lags = sorted(x for c in conns for x in c.lags)
    ops = sum(c.ops for c in conns)
    failed = sum(c.failed for c in conns)
    completions = [x for c in conns for x in c.completions]
    # The window closes with its last reply: a closed loop's final frame
    # was sent before ``end`` and its ops count in full.
    last = max((when for when, _, _ in completions), default=end)
    width, slices = by_slice(completions, start, end)
    out = {
        "ops": ops, "failed": failed,
        "gets": sum(c.gets for c in conns),
        "puts": sum(c.puts for c in conns),
        "frames": len(latencies),
        "user_bytes": sum(c.user_bytes for c in conns),
        "throughput_ops_s": sum(ok for _, ok, _ in completions)
        / (last - start),
        "latency_p50_ms": metrics.percentile(latencies, 50) * 1e3,
        "latency_p90_ms": metrics.percentile(latencies, 90) * 1e3,
        "slice_rates": [sum(ok for ok, _ in frames) / width
                        for frames in slices],
        "slice_p90_ms": [slice_percentile(frames, 90) for frames in slices],
        "lag_p99_ms": metrics.percentile(lags, 99) * 1e3,
        "tail": {q: metrics.percentile(latencies, q) * 1e3
                 for q in (50, 90, 95, 99, 99.9)},
        "supported_percentile": metrics.highest_supported(len(latencies)),
        # A window shorter than sim_frames frames (a smoke run) falls back
        # to the whole window; run_untraced refuses that on a full run.
        "sim_ops_s": report["sim_ops_s"] or report["window_sim_ops_s"],
        "server_rss_mb": report["rss_mb"],
        "report": report,
        "client_spans": spans,
        "client_wire_cycles": sum(c.wire_meter.cycles for c in clients)
        - wire_before,
        "violations": violations(conns, report),
    }
    return out


def by_slice(frames, start: float, end: float, buckets: int = 10):
    """Split ``(reply time, ok ops, latency)`` records into ``buckets``
    equal slices of the window by reply time; returns the slice width and
    each slice's ``(ok ops, latency)`` pairs.

    The slices are diagnostics only (printed, never gated): they show
    whether a slow run was slow throughout or stalled in a few places.
    """
    width = (end - start) / buckets
    slices = [[] for _ in range(buckets)]
    for when, ok, latency in frames:
        slot = int((when - start) // width)
        if 0 <= slot < buckets:
            slices[slot].append((ok, latency))
    return width, slices


def slice_percentile(frames, q: float):
    """One slice's q-th percentile latency in ms, or None when fewer than
    ``MIN_BEYOND`` of its frames lie beyond it."""
    if metrics.beyond(len(frames), q) < metrics.MIN_BEYOND:
        return None
    return metrics.percentile(sorted(lat for _, lat in frames), q) * 1e3


def full_length_problems(workload, result) -> list:
    """What a run of ``BENCHMARK.json``'s full length must also meet: the
    fixed simulated-throughput window and a sampled p90."""
    found = []
    if result["report"]["sim_ops_s"] is None:
        found.append(f"window held {result['report']['window_frames']} "
                     f"frames, fewer than the {workload.sim_frames} of the "
                     f"fixed sim_ops_s window")
    if result["supported_percentile"] < 90:
        found.append(f"{result['frames']} frames leave fewer than "
                     f"{metrics.MIN_BEYOND} beyond p90")
    return found


def full_seconds() -> float:
    """``run_seconds`` of ``BENCHMARK.json``: shorter runs are smoke runs."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def violations(conns, report) -> list:
    """Every way the run's outputs or the server's counters are wrong."""
    found = []
    for conn in conns:
        if conn.error:
            found.append(f"connection {conn.stream.conn}: {conn.error}")
        if conn.checker.first_error:
            found.append(f"connection {conn.stream.conn}: "
                         f"{conn.checker.first_error}")
    sent = sum(c.sent for c in conns)
    gets = sum(c.gets for c in conns)
    puts = sum(c.puts for c in conns)
    executed = report["events"]["op_get"] + report["events"]["op_put"]
    expected = {
        "ops_routed": sent,
        "requests_served": sent,
        "window ops executed": gets + puts * report["replication"],
        "replicas_down": 0, "frames_shed": 0, "requests_shed": 0,
        "flush_failures": 0, "alarms": 0,
    }
    actual = dict(report, **{"window ops executed": executed})
    actual["durability failures"] = report["durability"]["failures"]
    expected["durability failures"] = 0
    for name, want in expected.items():
        if actual[name] != want:
            found.append(f"{name} is {actual[name]}, expected {want}")
    return found


# -- output -----------------------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int, values: dict,
         *, lines: bool = True) -> None:
    if lines:
        for name, value in values.items():
            print(f"{name:34s} {value:14.4f} {metrics.UNITS[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }))


def describe(workload, result) -> None:
    ops, failed = result["ops"], result["failed"]
    q = result["supported_percentile"]
    print(f"workload {workload.name}: {result['frames']} frames, {ops} ops, "
          f"failed_frac {metrics.per_op(failed, ops):.6f}")
    print(f"  highest percentile with >= {metrics.MIN_BEYOND} samples "
          f"beyond: p{q:g}"
          + ("" if q >= 99 else "  (p99 under-sampled: run longer)"))
    print("  frame latency ms: " + " ".join(
        f"p{q:g}={result['tail'][q]:.3f}" for q in result["tail"]))
    print("  ops/s per tenth of the window: "
          + " ".join(f"{r:.0f}" for r in result["slice_rates"]))
    print("  p90 ms per tenth of the window: "
          + " ".join("-" if r is None else f"{r:.2f}"
                     for r in result["slice_p90_ms"]))
    sim = ("first " + str(workload.sim_frames)
           if result["report"]["sim_ops_s"] is not None
           else f"all {result['report']['window_frames']} (short window)")
    print(f"  generator lag p99 {result['lag_p99_ms']:.3f} ms; sim window: "
          f"{sim} frames")
    for problem in result["violations"]:
        print(f"  CHECK FAILED: {problem}")


def run_untraced(workload, args, run_dir) -> int:
    result = measure(workload, args.seed, args.seconds, trace=False,
                     setups=SETUPS, run_dir=run_dir)
    if args.seconds >= full_seconds():
        result["violations"] += full_length_problems(workload, result)
    describe(workload, result)
    print("  setup times " + ", ".join(f"{t:.3f}s"
                                       for t in result["setup_times"]))
    correct = not result["violations"] and result["failed"] == 0
    emit(correct, result["ops"], result["failed"],
         {name: result[name] for name, *_ in metrics.END_TO_END})
    return 0 if correct else 1


def run_traced(workload, args, run_dir) -> int:
    # Two half-length passes keep a traced run as long as an untraced one.
    half = args.seconds / 2
    base = measure(workload, args.seed, half, trace=False, setups=1,
                   run_dir=run_dir)
    traced = measure(workload, args.seed, half, trace=True, setups=1,
                     run_dir=run_dir)
    describe(workload, base)
    describe(workload, traced)
    report = traced["report"]
    overhead = 100.0 * (1.0 - traced["throughput_ops_s"]
                        / base["throughput_ops_s"])
    values = metrics.per_layer(
        ops=traced["ops"], gets=traced["gets"], puts=traced["puts"],
        frames=traced["frames"], client_spans=traced["client_spans"],
        server_spans=report["spans"], server_root_s=report["root_s"],
        report=report, client_wire_cycles=traced["client_wire_cycles"],
        user_bytes=traced["user_bytes"], lag_p99_ms=base["lag_p99_ms"],
        overhead_pct=overhead)
    print(f"tracing overhead {overhead:.1f}%: untraced "
          f"{base['throughput_ops_s']:.1f} ops/s, p50 "
          f"{base['latency_p50_ms']:.3f} ms; traced "
          f"{traced['throughput_ops_s']:.1f} ops/s, p50 "
          f"{traced['latency_p50_ms']:.3f} ms; "
          f"{report['span_count']} server spans")
    print(f"{'per-layer metric':34s} {'value':>14s} unit     should move")
    for name, unit, _, moves in metrics.PER_LAYER:
        print(f"{name:34s} {values[name]:14.4f} {unit:8s} {moves}")
    correct = (not base["violations"] and not traced["violations"]
               and base["failed"] == 0 and traced["failed"] == 0)
    emit(correct, base["ops"] + traced["ops"],
         base["failed"] + traced["failed"], values, lines=False)
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(RUN_ROOT, f"{workload.name}-{os.getpid()}")
    try:
        if args.trace:
            return run_traced(workload, args, run_dir)
        return run_untraced(workload, args, run_dir)
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
