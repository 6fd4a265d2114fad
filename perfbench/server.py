"""The benchmark's server launcher: one cluster behind the front door.

Run by ``run.py`` as its own process (so the server shares no interpreter
lock with the load generator)::

    python3 perfbench/server.py --workload hot-batch --seed 1 --trace 0 \\
        --run-dir .perfbench_run/x --spans server.spans.json

It builds the workload's cluster through ``ClusterConfig.build()``,
preloads it, serves it on an ephemeral port with the attested v2 wire
required, prints ``{"event": "ready", "port": ...}`` and then obeys one
command per stdin line, answering each with one JSON line:

* ``window`` - start the measured window: re-baseline every counter,
  start the simulated-throughput window and, when traced, drop the
  warm-up's spans and start recording;
* ``report`` - the window's counters (meter events, durability, front
  door ledger, peak memory) and, when traced, per-span self times;
* ``stop`` (or end of input) - close the server and the shard backends,
  sweep leaked workers and shard hosts, and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import N_KEYS, N_SHARDS, SCALE, WORKLOADS, Values  # noqa: E402

#: Meter events the per-layer table reads, summed over every shard.
EVENTS = ("op_get", "op_put", "ecall", "epc_access", "page_swap",
          "cache_hit", "cache_miss", "cache_evict", "cache_writeback",
          "mt_verify", "mac_bytes", "enc_bytes")


#: Spans that hand one shard (or replica group) its batch.
DISPATCHES = ("server.flush", "shard_hop.submit", "shard_hop.call",
              "replication.flush")


def send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def install_spans(recorder) -> None:
    """Wrap every server-side layer boundary the per-layer table reads."""
    from repro.cache.secure_cache import SecureCache
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.remote import RemoteServer
    from repro.cluster.replication import ReplicaGroup
    from repro.cluster.session import SecureSession
    from repro.core.store import AriaStore
    from repro.crypto.backend import FastCryptoBackend, RealCryptoBackend
    from repro.persist.durability import PartitionDurability
    from repro.server import protocol
    from repro.server.server import AriaServer
    from repro.sgx.memory import UntrustedMemory

    wrap = recorder.wrap
    wrap(SecureSession, "open", "session.open", opaque=True)
    wrap(SecureSession, "seal", "session.seal", opaque=True)
    wrap(protocol, "decode_batch", "netserver.decode", opaque=True)
    wrap(protocol, "encode_batch_responses", "netserver.encode", opaque=True)
    wrap(ClusterCoordinator, "execute", "coordinator.execute")
    wrap(RemoteServer, "flush_submit", "shard_hop.submit")
    wrap(RemoteServer, "flush_collect", "shard_hop.collect")
    wrap(RemoteServer, "flush_batch", "shard_hop.call")
    wrap(ReplicaGroup, "flush_batch", "replication.flush")
    wrap(PartitionDurability, "commit", "persist.commit", opaque=True)
    wrap(AriaServer, "flush_batch", "server.flush")
    wrap(AriaStore, "get", "store.get")
    wrap(AriaStore, "put", "store.put")
    for attr in ("read_counter", "write_counter", "increment_counter"):
        wrap(SecureCache, attr, "cache.counter")
    for backend in (FastCryptoBackend, RealCryptoBackend):
        wrap(backend, "mac", "crypto.mac")
        wrap(backend, "encrypt", "crypto.enc")
        wrap(backend, "decrypt", "crypto.enc")
    wrap(UntrustedMemory, "read", "sgx.untrusted")
    wrap(UntrustedMemory, "write", "sgx.untrusted")


def link_rename(i, names, parents) -> str:
    """Session spans nested in a shard hop are the socket link's AEAD."""
    name = names[i]
    if name.startswith("session.") and parents[i] >= 0:
        return "link." + name.split(".", 1)[1]
    return name


def _status_kb(pid, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def proc_table():
    """``(pid, state, ppid, session)`` of every process in ``/proc``."""
    table = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # it exited while we looked
        table.append((int(entry), fields[0], int(fields[1]),
                      int(fields[3])))
    return table


def descendants(root: int):
    """Pids of every live process below ``root``."""
    children = {}
    for pid, _, ppid, _ in proc_table():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of every shard process under it."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = sum(_status_kb(pid, "VmHWM") for pid in descendants(os.getpid()))
    return (own + kids) / 1024.0


class Launcher:
    def __init__(self, workload, seed: int, trace: bool, run_dir: str,
                 spans_path: str):
        from repro.cluster import ClusterConfig, DurabilityConfig

        self.workload = workload
        self.trace = trace
        self.run_dir = run_dir
        self.spans_path = spans_path
        durability = None
        if workload.durable:
            durability = DurabilityConfig(
                data_dir=os.path.join(run_dir, "data"))
        self.config = ClusterConfig(
            n_shards=N_SHARDS, n_keys=N_KEYS, scale=SCALE, seed=seed,
            backend=workload.backend, replication=workload.replication,
            durability=durability)
        self.recorder = None
        self.frames = 0
        self.sim_ops_s = None

    def start(self) -> None:
        from repro.cluster import serve

        self.server = serve(self.config, security="required")
        self.net = self.server.server
        self.coordinator = self.net.coordinator
        self.coordinator.load(Values(self.workload, self.config.seed).items())
        coordinator = self.coordinator
        cls = type(coordinator)

        def counted(requests, **kwargs):
            # Looked up per call, so the traced run's class-level span
            # wrapper is the one that runs.
            responses = cls.execute(coordinator, requests, **kwargs)
            self.frames += 1
            if self.frames == self.workload.sim_frames and self._sim:
                self.sim_ops_s = self._sim.aggregate_throughput()
            return responses

        # Counts frames for the simulated-throughput window; the front
        # door calls coordinator.execute, so the instance attribute wins.
        self._sim = None
        self.coordinator.execute = counted
        if self.trace:
            # After the build: forked shard workers must not inherit the
            # wrappers (their spans could never be collected).
            from tracing import SpanRecorder

            self.recorder = SpanRecorder(frame_starts=("session.open",))
            install_spans(self.recorder)
        host, port = self.net.address
        send({"event": "ready", "host": host, "port": port,
              "pid": os.getpid()})

    # -- counters -------------------------------------------------------------

    def _events(self):
        return [shard.meter.snapshot() for shard in
                self.coordinator.shard_list()]

    def _durability(self):
        out = {"commits": 0, "bytes_appended": 0, "failures": 0}
        for group in self.coordinator.shard_list():
            dur = getattr(group, "durability", None)
            if dur is not None:
                out["commits"] += dur.commits
                out["bytes_appended"] += dur.bytes_appended
                out["failures"] += getattr(group, "durability_failures", 0)
        return out

    def _gateway_cycles(self) -> float:
        return self.net.wire_stats()["gateway"]["cycles"]

    def window(self) -> dict:
        self.frames = 0
        self.sim_ops_s = None
        self._sim = self.coordinator.stats()
        self._base_meters = self._events()
        self._base_dur = self._durability()
        self._base_gateway = self._gateway_cycles()
        if self.recorder is not None:
            self.recorder.reset()
            self.recorder.enabled = True
        return {"event": "window"}

    def report(self) -> dict:
        if self.recorder is not None:
            self.recorder.enabled = False
        events = dict.fromkeys(EVENTS, 0)
        cycles = 0.0
        for base, now in zip(self._base_meters, self._events()):
            delta = base.delta(now)
            cycles += delta.cycles
            for name in EVENTS:
                events[name] += delta.events[name]
        dur_now = self._durability()
        durability = {k: dur_now[k] - self._base_dur[k] for k in dur_now}
        durability["failures"] = dur_now["failures"]
        window_frames = self.frames
        cluster = self.coordinator.stats().report()["cluster"]
        wire = self.net.wire_stats()
        overload = wire["overload"]
        out = {
            "event": "report",
            "window_frames": window_frames,
            # None when the window held fewer than sim_frames frames; the
            # generator decides whether the whole-window figure may stand in.
            "sim_ops_s": self.sim_ops_s,
            "window_sim_ops_s": self._sim.aggregate_throughput(),
            "events": events,
            "cycles_sum": cycles,
            "durability": durability,
            "gateway_cycles": self._gateway_cycles() - self._base_gateway,
            "ops_routed": self.coordinator.ops_routed,
            "requests_served": self.net.requests_served,
            "flush_failures": self.coordinator.flush_failures,
            "replicas_down": cluster.get("replicas_down", 0),
            "replication": self.workload.replication,
            "frames_shed": overload["frames_shed"],
            "requests_shed": overload["requests_shed"],
            "alarms": sum(wire[k] for k in ("tamper_alarms", "replay_alarms",
                                            "stale_session_alarms")),
            "rss_mb": peak_rss_mb(),
        }
        if self.recorder is not None:
            from tracing import self_times

            names, parents, _, starts, ends = self.recorder.columns()
            out["spans"] = self_times(names, parents, starts, ends,
                                      rename=link_rename)
            out["root_s"] = sum(e - s for p, s, e in
                                zip(parents, starts, ends) if p < 0)
            out["dispatches"] = sum(
                1 for name, p in zip(names, parents)
                if p >= 0 and names[p] == "coordinator.execute"
                and name in DISPATCHES)
            out["span_count"] = self.recorder.write(self.spans_path)
        return out

    def stop(self) -> dict:
        from repro.cluster import reap_leaked_hosts, reap_leaked_workers

        if self.recorder is not None:
            self.recorder.enabled = False
            self.recorder.unwrap_all()
        self.server.close()
        leaked = reap_leaked_workers() + reap_leaked_hosts()
        return {"event": "stopped", "leaked": leaked}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--spans", required=True,
                        help="where the traced run writes its spans")
    args = parser.parse_args()
    launcher = Launcher(WORKLOADS[args.workload], args.seed,
                        bool(args.trace), args.run_dir, args.spans)
    launcher.start()
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "window":
                send(launcher.window())
            elif command == "report":
                send(launcher.report())
            elif command == "stop":
                break
            else:
                send({"event": "error", "error": f"unknown {command!r}"})
    finally:
        send(launcher.stop())
    return 0


if __name__ == "__main__":
    sys.exit(main())
