"""Metric definitions, the percentile rule and the per-layer arithmetic.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``BENCHMARK.json``
lists, in the same order, with the end-to-end metric and workload each
per-layer metric is expected to move (the ``moves`` column is what the
traced run prints beside each value).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

# name, unit, better
END_TO_END: List[Tuple[str, str, str]] = [
    ("throughput_ops_s", "ops/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("sim_ops_s", "ops/s", "higher"),
    ("server_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

# name, unit, better, what it should move (end-to-end metric on workload)
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("client.encode_us", "us", "lower",
     "latency_p50_ms on uniform-single; ~0 on hot-batch"),
    ("client.decode_us", "us", "lower",
     "latency_p50_ms on uniform-single; ~0 on hot-batch"),
    ("session.seal_us", "us", "lower", "latency_p50_ms on uniform-single"),
    ("session.open_us", "us", "lower", "latency_p50_ms on uniform-single"),
    ("session.wire_cycles_per_frame", "cycles", "lower",
     "latency_p50_ms on uniform-single"),
    ("netserver.codec_us", "us", "lower", "latency_p50_ms on uniform-single"),
    ("netserver.residual_ms", "ms", "lower",
     "latency_p90_ms, throughput_ops_s on uniform-single"),
    ("loadgen.lag_p99_ms", "ms", "lower",
     "validity: the generator's own time between a reply and the next send"),
    ("coordinator.execute_self_us", "us", "lower",
     "latency_p50_ms on uniform-single"),
    ("coordinator.shards_per_frame", "count", "lower",
     "latency_p50_ms on uniform-single"),
    ("shard_hop.submit_us", "us", "lower",
     "latency_p50_ms on uniform-single, durable-etc; absent on hot-batch"),
    ("shard_hop.collect_wait_us", "us", "lower",
     "latency_p50_ms on uniform-single, durable-etc; absent on hot-batch"),
    ("shard_hop.link_aead_us", "us", "lower",
     "latency_p50_ms on durable-etc; absent elsewhere"),
    ("replication.flush_self_us", "us", "lower",
     "throughput_ops_s, latency_p90_ms on durable-etc; absent elsewhere"),
    ("persist.commit_us", "us", "lower",
     "throughput_ops_s, latency_p90_ms on durable-etc; absent elsewhere"),
    ("persist.commits_per_frame", "count", "lower",
     "throughput_ops_s on durable-etc; absent elsewhere"),
    ("persist.log_bytes_per_user_byte", "B/B", "lower",
     "throughput_ops_s on durable-etc; absent elsewhere"),
    ("server.flush_self_us", "us", "lower", "throughput_ops_s on hot-batch"),
    ("sgx.ecalls_per_op", "count", "lower", "throughput_ops_s on hot-batch"),
    ("store.get_us", "us", "lower", "throughput_ops_s on hot-batch"),
    ("store.put_us", "us", "lower", "throughput_ops_s on hot-batch"),
    ("cache.counter_us", "us", "lower", "throughput_ops_s on hot-batch"),
    ("cache.hit_ratio", "ratio", "higher",
     "sim_ops_s on uniform-single (miss path); unchanged on hot-batch"),
    ("cache.evictions_per_op", "count", "lower",
     "sim_ops_s on uniform-single; unchanged on hot-batch"),
    ("cache.writebacks_per_op", "count", "lower",
     "sim_ops_s on uniform-single; unchanged on hot-batch"),
    ("merkle.verifies_per_op", "count", "lower",
     "sim_ops_s on uniform-single; unchanged on hot-batch"),
    ("crypto.mac_us", "us", "lower",
     "throughput_ops_s on hot-batch, durable-etc"),
    ("crypto.enc_us", "us", "lower",
     "throughput_ops_s on hot-batch, durable-etc"),
    ("crypto.mac_bytes_per_op", "B", "lower",
     "throughput_ops_s on hot-batch, durable-etc"),
    ("crypto.enc_bytes_per_op", "B", "lower",
     "throughput_ops_s on hot-batch, durable-etc"),
    ("sgx.untrusted_us", "us", "lower", "throughput_ops_s on hot-batch"),
    ("sgx.epc_accesses_per_op", "count", "lower",
     "throughput_ops_s on hot-batch"),
    ("sgx.page_swaps_per_op", "count", "lower",
     "throughput_ops_s on hot-batch"),
    ("sgx.cycles_per_op", "cycles", "lower", "sim_ops_s on every workload"),
    ("trace.overhead_pct", "%", "lower",
     "none: traced vs untraced throughput_ops_s"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END}
UNITS.update({name: unit for name, unit, *_ in PER_LAYER})

#: Candidate percentiles for the "highest with 10 samples beyond" rule.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """Nearest-rank index (1-based) of the q-th percentile of n samples."""
    # The epsilon keeps float error (99.9 / 100 * 10_000 = 9990.000...2)
    # from pushing an exact rank up by one.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already-sorted samples."""
    if not ordered:
        raise ValueError("no samples")
    return ordered[rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie beyond the q-th percentile."""
    return n - rank(n, q)


def highest_supported(n: int) -> float:
    """The highest percentile with at least ten samples beyond it (0 when
    even the median has fewer)."""
    for q in PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return 0.0


def per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def per_layer(ops: int, gets: int, puts: int, frames: int,
              client_spans: Dict[str, dict], server_spans: Dict[str, dict],
              server_root_s: float, report: dict, client_wire_cycles: float,
              user_bytes: int, lag_p99_ms: float,
              overhead_pct: float) -> Dict[str, float]:
    """Every per-layer metric of one traced window.

    ``*_spans`` map a span name to ``{"count", "self_s", "total_s"}``
    (see :func:`tracing.self_times`); times become microseconds per op.
    """

    def self_s(spans, *names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def us(seconds, n=ops):
        return per_op(seconds * 1e6, n)

    events = report["events"]
    dur = report["durability"]
    hits, misses = events["cache_hit"], events["cache_miss"]
    return {
        "client.encode_us": us(self_s(client_spans, "client.encode")),
        "client.decode_us": us(self_s(client_spans, "client.decode")),
        "session.seal_us": us(self_s(client_spans, "session.seal")
                              + self_s(server_spans, "session.seal")),
        "session.open_us": us(self_s(client_spans, "session.open")
                              + self_s(server_spans, "session.open")),
        "session.wire_cycles_per_frame": per_op(
            client_wire_cycles + report["gateway_cycles"], frames),
        "netserver.codec_us": us(self_s(server_spans, "netserver.decode",
                                        "netserver.encode")),
        "netserver.residual_ms": per_op(
            (self_s(client_spans, "client.request") - server_root_s) * 1e3,
            frames),
        "loadgen.lag_p99_ms": lag_p99_ms,
        "coordinator.execute_self_us": us(
            self_s(server_spans, "coordinator.execute")),
        "coordinator.shards_per_frame": per_op(report.get("dispatches", 0),
                                               frames),
        "shard_hop.submit_us": us(self_s(server_spans, "shard_hop.submit")),
        "shard_hop.collect_wait_us": us(self_s(
            server_spans, "shard_hop.collect", "shard_hop.call")),
        "shard_hop.link_aead_us": us(self_s(server_spans, "link.seal",
                                            "link.open")),
        "replication.flush_self_us": us(
            self_s(server_spans, "replication.flush")),
        "persist.commit_us": us(self_s(server_spans, "persist.commit")),
        "persist.commits_per_frame": per_op(dur["commits"], frames),
        "persist.log_bytes_per_user_byte": per_op(dur["bytes_appended"],
                                                  user_bytes),
        "server.flush_self_us": us(self_s(server_spans, "server.flush")),
        "sgx.ecalls_per_op": per_op(events["ecall"], ops),
        "store.get_us": us(self_s(server_spans, "store.get"), gets),
        "store.put_us": us(self_s(server_spans, "store.put"), puts),
        "cache.counter_us": us(self_s(server_spans, "cache.counter")),
        "cache.hit_ratio": per_op(hits, hits + misses),
        "cache.evictions_per_op": per_op(events["cache_evict"], ops),
        "cache.writebacks_per_op": per_op(events["cache_writeback"], ops),
        "merkle.verifies_per_op": per_op(events["mt_verify"], ops),
        "crypto.mac_us": us(self_s(server_spans, "crypto.mac")),
        "crypto.enc_us": us(self_s(server_spans, "crypto.enc")),
        "crypto.mac_bytes_per_op": per_op(events["mac_bytes"], ops),
        "crypto.enc_bytes_per_op": per_op(events["enc_bytes"], ops),
        "sgx.untrusted_us": us(self_s(server_spans, "sgx.untrusted")),
        "sgx.epc_accesses_per_op": per_op(events["epc_access"], ops),
        "sgx.page_swaps_per_op": per_op(events["page_swap"], ops),
        "sgx.cycles_per_op": per_op(report["cycles_sum"], ops),
        "trace.overhead_pct": overhead_pct,
    }
