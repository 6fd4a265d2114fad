"""One cluster shard: an enclave-backed Aria store plus its request server.

Generalizes the paper's Fig 16a multi-tenant split — where one machine's
EPC is partitioned across 2 or 4 independent enclaves — to N shards whose
per-shard EPC budget is carved out of a cluster-wide budget.  Each shard is
a *separate* :class:`~repro.sgx.enclave.Enclave`: its own cycle meter, its
own EPC budget, its own Secure Cache sized by the same "as large as
possible" rule the single-store benchmarks use (via
:func:`repro.bench.harness.build_aria`).

Shards also keep the small amount of bookkeeping the balancer needs: a
load mark (cycles consumed since the last balancer inspection) so hot-shard
detection can work on windowed deltas rather than lifetime totals.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.bench.harness import build_aria
from repro.cluster.backend import BackendSpec, resolve_backend
from repro.server.server import AriaServer
from repro.sgx.costs import SgxPlatform

#: Floor for a shard's EPC carve-out; below this the Merkle pinning math
#: degenerates (mirrors the scaled_platform floor in the bench harness).
MIN_SHARD_EPC_BYTES = 4096


def enclave_epc_bytes(cluster_epc_bytes: int, scale: int,
                      n_enclaves: int) -> int:
    """One enclave's carve: the ``scale``-divided EPC envelope split
    evenly over ``n_enclaves``, floored at :data:`MIN_SHARD_EPC_BYTES`."""
    return max(MIN_SHARD_EPC_BYTES,
               cluster_epc_bytes // scale // n_enclaves)

#: Environment override for the per-shard enclave worker count, consulted
#: by the cluster builders when no explicit ``workers=`` is given (how the
#: CI ``parallel`` job re-runs whole suites at ``workers=4``).
WORKERS_ENV_VAR = "ARIA_SHARD_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument beats ``ARIA_SHARD_WORKERS`` beats 1.

    Resolution happens in the *builder's* process: backends ship the
    resolved integer in their spawn specs, so a shard-host started with a
    different environment still builds the shard the coordinator asked
    for.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR)
        workers = int(raw) if raw else 1
    if workers < 1:
        raise ValueError("shard workers must be >= 1")
    return workers


class Shard:
    """An independent enclave + Aria store serving one ring partition."""

    def __init__(
        self,
        shard_id: str,
        *,
        epc_bytes: int,
        capacity_keys: int,
        index: str = "hash",
        seed: int = 0,
        value_hint: int = 16,
        workers: int = 1,
        **config_overrides,
    ):
        self.shard_id = shard_id
        self.epc_bytes = max(MIN_SHARD_EPC_BYTES, epc_bytes)
        platform = SgxPlatform(epc_bytes=self.epc_bytes)
        # Sized for ``capacity_keys`` — the worst-case ownership, not the
        # expected 1/N share: ring imbalance and balancer migrations can
        # concentrate keys on one shard, and a counter-area expansion is
        # not affordable once the Secure Cache has claimed "as large as
        # possible" (the paper's sizing rule).  Counter capacity is cheap
        # (1 EPC bit per counter); the Secure Cache absorbs the rest.
        self.store = build_aria(
            n_keys=max(64, capacity_keys),
            platform=platform,
            index=index,
            seed=seed,
            value_hint=value_hint,
            **config_overrides,
        )
        self.server = AriaServer(self.store, workers=workers)
        self.workers = workers
        #: Requests routed here since construction (front-door count; the
        #: enclave's own op_* events count executed operations).
        self.ops_routed = 0
        self._load_mark = 0.0

    # -- balancer bookkeeping ----------------------------------------------------

    @property
    def meter(self):
        return self.store.enclave.meter

    def load_since_mark(self) -> float:
        """Cycles consumed since :meth:`mark_load` — the hot-shard signal."""
        return self.meter.cycles - self._load_mark

    def mark_load(self) -> None:
        self._load_mark = self.meter.cycles

    # -- reporting ----------------------------------------------------------------

    def stats(self) -> dict:
        """One shard's row of the cluster report."""
        events = self.meter.events
        cache = self.store.cache_stats()
        row = {
            "shard": self.shard_id,
            "keys": len(self.store),
            "ops_routed": self.ops_routed,
            "ops_executed": (events["op_get"] + events["op_put"]
                             + events["op_delete"]),
            "cycles": self.meter.cycles,
            "ecalls": events["ecall"],
            "page_swaps": events["page_swap"],
            "cache_hit_ratio": cache["hit_ratio"],
            "cache_evictions": cache["evictions"],
            "epc_bytes": self.epc_bytes,
            "epc_used": self.store.enclave.epc.used,
        }
        exec_stats = self.server.exec_stats()
        if exec_stats is not None:
            row["batchexec"] = exec_stats
        return row

    def close(self, timeout: float = 5.0) -> None:
        """Inline shards hold no external resources; process handles do."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Shard({self.shard_id!r}, keys={len(self.store)}, "
                f"epc={self.epc_bytes})")


def build_shards(
    n_shards: int,
    *,
    cluster_epc_bytes: int,
    n_keys: int,
    index: str = "hash",
    seed: int = 0,
    value_hint: int = 16,
    id_prefix: str = "shard",
    backend: BackendSpec = None,
    workers: Optional[int] = None,
    **config_overrides,
) -> List:
    """Carve ``cluster_epc_bytes`` evenly into ``n_shards`` enclaves.

    ``n_keys`` is the *cluster-wide* keyspace.  Every shard gets 1/N of
    the EPC but is provisioned (counters, buckets) for the whole keyspace
    — exactly how the paper's Fig 16a sizes each tenant for its full
    working set while the EPC is split k ways.

    ``backend`` picks who hosts each enclave (see
    :mod:`repro.cluster.backend`): ``"inline"`` returns plain
    :class:`Shard` objects; ``"process"`` returns handles to per-shard
    worker processes satisfying the same contract.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be positive")
    factory = resolve_backend(backend)
    workers = resolve_workers(workers)
    per_shard_epc = cluster_epc_bytes // n_shards
    return [
        factory.create(
            f"{id_prefix}-{i}",
            epc_bytes=per_shard_epc,
            capacity_keys=n_keys,
            index=index,
            seed=seed + i,
            value_hint=value_hint,
            workers=workers,
            **config_overrides,
        )
        for i in range(n_shards)
    ]
