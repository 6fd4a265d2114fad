"""The benchmark's three workloads: cluster shape, traffic and inputs.

Everything a run sends is generated here from ``--seed``: the preload
dataset, every request, and every value a put writes.  The program under
test receives only those requests over the wire.

Each write carries a per-write version inside its value (16 B YCSB
values hold ``(key index, version)`` verbatim; ETC values are a digest of
``(seed, key index, version)`` stretched to the value's size), and every
connection owns a disjoint set of keys, so :class:`Checker` knows the one
value each get must return.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: Cluster-wide keyspace and EPC scale: 20,000 keys at scale 512 keep the
#: paper's 10M-key : 91 MB EPC ratio.
N_KEYS = 20_000
SCALE = 512
N_SHARDS = 4
KEY_SIZE = 16
ZIPF_THETA = 0.99

GET = "get"
PUT = "put"

# ETC pool shape (Atikoglu et al., as in the paper's Section VI-B).
_TINY_FRACTION = 0.40
_SMALL_FRACTION = 0.55
_LARGE_REQUEST_FRACTION = 0.05
_TINY = (1, 13)
_SMALL = (14, 300)
_LARGE = (301, 1024)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Shard backend: "inline", "process" or "socket" (spawn mode).
    backend: str
    replication: int
    #: Sealed WAL durability on a fresh directory inside the run dir.
    durable: bool
    #: "zipf" / "uniform" (YCSB, 16 B values) or "etc".
    traffic: str
    read_ratio: float
    frame_ops: int
    connections: int
    #: Untimed frames per connection before the measured window.
    warmup_frames: int
    #: The simulated-throughput window: the first this-many frames of the
    #: measured window, so the op sequence it covers is fixed by the seed.
    sim_frames: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="hot-batch",
        why="zipf 0.99 95% get 64-op frames on inline shards: enclave-bound,"
            " the hot set's MT nodes fit the Secure Cache, wire cost amortized",
        backend="inline", replication=1, durable=False,
        traffic="zipf", read_ratio=0.95, frame_ops=64, connections=1,
        warmup_frames=60, sim_frames=1000),
    Workload(
        name="uniform-single",
        why="uniform 50% put single-op frames, closed loop over 2"
            " connections on process shards: per-frame cost, cache-miss path",
        backend="process", replication=1, durable=False,
        traffic="uniform", read_ratio=0.5, frame_ops=1, connections=2,
        warmup_frames=200, sim_frames=8_000),
    Workload(
        name="durable-etc",
        why="ETC mix 50% put 16-op frames, R=2 socket shards with sealed WAL:"
            " replica fan-out, group commit, link AEAD, large values",
        backend="socket", replication=2, durable=True,
        traffic="etc", read_ratio=0.5, frame_ops=16, connections=1,
        warmup_frames=60, sim_frames=750),
)}


def make_key(index: int) -> bytes:
    """The 16-byte key of key ``index`` (YCSB's ``user<digits>`` shape)."""
    return b"u%015d" % index


class Zipfian:
    """YCSB's zipfian generator (Gray et al.) over ``range(n)``.

    The benchmark keeps its own copy rather than importing
    ``repro.workloads``, so a change to the program cannot change the
    inputs it is measured with.
    """

    def __init__(self, n: int, theta: float, rng: random.Random):
        self.n = n
        self.theta = theta
        self.rng = rng
        zeta_n = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        zeta_2 = 1.0 + 1.0 / (2 ** theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.zeta_n = zeta_n
        self.eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - zeta_2 / zeta_n)
        self.half_pow = 0.5 ** theta

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + self.half_pow:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1) ** self.alpha) \
            % self.n


class Values:
    """Deterministic values: version 0 is the preload, later versions are
    the puts, each distinguishable from every earlier one of its key."""

    def __init__(self, workload: Workload, seed: int):
        self.etc = workload.traffic == "etc"
        self.seed = seed
        self._salt = seed & 0xFFFFFFFFFFFFFFFF
        self.n_tiny = int(N_KEYS * _TINY_FRACTION)
        self.n_small = int(N_KEYS * _SMALL_FRACTION)

    def size_range(self, index: int) -> Tuple[int, int]:
        if index < self.n_tiny:
            return _TINY
        if index < self.n_tiny + self.n_small:
            return _SMALL
        return _LARGE

    def preload_size(self, index: int) -> int:
        lo, hi = self.size_range(index)
        return lo + (index * 2654435761 % (hi - lo + 1))

    def value(self, index: int, version: int, size: int = 16) -> bytes:
        if not self.etc:
            return struct.pack("<IIQ", index, version, self._salt)
        digest = hashlib.blake2b(b"%d:%d:%d" % (self.seed, index, version),
                                 digest_size=32).digest()
        return (digest * (size // 32 + 1))[:size]

    def preload(self, index: int) -> bytes:
        size = self.preload_size(index) if self.etc else 16
        return self.value(index, 0, size)

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        for index in range(N_KEYS):
            yield make_key(index), self.preload(index)


class Stream:
    """The request stream of one connection, which owns every key index
    ``i`` with ``i % connections == conn``."""

    def __init__(self, workload: Workload, seed: int, conn: int):
        self.workload = workload
        self.conn = conn
        self.stride = workload.connections
        self.rng = random.Random(f"{seed}:{workload.name}:{conn}")
        self.values = Values(workload, seed)
        self.owned = len(range(conn, N_KEYS, self.stride))
        self.versions: Dict[int, int] = {}
        if workload.traffic == "zipf":
            self._zipf = Zipfian(self.owned, ZIPF_THETA, self.rng)
        elif workload.traffic == "etc":
            if self.stride != 1:
                raise ValueError("the ETC stream is single-connection")
            self._zipf = Zipfian(self.values.n_tiny + self.values.n_small,
                                 ZIPF_THETA, self.rng)

    def _index(self) -> int:
        traffic = self.workload.traffic
        if traffic == "uniform":
            return self.conn + self.stride * self.rng.randrange(self.owned)
        if traffic == "zipf":
            return self.conn + self.stride * self._zipf.next()
        if self.rng.random() < _LARGE_REQUEST_FRACTION:
            first = self.values.n_tiny + self.values.n_small
            return first + self.rng.randrange(N_KEYS - first)
        return self._zipf.next()

    def frame(self) -> List[Tuple[str, int, bytes]]:
        """The next frame as ``(op, key index, value)`` triples."""
        ops = []
        for _ in range(self.workload.frame_ops):
            index = self._index()
            if self.rng.random() < self.workload.read_ratio:
                ops.append((GET, index, b""))
                continue
            version = self.versions.get(index, 0) + 1
            self.versions[index] = version
            size = 16
            if self.values.etc:
                size = self.rng.randint(*self.values.size_range(index))
            ops.append((PUT, index, self.values.value(index, version, size)))
        return ops


class Checker:
    """Per-connection read-your-writes oracle.

    Keys are owned by one connection, so the last value that connection
    wrote (or the preload) is the only correct answer to a get; a stale
    read or a lost write shows up as a wrong value.
    """

    def __init__(self, values: Values):
        self.values = values
        self.expected: Dict[int, bytes] = {}
        self.failed = 0
        self.first_error: Optional[str] = None

    def check(self, ops, responses, ok_status) -> int:
        """Settle one frame in order; returns the number of failed ops."""
        failed = 0
        for (op, index, value), response in zip(ops, responses):
            if op == PUT:
                if response.status == ok_status:
                    self.expected[index] = value
                    continue
                reason = f"put {index} answered {response.status!r}"
            else:
                want = self.expected.get(index)
                if want is None:
                    want = self.values.preload(index)
                if response.status != ok_status:
                    reason = f"get {index} answered {response.status!r}"
                elif response.value != want:
                    reason = f"get {index} returned a stale value"
                else:
                    continue
            failed += 1
            if self.first_error is None:
                self.first_error = reason
        failed += max(0, len(ops) - len(responses))
        self.failed += failed
        return failed
