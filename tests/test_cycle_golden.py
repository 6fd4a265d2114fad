"""Simulated cycles are the contract: pin them exactly.

Every figure the paper reproduction reports comes from the enclave's
:class:`~repro.sgx.meter.CycleMeter`.  Wall-clock speedups of the simulator
must leave it untouched, so this module replays seeded operation streams
through every scheme that charges the meter and compares the final
``meter.cycles`` (a float, compared with ``==``) and the full event
``Counter`` against values recorded before any hot-path rewrite.

A change that moves these numbers on purpose must say why and re-record
them; a change that moves them by accident fails here.

The second half pins each :class:`~repro.sgx.enclave.Enclave` primitive's
charge to :class:`~repro.sgx.costs.CostModel`, size by size: the enclave
charges its meter in one flat step, and this is what keeps that step the
same formula as the cost model.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.aria_nocache import AriaNoCacheStore
from repro.baselines.enclave_baseline import EnclaveBaselineStore
from repro.baselines.shieldstore import ShieldStore
from repro.cluster import ClusterConfig
from repro.cluster import session as wire
from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.errors import KeyNotFoundError
from repro.server import protocol
from repro.server.server import AriaServer
from repro.sgx.costs import CACHELINE, CostModel, SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.meter import MeterPause

N_KEYS = 400
N_OPS = 1500


def _key(index: int) -> bytes:
    return b"key-%05d" % index


def _value(rng: random.Random) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 200)))


def _mixed_stream(store, seed: int) -> None:
    """Gets (hit and miss), puts (update and insert) and deletes."""
    rng = random.Random(seed)
    present = set(range(0, N_KEYS, 2))
    store.load((_key(i), b"preload-%d" % i) for i in sorted(present))
    for _ in range(N_OPS):
        index = rng.randrange(N_KEYS)
        roll = rng.random()
        if roll < 0.55:
            try:
                store.get(_key(index))
            except KeyNotFoundError:
                assert index not in present
        elif roll < 0.9:
            store.put(_key(index), _value(rng))
            present.add(index)
        elif index in present:
            store.delete(_key(index))
            present.discard(index)
        else:
            with pytest.raises(KeyNotFoundError):
                store.get(_key(N_KEYS + index))


def _aria(**overrides) -> AriaStore:
    fields = dict(index="hash", n_buckets=64, btree_order=6,
                  initial_counters=2048, secure_cache_bytes=4096,
                  pin_levels=1, stop_swap_window=256, seed=3)
    fields.update(overrides)
    return AriaStore(AriaConfig(**fields),
                     platform=SgxPlatform(epc_bytes=4 << 20))


PLATFORM = SgxPlatform(epc_bytes=1 << 20)

STORES = {
    "aria-hash": lambda: _aria(),
    "aria-btree": lambda: _aria(index="btree"),
    "aria-bplustree": lambda: _aria(index="bplustree"),
    "aria-base-lru-ocall": lambda: _aria(allocator="ocall",
                                         eviction_policy="lru", pin_levels=0),
    "aria-ablations": lambda: _aria(swap_encrypt=True, writeback_clean=True,
                                    dummy_bucket_reads=2),
    "shieldstore": lambda: ShieldStore(n_buckets=64, platform=PLATFORM),
    "aria-nocache": lambda: AriaNoCacheStore(
        initial_counters=1 << 12, n_buckets=64,
        platform=SgxPlatform(epc_bytes=12 << 10)),
    "enclave-baseline": lambda: EnclaveBaselineStore(
        n_buckets=64, platform=SgxPlatform(epc_bytes=64 << 10)),
}


def _meter_state(meter) -> tuple:
    return meter.cycles, dict(meter.events)


def run_store(name: str) -> tuple:
    store = STORES[name]()
    _mixed_stream(store, seed=sum(map(ord, name)))
    return _meter_state(store.enclave.meter)


def _frames(seed: int, n_frames: int, frame_ops: int):
    rng = random.Random(seed)
    for _ in range(n_frames):
        frame = []
        for _ in range(frame_ops):
            key = _key(rng.randrange(N_KEYS))
            if rng.random() < 0.8:
                frame.append(protocol.get(key))
            else:
                frame.append(protocol.put(key, _value(rng)))
        yield frame


def run_batched_server(workers: int) -> tuple:
    store = _aria(secure_cache_bytes=1 << 14)
    server = AriaServer(store, workers=workers)
    store.load((_key(i), b"v%d" % i) for i in range(N_KEYS))
    for frame in _frames(seed=workers, n_frames=24, frame_ops=64):
        server.flush_batch(frame)
    return _meter_state(store.enclave.meter)


def run_inline_cluster() -> list:
    coordinator = ClusterConfig(n_shards=4, n_keys=2000, scale=2048,
                                seed=5, backend="inline").build()
    coordinator.load((_key(i), b"v%d" % i) for i in range(N_KEYS))
    for frame in _frames(seed=11, n_frames=40, frame_ops=64):
        coordinator.execute(frame)
    return [_meter_state(shard.meter) for shard in coordinator.shard_list()]


def run_session() -> dict:
    """Sealed request/response frames, both directions, both ends metered."""
    rng = random.Random(7)
    manager = wire.SessionManager(rng=rng.randbytes)
    handshake = wire.ClientHandshake(rng=rng.randbytes)
    reply, server_session = manager.accept(handshake.hello())
    client_session = handshake.finish(reply)
    for frame in _frames(seed=13, n_frames=12, frame_ops=64):
        request = protocol.encode_batch(frame)
        assert server_session.open(client_session.seal(request)) == request
        response = protocol.encode_batch_responses(
            [protocol.Response(protocol.STATUS_OK, r.value or b"x" * 16)
             for r in frame])
        assert client_session.open(server_session.seal(response)) == response
    return {"client": _meter_state(client_session.meter),
            "gateway": _meter_state(manager.meter)}


# Recorded before the flat-charge / word-wide-XOR rewrite of the enclave
# hot path; that rewrite changed no simulated cycle.
GOLDEN_STORES = {
    "aria-ablations": (15137064.5, {
        "cache_evict": 630, "cache_hit": 1913, "cache_miss": 1472,
        "cache_writeback": 302, "enc_bytes": 289985, "epc_access": 7072,
        "heap_alloc": 355, "heap_free": 266, "mac_bytes": 796645,
        "mac_ops": 6573, "mt_verify": 3498, "op_delete": 97, "op_get": 518,
        "op_put": 523, "stop_swap": 1, "untrusted_access": 23341,
    }),
    "aria-base-lru-ocall": (21461267.0, {
        "cache_evict": 768, "cache_hit": 2097, "cache_miss": 1195,
        "cache_writeback": 389, "enc_bytes": 199159, "epc_access": 6534,
        "mac_bytes": 735723, "mac_ops": 6071, "mt_verify": 3032, "ocall": 727,
        "op_delete": 121, "op_get": 506, "op_put": 505, "stop_swap": 1,
        "untrusted_access": 16996,
    }),
    "aria-bplustree": (40413234.5, {
        "cache_evict": 2613, "cache_hit": 10128, "cache_miss": 3494,
        "cache_writeback": 650, "enc_bytes": 404036, "epc_access": 19540,
        "heap_alloc": 353, "heap_free": 271, "mac_bytes": 1861282,
        "mac_ops": 20804, "mt_verify": 7687, "op_delete": 105, "op_get": 519,
        "op_put": 508, "stop_swap": 1, "untrusted_access": 41640,
    }),
    "aria-btree": (38460109.0, {
        "cache_evict": 2204, "cache_hit": 11404, "cache_miss": 1938,
        "cache_writeback": 630, "enc_bytes": 891655, "epc_access": 18807,
        "heap_alloc": 431, "heap_free": 326, "mac_bytes": 1955551,
        "mac_ops": 17402, "mt_verify": 4127, "op_delete": 97, "op_get": 520,
        "op_put": 531, "untrusted_access": 38727,
    }),
    "aria-hash": (13752694.0, {
        "cache_evict": 603, "cache_hit": 1934, "cache_miss": 1394,
        "cache_writeback": 308, "enc_bytes": 221435, "epc_access": 7007,
        "heap_alloc": 365, "heap_free": 284, "mac_bytes": 782445,
        "mac_ops": 6306, "mt_verify": 3289, "op_delete": 106, "op_get": 501,
        "op_put": 532, "stop_swap": 1, "untrusted_access": 17589,
    }),
    "aria-nocache": (15352322.75, {
        "enc_bytes": 229972, "epc_access": 4954, "heap_alloc": 374,
        "heap_free": 285, "mac_bytes": 376338, "mac_ops": 3119,
        "op_delete": 108, "op_get": 475, "op_put": 553, "page_swap": 141,
        "page_writeback": 141, "untrusted_access": 14406,
    }),
    "enclave-baseline": (1748518.0, {
        "epc_access": 6569, "op_delete": 92, "op_get": 575, "op_put": 521,
        "page_swap": 7,
    }),
    "shieldstore": (7229676.25, {
        "enc_bytes": 130856, "epc_access": 2722, "heap_alloc": 328,
        "heap_free": 240, "mac_bytes": 302948, "mac_ops": 3620,
        "op_delete": 112, "op_get": 487, "op_put": 542,
        "untrusted_access": 14152,
    }),
}
GOLDEN_BATCHED = {
    1: (6587291.0, {
        "cache_hit": 2362, "ecall": 24, "enc_bytes": 99686,
        "epc_access": 2806, "heap_alloc": 222, "heap_free": 222,
        "mac_bytes": 196318, "mac_ops": 2267, "op_get": 1229, "op_put": 307,
        "untrusted_access": 16033,
    }),
    4: (6463665.0, {
        "batchexec_batch": 24, "batchexec_conflict_raw": 14,
        "batchexec_conflict_war": 22, "batchexec_conflict_waw": 1,
        "batchexec_deferred": 37, "batchexec_fallback_round": 18,
        "batchexec_round": 42, "cache_hit": 2316, "ecall": 24,
        "enc_bytes": 95210, "epc_access": 2742, "heap_alloc": 213,
        "heap_free": 213, "mac_bytes": 187100, "mac_ops": 2214,
        "op_get": 1242, "op_put": 294, "untrusted_access": 16000,
    }),
}
GOLDEN_CLUSTER = [
    (2416256.0, {
        "cache_hit": 920, "ecall": 40, "enc_bytes": 49700, "epc_access": 1094,
        "heap_alloc": 87, "heap_free": 87, "mac_bytes": 78156, "mac_ops": 784,
        "op_get": 504, "op_put": 138, "untrusted_access": 2550,
    }),
    (2694706.5, {
        "cache_hit": 1039, "ecall": 40, "enc_bytes": 54834,
        "epc_access": 1233, "heap_alloc": 97, "heap_free": 97,
        "mac_bytes": 88902, "mac_ops": 900, "op_get": 578, "op_put": 150,
        "untrusted_access": 2957,
    }),
    (2440737.25, {
        "cache_hit": 904, "ecall": 40, "enc_bytes": 52325, "epc_access": 1082,
        "heap_alloc": 89, "heap_free": 89, "mac_bytes": 81387, "mac_ops": 784,
        "op_get": 524, "op_put": 125, "untrusted_access": 2618,
    }),
    (2089187.75, {
        "cache_hit": 763, "ecall": 40, "enc_bytes": 42759, "epc_access": 899,
        "heap_alloc": 68, "heap_free": 68, "mac_bytes": 66737, "mac_ops": 655,
        "op_get": 431, "op_put": 110, "untrusted_access": 2108,
    }),
]
GOLDEN_SESSION = {
    "client": (4089710.0, {
        "wire_enc": 24, "wire_kex": 2, "wire_mac": 24, "wire_quote": 1,
    }),
    "gateway": (4089710.0, {
        "wire_enc": 24, "wire_kex": 2, "wire_mac": 24, "wire_quote": 1,
    }),
}


@pytest.mark.parametrize("name", sorted(STORES))
def test_store_stream_cycles_unchanged(name):
    assert run_store(name) == GOLDEN_STORES[name]


@pytest.mark.parametrize("workers", [1, 4])
def test_batched_server_cycles_unchanged(workers):
    assert run_batched_server(workers) == GOLDEN_BATCHED[workers]


def test_inline_cluster_cycles_unchanged():
    assert run_inline_cluster() == GOLDEN_CLUSTER


def test_session_wire_cycles_unchanged():
    assert run_session() == GOLDEN_SESSION


def test_streams_exercise_the_paths_they_pin():
    """The golden streams must keep covering what they claim to cover."""
    aria = GOLDEN_STORES["aria-hash"][1]
    for event in ("cache_hit", "cache_miss", "cache_evict",
                  "cache_writeback", "mt_verify", "untrusted_access",
                  "epc_access", "mac_bytes", "enc_bytes", "op_get", "op_put",
                  "op_delete"):
        assert aria.get(event, 0) > 0, event
    assert GOLDEN_STORES["aria-nocache"][1].get("page_swap", 0) > 0
    assert GOLDEN_STORES["shieldstore"][1].get("mac_bytes", 0) > 0
    assert GOLDEN_BATCHED[4][1].get("batchexec_batch", 0) > 0
    assert all(events.get("ecall", 0) > 0 for _, events in GOLDEN_CLUSTER)
    for side in ("client", "gateway"):
        events = GOLDEN_SESSION[side][1]
        assert events["wire_enc"] > 0 and events["wire_mac"] > 0


# ---------------------------------------------------------------------------
# Each primitive's flat charge is the CostModel formula, size by size
# ---------------------------------------------------------------------------

SIZES = range(0, 4097)

#: The default model plus one with every constant non-round, so a charge
#: that ignored the enclave's own model (or mixed up two constants) shows.
MODELS = [CostModel(), CostModel().scaled(
    untrusted_access=97.25, epc_access=211.5, mem_per_byte=0.625,
    mac_base=803.0, mac_per_byte=4.125, enc_base=517.0, enc_per_byte=2.375,
    hash_compute=31.5, compare_per_byte=0.3125)]


def _charged(enclave: Enclave, call) -> tuple:
    """Cycles and events one call adds to a fresh meter."""
    enclave.meter.reset()
    call()
    return enclave.meter.cycles, dict(enclave.meter.events)


@pytest.fixture(params=range(len(MODELS)), ids=["default", "scaled"])
def enclave(request):
    return Enclave(SgxPlatform(costs=MODELS[request.param]))


def test_untrusted_access_charge_matches_cost_model(enclave):
    costs = enclave.costs
    addr = enclave.untrusted.alloc(max(SIZES) + 1)
    for size in SIZES:
        cost = costs.access_cost(size, in_epc=False)
        data = bytes(size)
        assert _charged(enclave, lambda: enclave.read_untrusted(addr, size)) \
            == (cost, {"untrusted_access": 1}), size
        assert _charged(enclave, lambda: enclave.write_untrusted(addr, data)) \
            == (cost, {"untrusted_access": 1}), size


def test_epc_charges_match_cost_model(enclave):
    costs = enclave.costs
    for size in SIZES:
        assert _charged(enclave, lambda: enclave.epc_touch(size)) == (
            costs.access_cost(size, in_epc=True), {"epc_access": 1}), size
    assert _charged(enclave, enclave.epc_touch) == (
        costs.access_cost(8, in_epc=True), {"epc_access": 1})


def test_crypto_charges_match_cost_model(enclave):
    costs = enclave.costs
    counter = bytes(16)
    for size in SIZES:
        message = bytes(size)
        mac_charge = (costs.mac_cost(size),
                      {"mac_bytes": size, "mac_ops": 1})
        tag = enclave.crypto.mac(enclave.keys.mac_key, message)
        assert _charged(enclave, lambda: enclave.mac(message)) \
            == mac_charge, size
        assert _charged(enclave, lambda: enclave.mac_verify(message, tag)) \
            == mac_charge, size
        enc_charge = (costs.enc_cost(size), {"enc_bytes": size})
        assert _charged(enclave, lambda: enclave.encrypt(counter, message)) \
            == enc_charge, size
        assert _charged(enclave, lambda: enclave.decrypt(counter, message)) \
            == enc_charge, size


def test_fixed_charges_match_cost_model(enclave):
    costs = enclave.costs
    assert _charged(enclave, lambda: enclave.hash_key(b"k")) == (
        costs.hash_compute, {})
    for a, b in ((b"", b""), (b"key", b"key-00017"), (b"x" * 99, b"y")):
        assert _charged(enclave, lambda: enclave.compare(a, b)) == (
            costs.compare_per_byte * max(len(a), len(b)), {})
    assert _charged(enclave, enclave.ecall) == (costs.ecall, {"ecall": 1})
    assert _charged(enclave, enclave.ocall) == (costs.ocall, {"ocall": 1})
    nbytes = 3 * CACHELINE
    enclave.meter.reset()
    enclave.epc_copy_in(nbytes)
    assert enclave.meter.cycles == (
        costs.access_cost(nbytes, in_epc=False)
        + costs.access_cost(nbytes, in_epc=True))


def test_paused_meter_charges_nothing(enclave):
    addr = enclave.untrusted.alloc(256)
    with MeterPause(enclave.meter):
        enclave.read_untrusted(addr, 100)
        enclave.write_untrusted(addr, b"x" * 100)
        enclave.epc_touch(100)
        tag = enclave.mac(b"m")
        assert enclave.mac_verify(b"m", tag)
        enclave.encrypt(bytes(16), b"p")
        enclave.decrypt(bytes(16), b"p")
        enclave.hash_key(b"k")
    assert enclave.meter.cycles == 0.0
    assert not enclave.meter.events
