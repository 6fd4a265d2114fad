"""The enclave facade: the trusted side of the simulator.

An :class:`Enclave` bundles the pieces every secure-KV design needs:

* a cycle meter and cost model,
* an EPC byte budget (software-managed structures reserve here),
* optionally a paged enclave heap (for designs that rely on hardware secure
  paging: Baseline and Aria w/o Cache),
* the untrusted memory space,
* session keys and a crypto backend.

All code paths that "run inside the enclave" go through these methods so
costs are charged uniformly: a read of untrusted memory pays the untrusted
access cost, a MAC pays per-byte crypto cost plus the copy of its input into
the enclave, an OCALL pays the boundary-crossing cost, and so on.

The per-access primitives (untrusted reads and writes, EPC touches, MACs,
encryption, the key hash and compares) are the simulator's hottest calls,
so each charges the meter in one flat step: it adds the
:class:`~repro.sgx.costs.CostModel` formula's value to ``meter.cycles`` and
bumps its event directly, instead of calling ``access_cost`` and then
``charge_event``.  The arithmetic is the cost model's, term for term, so
every charge is the same float; ``tests/test_cycle_golden.py`` pins each
one to ``CostModel`` for every size up to a page.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.crypto.backend import CryptoBackend, get_backend
from repro.crypto.keys import KeyMaterial
from repro.errors import IntegrityError
from repro.sgx.costs import CACHELINE, PAGE_SIZE, CostModel, SgxPlatform
from repro.sgx.epc import EpcBudget
from repro.sgx.memory import UntrustedMemory
from repro.sgx.meter import CycleMeter
from repro.sgx.paging import PagedEnclaveHeap


class Enclave:
    """Trusted execution context with cycle-accurate cost accounting."""

    def __init__(
        self,
        platform: Optional[SgxPlatform] = None,
        *,
        keys: Optional[KeyMaterial] = None,
        crypto_backend: str = "fast",
        untrusted: Optional[UntrustedMemory] = None,
        paged_heap_pages: Optional[int] = None,
    ):
        self.platform = platform or SgxPlatform()
        self.costs: CostModel = self.platform.costs
        self.meter = CycleMeter()
        self.epc = EpcBudget(capacity=self.platform.epc_bytes)
        self.untrusted = untrusted or UntrustedMemory()
        self.keys = keys or KeyMaterial.from_seed(0)
        self.crypto: CryptoBackend = get_backend(crypto_backend)
        self.paged_heap: Optional[PagedEnclaveHeap] = None
        if paged_heap_pages is not None:
            self.paged_heap = PagedEnclaveHeap(paged_heap_pages, self.costs, self.meter)
            # The paged heap consumes the whole EPC budget it was given.
            self.epc.reserve("paged_heap", paged_heap_pages * PAGE_SIZE)

    # -- boundary crossings --------------------------------------------------

    def ecall(self) -> None:
        """Enter the enclave (client request dispatch)."""
        self.meter.charge_event("ecall", self.costs.ecall)

    def ocall(self) -> None:
        """Exit the enclave (e.g. an untrusted malloc without Aria's allocator)."""
        self.meter.charge_event("ocall", self.costs.ocall)

    # -- untrusted memory traffic ---------------------------------------------

    def _charge_access(self, event: str, base: float, nbytes: int) -> None:
        """Charge one ``CostModel.access_cost`` whose base cost is ``base``."""
        meter = self.meter
        if meter.enabled:
            if nbytes > CACHELINE:
                base += (nbytes - CACHELINE) * self.costs.mem_per_byte
            meter.cycles += base
            meter.events[event] += 1

    def read_untrusted(self, addr: int, size: int) -> bytes:
        """Dependent load from untrusted memory into enclave registers/stack."""
        self._charge_access("untrusted_access", self.costs.untrusted_access,
                            size)
        return self.untrusted.read(addr, size)

    def write_untrusted(self, addr: int, data: bytes) -> None:
        self._charge_access("untrusted_access", self.costs.untrusted_access,
                            len(data))
        self.untrusted.write(addr, data)

    # -- EPC-resident data traffic ---------------------------------------------

    def epc_touch(self, nbytes: int = 8) -> None:
        """One access to software-managed EPC data (Secure Cache, bitmaps...)."""
        self._charge_access("epc_access", self.costs.epc_access, nbytes)

    def epc_copy_in(self, nbytes: int) -> None:
        """Copy ``nbytes`` from untrusted memory into the EPC (node swap-in)."""
        self._charge_access("untrusted_access", self.costs.untrusted_access,
                            nbytes)
        self._charge_access("epc_access", self.costs.epc_access, nbytes)

    # -- crypto (all executed inside the enclave) -------------------------------

    def _charge_mac(self, nbytes: int) -> None:
        """Charge one ``CostModel.mac_cost``."""
        meter = self.meter
        if meter.enabled:
            costs = self.costs
            meter.cycles += costs.mac_base + nbytes * costs.mac_per_byte
            events = meter.events
            events["mac_bytes"] += nbytes
            events["mac_ops"] += 1

    def _charge_enc(self, nbytes: int) -> None:
        """Charge one ``CostModel.enc_cost``."""
        meter = self.meter
        if meter.enabled:
            costs = self.costs
            meter.cycles += costs.enc_base + nbytes * costs.enc_per_byte
            meter.events["enc_bytes"] += nbytes

    def mac(self, message: bytes) -> bytes:
        self._charge_mac(len(message))
        return self.crypto.mac(self.keys.mac_key, message)

    def mac_verify(self, message: bytes, tag: bytes) -> bool:
        self._charge_mac(len(message))
        return self.crypto.mac_verify(self.keys.mac_key, message, tag)

    def require_mac(self, message: bytes, tag: bytes, what: str) -> None:
        """Verify or raise :class:`IntegrityError` naming the protected object."""
        if not self.mac_verify(message, tag):
            raise IntegrityError(f"MAC mismatch on {what}: untrusted data modified")

    def encrypt(self, counter: bytes, plaintext: bytes) -> bytes:
        self._charge_enc(len(plaintext))
        return self.crypto.encrypt(self.keys.encryption_key, counter, plaintext)

    def decrypt(self, counter: bytes, ciphertext: bytes) -> bytes:
        self._charge_enc(len(ciphertext))
        return self.crypto.decrypt(self.keys.encryption_key, counter, ciphertext)

    # -- misc in-enclave work ----------------------------------------------------

    def hash_key(self, key: bytes) -> int:
        """Bucket hash / key-hint hash computed inside the enclave."""
        meter = self.meter
        if meter.enabled:
            meter.cycles += self.costs.hash_compute
        return zlib.crc32(key)

    def compare(self, a: bytes, b: bytes) -> bool:
        meter = self.meter
        if meter.enabled:
            meter.cycles += self.costs.compare_per_byte * max(len(a), len(b))
        return a == b

    def work(self, cycles: float) -> None:
        """Charge generic in-enclave bookkeeping cycles."""
        self.meter.charge(cycles)

    # -- reporting ----------------------------------------------------------------

    def throughput(self, ops: int, snapshot_before=None) -> float:
        """Ops/s given cycles charged since ``snapshot_before`` (or since 0)."""
        cycles = self.meter.cycles
        if snapshot_before is not None:
            cycles -= snapshot_before.cycles
        if cycles <= 0 or ops <= 0:
            return 0.0
        return self.platform.cpu_hz * ops / cycles
