"""Pluggable crypto backends behind one interface.

Two backends implement the same contract (CTR-style encryption keyed by a
per-item 16-byte counter, and a 16-byte keyed MAC):

``RealCryptoBackend``
    The from-scratch AES-128 primitives (:mod:`repro.crypto.aes`,
    :mod:`repro.crypto.ctr`, :mod:`repro.crypto.cmac`) — byte-for-byte what
    the SGX SDK's ``sgx_aes_ctr_encrypt`` / ``sgx_rijndael128_cmac`` compute.
    Used in crypto unit tests and attack demonstrations.

``FastCryptoBackend``
    Keyed blake2s for the MAC and a blake2b-derived keystream for encryption.
    These are genuine keyed cryptographic functions (tampering still fails
    verification), but run at C speed so the simulator's wall-clock time is
    not dominated by pure-Python AES.  The *simulated* cycle cost charged by
    the enclave is identical for both backends — the cost model charges per
    byte processed, not per wall-clock second.

Both backends are deterministic given (key, counter, data), which the replay
attack tests rely on.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto import cmac as _cmac
from repro.crypto import ctr as _ctr

MAC_SIZE = 16
COUNTER_SIZE = 16


class CryptoBackend:
    """Interface: counter-mode encryption plus a keyed 16-byte MAC."""

    name = "abstract"

    def encrypt(self, key: bytes, counter: bytes, plaintext: bytes) -> bytes:
        raise NotImplementedError

    def decrypt(self, key: bytes, counter: bytes, ciphertext: bytes) -> bytes:
        raise NotImplementedError

    def mac(self, key: bytes, message: bytes) -> bytes:
        raise NotImplementedError

    def mac_verify(self, key: bytes, message: bytes, tag: bytes) -> bool:
        return hmac.compare_digest(self.mac(key, message), tag)


class RealCryptoBackend(CryptoBackend):
    """AES-128-CTR + AES-CMAC, exactly the SGX SDK primitives."""

    name = "real"

    def encrypt(self, key: bytes, counter: bytes, plaintext: bytes) -> bytes:
        return _ctr.ctr_transform(key, counter, plaintext)

    def decrypt(self, key: bytes, counter: bytes, ciphertext: bytes) -> bytes:
        return _ctr.ctr_transform(key, counter, ciphertext)

    def mac(self, key: bytes, message: bytes) -> bytes:
        return _cmac.cmac(key, message)


#: FastCryptoBackend keystream block size (the blake2b digest size).
_BLOCK = 64
#: Payload bytes FastCryptoBackend XORs per step; a multiple of ``_BLOCK``.
_XOR_CHUNK = 1 << 16


class FastCryptoBackend(CryptoBackend):
    """blake2-based stream cipher + keyed blake2s MAC (C-speed, still keyed).

    Keystream block ``i`` is ``blake2b(counter || u64le(i), key)``.  The XOR
    with the payload runs word-wide on Python ints, 64 KiB at a time, so a
    multi-megabyte payload (a sealed snapshot) never holds more than one
    chunk's keystream and intermediate ints at once.
    """

    name = "fast"

    def _keystream(self, key: bytes, counter: bytes, first: int,
                   last: int) -> bytes:
        """Keystream blocks ``first`` to ``last - 1``, concatenated."""
        if last - first == 1:
            return hashlib.blake2b(counter + first.to_bytes(8, "little"),
                                   key=key, digest_size=_BLOCK).digest()
        keyed = hashlib.blake2b(key=key, digest_size=_BLOCK)
        blocks = []
        for index in range(first, last):
            block = keyed.copy()
            block.update(counter + index.to_bytes(8, "little"))
            blocks.append(block.digest())
        return b"".join(blocks)

    def _xor(self, key: bytes, counter: bytes, data: bytes, start: int) -> bytes:
        """``data`` XOR the keystream from byte ``start`` (block-aligned)."""
        size = len(data)
        first = start // _BLOCK
        keystream = self._keystream(key, counter, first,
                                    first + -(-size // _BLOCK))
        return (int.from_bytes(data, "little")
                ^ int.from_bytes(keystream[:size], "little")
                ).to_bytes(size, "little")

    def encrypt(self, key: bytes, counter: bytes, plaintext: bytes) -> bytes:
        if len(counter) != COUNTER_SIZE:
            raise ValueError(f"counter must be {COUNTER_SIZE} bytes")
        if len(plaintext) <= _XOR_CHUNK:
            return self._xor(key, counter, plaintext, 0)
        return b"".join([
            self._xor(key, counter, plaintext[start:start + _XOR_CHUNK], start)
            for start in range(0, len(plaintext), _XOR_CHUNK)
        ])

    def decrypt(self, key: bytes, counter: bytes, ciphertext: bytes) -> bytes:
        return self.encrypt(key, counter, ciphertext)

    def mac(self, key: bytes, message: bytes) -> bytes:
        return hashlib.blake2s(message, key=key, digest_size=MAC_SIZE).digest()


_BACKENDS = {
    "real": RealCryptoBackend,
    "fast": FastCryptoBackend,
}


def get_backend(name: str) -> CryptoBackend:
    """Return a backend instance by name (``"real"`` or ``"fast"``)."""
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown crypto backend {name!r}; choose from {sorted(_BACKENDS)}"
        ) from None
