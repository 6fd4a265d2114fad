"""Client-server mode tests: protocol framing, dispatch, ECALL amortization."""

import pytest

from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.errors import IntegrityError, KeyNotFoundError
from repro.server import protocol
from repro.server.protocol import (
    BatchRejectedError,
    MAX_BATCH_COUNT,
    MAX_KEY_BYTES,
    MAX_VALUE_BYTES,
    ProtocolError,
    Request,
    Response,
    STATUS_BAD_REQUEST,
    STATUS_INTEGRITY_FAILURE,
    STATUS_NOT_FOUND,
    STATUS_OK,
)
from repro.server.server import AriaClient, AriaServer
from repro.sgx.costs import SgxPlatform


def make_server():
    store = AriaStore(
        AriaConfig(index="hash", n_buckets=64, initial_counters=2048,
                   secure_cache_bytes=1 << 16, pin_levels=1,
                   stop_swap_enabled=False),
        platform=SgxPlatform(epc_bytes=4 << 20),
    )
    return AriaServer(store), store


class TestProtocol:
    def test_request_roundtrip(self):
        for request in (protocol.get(b"k"), protocol.put(b"k", b"v"),
                        protocol.delete(b"k")):
            decoded, offset = protocol.decode_request(request.encode())
            assert decoded == request
            assert offset == len(request.encode())

    def test_response_roundtrip(self):
        response = Response(STATUS_OK, b"payload")
        decoded, _ = protocol.decode_response(response.encode())
        assert decoded == response

    def test_batch_roundtrip(self):
        requests = [protocol.put(b"a", b"1"), protocol.get(b"a"),
                    protocol.delete(b"a")]
        assert protocol.decode_batch(protocol.encode_batch(requests)) == \
            requests

    def test_malformed_frames_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_request(b"\x09")  # truncated header
        with pytest.raises(ProtocolError):
            protocol.decode_request(Request(9, b"k").encode())  # bad opcode
        with pytest.raises(ProtocolError):
            # Length field larger than the body.
            protocol.decode_request(b"\x01\xff\x00\x00\x00\x00\x00ab")
        with pytest.raises(ProtocolError):
            protocol.decode_request(b"\x01\x00\x00\x00\x00\x00\x00")  # empty key
        with pytest.raises(ProtocolError):
            protocol.decode_batch(b"\x05\x00short")

    def test_value_on_get_rejected(self):
        raw = Request(protocol.OP_GET, b"k", b"sneaky").encode()
        with pytest.raises(ProtocolError):
            protocol.decode_request(raw)

    def test_trailing_garbage_in_batch_rejected(self):
        raw = protocol.encode_batch([protocol.get(b"k")]) + b"junk"
        with pytest.raises(ProtocolError):
            protocol.decode_batch(raw)

    @pytest.mark.parametrize("opcode", [0, 5, 9, 0x7F, 0xFF])
    def test_unknown_opcode_error_names_the_byte(self, opcode):
        raw = Request(opcode, b"k").encode()
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_request(raw)
        assert str(excinfo.value) == f"unknown opcode {opcode}"
        with pytest.raises(ProtocolError, match=f"^unknown opcode {opcode}$"):
            protocol.decode_batch(protocol.encode_batch([Request(opcode,
                                                                 b"k")]))

    @pytest.mark.parametrize("status", [6, 0x42, 0xFF])
    def test_unknown_status_decodes_as_its_raw_int(self, status):
        raw = Response(status, b"v").encode()
        decoded, offset = protocol.decode_response(raw)
        assert decoded.status == status
        assert type(decoded.status) is int
        assert decoded.value == b"v" and offset == len(raw)

    def test_every_known_byte_decodes_to_its_member(self):
        for member in protocol.OpCode:
            key = protocol.HEALTH_KEY if member == protocol.OP_HEALTH \
                else b"k"
            value = b"v" if member == protocol.OP_PUT else b""
            request, _ = protocol.decode_request(
                Request(int(member), key, value).encode())
            assert request.opcode is member
        for member in protocol.Status:
            response, _ = protocol.decode_response(
                Response(int(member)).encode())
            assert response.status is member

    @pytest.mark.parametrize("request_, expected", [
        (protocol.get(b"k"), None),
        (protocol.put(b"k", b"v"), None),
        (protocol.delete(b"k"), None),
        (protocol.health(), None),
        (Request(2, b"k", b"v"), None),  # raw-int opcodes are accepted
        (Request(9, b"k"), "unknown opcode 9"),
        (Request(0, b"k"), "unknown opcode 0"),
        (Request(-1, b"k"), "unknown opcode -1"),
        (Request("get", b"k"), "unknown opcode get"),
        (Request(protocol.OP_GET, b"k" * (MAX_KEY_BYTES + 1)),
         f"k_len {MAX_KEY_BYTES + 1} exceeds {MAX_KEY_BYTES}"),
        (Request(protocol.OP_PUT, b"k", b"v" * (MAX_VALUE_BYTES + 1)),
         f"v_len {MAX_VALUE_BYTES + 1} exceeds {MAX_VALUE_BYTES}"),
        (Request(protocol.OP_GET, b"k", b"sneaky"),
         "value supplied for a non-PUT request"),
        (Request(protocol.OP_DELETE, b"k", b"sneaky"),
         "value supplied for a non-PUT request"),
        (Request(protocol.OP_GET, b""), "empty key"),
        (Request(protocol.OP_PUT, b"", b"v"), "empty key"),
    ])
    def test_request_violation_strings(self, request_, expected):
        assert protocol.request_violation(request_) == expected


class TestProtocolBounds:
    """Attacker-supplied length fields are capped before any allocation."""

    def test_oversized_k_len_rejected_from_header_alone(self):
        # Header claims a k_len past the cap; no body bytes are present, and
        # the decoder must reject on the length field, not on truncation.
        raw = protocol._REQ_HEADER.pack(protocol.OP_GET,
                                        MAX_KEY_BYTES + 1, 0)
        with pytest.raises(ProtocolError, match="k_len"):
            protocol.decode_request(raw)

    def test_oversized_v_len_rejected_from_header_alone(self):
        raw = protocol._REQ_HEADER.pack(protocol.OP_PUT, 1,
                                        MAX_VALUE_BYTES + 1)
        with pytest.raises(ProtocolError, match="v_len"):
            protocol.decode_request(raw)

    def test_oversized_response_v_len_rejected(self):
        raw = protocol._RESP_HEADER.pack(STATUS_OK, MAX_VALUE_BYTES + 1)
        with pytest.raises(ProtocolError, match="v_len"):
            protocol.decode_response(raw)

    def test_oversized_batch_count_rejected_before_looping(self):
        raw = protocol._BATCH_HEADER.pack(MAX_BATCH_COUNT + 1)
        with pytest.raises(ProtocolError, match="count"):
            protocol.decode_batch(raw)
        with pytest.raises(ProtocolError, match="count"):
            protocol.decode_batch_responses(raw)

    def test_boundary_sizes_accepted(self):
        request = protocol.put(b"k" * MAX_KEY_BYTES, b"v" * MAX_VALUE_BYTES)
        decoded, _ = protocol.decode_request(request.encode())
        assert decoded == request

    def test_encoder_enforces_same_bounds(self):
        with pytest.raises(ProtocolError):
            protocol.put(b"k" * (MAX_KEY_BYTES + 1), b"v").encode()
        with pytest.raises(ProtocolError):
            protocol.put(b"k", b"v" * (MAX_VALUE_BYTES + 1)).encode()
        with pytest.raises(ProtocolError):
            Response(STATUS_OK, b"v" * (MAX_VALUE_BYTES + 1)).encode()
        with pytest.raises(ProtocolError, match="count"):
            protocol.encode_batch([protocol.get(b"k")]
                                  * (MAX_BATCH_COUNT + 1))

    def test_encoded_size_matches_wire_bytes(self):
        requests = [protocol.put(b"key", b"value"), protocol.get(b"key")]
        assert protocol.batch_encoded_size(requests) == \
            len(protocol.encode_batch(requests))
        responses = [Response(STATUS_OK, b"value"), Response(STATUS_OK)]
        assert protocol.batch_responses_encoded_size(responses) == \
            len(protocol.encode_batch_responses(responses))


class TestBatchRejectionContract:
    """A malformed batch is rejected as a unit, and clients can tell."""

    def test_rejection_shape_roundtrip(self):
        raw = protocol.encode_batch_rejection()
        responses = protocol.decode_batch_responses(raw)
        assert protocol.is_batch_rejection(responses)

    def test_expected_count_mismatch_raises_batch_rejected(self):
        raw = protocol.encode_batch_rejection()
        with pytest.raises(BatchRejectedError):
            protocol.decode_batch_responses(raw, expected=3)

    def test_non_rejection_count_mismatch_is_protocol_error(self):
        raw = protocol.encode_batch_responses([Response(STATUS_OK),
                                               Response(STATUS_OK)])
        with pytest.raises(ProtocolError, match="expected 3"):
            protocol.decode_batch_responses(raw, expected=3)

    def test_single_request_batch_is_not_mistaken_for_rejection(self):
        # A legitimate one-request batch yields exactly one response and
        # expected=1 matches; no BatchRejectedError even on BAD_REQUEST.
        raw = protocol.encode_batch_responses([Response(STATUS_BAD_REQUEST)])
        responses = protocol.decode_batch_responses(raw, expected=1)
        assert responses[0].status == STATUS_BAD_REQUEST

    def test_server_rejects_malformed_batch_as_unit(self):
        server, store = make_server()
        store.put(b"pre", b"existing")
        # Batch claims 3 requests but the body is garbage: no request may
        # execute, and the reply must be the canonical rejection.
        raw = server.handle_batch(protocol._BATCH_HEADER.pack(3) + b"\xff")
        responses = protocol.decode_batch_responses(raw)
        assert protocol.is_batch_rejection(responses)
        with pytest.raises(BatchRejectedError):
            protocol.decode_batch_responses(raw, expected=3)
        assert store.get(b"pre") == b"existing"  # store untouched

    def test_client_flush_surfaces_rejection(self):
        server, _ = make_server()
        client = AriaClient(server, batch_size=4)

        class _BrokenServer:
            def handle_batch(self, batch_bytes):
                return protocol.encode_batch_rejection()

            def handle(self, request_bytes):  # pragma: no cover
                raise AssertionError("unbatched path not used")

        client._server = _BrokenServer()
        client._pending = [protocol.get(b"a"), protocol.get(b"b")]
        with pytest.raises(BatchRejectedError):
            client.flush()


class TestFlushBatchHook:
    def test_flush_batch_matches_handle_batch_costs(self):
        requests = [protocol.put(b"key-%03d" % i, b"v" * 16)
                    for i in range(40)]
        server_a, store_a = make_server()
        raw = server_a.handle_batch(protocol.encode_batch(requests))
        responses_a = protocol.decode_batch_responses(raw,
                                                      expected=len(requests))

        server_b, store_b = make_server()
        responses_b = server_b.flush_batch(requests)

        assert [r.status for r in responses_a] == \
            [r.status for r in responses_b]
        assert store_b.enclave.meter.events["ecall"] == \
            store_a.enclave.meter.events["ecall"] == 1
        assert store_b.enclave.meter.cycles == \
            pytest.approx(store_a.enclave.meter.cycles)


class TestServer:
    def test_put_get_delete_roundtrip(self):
        server, _ = make_server()
        client = AriaClient(server)
        client.put(b"k", b"v")
        assert client.get(b"k") == b"v"
        client.delete(b"k")
        with pytest.raises(KeyNotFoundError):
            client.get(b"k")

    def test_not_found_status(self):
        server, _ = make_server()
        raw = server.handle(protocol.get(b"ghost").encode())
        response, _ = protocol.decode_response(raw)
        assert response.status == STATUS_NOT_FOUND

    def test_bad_request_status(self):
        server, _ = make_server()
        raw = server.handle(b"\xff garbage")
        response, _ = protocol.decode_response(raw)
        assert response.status == STATUS_BAD_REQUEST

    def test_integrity_failure_surfaces_as_status(self):
        server, store = make_server()
        store.put(b"victim", b"value")
        _, entry_addr, _, _, _ = store.index._find(b"victim")
        byte = store.enclave.untrusted.snoop(entry_addr + 20, 1)[0]
        store.enclave.untrusted.tamper(entry_addr + 20, bytes([byte ^ 1]))
        raw = server.handle(protocol.get(b"victim").encode())
        response, _ = protocol.decode_response(raw)
        assert response.status == STATUS_INTEGRITY_FAILURE

    def test_each_single_request_pays_one_ecall(self):
        server, store = make_server()
        client = AriaClient(server)
        before = store.enclave.meter.events["ecall"]
        for i in range(10):
            client.put(b"k%d" % i, b"v")
        assert store.enclave.meter.events["ecall"] - before == 10

    def test_batching_amortizes_ecalls(self):
        server, store = make_server()
        requests = [protocol.put(b"key-%03d" % i, b"v") for i in range(100)]
        client = AriaClient(server, batch_size=25)
        before = store.enclave.meter.events["ecall"]
        responses = client.pipeline(requests)
        assert store.enclave.meter.events["ecall"] - before == 4
        assert all(r.status == STATUS_OK for r in responses)

    def test_batched_client_blocking_api(self):
        server, _ = make_server()
        client = AriaClient(server, batch_size=8)
        client.put(b"k", b"v")
        assert client.get(b"k") == b"v"

    def test_batching_improves_cycles_per_op(self):
        results = {}
        for batch_size in (1, 32):
            server, store = make_server()
            client = AriaClient(server, batch_size=batch_size)
            requests = [protocol.put(b"key-%03d" % i, b"v" * 16)
                        for i in range(200)]
            store.enclave.meter.reset()
            client.pipeline(requests) if batch_size > 1 else [
                client.put(b"key-%03d" % i, b"v" * 16) for i in range(200)
            ]
            results[batch_size] = store.enclave.meter.cycles / 200
        assert results[32] < results[1] - 5000  # ~an ECALL saved per op

    def test_rejects_zero_batch(self):
        server, _ = make_server()
        with pytest.raises(ValueError):
            AriaClient(server, batch_size=0)
