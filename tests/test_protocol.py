import select
import time

import pytest
from hypothesis import given, strategies as st

from biofsm.classifier import ArousalClass
from biofsm.protocol import (
    CLASS_SYMBOLS,
    EndpointConfig,
    InputSymbol,
    UdpReceiver,
    UdpSender,
    decode_payload,
    encode_class,
)


def test_encode_one_byte_per_class():
    assert encode_class(ArousalClass.NORMAL) == b"A"
    assert encode_class(ArousalClass.MILD) == b"B"
    assert encode_class(ArousalClass.HIGH) == b"C"
    for cls in ArousalClass:
        assert len(encode_class(cls)) == 1


def test_decode_known_bytes():
    assert decode_payload(b"A") is InputSymbol.VALID_A
    assert decode_payload(b"B") is InputSymbol.VALID_B
    assert decode_payload(b"C") is InputSymbol.VALID_C


@pytest.mark.parametrize(
    "payload",
    [b"D", b"E", b"a", b"\x00", b"", b"AA", b"AB", b"hello", b"\xff\xfe"],
)
def test_decode_everything_else_is_unrecognized(payload):
    assert decode_payload(payload) is InputSymbol.UNRECOGNIZED


def test_decode_round_trip():
    for cls in ArousalClass:
        assert decode_payload(encode_class(cls)) is CLASS_SYMBOLS[cls]


@given(st.binary(max_size=64))
def test_decode_is_total_and_never_absent(payload):
    symbol = decode_payload(payload)
    assert isinstance(symbol, InputSymbol)
    assert symbol is not InputSymbol.ABSENT


def test_port_bounds():
    with pytest.raises(ValueError):
        EndpointConfig(port=65536)
    with pytest.raises(ValueError):
        EndpointConfig(port=-1)
    EndpointConfig(port=0)  # ephemeral bind request is fine


def test_loopback_delivery():
    with UdpReceiver(EndpointConfig(port=0)) as receiver:
        assert receiver.port != 0
        with UdpSender(EndpointConfig(port=receiver.port)) as sender:
            assert sender.send_raw(encode_class(ArousalClass.HIGH))
            assert receiver.poll_receive(time.monotonic() + 0.5) is InputSymbol.VALID_C


def test_poll_returns_absent_on_silence():
    with UdpReceiver(EndpointConfig(port=0)) as receiver:
        deadline = time.monotonic() + 0.05
        assert receiver.poll_receive(deadline) is InputSymbol.ABSENT
        assert time.monotonic() >= deadline


def test_newest_datagram_wins_within_a_tick():
    with UdpReceiver(EndpointConfig(port=0)) as receiver:
        with UdpSender(EndpointConfig(port=receiver.port)) as sender:
            for cls in ArousalClass:
                sender.send_raw(encode_class(cls))
            assert receiver.poll_receive(time.monotonic() + 0.3) is InputSymbol.VALID_C
        # the backlog was drained, nothing left for the next tick
        assert receiver.poll_receive(time.monotonic() + 0.05) is InputSymbol.ABSENT


def test_unknown_byte_on_the_wire_decodes_unrecognized():
    with UdpReceiver(EndpointConfig(port=0)) as receiver:
        with UdpSender(EndpointConfig(port=receiver.port)) as sender:
            sender.send_raw(b"D")
            assert receiver.poll_receive(time.monotonic() + 0.3) is InputSymbol.UNRECOGNIZED


def test_oversized_send_is_dropped_not_raised():
    with UdpSender(EndpointConfig(port=9)) as sender:
        assert sender.send_raw(b"x" * 70000) is False


@pytest.mark.parametrize("timeout_s", [0.0, -1.0])
def test_a_poll_with_no_time_left_still_drains_once(timeout_s):
    with UdpReceiver(EndpointConfig(port=0)) as receiver:
        with UdpSender(EndpointConfig(port=receiver.port)) as sender:
            sender.send_raw(encode_class(ArousalClass.MILD))
            # Loopback delivery is not instant; a generous poll proves the
            # datagram is queued without reading it.
            assert select.select([receiver._sock], [], [], 1.0)[0]
            assert receiver.poll_receive(time.monotonic() + timeout_s) is InputSymbol.VALID_B
        assert receiver.poll_receive(time.monotonic()) is InputSymbol.ABSENT
