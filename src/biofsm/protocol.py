"""One-byte UDP wire protocol between the wearable and benchtop nodes.

The wearable sends a single ASCII byte per decision: 'A', 'B' or 'C'. The
benchtop decodes whatever arrives into an input symbol; decoding is total,
so any unexpected payload (wrong byte, wrong length, empty datagram) maps to
UNRECOGNIZED rather than raising. ABSENT is never produced by decoding:
`UdpReceiver.poll_receive` returns it when a tick closes with no datagram.
"""

from __future__ import annotations

import logging
import select
import socket
import time
from dataclasses import dataclass
from enum import Enum
from typing import TypeVar

from .classifier import ArousalClass

log = logging.getLogger(__name__)
_Socket = TypeVar("_Socket", bound="_UdpSocket")

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8888


class InputSymbol(Enum):
    __hash__ = object.__hash__  # in C and agreeing with ==, as for fsm.BenchState
    VALID_A = "A"
    VALID_B = "B"
    VALID_C = "C"
    UNRECOGNIZED = "X"
    ABSENT = "-"


# The protocol alphabet: the input symbol each arousal class travels as. A
# symbol's value is its one-byte ASCII payload and its script token.
CLASS_SYMBOLS = {
    ArousalClass.NORMAL: InputSymbol.VALID_A,
    ArousalClass.MILD: InputSymbol.VALID_B,
    ArousalClass.HIGH: InputSymbol.VALID_C,
}

PAYLOADS = {symbol: symbol.value.encode("ascii") for symbol in CLASS_SYMBOLS.values()}
_DECODED = {payload: symbol for symbol, payload in PAYLOADS.items()}


def encode_class(arousal: ArousalClass) -> bytes:
    """Encode an arousal class as its one-byte payload."""
    return PAYLOADS[CLASS_SYMBOLS[arousal]]


def decode_payload(payload: bytes) -> InputSymbol:
    """Decode a datagram payload. Total: unknown payloads are UNRECOGNIZED."""
    return _DECODED.get(payload, InputSymbol.UNRECOGNIZED)


@dataclass
class EndpointConfig:
    """One address on the UDP link: a sender sends to it, a receiver binds it.

    Port 0 is accepted for receivers and requests an ephemeral bind; it is
    not a valid send destination.
    """

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port {self.port} outside 0-65535")


class _UdpSocket:
    """The one socket each end of the link owns, closed by `close` or `with`."""

    _sock: socket.socket

    def close(self) -> None:
        self._sock.close()

    def __enter__(self: _Socket) -> _Socket:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class UdpSender(_UdpSocket):
    """Fire-and-forget datagram sender for the wearable node."""

    def __init__(self, config: EndpointConfig | None = None):
        self.config = config or EndpointConfig()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def send_raw(self, payload: bytes) -> bool:
        """Send one datagram; a refused or failed send is logged and dropped."""
        try:
            self._sock.sendto(payload, (self.config.host, self.config.port))
            return True
        except OSError as exc:
            log.warning("send to %s:%d failed: %s", self.config.host, self.config.port, exc)
            return False


class UdpReceiver(_UdpSocket):
    """Non-blocking datagram receiver for the benchtop node.

    Port 0 binds an ephemeral port; the actual port is exposed as `.port`
    so tests can wire a sender to it.
    """

    def __init__(self, config: EndpointConfig | None = None):
        self.config = config or EndpointConfig()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.bind((self.config.host, self.config.port))
        except OSError:  # a busy port or an unresolvable host
            self._sock.close()
            raise
        self._sock.setblocking(False)
        self.port = self._sock.getsockname()[1]

    def poll_receive(self, deadline: float) -> InputSymbol:
        """Collect datagrams until `deadline`, a `time.monotonic()` reading; decode the newest one.

        Several datagrams landing in one tick collapse to the last: the
        benchtop reacts to the most recent report, not the backlog. Returns
        ABSENT when the window closes with nothing received. The drain after
        the last wait catches a datagram that raced the deadline.
        """
        newest: bytes | None = None
        while True:
            remaining = deadline - time.monotonic()
            readable = remaining > 0 and select.select([self._sock], [], [], remaining)[0]
            newest = self._drain(newest)
            if not readable:
                return InputSymbol.ABSENT if newest is None else decode_payload(newest)

    def _drain(self, newest: bytes | None) -> bytes | None:
        while True:
            try:
                newest, _ = self._sock.recvfrom(4096)
            except BlockingIOError:
                return newest
