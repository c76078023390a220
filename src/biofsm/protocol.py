"""One-byte UDP wire protocol between the wearable and benchtop nodes.

The wearable sends a single ASCII byte per decision: 'A', 'B' or 'C'. The
benchtop decodes whatever arrives into an input symbol; decoding is total,
so any unexpected payload (wrong byte, wrong length, empty datagram) maps to
UNRECOGNIZED rather than raising. ABSENT is never produced by decoding: it
is the receiver's own conclusion after a tick passes with no datagram.
"""

from __future__ import annotations

import logging
import select
import socket
import time
from dataclasses import dataclass
from enum import Enum

from .classifier import ArousalClass

log = logging.getLogger(__name__)

DEFAULT_PORT = 8888


class InputSymbol(Enum):
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
    """Addressing for one side of the UDP link.

    Port 0 is accepted for receivers and requests an ephemeral bind; it is
    not a valid send destination.
    """

    bind_host: str = "127.0.0.1"
    peer_host: str = "127.0.0.1"
    port: int = DEFAULT_PORT

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port {self.port} outside 0-65535")


class UdpSender:
    """Fire-and-forget datagram sender for the wearable node."""

    def __init__(self, config: EndpointConfig | None = None):
        self.config = config or EndpointConfig()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def send_raw(self, payload: bytes) -> bool:
        """Send one datagram; a refused or failed send is logged and dropped."""
        try:
            self._sock.sendto(payload, (self.config.peer_host, self.config.port))
            return True
        except OSError as exc:
            log.warning("send to %s:%d failed: %s", self.config.peer_host, self.config.port, exc)
            return False

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "UdpSender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class UdpReceiver:
    """Non-blocking datagram receiver for the benchtop node.

    Port 0 binds an ephemeral port; the actual port is exposed as `.port`
    so tests can wire a sender to it.
    """

    def __init__(self, config: EndpointConfig | None = None):
        self.config = config or EndpointConfig()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((self.config.bind_host, self.config.port))
        self._sock.setblocking(False)
        self.port = self._sock.getsockname()[1]

    def poll_receive(self, timeout_s: float) -> InputSymbol | None:
        """Collect datagrams for up to `timeout_s`; decode the newest one.

        Several datagrams landing in one tick collapse to the last: the
        benchtop reacts to the most recent report, not the backlog. Returns
        None when the window closes with nothing received.
        """
        deadline = time.monotonic() + timeout_s
        newest: bytes | None = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            readable, _, _ = select.select([self._sock], [], [], remaining)
            if not readable:
                break
            drained = self._drain()
            if drained is not None:
                newest = drained
        # One last drain catches a datagram that raced the deadline.
        final = self._drain()
        if final is not None:
            newest = final
        if newest is None:
            return None
        return decode_payload(newest)

    def _drain(self) -> bytes | None:
        newest: bytes | None = None
        while True:
            try:
                payload, _ = self._sock.recvfrom(4096)
            except BlockingIOError:
                return newest
            newest = payload

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "UdpReceiver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
