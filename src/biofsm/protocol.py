"""One-byte UDP wire protocol between the wearable and benchtop nodes, whose two ends are UDP sockets.

The wearable's `UdpSender` sends a single ASCII byte per decision: 'A', 'B' or 'C'. The benchtop's
`UdpReceiver` turns each tick's datagrams into one input symbol with `collapse`: the newest wins, so a
tick shows the latest report rather than the backlog, and a tick with none is ABSENT. Decoding is total:
any unexpected payload (wrong byte, wrong length, empty datagram) is UNRECOGNIZED rather than raising.
Both ends subclass `socket.socket`, as `ssl.SSLSocket` does, so `close` and `with` are the socket's own.
"""

from __future__ import annotations

import logging
import select
import socket
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .classifier import ArousalClass

log = logging.getLogger(__name__)

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


def collapse(payloads: Iterable[bytes]) -> InputSymbol:
    """The input of a tick whose datagrams, oldest first, are `payloads`: the newest decoded, or ABSENT if none."""
    newest = None
    for newest in payloads:
        pass
    return InputSymbol.ABSENT if newest is None else _DECODED.get(newest, InputSymbol.UNRECOGNIZED)


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


class UdpSender(socket.socket):
    """Fire-and-forget datagram sender for the wearable node; of the socket's methods, callers use only `close`."""

    def __init__(self, config: EndpointConfig | None = None):
        super().__init__(socket.AF_INET, socket.SOCK_DGRAM)
        self.config = config or EndpointConfig()

    def send_raw(self, payload: bytes) -> bool:
        """Send one datagram; a refused or failed send is logged and dropped."""
        try:
            self.sendto(payload, (self.config.host, self.config.port))
            return True
        except OSError as exc:
            log.warning("send to %s:%d failed: %s", self.config.host, self.config.port, exc)
            return False


class UdpReceiver(socket.socket):
    """Non-blocking datagram receiver for the benchtop node.

    Of the socket's methods, callers use only `close`, and tests `fileno` through `select`. Port 0 binds an
    ephemeral port; the actual port is exposed as `.port` so tests can wire a sender to it.
    """

    def __init__(self, config: EndpointConfig | None = None):
        super().__init__(socket.AF_INET, socket.SOCK_DGRAM)
        self.config = config or EndpointConfig()
        try:
            self.bind((self.config.host, self.config.port))
        except OSError:  # a busy port or an unresolvable host
            self.close()
            raise
        self.setblocking(False)
        self.port = self.getsockname()[1]

    def poll_receive(self, deadline: float) -> InputSymbol:
        """The input of the tick that ends at `deadline`, a `time.monotonic()` reading: `collapse` of its datagrams."""
        return collapse(self._arrivals(deadline))

    def _arrivals(self, deadline: float) -> Iterator[bytes]:
        """Each datagram received until `deadline`; the drain after the last wait catches one that raced it."""
        while True:
            remaining = deadline - time.monotonic()
            readable = remaining > 0 and select.select([self], [], [], remaining)[0]
            while True:
                try:
                    yield self.recvfrom(4096)[0]
                except BlockingIOError:
                    break
            if not readable:
                return
