"""UDP sink for the `replay` workload: keeps every datagram, in arrival order.

It runs as its own process so that draining the socket never waits for the
interpreter lock of the process under test; a reader thread there falls
behind the wearable's send rate and the kernel drops datagrams.

Protocol: prints its port on start. A datagram equal to MARK makes it print,
as one JSON line, the hex payloads received since the previous MARK; QUIT
ends it. Stdlib only.
"""

from __future__ import annotations

import json
import socket
import sys

MARK = b"\x00bench-mark\x00"
QUIT = b"\x00bench-quit\x00"


def main() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        print(sock.getsockname()[1], flush=True)
        received: list[str] = []
        while True:
            payload, _ = sock.recvfrom(4096)
            if payload == QUIT:
                return 0
            if payload == MARK:
                print(json.dumps(received), flush=True)
                received = []
            else:
                received.append(payload.hex())


if __name__ == "__main__":
    sys.exit(main())
