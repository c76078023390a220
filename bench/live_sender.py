"""Open-loop datagram generator for the `live` workload, run as its own process.

The schedule comes only from `--seed` and models the paced wearable that
ROADMAP item 2 recommends: it re-sends its latest decided class byte once
per tick period, on a fixed-rate clock of its own whose phase is seeded, so
sends are not locked to the benchtop's tick, and falls silent for a window
it cannot decide. Rates and their basis:

- Windows last 30 ticks: the paper's 15 s window is 300 ticks of 50 ms,
  compressed tenfold so a 30 s run at 10 ms ticks holds about 100 windows.
  Each decided window's class is drawn uniformly from A, B and C.
- 15% of windows are undecided, the share the `replay` session yields. A
  silent window is 30 ticks, three times the 10-tick brownout budget.
- While the wearable sends, garbage bytes arrive as a Poisson process of
  0.08 per tick (exponential gaps), and 2% of paced sends go out as a burst
  of 2-3 copies 0.3 ms apart, inside one tick.

A benchtop tick longer than the sender's period leaves two paced sends in
some ticks, so part of the valid reports collapse in proportion to the
benchtop's drift (about 6% at 10 ms ticks); garbage and bursts add about
7%. Together about 13% of valid reports never reach the FSM, the share an
earlier probe of the benchtop at 10 ms ticks measured; with no drift the
share falls to about 7%.

Protocol: prints `ready <count>` once the sender socket exists, then reads
one line: `go <start_ns>` (CLOCK_MONOTONIC) runs the schedule from that
instant, anything else exits at once. After the run it prints one JSON line,
a list of [due_ns, start_ns, end_ns, payload_hex, ok] per datagram; start and
end bracket the send call, so start - due is how late the generator ran.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

TICK_MS = 10.0
WINDOW_TICKS = 30
UNDECIDED_SHARE = 0.15
GARBAGE_PER_TICK = 0.08
BURST_SHARE = 0.02
BURST_SPACING_MS = 0.3
START_MS = 20.0
TAIL_MS = 300.0  # nothing is due in the last stretch, so no send is in flight at stop
GARBAGE = (b"?", b"Z", b"a", b"\x00", b"AB")


def schedule(seed: int, seconds: float) -> list[tuple[float, bytes]]:
    """(due offset in ms, payload) pairs, in due order."""
    rng = random.Random(f"{seed}/live")
    horizon = seconds * 1000.0 - TAIL_MS
    window_ms = WINDOW_TICKS * TICK_MS
    events: list[tuple[float, bytes]] = []
    t = START_MS + rng.uniform(0.0, TICK_MS)
    while t < horizon:
        window_end = min(t + window_ms, horizon)
        if rng.random() < UNDECIDED_SHARE:
            t += window_ms
            continue
        payload = rng.choice(b"ABC").to_bytes(1, "big")
        noise = t + rng.expovariate(GARBAGE_PER_TICK / TICK_MS)
        while t < window_end:
            while noise < t:
                events.append((noise, rng.choice(GARBAGE)))
                noise += rng.expovariate(GARBAGE_PER_TICK / TICK_MS)
            copies = rng.randint(2, 3) if rng.random() < BURST_SHARE else 1
            events.extend((t + k * BURST_SPACING_MS, payload) for k in range(copies))
            t += TICK_MS
    return sorted(events, key=lambda event: event[0])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory holding the biofsm package")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from biofsm.protocol import EndpointConfig, UdpSender

    events = schedule(args.seed, args.seconds)
    with UdpSender(EndpointConfig(port=args.port)) as sender:
        print(f"ready {len(events)}", flush=True)
        command = sys.stdin.readline().split()
        if len(command) != 2 or command[0] != "go":
            return 0
        start_ns = int(command[1])
        records = []
        for offset_ms, payload in events:
            due = start_ns + int(offset_ms * 1e6)
            wait = (due - time.monotonic_ns()) / 1e9
            if wait > 0:
                time.sleep(wait)
            begin = time.monotonic_ns()
            ok = sender.send_raw(payload)
            records.append([due, begin, time.monotonic_ns(), payload.hex(), ok])
    print(json.dumps(records), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
