"""Runnable node loops: wearable sender and benchtop receiver.

Each node logs one JSON line per unit of work at INFO (`-v` prints it) and
writes it to its session log, the null device when no log path is given:
the wearable per closed window, the benchtop per tick. `replay_script` sends a tick script
over loopback UDP to the benchtop's own loop, one datagram per tick;
`wearable --duplex` sends one `iter_wearable` window per tick the same way.
Every send is `UdpSender.send_symbol`, which `protocol.collapse` reads back.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
import threading
import time
from contextlib import closing, suppress
from pathlib import Path
from typing import IO, Callable, Collection, Iterable, Iterator, Sequence

from .classifier import WindowDecision, iter_decisions
from .fsm import DEFAULT_BROWNOUT_TICKS, FsmRuntime
from .protocol import CLASS_SYMBOLS, EndpointConfig, InputSymbol, UdpReceiver, UdpSender
from .signals import PhysioSample
from .sim import SimStep, iter_steps, serialize_trace

log = logging.getLogger(__name__)
DEFAULT_TICK_MS = 50.0  # one tick of wall time on the live and wire paths


def _open_log(path: str | Path | None) -> IO[str]:
    p = Path(path or os.devnull)
    p.parent.mkdir(parents=True, exist_ok=True)
    # Line-buffered, so a killed node leaves every finished line and no partial one.
    return open(p, "w", buffering=1, encoding="utf-8")


def iter_wearable(
    samples: Iterable[PhysioSample],
    endpoint: EndpointConfig | None = None,
    log_path: str | Path | None = None,
) -> Iterator[WindowDecision]:
    """For each 15 s window of `iter_decisions(samples)`: send its symbol (ABSENT if undecided), log it, yield it.

    A failed send leaves `byte_sent` None, beside the sender's warning. Ctrl-C during a send or
    log write stops the wearable after that window, which is yielded exactly when it was logged.
    """
    decisions = iter_decisions(samples)
    with _open_log(log_path) as log_file, UdpSender(endpoint) as sender, closing(decisions):
        with suppress(KeyboardInterrupt):  # in a send, the INFO line or a decision: stop before this window
            for decision in decisions:
                if sender.send_symbol(symbol := CLASS_SYMBOLS.get(decision.arousal, InputSymbol.ABSENT)):
                    decision.byte_sent = symbol.value
                line = json.dumps(decision.record())
                log.info("%s", line)
                try:
                    log_file.write(line + "\n")
                except KeyboardInterrupt:  # raised as the write returns, so the line is logged: yield it, then stop
                    decisions.close()
                yield decision


def run_wearable(
    samples: Iterable[PhysioSample],
    endpoint: EndpointConfig | None = None,
    log_path: str | Path | None = None,
) -> list[WindowDecision]:
    """Run `iter_wearable` to the end of its stream; one `WindowDecision` per closed window."""
    return list(iter_wearable(samples, endpoint, log_path))


def run_benchtop(
    receiver: UdpReceiver,
    tick_ms: float = DEFAULT_TICK_MS,
    brownout_ticks: int = DEFAULT_BROWNOUT_TICKS,
    log_path: str | Path | None = None,
    max_ticks: int | None = None,
    should_stop: Callable[[], bool] = bool,
) -> list[SimStep]:
    """Tick the actuation machine against live datagrams until stopped.

    The caller binds `receiver` and closes it; settings are checked before the log is
    opened. The schedule is fixed-rate: tick k ends at t0 + (k+1)·tick_ms, where t0 is when
    ticking starts; a late tick polls for 0 s and the loop catches up. A tick with nothing
    received is ABSENT, so silence counts in ticks of wall time. Stops after `max_ticks`
    (None: no limit), when `should_stop` (called just before each tick's poll; the default,
    `bool`, returns False) turns true, or on Ctrl-C at any point of a tick. Each tick's shared
    step (8 B) is returned; its line `serialize_trace((step,), tick)` is logged at INFO and
    written, so the log is `serialize_trace(steps)` by construction.
    """
    if not (math.isfinite(tick_ms) and tick_ms > 0):
        raise ValueError(f"tick_ms must be finite and positive, got {tick_ms!r}")
    if tick_ms / 1000.0 > threading.TIMEOUT_MAX:  # the longest wait a poll's select accepts
        raise ValueError(f"tick_ms must be at most {threading.TIMEOUT_MAX * 1000.0!r}, got {tick_ms!r}")
    FsmRuntime(brownout_ticks=brownout_ticks)  # rejects a budget below one tick
    if max_ticks is not None:
        if isinstance(max_ticks, bool) or not isinstance(max_ticks, int):  # as FsmRuntime: bool is no count
            raise ValueError(f"max_ticks must be None or an integer, got {max_ticks!r}")
        if max_ticks < 0:
            raise ValueError(f"max_ticks must be non-negative, got {max_ticks!r}")
    steps: list[SimStep] = []
    with _open_log(log_path) as log_file:
        log.info("benchtop listening on %s:%d", receiver.config.host, receiver.port)
        try:
            for k, step in enumerate(iter_steps(_received(receiver, tick_ms, max_ticks, should_stop), brownout_ticks)):
                # Appended first: Ctrl-C during the write is raised as the write
                # returns, so `steps` and the log still hold the same ticks.
                steps.append(step)
                line = serialize_trace((step,), k)
                log_file.write(line)
                log.info("%s", line[:-1])
        except KeyboardInterrupt:
            log.info("benchtop interrupted, stopping")
    return steps


def replay_script(
    script: Sequence[InputSymbol],
    tick_ms: float = DEFAULT_TICK_MS,
    drop_ticks: Collection[int] = (),
) -> list[SimStep]:
    """Run `run_benchtop` over real loopback UDP, sending tick k's datagram just before its poll.

    Every tick not in `drop_ticks` (loss in flight) goes out through
    `send_symbol`: ABSENT sends nothing and UNRECOGNIZED sends `X`.
    The returned steps carry the symbols as seen on the wire. The benchtop
    runs at `run_benchtop`'s default brownout budget.
    """
    ticks = enumerate(script)
    with UdpReceiver(EndpointConfig(port=0)) as receiver, UdpSender(EndpointConfig(port=receiver.port)) as sender:
        def send_next() -> bool:
            index, symbol = next(ticks)
            if index not in drop_ticks:
                sender.send_symbol(symbol)
            return False

        return run_benchtop(receiver, tick_ms, max_ticks=len(script), should_stop=send_next)


def _received(
    receiver: UdpReceiver,
    tick_ms: float,
    max_ticks: int | None,
    should_stop: Callable[[], bool],
) -> Iterator[InputSymbol]:
    """One symbol per tick until `max_ticks` or `should_stop`; tick k polls until t0 + (k+1)·tick."""
    tick_s = tick_ms / 1000.0
    t0 = time.monotonic()
    for k in itertools.islice(itertools.count(), max_ticks):
        if should_stop():
            return
        yield receiver.poll_receive(t0 + (k + 1) * tick_s)
