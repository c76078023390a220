"""Runnable node loops: wearable sender and benchtop receiver.

Both nodes append one JSON line per unit of work to a session log when a log
path is given: the wearable per closed window, the benchtop per tick, so a
run can be audited or diffed after the fact. `replay_script` sends a tick
script over loopback UDP to the benchtop's own loop, one datagram per tick;
`wearable --duplex` sends one `iter_wearable` window per tick the same way.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from contextlib import AbstractContextManager, nullcontext
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

from .classifier import ClosedWindow, FeatureExtractor, LadderConfig, WindowAccumulator, WindowDecision, classify_window
from .fsm import DEFAULT_BROWNOUT_TICKS, FsmRuntime
from .protocol import PAYLOADS, EndpointConfig, InputSymbol, UdpReceiver, UdpSender, encode_class
from .signals import PhysioSample
from .sim import SimStep, iter_steps, serialize_trace

log = logging.getLogger(__name__)
DEFAULT_TICK_MS = 50.0  # one tick of wall time on the live and wire paths


def _open_log(path: str | Path | None) -> AbstractContextManager[IO[str] | None]:
    if path is None:
        return nullcontext()
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    # Line-buffered, so a killed node leaves every finished line and no partial one.
    return open(p, "w", buffering=1, encoding="utf-8")


def iter_wearable(
    samples: Iterable[PhysioSample],
    ladder: LadderConfig | None = None,
    endpoint: EndpointConfig | None = None,
    log_path: str | Path | None = None,
) -> Iterator[WindowDecision]:
    """Consume a sample stream, sending one classification byte per decided window.

    Yields each closed window's `WindowDecision` once its byte is sent and its
    `record()` logged, reading samples only up to the frame that closes it.
    An undecided window is logged and sends nothing; a failed send is logged
    and recorded with no byte sent. Samples with a non-finite value or
    timestamp are skipped and counted in one log line at the end, also when
    the caller closes the generator early. Ctrl-C while samples are read ends
    the stream: the partial window is flushed, classified and logged.
    """
    extractor = FeatureExtractor()
    accumulator = WindowAccumulator(ladder)
    try:
        with _open_log(log_path) as log_file, UdpSender(endpoint) as sender:
            def emit(closed_windows: list[ClosedWindow]) -> Iterator[WindowDecision]:
                for closed in closed_windows:
                    decision = _emit_window(closed, sender)
                    # Rendered first: Ctrl-C while rendering leaves the window out of both.
                    line = None if log_file is None else json.dumps(decision.record()) + "\n"
                    try:
                        if line is not None:
                            log_file.write(line)
                    except KeyboardInterrupt:  # raised as the write returns, so the line is logged: yield it too
                        yield decision
                        raise
                    yield decision

            try:
                for sample in samples:
                    frame = extractor.add(sample)
                    if frame is not None:
                        yield from emit(accumulator.add(frame))
            except KeyboardInterrupt:
                log.info("wearable interrupted, stopping")
            yield from emit(accumulator.flush())
    finally:
        if extractor.non_finite:
            log.warning("skipped %d samples with a non-finite value or timestamp", extractor.non_finite)


def run_wearable(
    samples: Iterable[PhysioSample],
    ladder: LadderConfig | None = None,
    endpoint: EndpointConfig | None = None,
    log_path: str | Path | None = None,
) -> list[WindowDecision]:
    """Run `iter_wearable` to the end of its stream; one `WindowDecision` per closed window."""
    return list(iter_wearable(samples, ladder, endpoint, log_path))


def _emit_window(closed: ClosedWindow, sender: UdpSender) -> WindowDecision:
    decision = classify_window(closed.frames, window_index=closed.window_index)
    if decision is None:
        log.info("window %d: no usable frames, nothing sent", closed.window_index)
        return WindowDecision(closed.window_index)
    payload = encode_class(decision.arousal)
    decision.byte_sent = payload.decode("ascii") if sender.send_raw(payload) else None
    log.info(
        "window %d: %s (bpm %.1f, gsr %.2f uS, %d frames) -> %s",
        closed.window_index,
        decision.arousal.name,
        decision.bpm_mean,
        decision.gsr_mean,
        decision.frames_used,
        "send failed" if decision.byte_sent is None else f"sent {decision.byte_sent}",
    )
    return decision


def run_benchtop(
    receiver: UdpReceiver,
    tick_ms: float = DEFAULT_TICK_MS,
    brownout_ticks: int = DEFAULT_BROWNOUT_TICKS,
    log_path: str | Path | None = None,
    max_ticks: int | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> list[SimStep]:
    """Tick the actuation machine against live datagrams until stopped.

    The caller binds `receiver` and closes it; settings are checked before
    the log is opened. The schedule is fixed-rate: tick k ends at
    t0 + (k+1)·tick_ms, where t0 is when ticking starts; a late tick polls
    for 0 s and the loop catches up. A tick with nothing received is ABSENT,
    so silence counts in ticks of wall time. Stops after `max_ticks`, when
    `should_stop` (called just before each tick's poll) turns true, or on
    Ctrl-C at any point of a tick. Each tick's shared step (8 B) is returned,
    and logged as `serialize_trace((step,), tick)`, so the log is
    `serialize_trace(steps)` by construction.
    """
    if not (math.isfinite(tick_ms) and tick_ms > 0):
        raise ValueError(f"tick_ms must be finite and positive, got {tick_ms!r}")
    FsmRuntime(brownout_ticks=brownout_ticks)  # rejects a budget below one tick
    if max_ticks is not None and max_ticks < 0:
        raise ValueError(f"max_ticks must be non-negative, got {max_ticks!r}")
    steps: list[SimStep] = []
    with _open_log(log_path) as log_file:
        log.info("benchtop listening on %s:%d", receiver.config.host, receiver.port)
        try:
            for k, step in enumerate(iter_steps(_received(receiver, tick_ms, max_ticks, should_stop), brownout_ticks)):
                # Appended first: Ctrl-C during the write is raised as the write
                # returns, so `steps` and the log still hold the same ticks.
                steps.append(step)
                if log_file is not None:
                    log_file.write(serialize_trace((step,), k))
                log.info(
                    "tick %d: input %s -> %s color=%s tone=%s",
                    k,
                    step.input.value,
                    step.state.value,
                    step.command.color,
                    step.command.tone.value,
                )
        except KeyboardInterrupt:
            log.info("benchtop interrupted, stopping")
    return steps


def replay_script(
    script: Sequence[InputSymbol],
    tick_ms: float = DEFAULT_TICK_MS,
    drop_ticks: set[int] | None = None,
) -> list[SimStep]:
    """Run `run_benchtop` over real loopback UDP, sending tick k's datagram just before its poll.

    Scripted ABSENT ticks send nothing, as do ticks in `drop_ticks` (loss in
    flight); UNRECOGNIZED ticks send a byte outside the protocol alphabet.
    The returned steps carry the symbols as seen on the wire. The benchtop
    runs at `run_benchtop`'s default brownout budget.
    """
    ticks = enumerate(script)
    with UdpReceiver(EndpointConfig(port=0)) as receiver, UdpSender(EndpointConfig(port=receiver.port)) as sender:
        def send_next() -> bool:
            index, symbol = next(ticks)
            if symbol is not InputSymbol.ABSENT and index not in (drop_ticks or ()):
                sender.send_raw(PAYLOADS.get(symbol, b"?"))
            return False

        return run_benchtop(receiver, tick_ms, max_ticks=len(script), should_stop=send_next)


def _received(
    receiver: UdpReceiver,
    tick_ms: float,
    max_ticks: int | None,
    should_stop: Callable[[], bool] | None,
) -> Iterator[InputSymbol]:
    """One symbol per tick until `max_ticks` or `should_stop`; tick k polls until t0 + (k+1)·tick."""
    tick_s = tick_ms / 1000.0
    t0 = time.monotonic()
    for k in itertools.count() if max_ticks is None else range(max_ticks):
        if should_stop is not None and should_stop():
            return
        deadline = t0 + (k + 1) * tick_s
        yield receiver.poll_receive(max(0.0, deadline - time.monotonic()))
