"""Runnable node loops: wearable sender and benchtop receiver.

Both nodes append one JSON line per unit of work to a session log when a log
path is given: the wearable per closed window, the benchtop per tick. The
logs are complete records of a run, so a session can be audited or diffed
after the fact.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .classifier import ClosedWindow, FeatureExtractor, LadderConfig, WindowAccumulator, classify_window
from .fsm import DEFAULT_BROWNOUT_TICKS, FsmRuntime
from .protocol import EndpointConfig, InputSymbol, UdpReceiver, UdpSender, encode_class
from .signals import PhysioSample
from .sim import DEFAULT_TICK_MS, SimStep, iter_steps

log = logging.getLogger(__name__)


def _open_log(path: str | Path | None) -> AbstractContextManager[IO[str] | None]:
    if path is None:
        return nullcontext()
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return open(p, "w", encoding="utf-8")


@dataclass
class WindowEmission:
    """What the wearable did about one closed window."""

    window_index: int
    frames_used: int
    bpm_mean: float | None
    gsr_mean: float | None
    arousal: str | None
    byte_sent: str | None

    def record(self) -> dict:
        return {
            "window": self.window_index,
            "frames_used": self.frames_used,
            "bpm_mean": self.bpm_mean,
            "gsr_mean": self.gsr_mean,
            "arousal": self.arousal,
            "byte_sent": self.byte_sent,
        }


def run_wearable(
    samples: Iterable[PhysioSample],
    ladder: LadderConfig | None = None,
    endpoint: EndpointConfig | None = None,
    log_path: str | Path | None = None,
) -> list[WindowEmission]:
    """Consume a sample stream, emit one classification byte per decided window.

    Windows that close without a usable decision are logged but nothing is
    sent; the benchtop's silence handling covers that case. A send that
    fails is logged and recorded with no byte sent. Samples with a non-finite
    value or timestamp are skipped, and their count is logged once at the
    end. An empty stream emits nothing and returns cleanly.
    """
    extractor = FeatureExtractor()
    accumulator = WindowAccumulator(ladder)
    emissions: list[WindowEmission] = []
    with _open_log(log_path) as log_file, UdpSender(endpoint) as sender:
        def handle(closed_windows: list[ClosedWindow]) -> None:
            for closed in closed_windows:
                emission = _emit_window(closed, sender)
                emissions.append(emission)
                if log_file is not None:
                    log_file.write(json.dumps(emission.record()) + "\n")

        for sample in samples:
            frame = extractor.add(sample)
            if frame is not None:
                handle(accumulator.add(frame))
        handle(accumulator.flush())
    if extractor.non_finite:
        log.warning("skipped %d samples with a non-finite value or timestamp", extractor.non_finite)
    return emissions


def _emit_window(closed: ClosedWindow, sender: UdpSender) -> WindowEmission:
    decision = classify_window(closed.frames, window_index=closed.window_index)
    if decision is None:
        log.info("window %d: no usable frames, nothing sent", closed.window_index)
        return WindowEmission(closed.window_index, 0, None, None, None, None)
    payload = encode_class(decision.arousal)
    byte_sent = payload.decode("ascii") if sender.send_raw(payload) else None
    log.info(
        "window %d: %s (bpm %.1f, gsr %.2f uS, %d frames) -> %s",
        closed.window_index,
        decision.arousal.name,
        decision.bpm_mean,
        decision.gsr_mean,
        decision.frames_used,
        "send failed" if byte_sent is None else f"sent {byte_sent}",
    )
    return WindowEmission(
        closed.window_index,
        decision.frames_used,
        decision.bpm_mean,
        decision.gsr_mean,
        decision.arousal.name,
        byte_sent,
    )


def run_benchtop(
    endpoint: EndpointConfig | None = None,
    tick_ms: float = DEFAULT_TICK_MS,
    brownout_ticks: int = DEFAULT_BROWNOUT_TICKS,
    log_path: str | Path | None = None,
    max_ticks: int | None = None,
    receiver: UdpReceiver | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> list[SimStep]:
    """Tick the actuation machine against live datagrams until stopped.

    Settings are checked before the log is opened and, when no `receiver`
    is passed, before `endpoint` is bound. A `receiver` passed in stays open.
    The schedule is fixed-rate: tick k ends at t0 + (k+1)·tick_ms, where t0
    is when ticking starts; a late tick polls for 0 s and the loop catches
    up. `poll_receive` gives ABSENT for a tick with nothing received, so
    silence counts in ticks of wall time. Stops after `max_ticks` if given,
    when `should_stop` turns true at a tick boundary, or on Ctrl-C. Every
    tick appends its `SimStep.line()` to the log, the simulator's trace line.
    """
    if not (math.isfinite(tick_ms) and tick_ms > 0):
        raise ValueError(f"tick_ms must be finite and positive, got {tick_ms!r}")
    FsmRuntime(brownout_ticks=brownout_ticks)  # rejects a budget below one tick
    if max_ticks is not None and max_ticks < 0:
        raise ValueError(f"max_ticks must be non-negative, got {max_ticks!r}")
    steps: list[SimStep] = []
    with (
        _open_log(log_path) as log_file,
        UdpReceiver(endpoint) if receiver is None else nullcontext(receiver) as receiver,
    ):
        log.info("benchtop listening on %s:%d", receiver.config.host, receiver.port)
        for step in iter_steps(_received(receiver, tick_ms, max_ticks, should_stop), brownout_ticks):
            steps.append(step)
            if log_file is not None:
                log_file.write(step.line())
            log.info(
                "tick %d: input %s -> %s color=%s tone=%s",
                step.tick,
                step.input.value,
                step.state.value,
                step.command.color,
                step.command.tone.value,
            )
    return steps


def _received(
    receiver: UdpReceiver,
    tick_ms: float,
    max_ticks: int | None,
    should_stop: Callable[[], bool] | None,
) -> Iterator[InputSymbol]:
    """One symbol per tick until `max_ticks`, `should_stop` or Ctrl-C; tick k polls until t0 + (k+1)·tick."""
    tick_s = tick_ms / 1000.0
    t0 = time.monotonic()
    for k in itertools.count() if max_ticks is None else range(max_ticks):
        if should_stop is not None and should_stop():
            return
        deadline = t0 + (k + 1) * tick_s
        try:
            received = receiver.poll_receive(max(0.0, deadline - time.monotonic()))
        except KeyboardInterrupt:
            log.info("benchtop interrupted, stopping")
            return
        yield received
