"""`live` workload: real loopback UDP into the benchtop tick loop, open loop.

Why: `protocol` (`poll_receive`'s select and drain) and the `nodes` tick
loop do the work here, and `fsm` takes under 1% of a tick. A sender process
(live_sender.py) sends on a seeded schedule that is not phase-locked to the
tick; this process runs `run_benchtop` with 10 ms ticks (the 50 ms default's
code path at five times the ticks per second) and a `should_stop` callback
that stamps every tick boundary, so tick timing is measured from outside.
Two processes in all.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from biofsm.nodes import run_benchtop
from biofsm.protocol import EndpointConfig, UdpReceiver
from biofsm.sim import serialize_trace

import oracle
from harness import (
    SRC, Checks, Outcome, RunContext, Tracer, figure, now_ns, peak_rss_mb, percentile, setup_figures,
    timed_setups,
)

HERE = Path(__file__).resolve().parent
TICK_MS = 10.0
TINY_SECONDS = 3.0
SETUP_REPEATS = 201
# The host pauses a process now and then for tens of ms; the median over
# 1 s windows keeps such a pause to its own window, while slower ticks
# throughout the run still lower it in full.
WINDOW_TICKS = 100
START_DELAY_NS = 50_000_000
STATES = ("NORMAL", "MILD", "HIGH", "INVALID", "BROWNOUT")
TOKENS = {"41": "A", "42": "B", "43": "C"}  # payload hex -> token; anything else is garbage
PER_LAYER = frozenset({
    "protocol.poll_overshoot_ms.p50", "protocol.poll_overshoot_ms.p90", "nodes.loop_self_ms.p50",
    "nodes.loop_self_ms.p90", "protocol.send_us.p50", "protocol.datagrams_sent", "protocol.datagrams_received",
    "protocol.datagrams_collapsed", "sender_lag_ms.p90", "trace_overhead_pct",
    *(f"fsm.state_ticks.{s}" for s in STATES),
})


@dataclass
class Send:
    due_ns: int
    start_ns: int
    end_ns: int
    payload_hex: str
    ok: bool

    @property
    def token(self) -> str:
        return TOKENS.get(self.payload_hex, "X")


@dataclass
class Tick:
    start_ns: int
    end_ns: int  # boundary at which the tick's input has been applied
    token: str
    state: str


def bind_receiver() -> UdpReceiver:
    """The benchtop's own set-up: bind its receiver."""
    return UdpReceiver(EndpointConfig(port=0))


class Session:
    """A bound receiver and a sender process waiting for `go`."""

    def __init__(self, receiver: UdpReceiver, seed: int, seconds: float):
        self.receiver = receiver
        self.sender = subprocess.Popen(
            [
                sys.executable, str(HERE / "live_sender.py"), "--src", str(SRC), "--seed", str(seed),
                "--port", str(self.receiver.port), "--seconds", str(seconds),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.sender.stdout], [], [], 30.0)
        line = self.sender.stdout.readline() if ready else ""
        if not line.startswith("ready"):
            self.close()
            raise RuntimeError("live sender did not start")
        self.seconds = seconds

    def go(self, start_ns: int) -> None:
        self.sender.stdin.write(f"go {start_ns}\n")
        self.sender.stdin.flush()

    def finish(self) -> list[Send]:
        out, _ = self.sender.communicate(timeout=self.seconds + 60)
        return [Send(*record) for record in json.loads(out.strip().splitlines()[-1])]

    def close(self) -> None:
        if self.sender.poll() is None:
            try:
                self.sender.communicate("quit\n", timeout=10)
            except (subprocess.TimeoutExpired, BrokenPipeError):
                self.sender.kill()
                self.sender.communicate()
        self.receiver.close()


class TickClock:
    """`should_stop` callback: stamps each tick boundary, stops at a deadline."""

    def __init__(self, stop_at_ns: int, tracer: Tracer):
        self.stop_at_ns = stop_at_ns
        self.tracer = tracer
        self.stamps: list[int] = []
        self.current = None

    def __call__(self) -> bool:
        now = now_ns()
        self.stamps.append(now)
        if self.current is not None:
            self.tracer.end(self.current, now)
            self.current = None
        if now >= self.stop_at_ns:
            return True
        if self.tracer.enabled:
            self.current = self.tracer.begin("nodes.tick", start_ns=now)
        return False


class TracedReceiver:
    """Stand-in passed as `receiver=`: times each poll as a child of its tick."""

    def __init__(self, inner: UdpReceiver, clock: TickClock, tracer: Tracer):
        self.config = inner.config
        self.port = inner.port
        self._inner = inner
        self._clock = clock
        self._tracer = tracer

    def poll_receive(self, timeout_s: float):
        span = self._tracer.begin("protocol.poll_receive", parent=self._clock.current)
        try:
            return self._inner.poll_receive(timeout_s)
        finally:
            self._tracer.end(span)


def benchtop(receiver, clock: TickClock, seconds: float) -> tuple[list[Tick], str]:
    """Run the benchtop until the clock's deadline; its ticks and serialized trace."""
    steps = run_benchtop(
        receiver=receiver, tick_ms=TICK_MS, max_ticks=int(2 * seconds * 1000 / TICK_MS), should_stop=clock
    )
    if len(clock.stamps) == len(steps):  # stopped by max_ticks: close the last tick now
        clock()
    text = serialize_trace(steps)
    records = [json.loads(line) for line in text.splitlines()]
    ticks = [Tick(clock.stamps[k], clock.stamps[k + 1], r["input"], r["state"]) for k, r in enumerate(records)]
    return ticks, text


def align(ticks: list[Tick], sends: list[Send], poll_ns: int):
    """Assign each datagram to the tick whose poll drained it.

    A tick's poll drains the socket last after its deadline, at least
    `poll_ns` after the tick began. A datagram sent before a tick boundary
    was therefore drained by that tick's poll, unless its send ended after
    the deadline or within `poll_ns` of the boundary (a margin for delivery
    the host delays); then a later tick may have drained it. Each tick keeps
    a run of its datagrams whose newest one decodes to the tick's observed
    input (none for a silent tick) and hands the rest on; paced sends near
    every boundary chain these choices from tick to tick, so all splits are
    searched. The one chosen explains the most ticks and datagrams and,
    among those, hands the fewest datagrams on. Returns (applied {send:
    tick}, collapsed sends, lost sends, ticks no datagram explains).
    """
    lost: list[int] = []
    new: list[list[int]] = [[] for _ in ticks]
    j = 0
    for k, tick in enumerate(ticks):
        while j < len(sends) and sends[j].start_ns < tick.end_ns:
            (new[k] if sends[j].ok else lost).append(j)
            j += 1
    lost.extend(range(j, len(sends)))  # still unsent when the benchtop stopped

    def first_ambiguous(group: list[int], tick: Tick) -> int:
        lo = len(group)
        cutoff = min(tick.start_ns + poll_ns, tick.end_ns - poll_ns)
        while lo and sends[group[lo - 1]].end_ns > cutoff:
            lo -= 1
        return lo

    # Per tick, for each run of datagrams it may hand on: the best (failures, datagrams handed
    # on so far), the run it was handed, how many of its group it kept, and whether it failed.
    # Failing a tick loses the datagrams it surely drained and counts the tick if it shows an input.
    frontier: dict[tuple[int, ...], tuple[int, int]] = {(): (0, 0)}
    history = []
    for k, tick in enumerate(ticks):
        reached: dict[tuple[int, ...], tuple] = {}
        for carry, (failures, handed) in frontier.items():
            group = list(carry) + new[k]
            lo = first_ambiguous(group, tick)
            moves = [
                (m, False, 0) for m in range(len(group), lo - 1, -1)
                if (sends[group[m - 1]].token if m else oracle.SILENT) == tick.token
            ]
            moves.append((lo, True, lo + (tick.token != oracle.SILENT)))
            for m, failed, cost in moves:
                rest = tuple(group[m:])
                score = (failures + cost, handed + len(rest))
                if rest not in reached or score < reached[rest][0]:
                    reached[rest] = (score, carry, m, failed)
        history.append(reached)
        frontier = {rest: entry[0] for rest, entry in reached.items()}

    rest = min(frontier, key=lambda r: (frontier[r][0] + len(r), frontier[r][1]))
    lost.extend(rest)  # handed on past the last tick
    applied: dict[int, int] = {}
    collapsed: list[int] = []
    unexplained: list[int] = []
    for k in range(len(ticks) - 1, -1, -1):
        _, carry, m, failed = history[k][rest]
        kept = (list(carry) + new[k])[:m]
        if failed:
            lost.extend(kept)
            if ticks[k].token != oracle.SILENT:
                unexplained.append(k)
        elif kept:
            applied[kept[-1]] = k
            collapsed.extend(kept[:-1])
        rest = carry
    return applied, sorted(collapsed), sorted(lost), sorted(unexplained)


def brownout_onsets_ms(ticks: list[Tick], sends: list[Send], applied: dict[int, int]) -> list[float]:
    """From the last datagram before each silence to the boundary of its BROWNOUT tick."""
    by_tick = {k: i for i, k in applied.items()}
    onsets = []
    last_input = None
    for k, t in enumerate(ticks):
        entered = t.state == "BROWNOUT" and (k == 0 or ticks[k - 1].state != "BROWNOUT")
        if entered and last_input is not None:
            onsets.append((t.end_ns - sends[by_tick[last_input]].due_ns) / 1e6)
        if t.token != oracle.SILENT and k in by_tick:
            last_input = k
    return onsets


def overruns_ms(ticks: list[Tick]) -> list[float]:
    return [(t.end_ns - t.start_ns) / 1e6 - TICK_MS for t in ticks]


def window_rates(ticks: list[Tick]) -> list[float]:
    """Ticks per wall second in each whole window of WINDOW_TICKS ticks."""
    return [
        WINDOW_TICKS / ((ticks[k + WINDOW_TICKS - 1].end_ns - ticks[k].start_ns) / 1e9)
        for k in range(0, len(ticks) - WINDOW_TICKS + 1, WINDOW_TICKS)
    ]


def mean_interval_ns(ticks: list[Tick]) -> float:
    return statistics.fmean(t.end_ns - t.start_ns for t in ticks)


def run(ctx: RunContext) -> Outcome:
    checks = Checks()
    tracer = Tracer(enabled=False)
    seconds = TINY_SECONDS if ctx.tiny else ctx.seconds
    session = None
    try:
        receiver, _, setup_wall = timed_setups(bind_receiver, UdpReceiver.close, SETUP_REPEATS, None)
        started = now_ns()
        session = Session(receiver, ctx.seed, seconds)
        sender_start_s = (now_ns() - started) / 1e9
        start = now_ns() + START_DELAY_NS
        session.go(start)
        time.sleep(max(0, start - now_ns()) / 1e9)
        stop = start + int(seconds * 1e9)
        halves = []
        if ctx.trace:
            # Untraced first half, traced second half, on one continuous schedule.
            halves.append(benchtop(session.receiver, TickClock(start + (stop - start) // 2, tracer), seconds))
            tracer.enabled = True
            clock = TickClock(stop, tracer)
            halves.append(benchtop(TracedReceiver(session.receiver, clock, tracer), clock, seconds))
        else:
            halves.append(benchtop(session.receiver, TickClock(stop, tracer), seconds))
        sends = session.finish()
    finally:
        if session is not None:
            session.close()

    ticks = [t for half_ticks, _ in halves for t in half_ticks]
    for _, text in halves:
        bad, messages = oracle.check_trace(text)
        checks.expect(
            bad == 0, "benchtop steps disagree with the oracle: " + "; ".join(messages), text.count("\n"), bad
        )
    applied, collapsed, lost, unexplained = align(ticks, sends, int(TICK_MS * 1e6))
    checks.expect(not lost, f"datagrams sent but never seen by a tick: {lost[:5]}", len(sends), len(lost))
    checks.expect(
        not unexplained, f"ticks whose input no datagram explains: {unexplained[:5]}", len(ticks), len(unexplained)
    )

    valid = [i for i, s in enumerate(sends) if s.token != "X"]
    latencies = [(ticks[applied[i]].end_ns - sends[i].due_ns) / 1e6 for i in valid if i in applied]
    lags = [(s.start_ns - s.due_ns) / 1e6 for s in sends]
    states = Counter(t.state for t in ticks)
    report = {
        "failed_share": figure(checks.failed / max(checks.attempted, 1), "1", checks.attempted),
        "unapplied_share": figure(1.0 - len(latencies) / max(len(valid), 1), "1", len(valid)),
        "sender_lag_ms.p50": figure(percentile(lags, 50), "ms", len(lags)),
        "sender_lag_ms.p90": figure(percentile(lags, 90), "ms", len(lags)),
        "sender_lag_ms.max": figure(max(lags), "ms", len(lags)),
        "sender_start_s": figure(sender_start_s, "s"),
    }
    if not ctx.trace:
        first, last = ticks[0].start_ns, ticks[-1].end_ns
        ideal_ms = len(ticks) * TICK_MS
        rates = window_rates(ticks)
        throughput = statistics.median(rates)
        overrun = overruns_ms(ticks)
        onsets = brownout_onsets_ms(ticks, sends, applied)
        rss = peak_rss_mb()
        # Binding is a few system calls, not interpreter work: wall seconds.
        setup_s, setup_report = setup_figures([ns / 1e9 for ns in setup_wall], setup_wall, "s")
        metrics = {"setup_s": setup_s, "throughput_per_s": throughput, "peak_rss_mb": rss}
        report.update({
            **setup_report,
            "ticks_per_s.window_median": figure(throughput, "1/s", len(rates)),
            "ticks_per_s": figure(len(ticks) / ((last - first) / 1e9), "1/s", len(ticks)),
            "actuation_latency_ms.p50": figure(percentile(latencies, 50), "ms", len(latencies)),
            "actuation_latency_ms.p90": figure(percentile(latencies, 90), "ms", len(latencies)),
            "tick_overrun_ms.p50": figure(percentile(overrun, 50), "ms", len(overrun)),
            "tick_overrun_ms.p90": figure(percentile(overrun, 90), "ms", len(overrun)),
            "schedule_drift_pct": figure(((last - first) / 1e6 - ideal_ms) / ideal_ms * 100.0, "%", len(ticks)),
            "brownout_onset_ms.p50": figure(percentile(onsets, 50) if onsets else float("nan"), "ms", len(onsets)),
            "peak_rss_mb": figure(rss, "MB"),
        })
    else:
        untraced_ticks = halves[0][0]
        traced_ticks = halves[1][0]
        polls = {s.parent: s.duration_ns for s in tracer.spans if s.name == "protocol.poll_receive"}
        tick_spans = [s for s in tracer.spans if s.name == "nodes.tick" and s.id in polls]
        overshoot = [(d / 1e6) - TICK_MS for d in polls.values()]
        loop_self = [(s.duration_ns - polls[s.id]) / 1e6 for s in tick_spans]
        send_us = [(s.end_ns - s.start_ns) / 1e3 for s in sends]
        metrics = {
            "protocol.poll_overshoot_ms.p50": percentile(overshoot, 50),
            "protocol.poll_overshoot_ms.p90": percentile(overshoot, 90),
            "nodes.loop_self_ms.p50": percentile(loop_self, 50),
            "nodes.loop_self_ms.p90": percentile(loop_self, 90),
            "protocol.send_us.p50": percentile(send_us, 50),
            "protocol.datagrams_sent": len(sends),
            "protocol.datagrams_received": len(sends) - len(lost),
            "protocol.datagrams_collapsed": len(collapsed),
            "sender_lag_ms.p90": percentile(lags, 90),
            "trace_overhead_pct": (mean_interval_ns(traced_ticks) / mean_interval_ns(untraced_ticks) - 1.0) * 100.0,
        }
        metrics.update({f"fsm.state_ticks.{s}": states.get(s, 0) for s in STATES})
        report.update({
            "untraced_ticks": figure(len(untraced_ticks), "count"),
            "traced_ticks": figure(len(traced_ticks), "count"),
            "polls_traced": figure(len(overshoot), "count"),
        })
    return Outcome(metrics, report, checks, tracer)
