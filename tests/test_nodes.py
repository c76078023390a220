import functools
import itertools
import json
import logging
import math
import os
from contextlib import closing, nullcontext
from dataclasses import replace
from types import SimpleNamespace

import pytest

from biofsm import nodes
from biofsm.classifier import ArousalClass, FeatureExtractor, WindowDecision
from biofsm.fsm import DEFAULT_BROWNOUT_TICKS, BenchState
from biofsm.nodes import iter_wearable, run_benchtop, run_wearable
from biofsm.protocol import EndpointConfig, InputSymbol, UdpReceiver, UdpSender
from biofsm.signals import Channel, SignalProfile, synth_physio
from biofsm.sim import serialize_trace


def node_lines(caplog):
    """The unit-of-work lines `biofsm.nodes` logged (what `-v` prints), in order."""
    return [r.getMessage() for r in caplog.records if r.name == "biofsm.nodes" and r.getMessage().startswith("{")]


def test_failed_sends_are_recorded_as_not_sent(caplog):
    # Port 0 is not a valid destination: every sendto fails with EINVAL.
    caplog.set_level(logging.INFO, logger="biofsm")
    samples = synth_physio(SignalProfile(bpm_start=70.0, gsr_start_us=17.5), 40_000, seed=4)
    emissions = run_wearable(samples, endpoint=EndpointConfig(port=0))
    assert [e.arousal for e in emissions] == ["MILD", "MILD", "MILD"]
    assert all(e.frames_used > 0 for e in emissions)
    assert [e.byte_sent for e in emissions] == [None, None, None]
    # Each window's INFO line is its log line: a class beside a null byte.
    assert node_lines(caplog) == [json.dumps(e.record()) for e in emissions]
    failures = [r for r in caplog.records if r.name == "biofsm.protocol"]
    assert [r.levelno for r in failures] == [logging.WARNING] * 3
    assert all(r.getMessage().startswith("send to 127.0.0.1:0 failed: ") for r in failures)


def test_run_wearable_returns_one_window_decision_per_window():
    samples = synth_physio(SignalProfile(bpm_start=70.0, gsr_start_us=17.5), 40_000, seed=4)
    decisions = run_wearable(samples, endpoint=EndpointConfig(port=0))
    assert [type(d) for d in decisions] == [WindowDecision] * 3
    assert all(d.arousal is ArousalClass.MILD and d.arousal == "MILD" for d in decisions)
    assert [d.window_index for d in decisions] == [0, 1, 2]


def test_an_undecided_window_is_a_bare_window_decision(tmp_path, caplog):
    # 30 uS is above the supported conductance range, so every frame is dropped.
    caplog.set_level(logging.INFO, logger="biofsm")
    log = tmp_path / "wearable.jsonl"
    samples = synth_physio(SignalProfile(bpm_start=70.0, gsr_start_us=30.0), 20_000, seed=4)
    decisions = run_wearable(samples, endpoint=EndpointConfig(port=0), log_path=log)
    assert decisions == [WindowDecision(0), WindowDecision(1)]
    null = '"bpm_mean": null, "gsr_mean": null, "arousal": null, "byte_sent": null}'
    assert log.read_text() == f'{{"window": 0, "frames_used": 0, {null}\n{{"window": 1, "frames_used": 0, {null}\n'
    assert "".join(line + "\n" for line in node_lines(caplog)) == log.read_text()


def test_node_logs_are_line_buffered(tmp_path):
    # Each node's log holds every finished line while the node still runs.
    wearable_log, benchtop_log = tmp_path / "wearable.jsonl", tmp_path / "benchtop.jsonl"
    windows_logged, ticks_logged = [], []

    def samples():
        for sample in synth_physio(SignalProfile(bpm_start=70.0, gsr_start_us=17.5), 60_000, seed=1):
            if sample.timestamp_ms == 45_000.0 and sample.channel is Channel.PPG:
                windows_logged.append(wearable_log.read_text().count("\n"))  # windows 0 and 1 have closed
            yield sample

    run_wearable(samples(), endpoint=EndpointConfig(port=0), log_path=wearable_log)
    assert windows_logged == [2]

    def should_stop():  # called as each tick starts
        ticks_logged.append(benchtop_log.read_text().count("\n"))
        return len(ticks_logged) > 3

    with UdpReceiver(EndpointConfig(port=0)) as receiver:
        run_benchtop(receiver, tick_ms=1.0, log_path=benchtop_log, should_stop=should_stop)
    assert ticks_logged == [0, 1, 2, 3]


def test_a_node_given_no_log_path_writes_its_lines_to_the_null_device(monkeypatch):
    opened = []
    open_log = nodes._open_log
    monkeypatch.setattr(nodes, "_open_log", lambda path: opened.append(open_log(path)) or opened[-1])
    samples = synth_physio(SignalProfile(bpm_start=70.0, gsr_start_us=17.5), 20_000, seed=1)
    assert len(run_wearable(samples, endpoint=EndpointConfig(port=0))) == 2  # a full window and the partial one
    with UdpReceiver(EndpointConfig(port=0)) as receiver:
        assert len(run_benchtop(receiver, tick_ms=1.0, max_ticks=2)) == 2
    assert [(f.name, f.line_buffering, f.closed) for f in opened] == [(os.devnull, True, True)] * 2


def test_the_benchtop_log_is_the_trace_of_the_steps_it_returns(tmp_path, monkeypatch, caplog):
    # Garbage, a dropped tick, and silence that browns out and then hears
    # garbage: the log file and the INFO lines are the same trace, byte for byte.
    A, X, ABSENT = InputSymbol.VALID_A, InputSymbol.UNRECOGNIZED, InputSymbol.ABSENT
    script = [A, X, InputSymbol.VALID_B, A, InputSymbol.VALID_C] + [ABSENT] * 11 + [X, ABSENT, A]
    log = tmp_path / "benchtop.jsonl"
    monkeypatch.setattr(nodes, "run_benchtop", functools.partial(run_benchtop, log_path=log))
    caplog.set_level(logging.INFO, logger="biofsm")
    steps = nodes.replay_script(script, tick_ms=5.0, drop_ticks={3})
    assert len(steps) == len(script)
    assert {BenchState.INVALID, BenchState.BROWNOUT} <= {step.state for step in steps}
    assert log.read_text() == serialize_trace(steps)
    assert "".join(line + "\n" for line in node_lines(caplog)) == log.read_text()


def session(channel=None, field="value", bad=None):
    """60 s at 70 BPM and 17.5 uS; with `channel`, its sample at t = 2000 ms gets `field` set to `bad`."""
    for sample in synth_physio(SignalProfile(bpm_start=70.0, gsr_start_us=17.5), 60_000, seed=1):
        if sample.channel is channel and sample.timestamp_ms == 2000.0:
            sample = replace(sample, **{field: bad})
        yield sample


def test_a_non_finite_ppg_sample_does_not_end_classification(caplog):
    caplog.set_level(logging.WARNING, logger="biofsm")
    clean = run_wearable(session(), endpoint=EndpointConfig(port=0))
    assert [e.frames_used for e in clean] == [17, 17, 18, 17]
    assert not any("non-finite" in r.getMessage() for r in caplog.records)
    poisoned = run_wearable(session(Channel.PPG, "value", math.nan), endpoint=EndpointConfig(port=0))
    assert [e.record() for e in poisoned] == [e.record() for e in clean]
    warnings = [r.getMessage() for r in caplog.records if "non-finite" in r.getMessage()]
    assert warnings == ["skipped 1 samples with a non-finite value or timestamp"]


def test_iter_wearable_reads_samples_only_up_to_the_frame_that_closes_each_window():
    read = []

    def samples():
        for sample in session():
            read.append(sample.timestamp_ms)
            yield sample

    with closing(iter_wearable(samples(), endpoint=EndpointConfig(port=0))) as windows:
        assert next(windows).window_index == 0
        assert 15_000 <= read[-1] < 16_000  # the first beat after 15 s, at 70 BPM
        assert next(windows).window_index == 1
        assert 30_000 <= read[-1] < 31_000


def test_closing_iter_wearable_early_logs_the_non_finite_count_and_closes_its_socket(tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.WARNING, logger="biofsm")
    senders = []

    def sender(endpoint):
        senders.append(UdpSender(endpoint))
        return senders[-1]

    monkeypatch.setattr(nodes, "UdpSender", sender)
    log = tmp_path / "wearable.jsonl"
    windows = iter_wearable(session(Channel.PPG, "value", math.nan), endpoint=EndpointConfig(port=0), log_path=log)
    assert next(windows).window_index == 0
    windows.close()
    warnings = [r.getMessage() for r in caplog.records if "non-finite" in r.getMessage()]
    assert warnings == ["skipped 1 samples with a non-finite value or timestamp"]
    assert [s.fileno() for s in senders] == [-1]
    assert log.read_text().count("\n") == 1


def test_ctrl_c_while_samples_are_read_ends_the_stream_and_flushes_the_partial_window(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="biofsm")
    log = tmp_path / "wearable.jsonl"

    def samples():
        for sample in session():
            if sample.timestamp_ms >= 20_000:
                raise KeyboardInterrupt
            yield sample

    decisions = run_wearable(samples(), endpoint=EndpointConfig(port=0), log_path=log)
    assert [(d.window_index, d.frames_used) for d in decisions] == [(0, 17), (1, 6)]
    assert log.read_text() == "".join(json.dumps(d.record()) + "\n" for d in decisions)
    assert [r.getMessage() for r in caplog.records if "interrupted" in r.getMessage()] == ["wearable interrupted, stopping"]


def test_ctrl_c_during_a_send_stops_the_wearable_before_that_window(tmp_path, monkeypatch, caplog):
    # Window 1's send is cut short: it is neither logged nor returned, and
    # no partial window follows it, so the indices have no gap.
    caplog.set_level(logging.INFO, logger="biofsm")
    sends = itertools.count(1)

    class InterruptedSender(UdpSender):
        def send_raw(self, payload):
            if next(sends) == 2:
                raise KeyboardInterrupt
            return super().send_raw(payload)

    monkeypatch.setattr(nodes, "UdpSender", InterruptedSender)
    log = tmp_path / "wearable.jsonl"
    decisions = run_wearable(session(), endpoint=EndpointConfig(port=0), log_path=log)
    assert [d.window_index for d in decisions] == [0]
    assert log.read_text() == json.dumps(decisions[0].record()) + "\n"
    assert node_lines(caplog) == [json.dumps(decisions[0].record())]


def test_ctrl_c_as_a_log_write_returns_stops_the_wearable_after_that_window(monkeypatch, caplog):
    # The interrupt lands once window 1's line is written: window 1 is
    # logged, so it is returned, and the wearable stops with no flush.
    caplog.set_level(logging.INFO, logger="biofsm")
    written = []

    class InterruptedLog:
        def write(self, text):
            written.append(text)
            if len(written) == 2:
                raise KeyboardInterrupt

    monkeypatch.setattr(nodes, "_open_log", lambda path: nullcontext(InterruptedLog()))
    decisions = run_wearable(session(), endpoint=EndpointConfig(port=0), log_path="wearable.jsonl")
    assert [d.window_index for d in decisions] == [0, 1]
    assert written == [json.dumps(d.record()) + "\n" for d in decisions]
    assert node_lines(caplog) == [json.dumps(d.record()) for d in decisions]


@pytest.mark.parametrize(
    "channel, field, bad",
    [
        (Channel.PPG, "value", math.nan),
        (Channel.GSR, "value", math.nan),
        (Channel.PPG, "value", math.inf),
        (Channel.GSR, "value", -math.inf),
        (Channel.PPG, "timestamp_ms", math.nan),
        (Channel.GSR, "timestamp_ms", math.inf),
    ],
)
def test_extractor_skips_and_counts_non_finite_samples(channel, field, bad):
    def frames(samples):
        extractor = FeatureExtractor()
        return [f for f in map(extractor.add, samples) if f is not None], extractor.non_finite

    clean, clean_count = frames(session())
    assert clean_count == 0
    assert frames(session(channel, field, bad)) == (clean, 1)


@pytest.mark.parametrize("tick_ms", [float("nan"), float("inf"), 0.0, -1.0, 1e300])
def test_benchtop_rejects_a_tick_that_is_not_finite_and_positive(tick_ms):
    with pytest.raises(ValueError, match="tick_ms"):
        run_benchtop(StubReceiver(FakeClock()), tick_ms=tick_ms, max_ticks=1)


@pytest.mark.parametrize("max_ticks", [2.5, True, "3"])
def test_benchtop_rejects_a_tick_limit_that_is_not_an_integer_before_touching_its_log(max_ticks, tmp_path):
    log = tmp_path / "benchtop.jsonl"
    log.write_text("old\n")
    with pytest.raises(ValueError, match=f"max_ticks must be None or an integer, got {max_ticks!r}"):
        run_benchtop(StubReceiver(FakeClock()), log_path=log, max_ticks=max_ticks)
    assert log.read_text() == "old\n"


TICK_S = 0.010
WORK_S = 0.0004
OVERSHOOT_S = 0.0001


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class StubReceiver:
    """A silent receiver whose poll waits until its deadline, then overshoots it by a fixed amount."""

    config = EndpointConfig(port=0)
    port = 0

    def __init__(self, clock):
        self.clock = clock
        self.deadlines = []
        self.waits = []
        self.ends = []

    def poll_receive(self, deadline):
        self.deadlines.append(deadline)
        self.waits.append(max(0.0, deadline - self.clock.now))
        self.clock.now = max(self.clock.now, deadline) + OVERSHOOT_S
        self.ends.append(self.clock.now)
        return InputSymbol.ABSENT


def run_on_fake_clock(monkeypatch, ticks, pauses=None):
    """Run the benchtop for `ticks` ticks on a fake clock; `pauses` maps tick -> extra seconds of work."""
    clock = FakeClock()
    monkeypatch.setattr(nodes, "time", SimpleNamespace(monotonic=clock))
    receiver = StubReceiver(clock)
    started = itertools.count()
    pauses = pauses or {}

    def should_stop():
        clock.now += WORK_S + pauses.get(next(started), 0.0)
        return False

    t0 = clock.now
    steps = run_benchtop(tick_ms=TICK_S * 1000, max_ticks=ticks, receiver=receiver, should_stop=should_stop)
    return t0, steps, receiver


def grid_deadlines(t0, ticks):
    return [t0 + (k + 1) * TICK_S for k in range(ticks)]


def grid_end(t0, k):
    return t0 + (k + 1) * TICK_S + OVERSHOOT_S


def test_tick_deadlines_hold_their_grid(monkeypatch):
    t0, steps, receiver = run_on_fake_clock(monkeypatch, 50)
    assert len(steps) == 50
    assert receiver.deadlines == pytest.approx(grid_deadlines(t0, 50), abs=1e-9)
    for k, end in enumerate(receiver.ends):
        assert end == pytest.approx(grid_end(t0, k), abs=1e-9)
    # Only tick 0 starts without the previous poll's overshoot to absorb.
    expected = [TICK_S - WORK_S] + [TICK_S - WORK_S - OVERSHOOT_S] * 49
    assert receiver.waits == pytest.approx(expected, abs=1e-9)


def test_late_ticks_poll_for_zero_until_back_on_grid(monkeypatch):
    # A 35 ms stall before tick 20's poll leaves ticks 20-22 past their
    # deadlines; tick 23 is the first whose deadline is still ahead.
    t0, _, receiver = run_on_fake_clock(monkeypatch, 50, pauses={20: 0.035})
    assert receiver.deadlines == pytest.approx(grid_deadlines(t0, 50), abs=1e-9)
    assert receiver.waits[20:23] == [0.0, 0.0, 0.0]
    assert all(wait > 0.0 for wait in receiver.waits[:20] + receiver.waits[23:])
    for k, end in enumerate(receiver.ends):
        if not 20 <= k < 23:
            assert end == pytest.approx(grid_end(t0, k), abs=1e-9)


def test_silence_browns_out_after_ten_ticks_of_wall_time(monkeypatch):
    t0, steps, receiver = run_on_fake_clock(monkeypatch, 12)
    first = [step.state for step in steps].index(BenchState.BROWNOUT)
    assert first == DEFAULT_BROWNOUT_TICKS - 1
    assert receiver.ends[first] == pytest.approx(grid_end(t0, first), abs=1e-9)
