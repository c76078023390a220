import itertools
import logging

import pytest

from biofsm import nodes
from biofsm.fsm import DEFAULT_BROWNOUT_TICKS, BenchState
from biofsm.nodes import run_benchtop, run_wearable
from biofsm.protocol import EndpointConfig
from biofsm.signals import SignalProfile, synth_physio


def test_failed_sends_are_recorded_as_not_sent(caplog):
    # Port 0 is not a valid destination: every sendto fails with EINVAL.
    caplog.set_level(logging.INFO, logger="biofsm")
    samples = synth_physio(SignalProfile(bpm_start=70.0, gsr_start_us=17.5), 40_000, seed=4)
    emissions = run_wearable(samples, endpoint=EndpointConfig(port=0))
    assert [e.arousal for e in emissions] == ["MILD", "MILD", "MILD"]
    assert all(e.frames_used > 0 for e in emissions)
    assert [e.byte_sent for e in emissions] == [None, None, None]
    assert sum("send failed" in r.getMessage() for r in caplog.records) == 3


@pytest.mark.parametrize("tick_ms", [float("nan"), float("inf"), 0.0, -1.0])
def test_benchtop_rejects_a_tick_that_is_not_finite_and_positive(tick_ms):
    with pytest.raises(ValueError, match="tick_ms"):
        run_benchtop(tick_ms=tick_ms, max_ticks=1)


TICK_S = 0.010
WORK_S = 0.0004
OVERSHOOT_S = 0.0001


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class StubReceiver:
    """A silent receiver whose poll takes its timeout plus a fixed overshoot."""

    config = EndpointConfig(port=0)
    port = 0

    def __init__(self, clock):
        self.clock = clock
        self.timeouts = []
        self.ends = []

    def poll_receive(self, timeout_s):
        self.timeouts.append(timeout_s)
        self.clock.now += timeout_s + OVERSHOOT_S
        self.ends.append(self.clock.now)
        return None


def run_on_fake_clock(monkeypatch, ticks, pauses=None):
    """Run the benchtop for `ticks` ticks on a fake clock; `pauses` maps tick -> extra seconds of work."""
    clock = FakeClock()
    monkeypatch.setattr(nodes.time, "monotonic", clock)
    receiver = StubReceiver(clock)
    started = itertools.count()
    pauses = pauses or {}

    def should_stop():
        clock.now += WORK_S + pauses.get(next(started), 0.0)
        return False

    t0 = clock.now
    steps = run_benchtop(tick_ms=TICK_S * 1000, max_ticks=ticks, receiver=receiver, should_stop=should_stop)
    return t0, steps, receiver


def grid_end(t0, k):
    return t0 + (k + 1) * TICK_S + OVERSHOOT_S


def test_tick_deadlines_hold_their_grid(monkeypatch):
    t0, steps, receiver = run_on_fake_clock(monkeypatch, 50)
    assert len(steps) == 50
    for k, end in enumerate(receiver.ends):
        assert end == pytest.approx(grid_end(t0, k), abs=1e-9)
    # Only tick 0 starts without the previous poll's overshoot to absorb.
    expected = [TICK_S - WORK_S] + [TICK_S - WORK_S - OVERSHOOT_S] * 49
    assert receiver.timeouts == pytest.approx(expected, abs=1e-9)


def test_late_ticks_poll_for_zero_until_back_on_grid(monkeypatch):
    # A 35 ms stall before tick 20's poll leaves ticks 20-22 past their
    # deadlines; tick 23 is the first whose deadline is still ahead.
    t0, _, receiver = run_on_fake_clock(monkeypatch, 50, pauses={20: 0.035})
    assert all(timeout >= 0.0 for timeout in receiver.timeouts)
    assert receiver.timeouts[20:23] == [0.0, 0.0, 0.0]
    assert all(timeout > 0.0 for timeout in receiver.timeouts[23:])
    for k, end in enumerate(receiver.ends):
        if not 20 <= k < 23:
            assert end == pytest.approx(grid_end(t0, k), abs=1e-9)


def test_silence_browns_out_after_ten_ticks_of_wall_time(monkeypatch):
    t0, steps, receiver = run_on_fake_clock(monkeypatch, 12)
    first = [step.state for step in steps].index(BenchState.BROWNOUT)
    assert first == DEFAULT_BROWNOUT_TICKS - 1
    assert receiver.ends[first] == pytest.approx(grid_end(t0, first), abs=1e-9)
