import math
from statistics import median

import pytest
from hypothesis import given, strategies as st

from biofsm.signals import (
    BeatDetector,
    BeatEvent,
    Channel,
    DetectorConfig,
    GsrCollector,
    HeartRateTracker,
    PhysioSample,
    SampleOrderError,
    SignalProfile,
    load_trace,
    save_trace,
    synth_physio,
)


def ppg_only(profile, duration_ms, seed):
    for sample in synth_physio(profile, duration_ms, seed):
        if sample.channel is Channel.PPG:
            yield sample


def detect_bpms(profile, duration_ms, seed, skip=2):
    """Single-interval estimates, dropping the first few warm-up beats."""
    detector = BeatDetector()
    tracker = HeartRateTracker()
    estimates = []
    for sample in ppg_only(profile, duration_ms, seed):
        beat = detector.step(sample)
        if beat is not None:
            bpm = tracker.update(beat)
            if bpm is not None:
                estimates.append(bpm)
    return estimates[skip:]


def smoothed(values):
    """The collector's mean over exactly these GSR values."""
    collector = GsrCollector(size=len(values))
    for i, value in enumerate(values):
        collector.add(PhysioSample(i * 100.0, Channel.GSR, value))
    return collector.smoothed()


def test_constant_input_produces_no_beats():
    detector = BeatDetector()
    for i in range(2000):
        assert detector.step(PhysioSample(i * 20.0, Channel.PPG, 1000.0)) is None
    assert detector.beat_count == 0


@pytest.mark.parametrize("target_bpm", [60.0, 90.0, 120.0])
def test_beat_intervals_land_on_the_sample_grid(target_bpm):
    # Oracle: a clean sinusoid at B BPM sampled every 20 ms can only yield
    # inter-beat gaps equal to the period rounded down or up to the grid.
    dt_ms = 20.0
    period_ms = 60000.0 / target_bpm
    allowed = {math.floor(period_ms / dt_ms) * dt_ms, math.ceil(period_ms / dt_ms) * dt_ms}

    detector = BeatDetector()
    intervals = []
    for sample in ppg_only(SignalProfile(bpm_start=target_bpm), 60_000, seed=11):
        beat = detector.step(sample)
        if beat is not None and beat.inter_beat_interval_ms is not None:
            intervals.append(beat.inter_beat_interval_ms)
    assert len(intervals) >= target_bpm * 0.9
    assert set(intervals[2:]) <= allowed


@pytest.mark.parametrize("target_bpm", [60.0, 90.0, 120.0])
def test_clean_beat_rate_within_two_bpm(target_bpm):
    estimates = detect_bpms(SignalProfile(bpm_start=target_bpm), 60_000, seed=1)
    assert estimates
    assert abs(median(estimates) - target_bpm) <= 2.0


@pytest.mark.parametrize("target_bpm", [60.0, 90.0, 120.0])
def test_noisy_beat_rate_within_five_bpm(target_bpm):
    # 20 units of uniform noise on a 100-unit pulse: 20% contamination.
    profile = SignalProfile(bpm_start=target_bpm, ppg_noise=20.0)
    estimates = detect_bpms(profile, 60_000, seed=7)
    assert estimates
    assert abs(median(estimates) - target_bpm) <= 5.0


def test_baseline_drift_does_not_disturb_detection():
    profile = SignalProfile(bpm_start=60.0, ppg_drift_per_s=50.0)
    estimates = detect_bpms(profile, 60_000, seed=2)
    assert abs(median(estimates) - 60.0) <= 2.0


def test_first_beat_has_no_rate():
    assert HeartRateTracker().update(BeatEvent(0, 500.0, None)) is None


@pytest.mark.parametrize(
    "interval_ms,expected",
    [(1000.0, 60.0), (500.0, 120.0), (666.7, 89.995)],
)
def test_rate_from_interval(interval_ms, expected):
    assert HeartRateTracker().update(BeatEvent(3, 2000.0, interval_ms)) == pytest.approx(expected, abs=0.01)


def test_rate_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        HeartRateTracker().update(BeatEvent(1, 1000.0, 0.0))
    with pytest.raises(ValueError):
        HeartRateTracker().update(BeatEvent(1, 1000.0, -5.0))


def test_tracker_averages_recent_intervals():
    tracker = HeartRateTracker(intervals=2)
    assert tracker.update(BeatEvent(0, 0.0, None)) is None
    first = tracker.update(BeatEvent(1, 660.0, 660.0))
    second = tracker.update(BeatEvent(2, 1340.0, 680.0))
    assert first == pytest.approx(60000.0 / 660.0)
    assert second == pytest.approx(60000.0 / 670.0)


def test_tracker_single_interval_matches_plain_estimate():
    tracker = HeartRateTracker(intervals=1)
    assert tracker.update(BeatEvent(4, 5000.0, 750.0)) == 60000.0 / 750.0
    # only the latest gap counts
    assert tracker.update(BeatEvent(5, 5600.0, 600.0)) == 60000.0 / 600.0


def test_ramp_estimates_rise_monotonically():
    profile = SignalProfile(bpm_start=60.0, bpm_end=110.0)
    detector = BeatDetector()
    tracker = HeartRateTracker(intervals=8)
    estimates = []
    for sample in ppg_only(profile, 120_000, seed=5):
        beat = detector.step(sample)
        if beat is not None:
            bpm = tracker.update(beat)
            if bpm is not None:
                estimates.append(bpm)
    estimates = estimates[8:]  # let the averaging window fill
    assert estimates[-1] - estimates[0] > 30.0
    for previous, current in zip(estimates, estimates[1:]):
        assert current >= previous - 2.0


def test_detector_rejects_gsr_samples():
    with pytest.raises(ValueError):
        BeatDetector().step(PhysioSample(0.0, Channel.GSR, 5.0))


def test_detector_enforces_timestamp_order():
    detector = BeatDetector()
    detector.step(PhysioSample(0.0, Channel.PPG, 1000.0))
    with pytest.raises(SampleOrderError):
        detector.step(PhysioSample(0.0, Channel.PPG, 1001.0))


def test_smoother_uniform_mean_is_exact():
    assert smoothed([10.0] * 8) == 10.0
    assert smoothed([0.0] * 4 + [8.0] * 4) == 4.0
    assert smoothed([8.0] * 8) == 8.0


def test_smoother_window_size_sets_the_span():
    collector = GsrCollector(size=4)
    for i, value in enumerate([100.0, 1.0, 2.0, 3.0, 4.0]):
        collector.add(PhysioSample(i * 100.0, Channel.GSR, value))
    assert collector.smoothed() == 2.5  # the oldest sample has left the window


def test_smoother_rejects_empty_window():
    assert GsrCollector().smoothed() is None


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=8, max_size=8),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=8, max_size=8),
    st.floats(min_value=-5, max_value=5),
)
def test_smoother_is_linear(xs, ys, a):
    # mean(a*x + y) must equal a*mean(x) + mean(y) up to float error
    combined = [a * x + y for x, y in zip(xs, ys)]
    left = smoothed(combined)
    right = a * smoothed(xs) + smoothed(ys)
    assert left == pytest.approx(right, abs=1e-6)


def test_collector_keeps_last_eight():
    collector = GsrCollector()
    for i in range(10):
        collector.add(PhysioSample(i * 100.0, Channel.GSR, float(i)))
    assert collector.smoothed() == sum([2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]) / 8


def test_collector_warmup_and_order():
    collector = GsrCollector(size=3)
    assert collector.smoothed() is None
    collector.add(PhysioSample(0.0, Channel.GSR, 1.0))
    collector.add(PhysioSample(100.0, Channel.GSR, 2.0))
    assert collector.smoothed() is None  # not warm until three samples
    collector.add(PhysioSample(200.0, Channel.GSR, 3.0))
    assert collector.smoothed() == 2.0
    with pytest.raises(SampleOrderError):
        collector.add(PhysioSample(200.0, Channel.GSR, 4.0))
    with pytest.raises(ValueError):
        collector.add(PhysioSample(300.0, Channel.PPG, 5.0))


def test_synthesis_is_deterministic():
    profile = SignalProfile(bpm_start=75.0, gsr_start_us=12.0, ppg_noise=5.0, gsr_noise_us=0.5)
    first = list(synth_physio(profile, 10_000, seed=42))
    second = list(synth_physio(profile, 10_000, seed=42))
    assert first == second


def test_synthesis_seed_changes_noise():
    profile = SignalProfile(ppg_noise=5.0)
    a = list(synth_physio(profile, 5_000, seed=1))
    b = list(synth_physio(profile, 5_000, seed=2))
    assert a != b


def test_synthesis_stream_is_ordered_and_merged():
    samples = list(synth_physio(SignalProfile(), 2_000, seed=0))
    assert samples[0].channel is Channel.PPG  # PPG wins the t=0 tie
    assert samples[1].channel is Channel.GSR
    for chan in Channel:
        stamps = [s.timestamp_ms for s in samples if s.channel is chan]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))
    merged = [s.timestamp_ms for s in samples]
    assert merged == sorted(merged)
    # 50 Hz and 10 Hz over 2 s
    assert sum(1 for s in samples if s.channel is Channel.PPG) == 100
    assert sum(1 for s in samples if s.channel is Channel.GSR) == 20


def test_synthesis_rejects_bad_parameters():
    with pytest.raises(ValueError):
        list(synth_physio(SignalProfile(), 0, seed=0))
    with pytest.raises(ValueError):
        list(synth_physio(SignalProfile(ppg_rate_hz=0.0), 1000, seed=0))
    with pytest.raises(ValueError):
        list(synth_physio(SignalProfile(bpm_start=0.0), 1000, seed=0))


def test_trace_roundtrip(tmp_path):
    samples = list(synth_physio(SignalProfile(ppg_noise=2.0), 3_000, seed=9))
    path = tmp_path / "trace.csv"
    save_trace(path, samples)
    assert load_trace(path) == samples


def test_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,chan,val\n0,PPG,1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_trace(path)


def test_trace_rejects_unknown_channel(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp_ms,channel,value\n0,EKG,1.0\n")
    with pytest.raises(ValueError, match="channel"):
        load_trace(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", ["{},PPG,1.0", "0,PPG,{}"], ids=["timestamp", "value"])
def test_trace_rejects_non_finite_fields(tmp_path, token, row):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp_ms,channel,value\n0,GSR,1.0\n" + row.format(token) + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 3: non-finite"):
        load_trace(path)


def test_trace_rejects_backwards_timestamps(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp_ms,channel,value\n100,PPG,1.0\n100,PPG,2.0\n"
    )
    with pytest.raises(SampleOrderError):
        load_trace(path)
