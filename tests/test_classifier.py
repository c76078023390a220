import pytest
from hypothesis import given, strategies as st

from biofsm.classifier import (
    ArousalClass,
    FeatureExtractor,
    FeatureFrame,
    LadderConfig,
    WindowAccumulator,
    classify_window,
    score_frame,
)
from biofsm.signals import Channel, PhysioSample


def frame(bpm, gsr, index=0, ts=0.0):
    return FeatureFrame(index, ts, bpm, gsr)


def test_mild_hr_with_mild_gsr_outweighs_normal():
    # HR in the calm band but conductance elevated: the heavier GSR weight
    # must tip the decision to MILD.
    scores = score_frame(frame(70.0, 17.5), LadderConfig())
    assert scores == [0.4, 0.6, 0.0]
    decision = classify_window([frame(70.0, 17.5)])
    assert decision is not None
    assert decision.arousal is ArousalClass.MILD
    assert scores[ArousalClass.MILD] > scores[ArousalClass.NORMAL]


@pytest.mark.parametrize("bpm", [60.0, 70.0, 84.9])
@pytest.mark.parametrize("gsr", [15.0, 17.5, 19.9])
def test_mild_band_grid(bpm, gsr):
    decision = classify_window([frame(bpm, gsr)])
    assert decision.arousal is ArousalClass.MILD


def test_calm_frame_is_normal():
    decision = classify_window([frame(62.0, 1.0)])
    assert decision.arousal is ArousalClass.NORMAL
    assert decision.score_vector == [1.0, 0.0, 0.0]


def test_elevated_frame_is_high():
    assert classify_window([frame(118.0, 24.0)]).arousal is ArousalClass.HIGH


@pytest.mark.parametrize(
    "bpm,band",
    [
        (60.0, ArousalClass.NORMAL),
        (84.999, ArousalClass.NORMAL),
        (85.0, ArousalClass.MILD),
        (104.999, ArousalClass.MILD),
        (105.0, ArousalClass.HIGH),
        (120.0, ArousalClass.HIGH),
    ],
)
def test_heart_rate_band_edges(bpm, band):
    assert LadderConfig().hr_band(bpm) is band


@pytest.mark.parametrize(
    "gsr,band",
    [
        (0.0, ArousalClass.NORMAL),
        (14.999, ArousalClass.NORMAL),
        (15.0, ArousalClass.MILD),
        (19.999, ArousalClass.MILD),
        (20.0, ArousalClass.HIGH),
        (25.0, ArousalClass.HIGH),
    ],
)
def test_gsr_band_edges(gsr, band):
    assert LadderConfig().gsr_band(gsr) is band


@pytest.mark.parametrize("bpm", [59.9, 120.1])
def test_heart_rate_outside_range_raises(bpm):
    with pytest.raises(ValueError):
        LadderConfig().hr_band(bpm)
    with pytest.raises(ValueError):
        score_frame(frame(bpm, 10.0), LadderConfig())


@pytest.mark.parametrize("gsr", [-0.1, 25.1])
def test_gsr_outside_range_raises(gsr):
    with pytest.raises(ValueError):
        LadderConfig().gsr_band(gsr)


def test_window_vote_matches_manual_summation():
    config = LadderConfig()
    mild_frames = [frame(70.0, 17.5, i) for i in range(10)]
    high_frames = [frame(118.0, 24.0, 10 + i) for i in range(5)]
    decision = classify_window(mild_frames + high_frames, config)

    # By hand: a (70, 17.5) frame splits 0.4 to NORMAL and 0.6 to MILD; a
    # (118, 24) frame puts the full 1.0 on HIGH. Totals: [4.0, 6.0, 5.0].
    expected = [0.0, 0.0, 0.0]
    for f in mild_frames + high_frames:
        expected[config.hr_band(f.bpm)] += config.hr_weight
        expected[config.gsr_band(f.gsr_us)] += config.gsr_weight
    assert decision.score_vector == pytest.approx(expected)
    assert expected == pytest.approx([4.0, 6.0, 5.0])
    assert decision.arousal is ArousalClass.MILD
    assert decision.frames_used == 15


def test_uniform_window_keeps_its_class():
    frames = [frame(65.0, 5.0, i) for i in range(15)]
    decision = classify_window(frames)
    assert decision.arousal is ArousalClass.NORMAL
    assert decision.frames_used == 15


def test_out_of_range_frames_are_dropped():
    config = LadderConfig()
    frames = [frame(70.0, 17.5), frame(150.0, 17.5), frame(70.0, 40.0)]
    decision = classify_window(frames, config)
    assert decision.frames_used == 1
    assert decision.arousal is ArousalClass.MILD
    # the means cover only the frames that voted
    assert (decision.bpm_mean, decision.gsr_mean) == (70.0, 17.5)


def test_window_with_nothing_usable_is_undecidable():
    assert classify_window([]) is None
    assert classify_window([frame(150.0, 40.0)]) is None


def test_ties_resolve_to_the_lower_class():
    even = LadderConfig(hr_weight=0.5, gsr_weight=0.5)
    low_vs_high = classify_window([frame(70.0, 24.0)], even)
    assert low_vs_high.arousal is ArousalClass.NORMAL
    mild_vs_high = classify_window([frame(110.0, 17.5)], even)
    assert mild_vs_high.arousal is ArousalClass.MILD


def test_classification_is_deterministic():
    frames = [frame(70.0 + i, 10.0 + i / 2.0, i) for i in range(20)]
    first = classify_window(frames)
    second = classify_window(frames)
    assert first == second


def test_argmax_is_scale_invariant():
    frames = [frame(70.0, 17.5, i) for i in range(7)] + [frame(118.0, 24.0, 9)]
    decision = classify_window(frames)
    scaled = [3.7 * s for s in decision.score_vector]
    assert scaled.index(max(scaled)) == decision.score_vector.index(max(decision.score_vector))


@given(
    bpms=st.tuples(
        st.floats(min_value=60.0, max_value=120.0),
        st.floats(min_value=60.0, max_value=120.0),
    ),
    gsr=st.floats(min_value=0.0, max_value=25.0),
)
def test_raising_heart_rate_never_lowers_the_class(bpms, gsr):
    low, high = sorted(bpms)
    a = classify_window([frame(low, gsr)]).arousal
    b = classify_window([frame(high, gsr)]).arousal
    assert b >= a


def test_config_validation():
    with pytest.raises(ValueError):
        LadderConfig(hr_splits=(50.0, 105.0))  # split below range
    with pytest.raises(ValueError):
        LadderConfig(gsr_splits=(20.0, 15.0))  # out of order
    with pytest.raises(ValueError):
        LadderConfig(hr_weight=0.7, gsr_weight=0.7)  # weights don't sum to 1
    with pytest.raises(ValueError):
        LadderConfig(hr_weight=-0.2, gsr_weight=1.2)
    with pytest.raises(ValueError):
        LadderConfig(window_ms=0.0)


def test_accumulator_closes_back_to_back_windows():
    acc = WindowAccumulator(LadderConfig())
    assert acc.add(frame(70.0, 17.5, 0, ts=2_000.0)) == []
    assert acc.add(frame(70.0, 17.5, 1, ts=14_999.0)) == []
    closed = acc.add(frame(70.0, 17.5, 2, ts=15_000.0))
    assert [w.window_index for w in closed] == [0]
    assert [f.beat_index for f in closed[0].frames] == [0, 1]
    # a frame far in the future closes the intervening empty windows too
    closed = acc.add(frame(70.0, 17.5, 3, ts=47_000.0))
    assert [w.window_index for w in closed] == [1, 2]
    assert closed[1].frames == []
    tail = acc.flush()
    assert [w.window_index for w in tail] == [3]
    assert acc.flush() == []


def test_extractor_anchors_gsr_windows_to_beats():
    # Hand-built streams. PPG: flat with a 100-unit spike every second from
    # t=500 ms, so beats land exactly on the spikes. GSR: a 10 Hz staircase
    # value t/100, so any smoothed window mean can be computed by hand.
    ppg = []
    for i in range(50 * 4):
        t = i * 20.0
        spike = (t % 1000.0) == 500.0
        ppg.append(PhysioSample(t, Channel.PPG, 100.0 if spike else 0.0))
    gsr = [PhysioSample(i * 100.0, Channel.GSR, i / 1.0) for i in range(40)]
    stream = sorted(ppg + gsr, key=lambda s: (s.timestamp_ms, s.channel is Channel.GSR))

    extractor = FeatureExtractor()
    frames = [f for f in (extractor.add(s) for s in stream) if f is not None]

    # Beat 0 at 500 ms carries no interval; the GSR window is full from
    # 700 ms on, so the first frame is the beat at 1500 ms.
    assert [f.timestamp_ms for f in frames] == [1500.0, 2500.0, 3500.0]
    assert [f.bpm for f in frames] == [60.0, 60.0, 60.0]
    # At 1500 ms the last 8 GSR samples are 7..14 -> mean 10.5, and so on.
    assert [f.gsr_us for f in frames] == [10.5, 20.5, 30.5]
