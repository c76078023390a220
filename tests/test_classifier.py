import bisect
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from biofsm.classifier import (
    GSR_RANGE,
    GSR_SPLITS,
    GSR_VOTES,
    GSR_WINDOW_SIZE,
    HR_RANGE,
    HR_SPLITS,
    HR_VOTES,
    ArousalClass,
    FeatureExtractor,
    FeatureFrame,
    LadderConfig,
    WindowAccumulator,
    WindowDecision,
    classify_window,
    iter_decisions,
)
from biofsm.signals import MIN_THRESHOLD, BeatDetector, Channel, PhysioSample, SampleOrderError, SignalProfile, synth_physio


def frame(bpm, gsr, ts=0.0):
    return FeatureFrame(ts, bpm, gsr)


SEVERITY = list(ArousalClass).index  # 0 NORMAL, 1 MILD, 2 HIGH: the band a vote goes to
# One value inside each band of each ladder, so band pair (h, g) is the frame (HR_POINTS[h], GSR_POINTS[g]).
HR_POINTS = (70.0, 90.0, 110.0)
GSR_POINTS = (10.0, 17.5, 22.0)


def reference_class(pairs, weights=(Fraction(2, 5), Fraction(3, 5))):
    """The class of an exact tally of (heart-rate band, conductance band) pairs, ties to the calmer class."""
    totals = [Fraction(0)] * 3
    for hr_band, gsr_band in pairs:
        totals[hr_band] += weights[0]
        totals[gsr_band] += weights[1]
    return list(ArousalClass)[totals.index(max(totals))]


def test_mild_hr_with_mild_gsr_outweighs_normal():
    # HR in the calm band but conductance elevated: the heavier GSR vote
    # must tip the decision to MILD.
    decision = classify_window([frame(70.0, 17.5)])
    assert decision is not None
    assert decision.arousal is ArousalClass.MILD
    assert GSR_VOTES > HR_VOTES  # MILD's 3 over NORMAL's 2


def test_every_small_window_votes_as_an_exact_tally():
    pairs = list(itertools.product(range(3), repeat=2))
    windows = [w for size in range(1, 7) for w in itertools.combinations_with_replacement(pairs, size)]
    wrong = [
        w
        for w in windows
        if classify_window([frame(HR_POINTS[h], GSR_POINTS[g]) for h, g in w]).arousal is not reference_class(w)
    ]
    assert len(windows) == 5004
    assert not wrong, f"{len(wrong)} of {len(windows)} windows, first {wrong[0]}"


GSR_BAND_VALUES = (
    st.floats(0.0, 15.0, exclude_max=True),
    st.floats(15.0, 20.0, exclude_max=True),
    st.floats(20.0, 25.0),
)
OUT_OF_RANGE = st.tuples(st.floats(), st.floats()).filter(lambda f: not (60.0 <= f[0] <= 120.0 and 0.0 <= f[1] <= 25.0))


@given(st.data())
def test_a_window_whose_frames_share_a_gsr_band_takes_its_class(data):
    # n in-range frames give their conductance band 3n votes; heart rate has only 2n to spread.
    band = data.draw(st.integers(0, 2))
    kept = data.draw(st.lists(st.tuples(st.floats(60.0, 120.0), GSR_BAND_VALUES[band]), min_size=1, max_size=30))
    dropped = data.draw(st.lists(OUT_OF_RANGE, max_size=5))
    window = data.draw(st.permutations(kept + dropped))
    decision = classify_window([frame(bpm, gsr) for bpm, gsr in window])
    assert decision.arousal is list(ArousalClass)[band]
    assert decision.frames_used == len(kept)


def test_arousal_class_is_its_name_in_score_order():
    assert ArousalClass("HIGH") is ArousalClass.HIGH
    assert list(ArousalClass) == [ArousalClass.NORMAL, ArousalClass.MILD, ArousalClass.HIGH]
    assert [cls == cls.name for cls in ArousalClass] == [True, True, True]
    assert "NORMAL" in {ArousalClass.NORMAL}  # hashes as its name, so a set of decisions finds logged names
    assert SEVERITY(classify_window([frame(110.0, 24.0)]).arousal) == 2  # both top bands vote for HIGH


def test_arousal_class_prints_as_its_name():
    assert [str(cls) for cls in ArousalClass] == [f"{cls}" for cls in ArousalClass] == ["NORMAL", "MILD", "HIGH"]
    assert sorted(map(str, {ArousalClass.HIGH, ArousalClass.MILD, None})) == ["HIGH", "MILD", "None"]


@pytest.mark.parametrize("bpm", [60.0, 70.0, 84.9])
@pytest.mark.parametrize("gsr", [15.0, 17.5, 19.9])
def test_mild_band_grid(bpm, gsr):
    decision = classify_window([frame(bpm, gsr)])
    assert decision.arousal is ArousalClass.MILD


def test_calm_frame_is_normal():
    decision = classify_window([frame(62.0, 1.0)])
    assert decision == WindowDecision(0, 1, 62.0, 1.0, ArousalClass.NORMAL)


def test_elevated_frame_is_high():
    assert classify_window([frame(118.0, 24.0)]).arousal is ArousalClass.HIGH


@pytest.mark.parametrize(
    "bpm,band",
    # band is the class's severity: 0 NORMAL, 1 MILD, 2 HIGH
    [(60.0, 0), (84.999, 0), (85.0, 1), (104.999, 1), (105.0, 2), (120.0, 2)],
)
def test_heart_rate_band_edges(bpm, band):
    # The two frames' conductance votes split between NORMAL and HIGH, so the 2 + 2 heart-rate votes decide.
    assert SEVERITY(classify_window([frame(bpm, 10.0), frame(bpm, 22.0)]).arousal) == band


@pytest.mark.parametrize(
    "gsr,band",
    # band is the class's severity: 0 NORMAL, 1 MILD, 2 HIGH
    [(0.0, 0), (14.999, 0), (15.0, 1), (19.999, 1), (20.0, 2), (25.0, 2)],
)
def test_gsr_band_edges(gsr, band):
    assert SEVERITY(classify_window([frame(70.0, gsr)]).arousal) == band


@pytest.mark.parametrize("bpm", [59.9, 120.1])
def test_heart_rate_outside_range_is_dropped(bpm):
    assert classify_window([frame(bpm, 10.0)]) is None
    assert classify_window([frame(bpm, 10.0), frame(70.0, 22.0)]).frames_used == 1


@pytest.mark.parametrize("gsr", [-0.1, 25.1])
def test_gsr_outside_range_is_dropped(gsr):
    assert classify_window([frame(70.0, gsr)]) is None
    assert classify_window([frame(70.0, gsr), frame(110.0, 10.0)]).frames_used == 1


def test_window_vote_matches_manual_summation():
    config = LadderConfig()
    mild_frames = [frame(70.0, 17.5)] * 10
    high_frames = [frame(118.0, 24.0)] * 5
    decision = classify_window(mild_frames + high_frames, config)

    # By hand: a (70, 17.5) frame votes 2 for NORMAL and 3 for MILD; a
    # (118, 24) frame votes 2 + 3 for HIGH. Totals: [20, 30, 25].
    votes = [10 * HR_VOTES, 10 * GSR_VOTES, 5 * (HR_VOTES + GSR_VOTES)]
    assert votes == [20, 30, 25]
    assert decision.arousal is ArousalClass.MILD is reference_class([(0, 1)] * 10 + [(2, 2)] * 5)
    assert decision.frames_used == 15


def test_uniform_window_keeps_its_class():
    frames = [frame(65.0, 5.0)] * 15
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
    # Each pair puts 2 + 3 votes on both classes it names: [5, 0, 5] and [0, 5, 5].
    low_vs_high = classify_window([frame(70.0, 24.0), frame(110.0, 10.0)])
    assert low_vs_high.arousal is ArousalClass.NORMAL
    mild_vs_high = classify_window([frame(90.0, 24.0), frame(110.0, 17.5)])
    assert mild_vs_high.arousal is ArousalClass.MILD
    # [6, 6, 3]: summed as floats 0.4 and 0.6, NORMAL's 1.2 fell below MILD's 1.2000000000000002.
    assert classify_window([frame(90.0, 10.0), frame(90.0, 10.0), frame(90.0, 22.0)]).arousal is ArousalClass.NORMAL


def test_classification_is_deterministic():
    frames = [frame(70.0 + i, 10.0 + i / 2.0) for i in range(20)]
    first = classify_window(frames)
    second = classify_window(frames)
    assert first == second


def test_argmax_is_scale_invariant():
    frames = [frame(70.0, 17.5)] * 7 + [frame(118.0, 24.0)]
    pairs = [(0, 1)] * 7 + [(2, 2)]
    decision = classify_window(frames)
    for scale in (Fraction(1), Fraction(1, 5), Fraction(37, 10)):
        assert decision.arousal is reference_class(pairs, (HR_VOTES * scale, GSR_VOTES * scale))


@given(
    bpms=st.tuples(
        st.floats(min_value=60.0, max_value=120.0),
        st.floats(min_value=60.0, max_value=120.0),
    ),
    gsr=st.floats(min_value=0.0, max_value=25.0),
)
def test_a_one_frame_window_takes_its_gsr_band_whatever_its_heart_rate(bpms, gsr):
    low, high = sorted(bpms)
    a = classify_window([frame(low, gsr)]).arousal
    b = classify_window([frame(high, gsr)]).arousal
    assert SEVERITY(a) == SEVERITY(b) == bisect.bisect_right(GSR_SPLITS, gsr)


def test_raising_one_heart_rate_can_lower_a_windows_class():
    # Votes [7, 8, 0] with the third frame at 90 bpm; at 110 bpm it moves its 2 from MILD to HIGH: [7, 6, 2].
    before, after = (
        classify_window([frame(70.0, 10.0), frame(70.0, 17.5), frame(bpm, 17.5)]).arousal for bpm in (90.0, 110.0)
    )
    assert (before, after) == (ArousalClass.MILD, ArousalClass.NORMAL)
    assert SEVERITY(after) < SEVERITY(before)


def test_config_validation():
    with pytest.raises(ValueError):
        LadderConfig(window_ms=0.0)


def test_fixed_tuning_keeps_its_invariants():
    for (lo, hi), (s0, s1) in ((HR_RANGE, HR_SPLITS), (GSR_RANGE, GSR_SPLITS)):
        assert lo < s0 < s1 < hi
    assert 0 < HR_VOTES < GSR_VOTES
    assert HR_VOTES / (HR_VOTES + GSR_VOTES) == 0.4
    assert MIN_THRESHOLD > 0


def test_accumulator_closes_back_to_back_windows():
    acc = WindowAccumulator(LadderConfig())
    assert acc.add(frame(70.0, 17.5, ts=2_000.0)) == []
    assert acc.add(frame(70.0, 17.5, ts=14_999.0)) == []
    closed = acc.add(frame(70.0, 17.5, ts=15_000.0))
    assert [w.window_index for w in closed] == [0]
    assert [f.timestamp_ms for f in closed[0].frames] == [2000.0, 14999.0]
    # a frame far in the future closes the intervening empty windows too
    closed = acc.add(frame(70.0, 17.5, ts=47_000.0))
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


# A stream is PPG pulls (None) and GSR samples (timestamp step, value) in any
# order, led by up to a dozen PPG samples so beats can precede every GSR sample.
INTERLEAVINGS = st.tuples(
    st.integers(0, 12),
    st.lists(st.none() | st.tuples(st.floats(1e-3, 500.0), st.floats(-1e3, 1e3)), min_size=30, max_size=150),
)


def check_extractor_frames_average_the_gsr_samples_before_each_beat(interleaving):
    lead, items = interleaving
    stream, k, t_gsr = [], 0, 0.0
    for item in [None] * lead + items:
        if item is None:  # a spike train: 100 on every other PPG sample, 200 ms apart
            stream.append(PhysioSample(k * 200.0, Channel.PPG, 100.0 * (k % 2)))
            k += 1
        else:
            t_gsr += item[0]
            stream.append(PhysioSample(t_gsr, Channel.GSR, item[1]))

    extractor = FeatureExtractor()
    frames = [f for f in map(extractor.add, stream) if f is not None]

    # Reference: at each beat with an interval, the mean of the last
    # GSR_WINDOW_SIZE GSR values that came before it, or no frame.
    detector, gsr, expected = BeatDetector(), [], []
    for sample in stream:
        if sample.channel is Channel.GSR:
            gsr.append(sample.value)
            continue
        gap = detector.step(sample)
        if gap is not None and len(gsr) >= GSR_WINDOW_SIZE:
            mean = sum(gsr[-GSR_WINDOW_SIZE:]) / GSR_WINDOW_SIZE
            expected.append(FeatureFrame(sample.timestamp_ms, 60000.0 / gap, mean))
    assert frames == expected  # gsr_us compared exactly


# Each is also an @example of the property: beats with only 7 GSR samples in,
# then beats after 9, the newest large, so the window's sum depends on its order.
EXTRACTOR_WITNESSES = [
    (0, [(1.0, float(v)) for v in range(7)] + [None] * 30),
    (0, [(1.0, 0.1)] * 8 + [(1.0, 1000.0)] + [None] * 30),
]


@settings(max_examples=200, deadline=None)
@given(INTERLEAVINGS)
@example(EXTRACTOR_WITNESSES[0])
@example(EXTRACTOR_WITNESSES[1])
def test_extractor_frames_average_the_gsr_samples_before_each_beat(interleaving):
    check_extractor_frames_average_the_gsr_samples_before_each_beat(interleaving)


# A clean 6 s session that the property below edits: long enough for beats,
# a warm GSR window and a few 2 s windows.
SESSION = [
    (s.timestamp_ms, s.channel, s.value)
    for s in synth_physio(SignalProfile(bpm_start=80.0, gsr_start_us=17.5), 6_000, seed=5)
]
STREAM_WINDOW = LadderConfig(window_ms=2000.0)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# Gaps are bounded: a frame's timestamp closes every empty window up to it
# in one list, so an unbounded jump would only measure that list's size.
STREAM_EDITS = st.one_of(
    st.tuples(st.just("value"), st.floats()),  # any float: NaN, ±inf and extremes too
    st.tuples(st.just("timestamp"), NON_FINITE | st.floats(-1e6, 0.0)),
    st.tuples(st.just("repeat"), st.just(0.0)),
    st.tuples(st.just("back"), st.floats(0.0, 1e4)),
    st.tuples(st.just("gap"), st.floats(0.0, 1e6)),
)


def edit_session(edits):
    stream = [list(sample) for sample in SESSION]
    for index, (kind, x) in edits:
        sample = stream[index]
        earlier = [s[0] for s in stream[:index] if s[1] is sample[1]]
        if kind == "value":
            sample[2] = x
        elif kind == "timestamp":
            sample[0] = x
        elif kind in ("repeat", "back") and earlier:
            sample[0] = earlier[-1] - x
        elif kind == "gap":
            for later in stream[index:]:
                later[0] += x
    return [PhysioSample(*sample) for sample in stream]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(SESSION) - 1), STREAM_EDITS), max_size=6))
def test_any_sample_stream_is_rejected_with_its_message_or_classified(edits):
    stream = edit_session(edits)
    # Expected outcome: non-finite samples are skipped and counted; the first
    # finite sample not after its channel's previous one stops the stream.
    last, skipped, error = {}, 0, None
    for sample in stream:
        if not (math.isfinite(sample.value) and math.isfinite(sample.timestamp_ms)):
            skipped += 1
        elif sample.channel in last and sample.timestamp_ms <= last[sample.channel]:
            error = f"{sample.channel.value} timestamp {sample.timestamp_ms} not after {last[sample.channel]}"
            break
        else:
            last[sample.channel] = sample.timestamp_ms

    extractor, accumulator = FeatureExtractor(), WindowAccumulator(STREAM_WINDOW)
    frames, windows = 0, []
    try:
        for sample in stream:
            feature = extractor.add(sample)
            if feature is not None:
                frames += 1
                windows += accumulator.add(feature)
    except SampleOrderError as exc:
        assert str(exc) == error
    else:
        assert error is None
        windows += accumulator.flush()
        assert sum(len(w.frames) for w in windows) == frames
    assert extractor.non_finite == skipped
    assert [w.window_index for w in windows] == list(range(len(windows)))
    for window in windows:
        decision = classify_window(window.frames, STREAM_WINDOW, window.window_index)
        if decision is not None:
            assert 1 <= decision.frames_used <= len(window.frames)
            assert decision.arousal in ArousalClass


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(SESSION) - 1), STREAM_EDITS), max_size=6))
def test_iter_decisions_is_its_parts_composed_by_hand(edits):
    stream = edit_session(edits)
    extractor, accumulator = FeatureExtractor(), WindowAccumulator(STREAM_WINDOW)
    windows, error = [], None
    try:
        for sample in stream:
            feature = extractor.add(sample)
            if feature is not None:
                windows += accumulator.add(feature)
        windows += accumulator.flush()
    except SampleOrderError as exc:
        error = str(exc)
    expected = []
    for window in windows:
        decision = classify_window(window.frames, STREAM_WINDOW, window.window_index)
        expected.append(WindowDecision(window.window_index) if decision is None else decision)

    decisions, raised = [], None
    try:
        for decision in iter_decisions(stream, STREAM_WINDOW):
            decisions.append(decision)
    except SampleOrderError as exc:
        raised = str(exc)
    assert (decisions, raised) == (expected, error)
