"""Mutants: plausible slips, each patched in and caught by a check an ordinary test runs too.

A mutant is one exact edit of a function's own source: a snippet that occurs
once in it, replaced, and the function recompiled. Each test runs its check on
the real code, where it passes, then patches the mutant in and shows the same
check failing. The check is the plain function that the ordinary test named
beside it calls, so that test catches the slip.
"""

import __future__
import inspect
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

from biofsm import fsm, signals, sim
from biofsm.classifier import FeatureExtractor
from biofsm.fsm import BenchState, verify_determinism
from biofsm.protocol import UdpSender
from biofsm.signals import BeatDetector, Channel
from test_classifier import (
    EXTRACTOR_WITNESSES,
    check_a_repeated_timestamp_is_refused,
    check_extractor_frames_average_the_gsr_samples_before_each_beat,
)
from test_fsm import check_brownout_fires_on_the_tenth_silent_tick
from test_protocol import check_send_symbol_round_trips
from test_signals import LOADER_WITNESSES, check_the_loader_agrees_with_the_reference_loop
from test_sim import WITNESSES, check_parse_script_agrees_with_its_reference

GOLDEN_TRANSITIONS = (Path(__file__).resolve().parent / "golden" / "transitions.txt").read_text()


def edited(function, old, new, **names):
    """`function` recompiled from its own source with the one occurrence of `old` replaced by `new`.

    It runs in a copy of its module's globals, plus `names`.
    """
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    code = compile(source.replace(old, new), inspect.getsourcefile(function), "exec",
                   __future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {**function.__globals__, **names}
    exec(code, namespace)
    return namespace[function.__name__]


def test_a_tick_that_forgets_the_plus_one_fails_the_brownout_check(monkeypatch):
    # Caught by test_fsm.py::test_brownout_fires_on_the_tenth_silent_tick.
    check_brownout_fires_on_the_tenth_silent_tick(BenchState.NORMAL)
    monkeypatch.setattr(fsm, "tick", edited(fsm.tick, "runtime.silence_ticks + 1,", "runtime.silence_ticks,"))
    with pytest.raises(AssertionError):
        check_brownout_fires_on_the_tenth_silent_tick(BenchState.NORMAL)
    # The proof alone is blind to it: only the unreachable (state, silence b)
    # configurations brown out, and they fill in the golden table.
    assert verify_determinism().render() + "\n" == GOLDEN_TRANSITIONS


PARSE_SCRIPT_MUTANTS = {  # snippet -> the slip
    "parse_naming_any_bad_line": ("next(filter(bad.__contains__, lines))", "next(iter(bad))"),
    "parse_dropping_padded_tokens": (
        "if line in _TOKENS:\n            table[raw] = _TOKENS[line]\n        elif line and",
        "if raw in _TOKENS:\n            table[raw] = _TOKENS[raw]\n        elif line not in _TOKENS and line and",
    ),
    "parse_testing_the_last_character": ('line[0] != "#"', 'line[-1] != "#"'),
    "parse_skipping_the_first_line": ("for raw in set(lines):", "for raw in set(lines[1:]):"),
}


@pytest.mark.parametrize("old, new", PARSE_SCRIPT_MUTANTS.values(), ids=PARSE_SCRIPT_MUTANTS)
def test_a_parse_script_mutant_disagrees_with_the_reference(old, new, monkeypatch):
    # Caught by test_sim.py::test_parse_script_agrees_with_its_reference, whose examples are the witnesses.
    for text in WITNESSES:
        check_parse_script_agrees_with_its_reference(text)
    monkeypatch.setattr(sim, "parse_script", edited(sim.parse_script, old, new))
    with pytest.raises(AssertionError):
        for text in WITNESSES:
            check_parse_script_agrees_with_its_reference(text)


def test_a_send_symbol_that_sends_absent_fails_the_round_trip(monkeypatch):
    # Caught by test_protocol.py::test_decode_round_trip.
    check_send_symbol_round_trips()
    # The slip: ABSENT goes out as b"-".
    mutant = edited(UdpSender.send_symbol, "symbol is not InputSymbol.ABSENT and self.send_raw(", "self.send_raw(")
    monkeypatch.setattr(UdpSender, "send_symbol", mutant)
    with pytest.raises(AssertionError):
        check_send_symbol_round_trips()


EXTRACTOR_MUTANTS = {  # method, snippet -> the slip
    "warm-up-one-short": ("add", "len(self.gsr_window) < GSR_WINDOW_SIZE", "len(self.gsr_window) < GSR_WINDOW_SIZE - 1"),
    "nine-sample-window": ("__init__", "deque(maxlen=GSR_WINDOW_SIZE)", "deque(maxlen=GSR_WINDOW_SIZE + 1)"),
    "reordered-sum": ("add", "sum(self.gsr_window)", "sum(reversed(self.gsr_window))"),
}


@pytest.mark.parametrize("method, old, new", EXTRACTOR_MUTANTS.values(), ids=EXTRACTOR_MUTANTS)
def test_an_extractor_mutant_misaverages_the_gsr_window(method, old, new, monkeypatch):
    # Caught by test_classifier.py::test_extractor_frames_average_the_gsr_samples_before_each_beat,
    # whose examples are the witnesses.
    for interleaving in EXTRACTOR_WITNESSES:
        check_extractor_frames_average_the_gsr_samples_before_each_beat(interleaving)
    monkeypatch.setattr(FeatureExtractor, method, edited(getattr(FeatureExtractor, method), old, new))
    with pytest.raises(AssertionError):
        for interleaving in EXTRACTOR_WITNESSES:
            check_extractor_frames_average_the_gsr_samples_before_each_beat(interleaving)


ORDER_MUTANTS = {  # channel, class, method, snippet -> the slip
    "detector-accepts-a-repeat": (
        Channel.PPG, BeatDetector, "step", "not timestamp > last_timestamp", "not timestamp >= last_timestamp"
    ),
    "extractor-accepts-a-repeat": (
        Channel.GSR, FeatureExtractor, "add", "sample.timestamp_ms <= last", "sample.timestamp_ms < last"
    ),
}


@pytest.mark.parametrize("channel, cls, method, old, new", ORDER_MUTANTS.values(), ids=ORDER_MUTANTS)
def test_an_order_mutant_accepts_a_repeated_timestamp(channel, cls, method, old, new, monkeypatch):
    # Caught by test_classifier.py::test_a_repeated_timestamp_is_refused.
    check_a_repeated_timestamp_is_refused(channel)
    monkeypatch.setattr(cls, method, edited(getattr(cls, method), old, new))
    with pytest.raises(AssertionError):
        check_a_repeated_timestamp_is_refused(channel)


LOADER_MUTANTS = {  # snippet -> the slip
    "zero-timestamp-rejected": ("0.0 <= timestamp < inf", "0.0 < timestamp < inf"),
    "zero-order-floor": ("dict.fromkeys(Channel, -1.0)", "dict.fromkeys(Channel, 0.0)"),
    "no-negative-timestamp-branch": (
        "                    if math.isfinite(timestamp) and math.isfinite(value):\n"
        "                        raise SampleOrderError(f\"{path}: line {reader.line_num}: negative timestamp\")\n",
        "",
    ),
    "blank-rows-counted": ("                    if not row:\n                        continue\n", ""),
    "enumerated-line-numbers": (
        "for row in reader:\n",
        "for line, row in enumerate(reader, 2):\n                reader = SimpleNamespace(line_num=line)\n",
    ),
    "order-test-strict": ("if timestamp <= last_seen[channel]:", "if timestamp < last_seen[channel]:"),
}


@pytest.mark.parametrize("old, new", LOADER_MUTANTS.values(), ids=LOADER_MUTANTS)
def test_a_load_trace_mutant_disagrees_with_the_reference_loop(old, new, monkeypatch, tmp_path):
    # Caught by test_signals.py::test_the_loader_agrees_with_the_reference_loop, whose examples are the witnesses.
    path = tmp_path / "witness.csv"
    for text in LOADER_WITNESSES:
        check_the_loader_agrees_with_the_reference_loop(path, text)
    monkeypatch.setattr(signals, "load_trace", edited(signals.load_trace, old, new, SimpleNamespace=SimpleNamespace))
    with pytest.raises(AssertionError):
        for text in LOADER_WITNESSES:
            check_the_loader_agrees_with_the_reference_loop(path, text)
