"""Independent model of the benchtop machine, written from the README alone.

It knows the five-row state table and the ten-silent-tick rule and nothing
of the package, so a trace that agrees with it step for step is correct by
the specification, not merely self-consistent.
"""

from __future__ import annotations

import io
import json

# README table: state -> (LED color, tone).
TABLE = {
    "NORMAL": ((0, 255, 0), "TONE1"),
    "MILD": ((255, 165, 0), "TONE2"),
    "HIGH": ((255, 0, 0), "TONE3"),
    "INVALID": ((255, 255, 255), "SILENT"),
    "BROWNOUT": ((255, 0, 255), "SILENT"),
}
VALID = {"A": "NORMAL", "B": "MILD", "C": "HIGH"}
SILENT = "-"
BROWNOUT_TICKS = 10


def step(state: str, silence: int, token: str) -> tuple[str, int]:
    """One tick of the model: (state, silent ticks so far) after `token`."""
    if token == SILENT:
        silence = min(silence + 1, BROWNOUT_TICKS)
        return ("BROWNOUT" if silence >= BROWNOUT_TICKS else state), silence
    if token in VALID:
        return VALID[token], 0
    # Garbage proves the link is alive but lifts no brownout.
    return ("BROWNOUT" if state == "BROWNOUT" else "INVALID"), 0


def expected_states(inputs: list[str], initial: str = "NORMAL") -> list[str]:
    """State after each tick for a sequence of input tokens (A/B/C/X/-)."""
    state, silence = initial, 0
    states = []
    for token in inputs:
        state, silence = step(state, silence, token)
        states.append(state)
    return states


def check_trace(text: str, inputs: list[str] | None = None) -> tuple[int, list[str]]:
    """Compare a serialized per-tick trace with the model, one line at a time.

    With `inputs` the trace must also have consumed exactly those tokens;
    without, the trace's own `input` column drives the model (a live run,
    where the wire decides what each tick saw). Returns the number of steps
    that disagree and a few example messages. Streams, so checking a long
    trace adds little to the run's peak memory.
    """
    bad = 0
    messages: list[str] = []
    state, silence = "NORMAL", 0
    index = -1
    for index, line in enumerate(io.StringIO(text)):
        record = json.loads(line)
        if inputs is None:
            token = record["input"]
        elif index < len(inputs):
            token = inputs[index]
        else:
            bad += 1  # a step beyond the script
            continue
        state, silence = step(state, silence, token)
        color, tone = TABLE[state]
        expected = {"tick": index, "input": token, "state": state, "color": list(color), "tone": tone}
        if record != expected:
            bad += 1
            if len(messages) < 5:
                messages.append(f"step {index}: got {record}, expected {expected}")
    steps = index + 1
    if inputs is not None and steps != len(inputs):
        bad += max(0, len(inputs) - steps)
        messages.append(f"trace has {steps} steps, expected {len(inputs)}")
    return bad, messages
