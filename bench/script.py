"""`script` workload: the benchtop on the virtual clock.

Why: only `fsm` and `sim` run; no signals, no sockets. The seeded tick
script mixes runs of A/B/C, single garbage bytes, garbage during BROWNOUT
and silent gaps on both sides of the 10-tick budget, so every state is
reached. The timed part is `run_simulation` then `serialize_trace`, plus one
`verify_determinism`; every step is checked against the README oracle.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from collections import Counter

from biofsm.fsm import FsmRuntime, tick, verify_determinism
from biofsm.sim import parse_script, run_simulation, serialize_trace

import oracle
from harness import (
    Calibration, Checks, Outcome, RunContext, Tracer, figure, now_ns, peak_rss_mb, setup_figures, timed_setups,
)

# Short repeats, many of them: the best repeat is reported, and on a shared
# host a short repeat is far likelier to run undisturbed than a long one.
TICKS = 5_000
TINY_TICKS = 3_000
SETUP_REPEATS = 25
STATES = ("NORMAL", "MILD", "HIGH", "INVALID", "BROWNOUT")
PER_LAYER = frozenset({
    "fsm.tick_ns", "sim.run_simulation_self_ns", "sim.serialize_trace_us_per_step", "fsm.verify_determinism_ms",
    "trace_overhead_pct", *(f"fsm.state_ticks.{s}" for s in STATES),
})


def make_tokens(seed: int, length: int) -> list[str]:
    """A seeded tick script as tokens, exactly `length` long."""
    rng = random.Random(f"{seed}/script")
    tokens: list[str] = []
    while len(tokens) < length:
        r = rng.random()
        if r < 0.45:
            tokens += [rng.choice("ABC")] * rng.randint(1, 20)
        elif r < 0.60:
            tokens.append("X")
        elif r < 0.80:
            tokens += ["-"] * rng.randint(1, oracle.BROWNOUT_TICKS - 1)
        else:
            tokens += ["-"] * rng.randint(oracle.BROWNOUT_TICKS, 3 * oracle.BROWNOUT_TICKS)
            if rng.random() < 0.5:
                # Garbage during BROWNOUT, then more silence.
                tokens += ["X"] + ["-"] * rng.randint(1, oracle.BROWNOUT_TICKS + 2)
    return tokens[:length]


def setup(seed: int, length: int):
    tokens = make_tokens(seed, length)
    return tokens, parse_script("\n".join(tokens) + "\n")


def run_once(script, tracer: Tracer):
    start = now_ns()
    with tracer.span("sim.run_simulation"):
        steps = run_simulation(script)
    with tracer.span("sim.serialize_trace"):
        text = serialize_trace(steps)
    with tracer.span("fsm.verify_determinism"):
        report = verify_determinism()
    return now_ns() - start, steps, text, report


def measure(
    tokens, script, until_ns: int, tracer: Tracer, calibration: Calibration, alternate: bool,
    checks: Checks, digests: list[str],
):
    """Repeat the timed part until `until_ns` (at least once); check every repeat.

    With `alternate`, every second repeat is traced, so drift over the run
    falls on traced and untraced repeats alike. Returns (ns, reference
    seconds, traced) per repeat and the last repeat's steps.
    """
    times: list[int] = []
    traced: list[bool] = []
    passes = [calibration.sample()]
    steps = None
    while len(times) < 1 + alternate or now_ns() < until_ns:
        steps = text = None  # free the previous repeat's output first
        tracer.enabled = alternate and len(times) % 2 == 1
        elapsed, steps, text, report = run_once(script, tracer)
        passes.append(calibration.sample())
        times.append(elapsed)
        traced.append(tracer.enabled)
        if tracer.enabled:
            # `tick` alone, right after the repeat, so the two see the same host speed.
            with tracer.span("fsm.tick"):
                runtime = FsmRuntime()
                for symbol in script:
                    runtime, _ = tick(runtime, symbol)
        checks.expect(report.deterministic, "verify_determinism reported conflicts")
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        if len(digests) == 1 or digests[-1] != digests[0]:
            bad, messages = oracle.check_trace(text, tokens)
            checks.expect(bad == 0, "steps disagree with the oracle: " + "; ".join(messages), len(tokens), bad)
        else:
            # Same bytes as the repeat the oracle already passed.
            checks.expect(True, "", len(tokens))
    tracer.enabled = alternate
    return [(ns, ref, on) for ns, ref, on in zip(times, Calibration.bracketed_s(times, passes), traced)], steps


def reference_s(times: list[tuple[int, float, bool]]) -> float:
    """Median repeat in reference seconds."""
    return statistics.median(ref for _, ref, _ in times)


def run(ctx: RunContext) -> Outcome:
    checks = Checks()
    tracer = Tracer(enabled=False)
    length = TINY_TICKS if ctx.tiny else TICKS
    calibration = Calibration()
    (tokens, script), setup_ref, setup_wall = timed_setups(
        lambda: setup(ctx.seed, length), lambda _: None, SETUP_REPEATS, calibration
    )
    digests: list[str] = []
    times, steps = measure(
        tokens, script, now_ns() + int(ctx.seconds * 1e9), tracer, calibration, ctx.trace, checks, digests
    )
    if not ctx.trace:
        throughput = length / reference_s(times)
        rss = peak_rss_mb()
        setup_s, setup_report = setup_figures(setup_ref, setup_wall)
        metrics = {"setup_s": setup_s, "throughput_per_s": throughput, "peak_rss_mb": rss}
        report = {
            **setup_report,
            "ticks_per_ref_s": figure(throughput, "1/ref_s", len(times)),
            "ticks_per_s.best": figure(length / (min(t for t, _, _ in times) / 1e9), "1/s", len(times)),
            "ticks_per_s.median_repeat": figure(
                length / (statistics.median(t for t, _, _ in times) / 1e9), "1/s", len(times)
            ),
            "reference_pass_us.median": calibration.figure(),
            "peak_rss_mb": figure(rss, "MB"),
        }
    else:
        traced = [t for t in times if t[2]]
        untraced = [t for t in times if not t[2]]
        ticks = tracer.durations_ns("fsm.tick")
        simulations = tracer.durations_ns("sim.run_simulation")
        states = Counter(step.state.value for step in steps)
        metrics = {
            "fsm.tick_ns": statistics.median(ticks) / length,
            "sim.run_simulation_self_ns": statistics.median(s - t for s, t in zip(simulations, ticks)) / length,
            "sim.serialize_trace_us_per_step": statistics.median(tracer.durations_ns("sim.serialize_trace"))
            / length / 1e3,
            "fsm.verify_determinism_ms": statistics.median(tracer.durations_ns("fsm.verify_determinism")) / 1e6,
            "trace_overhead_pct": (reference_s(traced) / reference_s(untraced) - 1.0) * 100.0,
        }
        metrics.update({f"fsm.state_ticks.{s}": states.get(s, 0) for s in STATES})
        report = {
            "untraced_iterations": figure(len(untraced), "count"),
            "traced_iterations": figure(len(traced), "count"),
        }
    reached = Counter(oracle.expected_states(tokens))
    checks.expect(all(reached[s] for s in STATES), f"script must reach every state, reached {dict(reached)}")
    report["failed_share"] = figure(checks.failed / max(checks.attempted, 1), "1", checks.attempted)
    report["trace_digest"] = {"value": digests[0], "unit": "sha256"}
    return Outcome(metrics, report, checks, tracer)
