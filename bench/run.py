"""Run one workload of the biofsm benchmark.

    python3 bench/run.py --workload replay|script|live --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the package is imported from the
checkout's own `src/`, never from an installed copy, and the run fails
without a result when that source is missing. Standard output ends with two
lines: a report (run metadata, every figure by its own name with unit and
sample count, per-module self time when traced) and the result object with
the metrics BENCHMARK.json lists, untraced end-to-end metrics with
`--trace 0` and per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import harness

WORKLOADS = ("replay", "script", "live")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-check")
    args = parser.parse_args(argv)

    if not (harness.SRC / "biofsm" / "__init__.py").is_file():
        print(f"error: no biofsm package source under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    spec = harness.load_spec()

    ctx = harness.RunContext(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    start = harness.now_ns()
    workload = importlib.import_module(args.workload)
    outcome = workload.run(ctx)
    measured_s = (harness.now_ns() - start) / 1e9

    for message in outcome.checks.messages:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    report = {"meta": harness.metadata(ctx, measured_s), "figures": outcome.report}
    if ctx.trace:
        report["self_ms_by_module"] = outcome.tracer.self_ms_by_module()
        spans_path = harness.OUT_DIR / f"spans-{ctx.workload}-{ctx.seed}.jsonl"
        outcome.tracer.write(spans_path)
        report["spans"] = str(spans_path.relative_to(harness.ROOT))
    result = harness.result_line(outcome, ctx.trace, spec, workload.PER_LAYER)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
