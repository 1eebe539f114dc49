"""Run one stochgame benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--detail PATH]

Run from the root of a checkout: the program is imported from ./src.
Set-up (import, fixture loading, seeded game generation, game-file
writing) is done SETUP_REPS times before the timed loop and once more
after every SETUP_EVERY_S seconds of solving, outside the timed phase, so
that the set-ups sample the machine over the whole run; their median is
reported.  The closed loop with one client calls stochgame.cli.main(argv)
with --json, each call starting when the previous one returns, and
repeats whole passes over the workload's games until the pass end
nearest to S seconds of solving.  A calibration probe (calibrate.py) is
timed at the start of every pass and after every PROBE_EVERY_S seconds
of solving, outside the timed phase; each solve time is divided by the
median speed factor of its pass, and set-up times by the run's, so the
metrics read in seconds at the machine's reference speed.  Each game's
time is then the median of its repetitions (stats.typical_times); the
solve-time metrics are order statistics and the rate of those per-game
times.  The raw metrics are written to --detail.  Every output is
checked afterwards, outside the timed region.

With --trace 1 the loop is replaced by one pass, solved once plain and
once with every layer's public functions wrapped in span recorders; the per-layer metrics come from those spans,
which are written to .perfbench/spans/WORKLOAD-sSEED.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --detail writes the make-up, the tail
percentile and sample counts, and the per-solve times to PATH as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import calibrate
import layers
import program
import stats
from spans import Tracer
from workloads import WORKLOADS, GateContext, make_up

SETUP_REPS = 3
SETUP_EVERY_S = 2.0
PROBE_EVERY_S = 0.25
E2E_UNITS = {
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "solves_per_s": "1/s",
    "solved_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def set_up(workload, seed: int, workdir):
    """One full set-up; returns (modules, solves, seconds taken)."""
    start = time.perf_counter()
    mods = program.import_program()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    solves = workload.build(seed, workdir, mods)
    took = time.perf_counter() - start
    gc.collect()  # free the replaced modules now, so repeated set-ups leave peak RSS alone
    return mods, solves, took


def solve_once(mods, solve):
    start = time.perf_counter()
    outcome = program.call_cli(mods["cli"], list(solve.argv))
    return outcome, time.perf_counter() - start


def closed_loop(mods, solves, seconds: float, set_up_again, probe):
    """Repeat the pass `solves` until the pass end nearest to `seconds` of solving.

    Returns (records, factors, elapsed): records (solve, outcome, took,
    pass number), the median of `probe()` over each pass, and the summed
    solve times.  Stopping only between passes solves every game equally
    often whatever the program's speed; a pass that would end further
    past `seconds` than it has to run is not started.  `probe()` is
    called at the start of every pass and after every PROBE_EVERY_S
    seconds of solving, `set_up_again()` after every SETUP_EVERY_S, both
    outside the timed phase.
    """
    records, factors = [], []
    elapsed = 0.0
    next_setup, next_probe = SETUP_EVERY_S, 0.0
    while True:
        pass_start = elapsed
        speeds = []
        for solve in solves:
            if not speeds or elapsed >= next_probe:
                speeds.append(probe())
                next_probe = elapsed + PROBE_EVERY_S
            outcome, took = solve_once(mods, solve)
            records.append((solve, outcome, took, len(factors)))
            elapsed += took
            if elapsed >= next_setup:
                set_up_again()
                next_setup = elapsed + SETUP_EVERY_S
        factors.append(statistics.median(speeds))
        if elapsed + (elapsed - pass_start) / 2 >= seconds:
            return records, factors, elapsed


def gate(workload, records, ctx):
    """Reasons for failure, one per record (None when correct), and payloads."""
    reasons, payloads = [], []
    for solve, outcome, *_ in records:
        reason = workload.check(solve, outcome.code, outcome.stdout, ctx)
        if reason is None:
            payloads.append(json.loads(outcome.stdout))
        else:
            payloads.append(None)
            if outcome.error:
                reason += ": " + outcome.error.strip().splitlines()[-1]
        reasons.append(reason)
    return reasons, payloads


def timing_metrics(samples, setup_times, pct: float) -> dict[str, float]:
    """The timed end-to-end metrics from (game key, solve time) samples."""
    games = list(stats.typical_times(samples).values())
    return {
        "solve_s.p50": statistics.median(games),
        "solve_s.tail": stats.nearest_rank(games, pct),
        "solves_per_s": len(games) / sum(games),
        "setup_s": statistics.median(setup_times),
    }


def e2e_run(workload, mods, solves, seconds, ctx, setup_again, setup_times, detail):
    records, factors, elapsed = closed_loop(
        mods, solves, seconds, lambda: setup_times.append(setup_again()),
        calibrate.speed_factor)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reasons, payloads = gate(workload, records, ctx)
    failed = sum(1 for r in reasons if r is not None)
    n = len(records)
    pct = stats.tail_percentile(len(solves))
    run_factor = statistics.median(factors)
    metrics = timing_metrics([(s.key, took / factors[p]) for s, _, took, p in records],
                             [t / run_factor for t in setup_times], pct)
    metrics.update({"solved_frac": (n - failed) / n, "peak_rss_mb": rss_mb})
    raw = timing_metrics([(s.key, took) for s, _, took, _ in records], setup_times, pct)
    beyond = stats.beyond(len(solves), pct)
    print(f"{n} solves: {len(factors)} passes over {len(solves)} games; each game's time "
          f"is the median of its {len(factors)}; solve_s.tail is p{pct:g} ({beyond} games "
          f"beyond it); machine speed factor {min(factors):.3f}..{max(factors):.3f}")
    detail.update({
        "tail_percentile": pct, "samples": len(solves), "passes": len(factors),
        "beyond_tail": beyond, "speed_factors": factors, "raw_metrics": raw,
        "elapsed_s": elapsed, "loop_solves_per_s": n / elapsed,
        "solve_times_s": [took for _, _, took, _ in records],
        "make_up": make_up([s for s, *_ in records], payloads),
    })
    return {k: metrics[k] for k in E2E_UNITS}, E2E_UNITS, n, failed, reasons


def trace_run(workload, mods, solves, ctx, detail, spans_path):
    """Solve one pass plain, then traced; per-layer metrics from the spans."""
    plain = [(s, *solve_once(mods, s)) for s in solves]
    untraced_s = sum(took for _, _, took in plain)
    tracer = Tracer()
    layers.install(tracer, mods)
    traced = []
    try:
        for i, s in enumerate(solves):
            tracer.solve = i
            start = time.perf_counter()
            outcome = tracer.span("cli", program.call_cli, mods["cli"], list(s.argv))
            traced.append((s, outcome, time.perf_counter() - start))
    finally:
        tracer.uninstall()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_path)
    reasons, payloads = gate(workload, plain + traced, ctx)
    metrics = layers.per_layer_metrics(tracer, untraced_s)
    failed = sum(1 for r in reasons if r is not None)
    detail.update({
        "traced_solves": len(solves), "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(program.ROOT)),
        "make_up": make_up(solves, payloads[len(plain):]),
    })
    print(f"traced pass: {len(solves)} solves, {len(tracer.spans)} spans; "
          f"counts are exact and repeat for the same seed")
    return metrics, dict(layers.PER_LAYER), len(plain + traced), failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", default=None, help="write run details as JSON here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = program.ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    spans_path = program.ROOT / ".perfbench" / "spans" / f"{workload.name}-s{args.seed}.jsonl"
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            mods, solves, took = set_up(workload, args.seed, workdir)
            setup_times.append(took)
        setup_again = lambda: set_up(workload, args.seed, workdir)[2]
        ctx = GateContext()
        detail = {"workload": workload.name, "why": workload.why, "seed": args.seed,
                  "trace": args.trace, "setup_times_s": setup_times}
        if args.trace:
            metrics, units, attempted, failed, reasons = trace_run(
                workload, mods, solves, ctx, detail, spans_path)
        else:
            metrics, units, attempted, failed, reasons = e2e_run(
                workload, mods, solves, args.seconds, ctx, setup_again, setup_times, detail)
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, reason in enumerate(reasons):
        if reason is not None:
            print(f"failed solve {i}: {reason}", file=sys.stderr)
    if args.detail:
        detail["failures"] = [r for r in reasons if r is not None]
        with open(args.detail, "w", encoding="utf-8") as out:
            json.dump(detail, out, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
