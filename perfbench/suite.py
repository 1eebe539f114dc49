"""Run every workload over several seeds, print every metric, compare result sets.

    python3 perfbench/suite.py run --out DIR [--seeds 1-10] [--trace-seeds 1]
    python3 perfbench/suite.py report DIR
    python3 perfbench/suite.py compare BASE_DIR CHANGE_DIR

`run` starts one run.py process per (workload, seed, trace), for every
workload in BENCHMARK.json, and stores its result and detail JSON in DIR,
with the machine, core count and Python version in DIR/meta.json; it
exits with 1 if any solve failed.  `report` prints, for every workload, each
metric's median, quartiles, spread ((Q3 - Q1) / median), run count and
solves per run.  `compare` classifies each (end-to-end metric, workload)
pair by the rule in stats.verdict, under the bounds in BENCHMARK.json;
runs of the two sets are paired by seed.  A failed solve anywhere in the
change set's runs of a workload makes every pair of that workload worse,
whatever the bounds say; `compare` exits with 1 if any pair is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import program
import stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": model or platform.processor(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def cmd_run(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seconds = SPEC["run_seconds"]
    (out / "meta.json").write_text(json.dumps(dict(_machine(), run_seconds=seconds), indent=1))
    names = [w["name"] for w in SPEC["workloads"]]
    # seed-major order, so a slow spell of the machine falls on every workload
    jobs = [(w, s, 0) for s in _seeds(args.seeds) for w in names]
    jobs += [(w, s, 1) for s in _seeds(args.trace_seeds) for w in names] if args.trace_seeds else []
    failed_runs = []
    for workload, seed, trace in jobs:
        stem = out / f"{workload}-s{seed}-t{trace}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--detail", f"{stem}.detail.json"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=program.ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        Path(f"{stem}.result.json").write_text(lines[-1] + "\n")
        print(f"{workload} seed {seed} trace {trace}: process {wall:.1f}s, "
              f"{lines[-1][:120]}", flush=True)
        if json.loads(lines[-1])["failed"]:
            failed_runs.append(f"{workload} seed {seed} trace {trace}")
            print(f"FAILED SOLVES in {failed_runs[-1]}:\n{proc.stderr}", flush=True)
    cmd_report(argparse.Namespace(dir=str(out)))
    if failed_runs:
        print(f"\nruns with failed solves: {', '.join(failed_runs)}")
        return 1
    return 0


def load(directory: str) -> dict:
    """{(workload, trace): {seed: (result, detail)}}"""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.result.json")):
        stem = path.name[: -len(".result.json")]
        workload, seed, trace = stem.rsplit("-", 2)
        detail_path = path.with_name(f"{stem}.detail.json")
        detail = json.loads(detail_path.read_text()) if detail_path.exists() else {}
        runs.setdefault((workload, int(trace[1:])), {})[int(seed[1:])] = (
            json.loads(path.read_text()), detail)
    return runs


def cmd_report(args) -> int:
    runs = load(args.dir)
    meta = Path(args.dir, "meta.json")
    if meta.exists():
        print("machine:", meta.read_text().replace("\n", " "))
    for (workload, trace), by_seed in sorted(runs.items()):
        results = [r for r, _ in by_seed.values()]
        solves = [r["attempted"] for r in results]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n== {workload} ({'traced' if trace else 'untraced'}): {len(results)} runs, "
              f"solves per run {min(solves)}..{max(solves)}, failed {failed}/{attempted}")
        passes = [d["passes"] for _, d in by_seed.values() if "passes" in d]
        if passes:
            games = {d["samples"] for _, d in by_seed.values() if "samples" in d}
            pcts = {d["tail_percentile"] for _, d in by_seed.values() if "tail_percentile" in d}
            print(f"   median of {min(passes)}..{max(passes)} passes per game over "
                  f"{'/'.join(map(str, sorted(games)))} games; "
                  f"solve_s.tail is p{'/'.join(f'{p:g}' for p in sorted(pcts))}")
        print(f"   {'metric':36s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = f"{(q3 - q1) / med:7.3f}" if med else "      -"
            print(f"   {name:36s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread}")
        if trace:
            shares = {
                name[: -len(".self_s")]: statistics.median(
                    r["metrics"][name]["value"] / r["metrics"]["trace.solve_s"]["value"]
                    for r in results)
                for name in results[0]["metrics"] if name.endswith(".self_s")
            }
            top = sorted(shares.items(), key=lambda kv: -kv[1])
            print("   self-time share of the traced solve time (median over runs): "
                  + ", ".join(f"{k} {v:.1%}" for k, v in top if v >= 0.005))
    return 0


def cmd_compare(args) -> int:
    base, change = load(args.base), load(args.change)
    print(f"{'workload':16s} {'metric':16s} {'base':>12s} {'change':>12s} {'worse_by':>8s} "
          f"{'bound':>6s}  verdict")
    any_worse = False
    for workload in [w["name"] for w in SPEC["workloads"]]:
        a, b = base.get((workload, 0), {}), change.get((workload, 0), {})
        if len(a) < 2 or len(b) < 2:
            print(f"{workload:16s} needs at least two untraced runs on each side")
            continue
        failed = sum(r["failed"] for r, _ in b.values())
        attempted = sum(r["attempted"] for r, _ in b.values())
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            va = {s: r["metrics"][name]["value"] for s, (r, _) in a.items()}
            vb = {s: r["metrics"][name]["value"] for s, (r, _) in b.items()}
            pairs = [(va[s], vb[s]) for s in sorted(va.keys() & vb.keys())]
            ma, mb = statistics.median(va.values()), statistics.median(vb.values())
            verdict = stats.verdict(list(va.values()), list(vb.values()), metric["better"],
                                    metric["bound"], pairs)
            if name == "solve_s.tail":
                pa = {d.get("tail_percentile") for _, d in a.values()}
                pb = {d.get("tail_percentile") for _, d in b.values()}
                if pa != pb:
                    verdict = "unresolved (tail percentiles differ)"
            if failed:
                verdict = f"worse ({failed} of {attempted} solves failed)"
            any_worse = any_worse or verdict.startswith("worse")
            print(f"{workload:16s} {name:16s} {ma:12.6g} {mb:12.6g} "
                  f"{stats.worse_by(ma, mb, metric['better']):8.3f} {metric['bound']:6.2g}  {verdict}")
    return 1 if any_worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seeds", default="")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("report")
    p.add_argument("dir")
    p.set_defaults(func=cmd_report)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("change")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
