"""Steadiness report: run each workload repeatedly and print quartiles.

Usage (from the repository root)::

    python3 perfbench/report.py --runs 10 --seed-base 100
    python3 perfbench/report.py --workload serve_hot --runs 5 --traced 1

Each run is a fresh ``perfbench/run.py`` process with its own seed
(``seed-base``, ``seed-base + 1``, ...).  For every end-to-end metric the
report prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` next to the metric's bound from BENCHMARK.json; a
spread must stay below a third of its bound (``setup_s`` is exempt).
With ``--traced N`` it also makes N traced runs per workload and reports
the tracing overhead: the traced ``trace.latency_p50_ms`` against the
untraced ``latency_p50_ms`` median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args(argv)

    steady = True
    summary: dict = {}
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            result = run_once(workload, args.seed_base + i, args.seconds, 0)
            results.append(result)
            print(f"{workload} seed {args.seed_base + i}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            summary[workload][metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                                 "spread": spread, "values": values}
            print(f"  {metric['name']:<18}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>8.1%}{metric['bound']:>7}{'' if ok else '  TOO NOISY'}")
        if args.traced:
            traced = [run_once(workload, args.seed_base + i, args.seconds, 1)
                      for i in range(args.traced)]
            p50 = statistics.median(
                r["metrics"]["trace.latency_p50_ms"]["value"] for r in traced)
            base = summary[workload]["latency_p50_ms"]["median"]
            print(f"  tracing overhead: traced latency p50 {p50:.4f} ms vs untraced "
                  f"{base:.4f} ms ({p50 / base - 1:+.1%})")
        failed = sum(r["failed"] for r in results)
        if failed or not all(r["correct"] for r in results):
            steady = False
            print(f"  {failed} failed operations; correct on {sum(r['correct'] for r in results)}"
                  f"/{len(results)} runs")
    out = ROOT / ".perfbench_out" / "report.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"\n{'steady' if steady else 'NOT steady'}; values in {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
