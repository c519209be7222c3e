"""Run one perfbench workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that prints the per-layer metrics and the stage
table.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record (host, sample counts, digests, notes) is written to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import OUT_DIR, host_info, now, peak_rss_mb, percentile_ms  # noqa: E402

#: Set-ups per run for ``setup_s``: this process plus fresh children.
N_SETUPS = 3


def _workload(name: str, seed: int, trace: bool, seconds: float):
    if name == "grid_sweep":
        from grid_sweep import GridSweep

        return GridSweep(seed, trace)
    from serve import ServeHot, TuneClosed

    return {"serve_hot": ServeHot, "tune_closed": TuneClosed}[name](seed, trace, seconds)


def _child_setup_s(args) -> float:
    # A session of its own, so a child that overruns is killed together
    # with any process it started.
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, out, err)
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def _stop_mp_helpers() -> None:
    """Stop the forkserver and resource tracker and wait for both to exit.

    The shard workers of ``tune_closed`` start through a forkserver,
    which multiprocessing also pairs with a resource tracker.  Both are
    left to notice the parent's exit on their own, so without this they
    outlive the run for a moment and the last children they forked can
    linger unreaped.
    """
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def _expected(workload: str, seed: int, seconds: float) -> dict | None:
    recorded = json.loads((HERE / "expected_outputs.json").read_text())
    entry = recorded.get(workload, {}).get(str(seed))
    if entry is None or entry["seconds"] != seconds:
        return None
    return entry


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = now()
    import repro  # noqa: F401

    import_s = now() - start
    trace = bool(args.trace)
    wl = _workload(args.workload, args.seed, trace, args.seconds)
    try:
        return _run(args, spec, wl, import_s)
    finally:
        wl.close()


def _run(args, spec: dict, wl, import_s: float) -> int:
    trace = bool(args.trace)
    inputs = wl.input_digest()
    wl.setup()
    setup_s = now() - T0
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl.measure(args.seconds)
    # Before the check, whose cold reference stack is the benchmark's.
    rss = peak_rss_mb() + wl.children_rss_mb
    attempted, failed, outputs = wl.check()

    notes: list[str] = []
    valid = True
    if hasattr(wl, "lateness"):
        late_p50, late_p99, valid = wl.lateness()
        notes.append(f"send clock: late p50 = {late_p50:.4f} ms, p99 = {late_p99:.4f} ms"
                     + ("" if valid else "  INVALID: the generator fell behind"))
    expected = _expected(args.workload, args.seed, args.seconds)
    inputs_ok = expected is None or expected["inputs"] == inputs
    if expected is not None and expected["outputs"] != outputs:
        failed += 1
        notes.append("output digest differs from the recorded one")
    notes.append(
        f"input digest {inputs} ({'recorded' if expected else 'not recorded'}"
        f"{'' if inputs_ok else ', DIFFERS from the recorded one'}); "
        f"output digest {outputs}"
    )

    if trace:
        # A layer the workload does not exercise reports 0.
        metrics = {m["name"]: (0.0, m["unit"]) for m in spec["per_layer"]}
        metrics.update(wl.per_layer())
        _, residual, measured = wl.log.stage_table()
        roots_p50 = percentile_ms([r.ms / 1e3 for r in wl.log.roots()], 50).value_ms
        serve_spans = sum(1 for s in wl.log.spans if s.name.startswith("serve."))
        metrics.update({
            "setup.import_s": (import_s, "s"),
            "setup.shard_spawn_s": (wl.setup_phases.get("setup.shard_spawn_s", 0.0), "s"),
            "setup.warmup_s": (wl.setup_phases["setup.warmup_s"], "s"),
            "unattributed_ms": (residual, "ms"),
            "trace.root_ms": (measured, "ms"),
            "trace.latency_p50_ms": (roots_p50, "ms"),
            "trace.serve_spans": (float(serve_spans), "count"),
        })
        notes += wl.log.render_table(wl.unit)
        notes.append(f"serving-layer spans: {serve_spans}")
        OUT_DIR.mkdir(exist_ok=True)
        wl.log.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        wl.close()
        wanted = spec["per_layer"]
    else:
        metrics, e2e_notes = wl.end_to_end()
        notes += e2e_notes
        wl.close()
        setups = [setup_s] + [_child_setup_s(args) for _ in range(N_SETUPS - 1)]
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (rss, "MB")
        notes.append("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        wanted = spec["end_to_end"]

    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        print(f"perfbench: metric set {sorted(metrics)} != BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1
    host = host_info()
    for line in notes:
        print(line)
    print(f"host: {json.dumps(host)}")
    correct = failed == 0 and inputs_ok and valid
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(metrics[n][0]), "unit": metrics[n][1]} for n in names},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=host, inputs=inputs, outputs=outputs, notes=notes)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_mp_helpers()
    sys.exit(code)
