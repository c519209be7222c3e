"""Record the input and output digests each run is checked against.

Usage (from the repository root)::

    python3 perfbench/record.py --seeds 0-29

For every workload and seed it stores, in ``perfbench/expected_outputs.json``:

* ``inputs`` — the digest of the generated inputs (grid cell keys and
  root seed; arrival schedule and request content);
* ``outputs`` — the digest of the outputs of the workload's digest set
  (the first pass of the grid, the first requests of a serve workload),
  computed on the cold reference path, not through the code being
  measured.

``run.py`` fails a run whose inputs differ from the recorded digest and
counts an output digest mismatch as a failed operation.  Re-record only
when a change is meant to alter the outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    from run import _workload

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-29")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    path = HERE / "expected_outputs.json"
    recorded = json.loads(path.read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            wl = _workload(workload, seed, False, args.seconds)
            recorded.setdefault(workload, {})[str(seed)] = {
                "seconds": args.seconds,
                "inputs": wl.input_digest(),
                "outputs": wl.reference_digest(),
            }
            print(workload, seed, recorded[workload][str(seed)], flush=True)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
