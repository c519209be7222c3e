"""Import cost of each process entry point, as a Markdown table.

Each entry point is imported in a fresh interpreter, which reports the
import's wall seconds, its peak RSS and the number of modules loaded
(CI appends the table to the job summary; the number gates nothing, the
hard check is tests/test_import_footprint.py):

    python .github/scripts/import_footprint.py >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import json
import subprocess
import sys

#: The library, a shard worker, a pooled grid worker, the load
#: generator and the CLI.
ENTRY_POINTS = (
    "repro",
    "repro.serve.shard",
    "repro.core.runner",
    "repro.loadgen",
    "repro.cli",
)

PROBE = """
import json, resource, sys, time
start = time.perf_counter()
import {module}
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{
    "seconds": seconds,
    "rss_mb": peak / (2**20 if sys.platform == "darwin" else 1024),
    "modules": len(sys.modules),
    "scipy": any(m.split(".")[0] == "scipy" for m in sys.modules),
}}))
"""


def main() -> None:
    print("| entry point | import s | peak RSS MB | modules | scipy |")
    print("|---|---:|---:|---:|---|")
    for module in ENTRY_POINTS:
        out = subprocess.run(
            [sys.executable, "-c", PROBE.format(module=module)],
            capture_output=True, text=True, check=True,
        ).stdout
        row = json.loads(out.strip().splitlines()[-1])
        print(
            f"| `{module}` | {row['seconds']:.3f} | {row['rss_mb']:.1f} "
            f"| {row['modules']} | {'yes' if row['scipy'] else 'no'} |"
        )


if __name__ == "__main__":
    main()
