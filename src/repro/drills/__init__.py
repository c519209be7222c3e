"""repro.drills — the ``repro chaos`` / ``repro loadtest`` drills as a
library (keyword parameters in, structured results out; the CLI only
parses and renders).  Every "run it again and compare" check is
:func:`verify_deterministic`, with each drill's slice next to its code.
Not imported by :mod:`repro` itself."""

from repro.drills.disk import disk_drill
from repro.drills.harness import DeterminismReport, verify_deterministic
from repro.drills.service import (
    ChaosRun, SessionsChaosRun, build_sessions, loadtest_drill,
    repeated_workload, run_loadtest, run_service_chaos, run_sessions_chaos,
    service_chaos_drill, sessions_chaos_drill,
)
