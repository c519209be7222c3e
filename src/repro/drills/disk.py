"""Durability drill (``repro chaos --disk``): kill -9 under disk faults,
fsck, resume — for a checkpointed grid and for an event journal."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import repro
from repro.core import quick_grid, run_grid
from repro.core.storage import (
    _encode_probe,
    append_events_jsonl,
    load_events_jsonl,
    load_probes_jsonl,
    repair_artifact,
    set_fault_injector,
    verify_artifact,
)
from repro.drills.harness import verify_deterministic
from repro.errors import ExperimentError, InjectedFaultError
from repro.faults import DISK_FAULT_PLAN, FaultInjector, fault_counts


def drill_specs(size: str, seed: int):
    return quick_grid(
        sizes=(size,), icl_counts=(1, 2, 3), n_sets=1,
        seeds=(seed,), selections=("random",), n_queries=1,
    )


def _injector(round_seed: int) -> FaultInjector:
    """One round's fault schedule (seed varies per round so a fault
    cannot re-fire at the same offset forever)."""
    return FaultInjector(dataclasses.replace(DISK_FAULT_PLAN, seed=round_seed))


def grid_round(path: str, size: str, seed: int, round_seed: int) -> None:
    """One child-process round of the grid drill: run the checkpointed
    grid with the disk-fault injector installed and hard-exit (the
    SIGKILL stand-in) the moment an injected fault raises out of a
    storage write, printing the fault counters on stdout first."""
    inj = _injector(round_seed)
    set_fault_injector(inj)
    try:
        run_grid(drill_specs(size, seed), workers=1, checkpoint=path,
                 resume=True)
    except (ExperimentError, InjectedFaultError, OSError):
        # ExperimentError here means a bitflip landed in the (CRC-less)
        # header of the checkpoint: the append path refuses it and defers
        # to fsck, which the parent runs between rounds.
        print(json.dumps(fault_counts(inj.registry)), flush=True)
        os._exit(23)  # hard kill: no atexit, no finally, no flush
    print(json.dumps(fault_counts(inj.registry)))


def _spawn_grid_round(path, size: str, seed: int, round_seed: int):
    """Run :func:`grid_round` in a child: ``(finished, fault_counts)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    code = ("from repro.drills.disk import grid_round; grid_round"
            f"({str(path)!r}, {size!r}, {seed!r}, {round_seed!r})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=600)
    if proc.returncode not in (0, 23):
        raise RuntimeError(f"disk-drill child failed unexpectedly "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return proc.returncode == 0, json.loads(proc.stdout.splitlines()[-1])


class Recovery(NamedTuple):
    """A phase's final history (its determinism slice) and the damage
    taken to get there: crashes or failed appends, quarantined records,
    and integrity problems."""

    history: dict
    crashes: int = 0
    quarantined: int = 0
    problems: tuple[str, ...] = ()


def _grid_history(probes, on_disk) -> dict:
    """Bit-exact history identity: the encoded record streams."""
    on_disk = sorted(on_disk, key=lambda p: p.spec.cell_key)
    return {"resume": dict(enumerate(map(_encode_probe, probes))),
            "checkpoint": dict(enumerate(map(_encode_probe, on_disk)))}


def _faulted_grid(specs, path: Path, size, seed, injected) -> Recovery:
    crashes = quarantined = round_no = reroll = 0
    problems, finished = [], False
    while round_no < 60:
        finished, counts = _spawn_grid_round(
            path, size, seed, round_seed=seed * 1000 + round_no + reroll,
        )
        if finished and crashes == 0 and reroll < 8:
            # A drill where no write ever raised proves nothing
            # about kill -9: discard this run and re-roll the seed
            # until the first child actually dies mid-grid.
            path.unlink(missing_ok=True)
            path.with_name(path.name + ".quarantine").unlink(missing_ok=True)
            reroll += 1
            continue
        injected.update(counts)
        if finished:
            break
        crashes += 1
        round_no += 1
        if path.exists():
            quarantined += repair_artifact(path, kind="probes").records_quarantined
            if not verify_artifact(path, kind="probes").clean:
                problems.append("fsck --repair left a dirty checkpoint")
    if not finished:
        problems.append("grid never completed within the round budget")
    # Final fsck (bitflips on the last rounds don't raise) + an
    # unfaulted resume to re-run any cells lost to quarantine.
    quarantined += repair_artifact(path, kind="probes").records_quarantined
    recovered = run_grid(specs, workers=1, checkpoint=path, resume=True)
    return Recovery(_grid_history(recovered, load_probes_jsonl(path)),
                    crashes, quarantined, tuple(problems))


def _faulted_journal(events, jpath: Path, seed, injected) -> Recovery:
    failed_appends = quarantined = pos = 0
    problems = []
    for round_no in range(300):
        if pos >= len(events):
            break
        inj = _injector(seed * 1000 + 777 + round_no)
        try:
            set_fault_injector(inj)
            append_events_jsonl(events[pos:pos + 5], jpath, kind="disk-drill")
            pos += 5
        except (ExperimentError, InjectedFaultError, OSError):
            failed_appends += 1
        finally:
            set_fault_injector(None)
            injected.update(fault_counts(inj.registry))
        # fsck after every round: repair, then trust only what
        # strictly verifies (the journal truncates at damage).
        if jpath.exists():
            quarantined += repair_artifact(jpath, kind="events",
                                           event_kind="disk-drill").records_quarantined
            landed = load_events_jsonl(jpath, kind="disk-drill")
            if list(landed) != events[:len(landed)]:
                problems.append("journal recovered a non-prefix history")
                break
            pos = len(landed)
    final = load_events_jsonl(jpath, kind="disk-drill")
    return Recovery({"events": dict(enumerate(final))}, failed_appends,
                    quarantined, tuple(problems))


def disk_drill(directory, *, size: str, seed: int):
    """Both phases, artifacts under ``directory``: ``(grid report,
    journal report, injected fault counts)``.  Each report's runs are
    the unfaulted :class:`Recovery` and then the faulted one."""
    specs = drill_specs(size, seed)
    injected = Counter()
    events = [{"event": "eval", "step": i, "runtime": i / 7.0} for i in range(30)]

    def unfaulted_grid():
        baseline = run_grid(specs, workers=1)
        return Recovery(_grid_history(baseline, baseline))

    def run(phase):  # each variant is a zero-argument run
        return phase()

    grid = verify_deterministic(run, attrgetter("history"), [
        unfaulted_grid,
        lambda: _faulted_grid(specs, Path(directory, "grid.jsonl"), size,
                              seed, injected),
    ])
    journal = verify_deterministic(run, attrgetter("history"), [
        lambda: Recovery({"events": dict(enumerate(events))}),
        lambda: _faulted_journal(events, Path(directory, "journal.jsonl"),
                                 seed, injected),
    ])
    return grid, journal, injected
