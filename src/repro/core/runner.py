"""Experiment execution: probes, per-process caching, parallel fan-out.

Each :class:`ExperimentSpec` expands into ``n_queries`` *probes* (one
prediction each).  Heavy, immutable state — datasets, tokenizer, surrogate
LM — is cached per process so the multiprocessing fan-out only ships specs
and results (chunky tasks, small payloads, per the HPC guides).
"""

from __future__ import annotations

import logging
from contextlib import closing
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.decoding import StepCandidates
from repro.core.grid import ExperimentSpec
from repro.core.surrogate import DiscriminativeSurrogate
from repro.dataset.generate import PerformanceDataset, generate_dataset
from repro.dataset.splits import curated_neighborhood, disjoint_example_sets
from repro.dataset.syr2k import Syr2kTask
from repro.errors import ExperimentError
from repro.obs import get_tracer
from repro.utils.parallel import parallel_map
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve -> core)
    from repro.serve.service import ServiceBase

logger = logging.getLogger("repro.runner")

__all__ = ["ProbeResult", "run_spec", "run_grid"]

#: Cap on disjoint-set material: the largest grid draws 5 sets of 100.
_MAX_SETS = 8


@dataclass
class ProbeResult:
    """One prediction probe: everything the analyses need, no more.

    The value-region candidates are retained (they feed Table II, Figures
    3-4 and the haystack analysis); full prompts are not (only their
    length), keeping result payloads small enough to ship across processes.
    """

    spec: ExperimentSpec
    query_index: int
    truth: float
    predicted: float | None
    predicted_text: str
    generated_text: str
    exact_copy: bool
    icl_value_strings: list[str]
    value_steps: list[StepCandidates]
    n_prompt_tokens: int

    @property
    def parsed(self) -> bool:
        return self.predicted is not None

    @property
    def relative_error(self) -> float:
        """Relative error of the sampled prediction (inf when unparsed)."""
        if self.predicted is None:
            return float("inf")
        return abs(self.predicted - self.truth) / abs(self.truth)


@lru_cache(maxsize=8)
def _dataset(size: str, root_seed: int) -> PerformanceDataset:
    return generate_dataset(size, seed=root_seed)


@lru_cache(maxsize=8)
def _surrogate(size: str, prefix_cache: bool = True) -> DiscriminativeSurrogate:
    return DiscriminativeSurrogate(Syr2kTask(size), prefix_cache=prefix_cache)


def _probes_for(
    spec: ExperimentSpec, dataset: PerformanceDataset
) -> list[tuple[np.ndarray, int]]:
    """Expand a spec into ``(icl_rows, query_row)`` probes."""
    if spec.selection == "random":
        n_sets = max(_MAX_SETS, spec.set_id + 1)
        sets, queries = disjoint_example_sets(
            dataset,
            n_sets=n_sets,
            set_size=spec.n_icl,
            seed=derive_seed(spec.root_seed, "sets", spec.size, spec.n_icl),
            n_queries=spec.n_queries,
        )
        return [(sets[spec.set_id], int(q)) for q in queries]
    # Curated: each query gets its own minimal-edit-distance neighbourhood.
    probes = []
    for q in range(spec.n_queries):
        rows, query_row = curated_neighborhood(
            dataset,
            set_size=spec.n_icl,
            seed=derive_seed(
                spec.root_seed, "curated", spec.size, spec.n_icl,
                spec.set_id, q,
            ),
        )
        probes.append((rows, int(query_row)))
    return probes


@lru_cache(maxsize=1)
def _cell_inputs(cell: ExperimentSpec) -> tuple[tuple[tuple, int], ...]:
    """A cell's seed-independent probe inputs: ``(examples, query_row)``.

    Keyed on the spec with its sampling seed zeroed and kept for the
    last cell only: ``paper_grid`` lists a cell's seed siblings next to
    each other, and they differ in their generation seeds alone.  The
    siblings share these objects, so they are tuples, read-only.
    """
    dataset = _dataset(cell.size, cell.root_seed)
    return tuple(
        (
            tuple(
                (dataset.config(int(r)), float(dataset.runtimes[int(r)]))
                for r in icl_rows
            ),
            query_row,
        )
        for icl_rows, query_row in _probes_for(cell, dataset)
    )


def _probe_inputs(spec: ExperimentSpec):
    """Materialize per-probe inputs: (examples, query_row, gen_seed)."""
    # cell_key already includes spec.seed, so sampling streams differ
    # across seeds while everything else about the probe is shared.
    return [
        (
            examples,
            query_row,
            derive_seed(spec.root_seed, "generation", *spec.cell_key, probe_id),
        )
        for probe_id, (examples, query_row) in enumerate(
            _cell_inputs(replace(spec, seed=0))
        )
    ]


def _probe_result(spec, dataset, query_row, pred) -> ProbeResult:
    return ProbeResult(
        spec=spec,
        query_index=int(dataset.indices[query_row]),
        truth=float(dataset.runtimes[query_row]),
        predicted=pred.value,
        predicted_text=pred.value_text,
        generated_text=pred.generated_text,
        exact_copy=pred.exact_copy,
        icl_value_strings=pred.icl_value_strings,
        value_steps=pred.value_steps,
        n_prompt_tokens=pred.n_prompt_tokens,
    )


def run_spec(
    spec: ExperimentSpec, service: ServiceBase | None = None,
    fault_plan=None, prefix_cache: bool = True,
) -> list[ProbeResult]:
    """Execute all probes of one experiment cell.

    With ``service=None`` probes run serially against the per-process
    surrogate cache.  Given a service backend, the probes are submitted
    as a bulk request batch instead — the service's microbatcher and
    caches then handle scheduling and reuse.  Both paths
    are bit-identical for the default stack (the engine's determinism
    contract), so analyses cannot tell them apart.

    ``prefix_cache`` toggles prepared-prefix reuse on the serial path's
    surrogate (all probes of a cell share their ICL prefix, so prompts
    only pay for the query delta); results are bit-identical either way.
    It does not affect an explicitly passed ``service`` (configure that
    through ``PredictionService(enable_prefix_cache=...)``).

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) is the grid-level
    fault hook: a cell it selects (keyed on ``spec.cell_key``) raises
    :class:`~repro.errors.InjectedFaultError` before running any probes,
    which is how the checkpoint/resume tests simulate deterministic
    mid-grid crashes.
    """
    if fault_plan is not None and fault_plan.cell_fault(spec.cell_key):
        from repro.errors import InjectedFaultError

        raise InjectedFaultError("run_spec", spec.cell_key)
    with get_tracer().span(
        "runner.run_spec",
        size=spec.size,
        n_icl=spec.n_icl,
        set_id=spec.set_id,
        n_queries=spec.n_queries,
        via_service=service is not None,
        prefix_cache=bool(prefix_cache),
    ):
        dataset = _dataset(spec.size, spec.root_seed)
        inputs = _probe_inputs(spec)
        if service is not None:
            from repro.serve.request import Request

            responses = service.submit_many(
                Request(
                    examples=examples,
                    query_config=dataset.config(query_row),
                    seed=gen_seed,
                    size=spec.size,
                )
                for examples, query_row, gen_seed in inputs
            )
            return [
                _probe_result(spec, dataset, query_row, resp.prediction)
                for (_, query_row, _), resp in zip(inputs, responses)
            ]
        surrogate = _surrogate(spec.size, bool(prefix_cache))
        results: list[ProbeResult] = []
        for examples, query_row, gen_seed in inputs:
            pred = surrogate.predict(
                examples, dataset.config(query_row), seed=gen_seed
            )
            results.append(_probe_result(spec, dataset, query_row, pred))
        return results


def run_grid(
    specs: list[ExperimentSpec],
    workers: int | None = None,
    service: ServiceBase | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    fault_plan=None,
    prefix_cache: bool = True,
) -> list[ProbeResult]:
    """Execute a grid of experiments, optionally across processes.

    Results are returned flattened, in spec order (deterministic
    regardless of parallelism).  Cells run through the process pool of
    :func:`~repro.utils.parallel.parallel_map` (``workers``), or one by
    one through ``service`` when given (the service owns concurrency,
    batching, and caching; ``workers`` is then ignored).

    Crash resumability: with ``checkpoint`` set, each finished cell is
    appended to that JSONL file in spec order as soon as it and every
    earlier cell are done, so a killed run loses only the cells not yet
    appended, and a failing cell raises after the cells before it are on
    disk.  ``resume=True`` loads an existing checkpoint, skips every
    cell already complete in it (a partially written trailing cell is
    discarded and re-run), and produces a probe set identical to an
    uninterrupted run — same probes, same order, no duplicates.  Without
    ``resume``, an existing checkpoint file is an error rather than
    silently overwritten.

    ``fault_plan`` and ``prefix_cache`` forward to :func:`run_spec`
    (deterministic grid-level fault injection; prepared-prefix reuse on
    the surrogate path).
    """
    from repro.core.storage import append_probes_jsonl  # import cycle

    if not specs:
        raise ExperimentError("no experiments to run")
    path = None if checkpoint is None else Path(checkpoint)
    # Spans only cover the in-process paths: the process-pool fan-out runs
    # run_spec in workers whose global tracer is the disabled default.
    with get_tracer().span(
        "runner.run_grid",
        n_cells=len(specs),
        via_service=service is not None,
        checkpointed=path is not None,
        prefix_cache=bool(prefix_cache),
    ):
        done = {} if path is None else _resume_checkpoint(specs, path, resume)
        pending = [spec for spec in specs if spec.cell_key not in done]
        run = partial(
            run_spec, service=service, fault_plan=fault_plan,
            prefix_cache=prefix_cache,
        )
        if service is not None:
            cells = (run(spec) for spec in pending)
        else:
            cells = parallel_map(run, pending, workers=workers)
        probes: list[ProbeResult] = []
        with closing(cells):
            for spec in specs:
                cell = done.get(spec.cell_key)
                if cell is None:
                    cell = next(cells)
                    if path is not None:
                        append_probes_jsonl(cell, path)
                probes.extend(cell)
        return probes


def _resume_checkpoint(specs, path: Path, resume: bool) -> dict:
    """The complete cells of an existing checkpoint, compacted on disk."""
    from repro.core.storage import load_checkpoint, save_probes_jsonl

    if len({spec.cell_key for spec in specs}) != len(specs):
        raise ExperimentError(
            "grid has duplicate cells; checkpointing needs unique cell keys"
        )
    if not path.exists():
        return {}
    if not resume:
        raise ExperimentError(
            f"checkpoint {path} already exists; pass resume=True "
            "(CLI: --resume) to continue it"
        )
    done = load_checkpoint(path, specs)
    if not done.report.clean:
        logger.warning(
            "resume from damaged checkpoint: %s", done.report.summary()
        )
    # Compact the file down to the complete cells: this drops any
    # partially written tail (and any damage the recovery scan
    # quarantined) so the appends that follow cannot duplicate it.
    save_probes_jsonl(
        [
            probe
            for spec in specs
            if spec.cell_key in done
            for probe in done[spec.cell_key]
        ],
        path,
    )
    return done
