"""``grid_sweep``: the paper's offline experiment, serial and checkpointed.

One *pass* is a fixed slice of ``paper_grid``: SM and XL, random and
curated selection, every paper ICL depth (1..100), one example set and
two sampling seeds — 56 cells of 4 probes.  Every pass draws a fresh
dataset root seed from the workload seed, so each pass starts with cold
prefix snapshots and does the same kind of work; a run executes whole
passes until ``--seconds`` of measured time have elapsed.

Cells run the way ``run_grid(workers=1, checkpoint=..., checkpoint_every=1)``
runs them: ``run_spec`` for the cell, then ``append_probes_jsonl`` of its
probes (fsynced) to the pass's checkpoint.  The loop is unrolled here so
each cell — the runner's unit of work, and this workload's "request" —
can be timed.  No serving layer is involved.
"""

from __future__ import annotations

import shutil
import statistics

from common import OUT_DIR, CoreRotation, SpanLog, digest, now, percentile_ms, stable_seed

#: Per-cell latency limit for ``slo_attainment`` (a cold depth-100 cell
#: takes ~0.3 s on a 2-core Xeon).
CELL_LIMIT_S = 2.0
SIZES = ("SM", "XL")
SEEDS = (1, 2)
N_QUERIES = 4


class GridSweep:
    unit = "cell"
    children_rss_mb = 0.0  # serial: no worker processes

    def __init__(self, seed: int, trace: bool):
        self.seed = seed
        self.trace = trace
        self.log = SpanLog() if trace else None
        self.workdir = OUT_DIR / f"grid_sweep-{seed}-{int(trace)}"
        self.cell_s: list[float] = []
        self.pass_s: list[float] = []
        self.run_spec_s: list[float] = []
        self.pass_cells: list[tuple] = []  # (specs, probe keys, checkpoint path)
        self.tokens: list[int] = []
        self.setup_phases: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    def specs(self, k: int):
        from repro.core.grid import PAPER_ICL_COUNTS, paper_grid

        return paper_grid(
            sizes=SIZES,
            icl_counts=PAPER_ICL_COUNTS,
            n_sets=1,
            seeds=SEEDS,
            n_queries=N_QUERIES,
            root_seed=stable_seed("grid_sweep", self.seed, k),
        )

    def input_digest(self) -> str:
        # The first pass's cell keys and root seed pin the grid inputs.
        return digest(
            f"{s.cell_key}/{s.root_seed}/{s.n_queries}" for s in self.specs(0)
        )

    def setup(self) -> None:
        from repro.core.runner import run_spec

        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        start = now()
        # Build both sizes' surrogates and touch every lazy path once on
        # a root seed no measured pass uses.
        for spec in self.specs(-1):
            if spec.n_icl in (1, 5) and spec.seed == 1:
                run_spec(spec)
        if self.trace:
            self.replay = _Replay(self.log)
        self.setup_phases["setup.warmup_s"] = now() - start

    # ------------------------------------------------------------------ #
    def measure(self, seconds: float) -> None:
        with CoreRotation():
            self._passes(seconds)

    def _passes(self, seconds: float) -> None:
        from repro.core.runner import run_spec
        from repro.core.storage import append_probes_jsonl

        elapsed = 0.0
        k = 0
        while elapsed < seconds:
            specs = self.specs(k)
            path = self.workdir / f"pass-{k}.jsonl"
            keys = []
            pass_s = 0.0
            for spec in specs:
                start = now()
                cell = run_spec(spec)
                mid = now()
                append_probes_jsonl(cell, path)
                end = now()
                self.cell_s.append(end - start)
                pass_s += end - start
                # Only the probes' keys are kept: holding every probe
                # would grow the heap, and with it the collector's work,
                # pass after pass.
                keys.append([_probe_key(p) for p in cell])
                self.tokens.extend(p.n_prompt_tokens for p in cell)
                if self.trace:
                    rid = len(self.cell_s)
                    self.run_spec_s.append(mid - start)
                    root = self.log.add("grid.cell", start, end, None, rid)
                    # The append is measured in place; the run_spec
                    # stages come from the replay below.
                    self.log.add("core.storage.append_probes_jsonl", mid, end, root, rid)
                    self.replay.cell(spec, cell, root, rid)
            self.pass_s.append(pass_s)
            self.pass_cells.append((specs, keys, path))
            elapsed += pass_s
            k += 1

    # ------------------------------------------------------------------ #
    def check(self) -> tuple[int, int, str]:
        """(attempted cells, failed cells, digest of the first pass).

        Every pass's checkpoint must reload through ``load_checkpoint``
        to exactly the probes the cells returned.  The first pass's cells
        of the first sampling seed (every size, selection and depth) are
        also recomputed on the cold scoring path and must match probe for
        probe; the digest covers the whole first pass.
        """
        from repro.core.storage import load_checkpoint

        attempted = failed = 0
        for specs, cells, path in self.pass_cells:
            reloaded = load_checkpoint(path, specs)
            for spec, keys in zip(specs, cells):
                attempted += 1
                if [_probe_key(p) for p in reloaded.get(spec.cell_key, [])] != keys:
                    failed += 1
        specs, cells, _ = self.pass_cells[0]
        for spec, keys in zip(specs, cells):
            if spec.seed == SEEDS[0]:
                failed += _reference_keys(spec) != keys
        if self.trace:
            failed += self.replay.mismatches
        return attempted, failed, digest(k for keys in cells for k in keys)

    def reference_digest(self) -> str:
        return digest(k for spec in self.specs(0) for k in _reference_keys(spec))

    # ------------------------------------------------------------------ #
    def end_to_end(self) -> tuple[dict, list[str]]:
        cells_per_pass = len(self.pass_cells[0][0])
        pass_s = statistics.median(self.pass_s)
        p50 = percentile_ms(self.cell_s, 50)
        p95 = percentile_ms(self.cell_s, 95)
        ok = sum(1 for s in self.cell_s if s <= CELL_LIMIT_S)
        metrics = {
            "probes_per_s": (cells_per_pass * N_QUERIES / pass_s, "1/s"),
            "requests_per_s": (cells_per_pass / pass_s, "1/s"),
            "latency_p50_ms": (p50.value_ms, "ms"),
            "slo_attainment": (ok / len(self.cell_s), "ratio"),
        }
        notes = [
            f"passes = {len(self.pass_s)} of {cells_per_pass} cells "
            f"({cells_per_pass * N_QUERIES} probes); probes_per_s and "
            "requests_per_s come from the median pass time",
            "pass times (s): " + ", ".join(f"{s:.3f}" for s in self.pass_s),
            p50.describe("cell latency_p50_ms"),
            p95.describe("cell latency p95 (not a metric)"),
            f"slo_attainment: {ok}/{len(self.cell_s)} cells within "
            f"{CELL_LIMIT_S * 1e3:.0f} ms",
        ]
        return metrics, notes

    def per_layer(self) -> dict:
        log = self.log
        stored = sum(path.stat().st_size for _, _, path in self.pass_cells)
        return {
            "prompts.build_us": (_mean(log.durations_ms("prompts.build_parts")) * 1e3, "us"),
            "prompts.tokens": (_mean(self.tokens), "count"),
            "llm.prefix_cache.hit_ratio": (self.replay.prefix_hit_ratio(), "ratio"),
            "llm.prefix_prepare_ms": (_mean(log.durations_ms("llm.prefix_prepare")), "ms"),
            "llm.prepare_ms": (_mean(log.durations_ms("llm.prepare")), "ms"),
            "llm.decode_ms": (_mean(log.durations_ms("llm.predict_parts")), "ms"),
            "llm.group_width_mean": (1.0, "count"),
            "core.runner.cell_ms": (_mean(self.run_spec_s) * 1e3, "ms"),
            "core.storage.append_ms": (
                _mean(log.durations_ms("core.storage.append_probes_jsonl")), "ms"),
            "core.storage.bytes_per_probe": (stored / len(self.tokens), "bytes"),
        }

    def close(self) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)


class _Replay:
    """Replays each probe through the layer functions on a private stack.

    The private surrogates see the same cells in the same order as the
    runner's, so their prefix caches are in the same state when a probe
    is replayed.  Replayed predictions must equal the cell's probes.
    """

    def __init__(self, log: SpanLog):
        from repro.core.surrogate import DiscriminativeSurrogate
        from repro.dataset.syr2k import Syr2kTask

        self.log = log
        self.surrogates = {s: DiscriminativeSurrogate(Syr2kTask(s)) for s in SIZES}
        self.datasets: dict = {}
        self.prefix_hits = self.prefix_lookups = 0
        self.mismatches = 0

    def prefix_hit_ratio(self) -> float:
        return self.prefix_hits / self.prefix_lookups if self.prefix_lookups else 0.0

    def cell(self, spec, cell, root: int, rid: int) -> None:
        log = self.log
        surrogate = self.surrogates[spec.size]
        inputs = log.timed("dataset.splits", root, rid, _probe_inputs, spec, self._dataset(spec))
        for (examples, query, gen_seed), probe in zip(inputs, cell):
            parts = log.timed("prompts.build_parts", root, rid, surrogate.build_parts, examples, query)
            misses_before = surrogate.prefix_cache.snapshot()[1]
            start = now()
            prefix = surrogate.prepared_prefix(parts)
            if prefix is not None:
                hit = surrogate.prefix_cache.snapshot()[1] == misses_before
                log.add("llm.prefix_lookup" if hit else "llm.prefix_prepare",
                        start, now(), root, rid)
                self.prefix_lookups += 1
                self.prefix_hits += hit
            analysis = log.timed(
                "llm.prepare", root, rid, surrogate.model.prepare, parts.ids, prefix=prefix
            )
            pred = log.timed(
                "llm.predict_parts", root, rid, surrogate.predict_parts,
                parts, seed=gen_seed, analysis=analysis,
            )
            if (pred.value_text, pred.generated_text) != (probe.predicted_text, probe.generated_text):
                self.mismatches += 1

    def _dataset(self, spec):
        from repro.dataset import generate_dataset

        key = (spec.size, spec.root_seed)
        if key not in self.datasets:
            if len(self.datasets) >= 4:
                self.datasets.clear()
            self.datasets[key] = generate_dataset(spec.size, seed=spec.root_seed)
        return self.datasets[key]


def _probe_inputs(spec, dataset):
    """The runner's probe expansion, rebuilt from public functions.

    Mirrors how ``run_spec`` draws a cell's ICL rows, query rows and
    generation seeds; a drift between the two shows up as replay
    mismatches, which fail the run.
    """
    from repro.dataset.splits import curated_neighborhood, disjoint_example_sets
    from repro.utils.rng import derive_seed

    if spec.selection == "random":
        sets, queries = disjoint_example_sets(
            dataset,
            n_sets=max(8, spec.set_id + 1),
            set_size=spec.n_icl,
            seed=derive_seed(spec.root_seed, "sets", spec.size, spec.n_icl),
            n_queries=spec.n_queries,
        )
        rows = [(sets[spec.set_id], int(q)) for q in queries]
    else:
        rows = [
            curated_neighborhood(
                dataset,
                set_size=spec.n_icl,
                seed=derive_seed(
                    spec.root_seed, "curated", spec.size, spec.n_icl, spec.set_id, q
                ),
            )
            for q in range(spec.n_queries)
        ]
    return [
        (
            [(dataset.config(int(r)), float(dataset.runtimes[int(r)])) for r in icl],
            dataset.config(int(query)),
            derive_seed(spec.root_seed, "generation", *spec.cell_key, probe_id),
        )
        for probe_id, (icl, query) in enumerate(rows)
    ]


def _reference_keys(spec) -> list[str]:
    """A cell's probe keys through ``run_spec(prefix_cache=False)``."""
    from repro.core.runner import run_spec

    return [_probe_key(p) for p in run_spec(spec, prefix_cache=False)]


def _probe_key(probe) -> str:
    return f"{probe.spec.cell_key}/{probe.query_index}/{probe.predicted_text!r}/{probe.generated_text!r}"


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0
