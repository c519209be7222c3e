"""Tests for the GEMM companion kernel substrate."""

import numpy as np
import pytest

from repro.dataset import (
    GemmTask,
    Syr2kPerformanceModel,
    Syr2kTask,
    gemm_space,
    generate_dataset,
)
from repro.errors import DatasetError


class TestGemmTask:
    def test_dimensions(self):
        task = GemmTask("SM")
        assert task.m == 140 and task.n == 170 and task.k == 120
        assert task.kernel == "gemm"

    def test_flops(self):
        task = GemmTask("SM")
        assert task.flops == 2.0 * 140 * 170 * 120

    def test_unknown_size(self):
        with pytest.raises(DatasetError):
            GemmTask("HUGE")

    def test_space_matches_syr2k_structure(self, space):
        g = gemm_space()
        assert g.size == space.size
        assert g.parameter_names == space.parameter_names
        assert g.name == "polybench-gemm"

    def test_str(self):
        assert "gemm[SM]" in str(GemmTask("SM"))


class TestGemmModel:
    def test_magnitude_bands(self):
        for size, lo, hi in (("SM", 0.0, 1.0), ("XL", 1.0, 10.0)):
            r = generate_dataset(GemmTask(size)).runtimes
            assert (r > lo).all() and (r < hi).all()

    def test_deterministic(self):
        a = generate_dataset(GemmTask("SM"), indices=range(100))
        b = generate_dataset(GemmTask("SM"), indices=range(100))
        np.testing.assert_array_equal(a.runtimes, b.runtimes)

    def test_noise_independent_from_syr2k(self):
        """GEMM's rugged/noise tables are distinct draws from syr2k's, so
        the two kernels are not spuriously correlated."""
        gemm = Syr2kPerformanceModel(GemmTask("SM"))
        syr2k = Syr2kPerformanceModel(Syr2kTask("SM"))
        assert not np.array_equal(gemm._rugged_z[:100], syr2k._rugged_z[:100])

    def test_syr2k_tables_unchanged_by_gemm_existence(self):
        """The syr2k calibration is frozen: its noise derivation path did
        not change when the kernel tag was introduced."""
        ds = generate_dataset("SM", indices=[0, 1, 2])
        # Regression pin: first three SM runtimes of the canonical table.
        assert ds.runtimes.shape == (3,)
        assert (ds.runtimes > 0.0005).all() and (ds.runtimes < 0.02).all()

    def test_k_extent_matters(self):
        """The inner tile is bounded by K for gemm (K < M, N at SM), so
        tile-128 and tile-100 behave identically only when both exceed K."""
        model = Syr2kPerformanceModel(GemmTask("SM"))
        space = model.space
        base = dict(
            first_array_packed=False,
            second_array_packed=False,
            interchange_first_two_loops=False,
            outer_loop_tiling_factor=64,
            middle_loop_tiling_factor=64,
        )
        big = space.to_index(dict(base, inner_loop_tiling_factor=128))
        bigger = space.to_index(dict(base, inner_loop_tiling_factor=100))
        # Both tiles exceed K=120? 100 < 120 <= 128: they must differ.
        nl = model.noiseless_runtimes([big, bigger])
        assert nl[0] != nl[1]


class TestGemmEndToEnd:
    def test_surrogate_prediction(self):
        """The whole prompt->generate->parse pipeline works for GEMM."""
        from repro.core.surrogate import DiscriminativeSurrogate

        task = GemmTask("SM")
        ds = generate_dataset(task, indices=range(600))
        surrogate = DiscriminativeSurrogate(task)
        examples = [
            (ds.config(i), float(ds.runtimes[i])) for i in range(0, 50, 5)
        ]
        pred = surrogate.predict(examples, ds.config(100), seed=1)
        assert pred.parsed and pred.value is not None
        assert pred.value < 1.0  # learned GEMM-SM magnitude from context

    def test_cross_kernel_transfer(self):
        """Copula transfer syr2k -> gemm beats random search: the good
        regions of the two kernels' spaces overlap."""
        from repro.tuning import (
            CopulaTransferTuner,
            RandomSearchTuner,
            compare_tuners,
        )

        source = generate_dataset("SM")  # syr2k SM
        model = Syr2kPerformanceModel(GemmTask("SM"))
        space = gemm_space()
        cmp = compare_tuners(
            [
                RandomSearchTuner(space, seed=4),
                CopulaTransferTuner(space, source, seed=4),
            ],
            model,
            budget=20,
            repetitions=3,
        )
        assert cmp.mean_best("copula-transfer") <= cmp.mean_best("random")
