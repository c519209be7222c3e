"""Tests for the analytical performance model."""

import numpy as np
import pytest

from repro.dataset.perfmodel import PerfModelParams, Syr2kPerformanceModel
from repro.dataset.syr2k import Syr2kTask
from repro.errors import DatasetError


@pytest.fixture(scope="module")
def sm_model():
    return Syr2kPerformanceModel(Syr2kTask("SM"))


@pytest.fixture(scope="module")
def xl_model():
    return Syr2kPerformanceModel(Syr2kTask("XL"))


class TestMagnitudes:
    def test_sm_all_subsecond(self, sm_model):
        """Section IV-B: all SM objective values are less than one."""
        r = sm_model.runtimes()
        assert (r < 1.0).all() and (r > 0).all()

    def test_xl_single_digit_seconds(self, xl_model):
        """Table II: whole-number magnitudes almost exclusively < 10 s,
        with nonzero integer parts (first-token variation exists)."""
        r = xl_model.runtimes()
        assert (r >= 1.0).all() and (r < 10.0).all()

    def test_sm_median_matches_paper_example_scale(self, sm_model):
        """Figure 1's example runtime is 0.0022155 — the dataset median
        should be on that order."""
        med = float(np.median(sm_model.runtimes()))
        assert 0.0005 < med < 0.01


class TestDeterminism:
    def test_repeatable(self, sm_model):
        a = sm_model.runtimes([1, 2, 3])
        b = sm_model.runtimes([1, 2, 3])
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_table(self):
        a = Syr2kPerformanceModel(Syr2kTask("SM"), seed=99).runtimes([5, 6])
        b = Syr2kPerformanceModel(Syr2kTask("SM"), seed=99).runtimes([5, 6])
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        a = Syr2kPerformanceModel(Syr2kTask("SM"), seed=1).runtimes([5])
        b = Syr2kPerformanceModel(Syr2kTask("SM"), seed=2).runtimes([5])
        assert a[0] != b[0]

    def test_subset_consistent_with_full(self, sm_model):
        full = sm_model.runtimes()
        sub = sm_model.runtimes([10, 20, 30])
        np.testing.assert_array_equal(sub, full[[10, 20, 30]])


class TestPhysics:
    def test_runtime_scalar_api(self, sm_model):
        cfg = sm_model.space.from_index(123)
        assert sm_model.runtime(cfg) == pytest.approx(
            float(sm_model.runtimes([123])[0])
        )

    def test_tiny_tiles_slower_than_moderate(self, sm_model):
        """Loop-control overhead penalizes 4x4x4 tiling."""
        space = sm_model.space
        base = {
            "first_array_packed": False,
            "second_array_packed": False,
            "interchange_first_two_loops": False,
        }
        tiny = space.to_index(
            dict(
                base,
                outer_loop_tiling_factor=4,
                middle_loop_tiling_factor=4,
                inner_loop_tiling_factor=4,
            )
        )
        moderate = space.to_index(
            dict(
                base,
                outer_loop_tiling_factor=64,
                middle_loop_tiling_factor=64,
                inner_loop_tiling_factor=64,
            )
        )
        nl = sm_model.noiseless_runtimes([tiny, moderate])
        assert nl[0] > nl[1]

    def test_packing_helps_more_on_xl_than_sm(self):
        """Packing relieves cache pressure only when the working set is
        large; for SM it is pure overhead."""

        def pack_effect(size):
            """Geometric-mean packed/unpacked ratio over the whole space
            (the per-config rugged hash noise averages out)."""
            model = Syr2kPerformanceModel(Syr2kTask(size))
            nl = model.noiseless_runtimes()
            packed = model.space.ordinal_matrix()[:, 0] == 1
            return float(
                np.exp(np.log(nl[packed]).mean() - np.log(nl[~packed]).mean())
            )

        assert pack_effect("XL") < pack_effect("SM")

    def test_xl_smoother_than_sm(self):
        """The noise constants make XL more learnable (Table I)."""
        p = PerfModelParams()
        assert p.sigma_rugged["XL"] < p.sigma_rugged["SM"]
        assert p.sigma_noise["XL"] < p.sigma_noise["SM"]


class TestMeasure:
    def test_rep_zero_is_dataset(self, sm_model):
        np.testing.assert_array_equal(
            sm_model.measure([1, 2], rep=0), sm_model.runtimes([1, 2])
        )

    def test_reps_differ(self, sm_model):
        a = sm_model.measure([1, 2], rep=1)
        b = sm_model.measure([1, 2], rep=2)
        assert not np.array_equal(a, b)

    def test_rep_deterministic(self, sm_model):
        np.testing.assert_array_equal(
            sm_model.measure([3], rep=5), sm_model.measure([3], rep=5)
        )

    def test_noise_centered_on_noiseless(self, sm_model):
        """Averaging many measurement reps converges near the noiseless
        model value (lognormal, small sigma)."""
        idx = [100]
        reps = np.array(
            [float(sm_model.measure(idx, rep=r)[0]) for r in range(1, 200)]
        )
        noiseless = float(sm_model.noiseless_runtimes(idx)[0])
        assert abs(np.log(reps).mean() - np.log(noiseless)) < 0.02


class TestParams:
    def test_unknown_size_constants(self):
        with pytest.raises(DatasetError):
            PerfModelParams().for_size("nope")
