"""Tests for the paper's prediction metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import (
    mare,
    msre,
    r2_score,
    relative_errors,
    score_predictions,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestR2:
    def test_perfect(self):
        assert r2_score([1, 2, 3], [1, 2, 3]) == 1.0

    def test_mean_predictor_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, y.mean())) == pytest.approx(0.0)

    def test_can_be_negative(self):
        assert r2_score([1, 2, 3], [3, 2, 1]) < 0

    def test_constant_truth_degenerate(self):
        assert r2_score([2, 2], [2, 2]) == 1.0
        assert r2_score([2, 2], [2, 3]) == float("-inf")

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            r2_score([1], [1, 2])

    @given(st.lists(finite_floats, min_size=2, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_one(self, values):
        y = np.asarray(values)
        pred = y + 0.5
        assert r2_score(y, pred) <= 1.0 + 1e-12


class TestRelativeErrors:
    def test_basic(self):
        errs = relative_errors([2.0, 4.0], [1.0, 6.0])
        np.testing.assert_allclose(errs, [0.5, 0.5])

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_errors([0.0], [1.0])

    def test_sign_invariant(self):
        a = relative_errors([2.0], [1.0])
        b = relative_errors([2.0], [3.0])
        np.testing.assert_allclose(a, b)


class TestMareMsre:
    def test_mare(self):
        assert mare([1.0, 1.0], [1.1, 0.9]) == pytest.approx(0.1)

    def test_msre(self):
        assert msre([1.0, 1.0], [1.1, 0.9]) == pytest.approx(0.01)

    def test_msre_penalizes_outliers_more(self):
        y = [1.0, 1.0, 1.0, 1.0]
        mild = [1.2, 1.2, 1.2, 1.2]
        spiky = [1.0, 1.0, 1.0, 1.8]
        assert mare(y, mild) == pytest.approx(mare(y, spiky))
        assert msre(y, spiky) > msre(y, mild)

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_perfect_prediction_zero_error(self, values):
        assert mare(values, values) == 0.0
        assert msre(values, values) == 0.0


class TestScorePredictions:
    def test_triple(self):
        m = score_predictions([1.0, 2.0, 4.0], [1.0, 2.2, 3.6])
        assert m.n == 3
        assert m.r2 <= 1.0
        assert m.mare > 0 and m.msre > 0

    def test_str(self):
        m = score_predictions([1.0, 2.0], [1.0, 2.0])
        assert "R2=" in str(m)
