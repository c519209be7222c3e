"""Tests for the deterministic seed-derivation tree."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import (
    SeedSequenceTree,
    derive_seed,
    rng_from,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_path_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)

    def test_parent_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_stateless_sibling_independence(self):
        """Deriving one child never perturbs another's value."""
        before = derive_seed(7, "exp", 3)
        _ = [derive_seed(7, "exp", i) for i in range(10)]
        assert derive_seed(7, "exp", 3) == before

    def test_path_component_types_distinguished(self):
        assert derive_seed(1, 2) != derive_seed(1, "2")

    def test_fits_int64(self):
        for i in range(50):
            s = derive_seed(i, "check")
            assert 0 <= s < 2**63

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=20))
    def test_always_valid_range(self, parent, label):
        s = derive_seed(parent, label)
        assert 0 <= s < 2**63


class TestRngFrom:
    def test_same_stream(self):
        a = rng_from(5, "x").random(4)
        b = rng_from(5, "x").random(4)
        np.testing.assert_array_equal(a, b)

    def test_different_streams(self):
        a = rng_from(5, "x").random(4)
        b = rng_from(5, "y").random(4)
        assert not np.array_equal(a, b)


class TestSeedSequenceTree:
    def test_child_determinism(self):
        root = SeedSequenceTree(42)
        assert root.child("a", 1) == SeedSequenceTree(42).child("a", 1)

    def test_spawn_indices(self):
        root = SeedSequenceTree(42)
        kids = root.spawn(3, "workers")
        assert len(kids) == 3
        assert len({k.seed for k in kids}) == 3
        assert kids[1] == root.child("workers", 1)

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            SeedSequenceTree(1).spawn(-1)

    def test_rng_path(self):
        root = SeedSequenceTree(9)
        a = root.rng("x").random()
        b = root.child("x").rng().random()
        assert a == b

    def test_non_int_seed_raises(self):
        with pytest.raises(TypeError):
            SeedSequenceTree("abc")

    def test_hashable(self):
        assert len({SeedSequenceTree(1), SeedSequenceTree(1)}) == 1

    def test_repr(self):
        assert "SeedSequenceTree" in repr(SeedSequenceTree(3))
