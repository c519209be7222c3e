"""Tests for ConfigSpace: bijection, distances, neighbourhoods."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.parameters import BooleanParameter, OrdinalParameter
from repro.dataset.space import ConfigSpace
from repro.errors import (
    ConfigSpaceError,
    InvalidConfigurationError,
    UnknownParameterError,
)


@pytest.fixture()
def small_space():
    return ConfigSpace(
        (
            BooleanParameter("a"),
            OrdinalParameter("t", (4, 8, 16)),
            BooleanParameter("b"),
        ),
        name="small",
    )


class TestConstruction:
    def test_size(self, small_space):
        assert small_space.size == 2 * 3 * 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigSpaceError, match="duplicate"):
            ConfigSpace((BooleanParameter("a"), BooleanParameter("a")))

    def test_empty_rejected(self):
        with pytest.raises(ConfigSpaceError):
            ConfigSpace(())

    def test_parameter_lookup(self, small_space):
        assert small_space.parameter("t").name == "t"
        with pytest.raises(UnknownParameterError):
            small_space.parameter("zzz")

    def test_contains(self, small_space):
        assert "a" in small_space and "zzz" not in small_space

    def test_len_is_param_count(self, small_space):
        assert len(small_space) == 3


class TestValidation:
    def test_missing_param(self, small_space):
        with pytest.raises(InvalidConfigurationError, match="missing"):
            small_space.validate({"a": True, "t": 4})

    def test_extra_param(self, small_space):
        with pytest.raises(InvalidConfigurationError, match="unknown"):
            small_space.validate({"a": True, "t": 4, "b": False, "x": 1})

    def test_out_of_domain(self, small_space):
        with pytest.raises(InvalidConfigurationError):
            small_space.validate({"a": True, "t": 5, "b": False})


class TestBijection:
    def test_roundtrip_all(self, small_space):
        seen = set()
        for i in range(small_space.size):
            cfg = small_space.from_index(i)
            j = small_space.to_index(cfg)
            assert j == i
            seen.add(tuple(sorted(cfg.items())))
        assert len(seen) == small_space.size

    def test_out_of_range(self, small_space):
        with pytest.raises(InvalidConfigurationError):
            small_space.from_index(small_space.size)
        with pytest.raises(InvalidConfigurationError):
            small_space.from_index(-1)

    def test_ordinal_matrix_matches_from_index(self, small_space):
        digits = small_space.ordinal_matrix()
        for i in (0, 3, 7, small_space.size - 1):
            cfg = small_space.from_index(i)
            expected = [
                p.index_of(cfg[p.name]) for p in small_space.parameters
            ]
            assert digits[i].tolist() == expected

    def test_ordinal_matrix_subset(self, small_space):
        full = small_space.ordinal_matrix()
        sub = small_space.ordinal_matrix([2, 5])
        np.testing.assert_array_equal(sub, full[[2, 5]])

    def test_ordinal_matrix_range_check(self, small_space):
        with pytest.raises(InvalidConfigurationError):
            small_space.ordinal_matrix([small_space.size])

    def test_iteration_covers_space(self, small_space):
        assert len(list(small_space)) == small_space.size

    @given(st.integers(min_value=0, max_value=11))
    @settings(max_examples=12, deadline=None)
    def test_roundtrip_property(self, i):
        space = ConfigSpace(
            (BooleanParameter("a"), OrdinalParameter("t", (4, 8, 16)),
             BooleanParameter("b"))
        )
        assert space.to_index(space.from_index(i)) == i


class TestDistances:
    def test_hamming_zero_to_self(self, small_space):
        cfg = small_space.from_index(5)
        assert small_space.hamming_distance(cfg, cfg) == 0

    def test_hamming_counts_diffs(self, small_space):
        a = {"a": False, "t": 4, "b": False}
        b = {"a": True, "t": 4, "b": True}
        assert small_space.hamming_distance(a, b) == 2

    def test_weighted_uses_rank(self, small_space):
        a = {"a": False, "t": 4, "b": False}
        b = {"a": False, "t": 8, "b": False}
        c = {"a": False, "t": 16, "b": False}
        assert small_space.weighted_distance(a, b) < small_space.weighted_distance(a, c)

    def test_pairwise_matches_scalar(self, small_space):
        center = 5
        dist = small_space.pairwise_weighted_distances(center)
        center_cfg = small_space.from_index(center)
        for i in (0, 3, 11):
            expected = small_space.weighted_distance(
                center_cfg, small_space.from_index(i)
            )
            assert dist[i] == pytest.approx(expected)

    def test_pairwise_subset(self, small_space):
        sub = small_space.pairwise_weighted_distances(0, [0, 1, 2])
        assert sub.shape == (3,)
        assert sub[0] == 0.0


class TestNeighbors:
    def test_count(self, small_space):
        # sum over params of (cardinality - 1)
        assert len(small_space.neighbors(0)) == (1 + 2 + 1)

    def test_all_hamming_one(self, small_space):
        base = small_space.from_index(7)
        for n in small_space.neighbors(7):
            assert small_space.hamming_distance(base, small_space.from_index(n)) == 1

    def test_excludes_self(self, small_space):
        assert 7 not in small_space.neighbors(7)
