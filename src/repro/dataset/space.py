"""Finite configuration spaces with an index bijection and edit distances.

A :class:`ConfigSpace` is an ordered tuple of :class:`Parameter` objects.
Every configuration (a dict ``{param_name: value}``) corresponds to exactly
one integer in ``range(space.size)`` via a mixed-radix encoding, which is
how the dataset generator enumerates all 10,648 syr2k configurations and
how samplers draw without replacement.

The space also provides the two notions of configuration similarity the
paper relies on:

* **Hamming edit distance** — the number of differing parameters, used to
  define the "minimal configuration-space editing distance" curated ICL
  sets of Section III-B;
* **weighted distance** — Hamming refined by per-parameter normalized value
  distance, used to rank ties (two configs differing by one adjacent tile
  size are closer than two differing by a far-apart tile size).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.dataset.parameters import Parameter
from repro.errors import ConfigSpaceError, InvalidConfigurationError, UnknownParameterError

__all__ = ["Configuration", "ConfigSpace"]

#: A configuration is a plain mapping from parameter name to value.
Configuration = dict


class ConfigSpace:
    """An ordered product of finite parameters.

    Parameters
    ----------
    parameters:
        The parameters, in significance order for the mixed-radix index
        (first parameter varies slowest).
    name:
        Optional human-readable space name (used in prompts and reports).
    """

    def __init__(self, parameters: Sequence[Parameter], name: str = "space"):
        params = tuple(parameters)
        if not params:
            raise ConfigSpaceError("a ConfigSpace needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ConfigSpaceError(f"duplicate parameter names in {names}")
        self.name = name
        self.parameters = params
        self._by_name = {p.name: p for p in params}
        # Mixed-radix place values: radix of parameter i is its cardinality;
        # place value is the product of cardinalities of the params after it.
        cards = np.array([p.cardinality for p in params], dtype=np.int64)
        place = np.ones(len(params), dtype=np.int64)
        for i in range(len(params) - 2, -1, -1):
            place[i] = place[i + 1] * cards[i + 1]
        self._cards = cards
        self._place = place
        self.size = int(cards.prod())

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @property
    def parameter_names(self) -> tuple[str, ...]:
        """Names of all parameters, in index-significance order."""
        return tuple(p.name for p in self.parameters)

    def parameter(self, name: str) -> Parameter:
        """Return the parameter called ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownParameterError(name, self.parameter_names) from None

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.parameters)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self, config: Mapping[str, object]) -> Configuration:
        """Check ``config`` assigns every parameter a domain value.

        Returns a plain dict copy in parameter order.

        Raises
        ------
        InvalidConfigurationError
            On missing names, extra names, or out-of-domain values.
        """
        extra = set(config) - set(self._by_name)
        if extra:
            raise InvalidConfigurationError(
                f"configuration has unknown parameters: {sorted(extra)}"
            )
        missing = set(self._by_name) - set(config)
        if missing:
            raise InvalidConfigurationError(
                f"configuration is missing parameters: {sorted(missing)}"
            )
        out: Configuration = {}
        for p in self.parameters:
            value = config[p.name]
            p.index_of(value)  # raises if out of domain
            out[p.name] = value
        return out

    # ------------------------------------------------------------------ #
    # Index bijection
    # ------------------------------------------------------------------ #
    def to_index(self, config: Mapping[str, object]) -> int:
        """Map a configuration to its unique index in ``range(self.size)``."""
        cfg = self.validate(config)
        idx = 0
        for p, place in zip(self.parameters, self._place):
            idx += p.index_of(cfg[p.name]) * int(place)
        return idx

    def from_index(self, index: int) -> Configuration:
        """Map an index in ``range(self.size)`` back to its configuration."""
        i = int(index)
        if not 0 <= i < self.size:
            raise InvalidConfigurationError(
                f"index {index} out of range for space of size {self.size}"
            )
        out: Configuration = {}
        for p, place in zip(self.parameters, self._place):
            digit, i = divmod(i, int(place))
            out[p.name] = p.value_at(digit)
        return out

    def ordinal_matrix(self, indices: Sequence[int] | None = None) -> np.ndarray:
        """Return per-parameter ordinal digits as an ``(n, n_params)`` array.

        Row ``r`` holds the mixed-radix digits of configuration
        ``indices[r]`` (all configurations when ``indices`` is ``None``).
        This is the vectorized workhorse behind dataset generation and
        distance computations.
        """
        if indices is None:
            idx = np.arange(self.size, dtype=np.int64)
        else:
            idx = np.asarray(indices, dtype=np.int64)
            if idx.ndim != 1:
                raise InvalidConfigurationError("indices must be 1-D")
            if idx.size and (idx.min() < 0 or idx.max() >= self.size):
                raise InvalidConfigurationError(
                    f"indices out of range for space of size {self.size}"
                )
        # digits[:, j] = (idx // place[j]) % card[j]
        return (idx[:, None] // self._place[None, :]) % self._cards[None, :]

    def __iter__(self) -> Iterator[Configuration]:
        for i in range(self.size):
            yield self.from_index(i)

    # ------------------------------------------------------------------ #
    # Sampling and distances
    # ------------------------------------------------------------------ #
    def hamming_distance(
        self, a: Mapping[str, object], b: Mapping[str, object]
    ) -> int:
        """Number of parameters on which ``a`` and ``b`` differ."""
        ca, cb = self.validate(a), self.validate(b)
        return sum(ca[p.name] != cb[p.name] for p in self.parameters)

    def weighted_distance(
        self, a: Mapping[str, object], b: Mapping[str, object]
    ) -> float:
        """Sum of per-parameter normalized value distances (in [0, n_params])."""
        ca, cb = self.validate(a), self.validate(b)
        return float(
            sum(p.distance(ca[p.name], cb[p.name]) for p in self.parameters)
        )

    def pairwise_weighted_distances(
        self, center_index: int, indices: Sequence[int] | None = None
    ) -> np.ndarray:
        """Vectorized weighted distance from one config to many.

        Parameters
        ----------
        center_index:
            Index of the reference configuration.
        indices:
            Candidate indices (all configurations when ``None``).
        """
        return self.digit_distances(
            self.ordinal_matrix([center_index])[0], self.ordinal_matrix(indices)
        )

    def digit_distances(self, center: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """:meth:`pairwise_weighted_distances` over ordinal digits already
        computed: from the digit row ``center`` to each row of ``digits``
        (rows of :meth:`ordinal_matrix`, in any integer dtype)."""
        dist = np.zeros(digits.shape[0], dtype=float)
        for j, p in enumerate(self.parameters):
            dj = digits[:, j].astype(np.int64) - int(center[j])
            if p.is_numeric and p.cardinality > 1:
                dist += np.abs(dj) / (p.cardinality - 1)
            else:
                dist += (dj != 0).astype(float)
        return dist

    def neighbors(self, index: int) -> list[int]:
        """Indices of all Hamming-1 neighbours of configuration ``index``."""
        base = self.from_index(index)
        out: list[int] = []
        for p in self.parameters:
            for v in p.values:
                if v != base[p.name]:
                    cfg = dict(base)
                    cfg[p.name] = v
                    out.append(self.to_index(cfg))
        return out

    def __repr__(self) -> str:
        return (
            f"ConfigSpace({self.name!r}, {len(self.parameters)} parameters, "
            f"size={self.size})"
        )
