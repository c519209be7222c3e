"""The Polybench/C ``syr2k`` autotuning task from the paper.

The tunable space matches Section III-A and Figure 1 exactly:

* ``first_array_packed``  — optionally pack (prefetch-copy) array ``A``;
* ``second_array_packed`` — optionally pack array ``B``;
* ``interchange_first_two_loops`` — optionally interchange the ``i``/``j``
  loops of the nest;
* ``outer/middle/inner_loop_tiling_factor`` — independent tile sizes for
  the three loops, 11 choices each.

That yields ``2 * 2 * 2 * 11**3 = 10,648`` unique configurations — the
cardinality the paper reports.  The problem *size* (S, SM, M, ML, L, XL) is
an invariant of each task, not a tunable (the prompt states this verbatim);
the paper evaluates SM (``M=130, N=160``) and XL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.dataset.parameters import BooleanParameter, OrdinalParameter
from repro.dataset.space import ConfigSpace
from repro.errors import DatasetError

__all__ = [
    "TILE_SIZES",
    "SIZE_NAMES",
    "SIZE_DIMENSIONS",
    "syr2k_space",
    "KernelTask",
    "Syr2kTask",
]

#: The 11 tile-size choices per loop (powers of two plus the cache-line
#: friendly intermediates that appear in the paper's example prompts:
#: 64, 80, 100, 128 all occur in Figure 1).
TILE_SIZES: tuple[int, ...] = (4, 8, 16, 20, 32, 48, 64, 80, 96, 100, 128)

#: Problem sizes smallest-to-largest, as enumerated in the prompt of Fig. 1.
SIZE_NAMES: tuple[str, ...] = ("S", "SM", "M", "ML", "L", "XL")

#: ``(M, N)`` array dimensions per size.  SM is fixed by the paper
#: (``M=130, N=160``); the others interpolate/extrapolate the Polybench 4.2
#: dataset sizes so that relative magnitudes are realistic.
SIZE_DIMENSIONS: dict[str, tuple[int, int]] = {
    "S": (60, 80),
    "SM": (130, 160),
    "M": (200, 240),
    "ML": (450, 560),
    "L": (1000, 1200),
    "XL": (2000, 2600),
}


def syr2k_space() -> ConfigSpace:
    """Build the 10,648-configuration syr2k tuning space."""
    return ConfigSpace(
        (
            BooleanParameter("first_array_packed"),
            BooleanParameter("second_array_packed"),
            BooleanParameter("interchange_first_two_loops"),
            OrdinalParameter("outer_loop_tiling_factor", TILE_SIZES),
            OrdinalParameter("middle_loop_tiling_factor", TILE_SIZES),
            OrdinalParameter("inner_loop_tiling_factor", TILE_SIZES),
        ),
        name="polybench-syr2k",
    )


@dataclass(frozen=True)
class KernelTask:
    """A tuning task: one kernel at one invariant problem size.

    Subclasses name their ``kernel`` and carry the facts the performance
    model needs: the size table, ``flops``, ``loop_extents``, ``space`` and
    the ``noise_namespace`` their rugged/noise tables are drawn under.
    """

    size: str

    kernel: ClassVar[str]
    #: Array dimensions per size, ``(M, N[, K])``.
    size_dimensions: ClassVar[dict[str, tuple[int, ...]]]
    #: Extra ``rng_from`` path components of the model's noise tables.
    noise_namespace: ClassVar[tuple[str, ...]]

    def __post_init__(self):
        if self.size not in self.size_dimensions:
            raise DatasetError(
                f"unknown {self.kernel} size {self.size!r}; "
                f"choose from {SIZE_NAMES}"
            )

    @property
    def dimensions(self) -> tuple[int, ...]:
        """The array dimensions of this size, ``(M, N[, K])``."""
        return self.size_dimensions[self.size]

    @property
    def m(self) -> int:
        return self.dimensions[0]

    @property
    def n(self) -> int:
        return self.dimensions[1]

    def __str__(self) -> str:
        dims = ", ".join(f"{k}={v}" for k, v in zip("MNK", self.dimensions))
        return f"{self.kernel}[{self.size}] ({dims})"


class Syr2kTask(KernelTask):
    """The paper's task: syr2k at one of :data:`SIZE_NAMES`.

    ``m`` is the column count of the rectangular operands ``A`` and ``B``;
    ``n`` is their row count and the order of the symmetric output ``C``.
    """

    kernel = "syr2k"
    size_dimensions = SIZE_DIMENSIONS
    # The syr2k tables predate kernel namespaces: an empty one keeps its
    # calibrated runtimes.
    noise_namespace = ()

    @property
    def flops(self) -> float:
        """Approximate floating-point operations of the kernel.

        ``syr2k`` updates the lower triangle of ``C`` (``N*(N+1)/2``
        entries), each with a length-``M`` fused multiply-add pair, i.e.
        roughly ``3 * M`` flops per entry.
        """
        n, m = self.n, self.m
        return 3.0 * m * n * (n + 1) / 2.0

    @property
    def loop_extents(self) -> tuple[float, float, float]:
        """(outer, middle, inner) trip extents: ``i`` over N, ``j`` over M,
        and ``k`` up to ``i`` (bounded by N)."""
        return float(self.n), float(self.m), float(self.n)

    def space(self) -> ConfigSpace:
        """The tuning space (identical across sizes)."""
        return syr2k_space()
