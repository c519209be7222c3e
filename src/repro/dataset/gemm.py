"""A second Polybench kernel: GEMM, sharing the tuning-space design.

The paper evaluates syr2k only, but a usable autotuning library covers
more than one kernel; GEMM (``C[N,M] += alpha * A[N,K] @ B[K,M]``) is the
canonical companion.  The tunable space mirrors the syr2k one — two
independent packing flags, an optional interchange of the outer loops,
and three tile factors over the same 11 choices — so the prompt pipeline,
encoders and tuners all work unchanged, and cross-kernel transfer
(`repro.tuning.copula`) becomes testable.
"""

from __future__ import annotations

from repro.dataset.space import ConfigSpace
from repro.dataset.syr2k import KernelTask, syr2k_space

__all__ = ["GEMM_DIMENSIONS", "GemmTask", "gemm_space"]

#: ``(M, N, K)`` dimensions per size (N rows, M columns, K depth).
GEMM_DIMENSIONS: dict[str, tuple[int, int, int]] = {
    "S": (70, 90, 60),
    "SM": (140, 170, 120),
    "M": (220, 250, 190),
    "ML": (480, 600, 420),
    "L": (1100, 1300, 950),
    "XL": (2100, 2700, 1900),
}


def gemm_space() -> ConfigSpace:
    """The GEMM tuning space (same structure as syr2k's)."""
    space = syr2k_space()
    return ConfigSpace(space.parameters, name="polybench-gemm")


class GemmTask(KernelTask):
    """A GEMM tuning task at one problem size."""

    kernel = "gemm"
    size_dimensions = GEMM_DIMENSIONS
    # Distinct draws from syr2k's, so the two kernels are not spuriously
    # correlated.
    noise_namespace = ("gemm",)

    @property
    def k(self) -> int:
        return self.dimensions[2]

    @property
    def flops(self) -> float:
        """2 flops (multiply-add) per (i, j, k) triple."""
        m, n, k = self.dimensions
        return 2.0 * m * n * k

    @property
    def loop_extents(self) -> tuple[float, float, float]:
        """(outer, middle, inner) trip extents: N, M and the ``k`` depth."""
        return float(self.n), float(self.m), float(self.k)

    def space(self) -> ConfigSpace:
        return gemm_space()
