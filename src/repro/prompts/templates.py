"""The fixed prompt texts of Figure 1 plus the other LLAMBO task modes."""

from __future__ import annotations

from functools import lru_cache

from repro.dataset.syr2k import SIZE_NAMES

__all__ = [
    "SYSTEM_INSTRUCTIONS",
    "SYSTEM_INSTRUCTIONS_GENERATIVE",
    "SYSTEM_INSTRUCTIONS_CANDIDATE",
    "problem_description",
]

#: Figure 1, "Example System Instructions" (discriminative surrogate).
SYSTEM_INSTRUCTIONS = (
    "The user may describe their optimization problem to give specific "
    "context. Then they will demonstrate hyperparameter configurations for "
    "a regression problem in a feature-rich text-based CSV format. "
    "Following the examples, the user will provide a number of "
    "configurations without performance values; you will need to infer the "
    "objective based on their prior examples. Do not alter the user's "
    "proposed configurations. Do NOT explain your thought process. ONLY "
    "respond with your answer following the format that the user "
    "demonstrated for you."
)

#: Generative surrogate mode: N-ary class labels instead of regression
#: (LLAMBO's second prompting mode, Section II-B).
SYSTEM_INSTRUCTIONS_GENERATIVE = (
    "The user may describe their optimization problem to give specific "
    "context. Then they will demonstrate hyperparameter configurations for "
    "a classification problem in a feature-rich text-based CSV format. "
    "Each configuration is labeled with a performance bucket index; lower "
    "buckets are faster. Following the examples, the user will provide a "
    "configuration without a bucket label; you will need to infer the "
    "bucket based on their prior examples. Do NOT explain your thought "
    "process. ONLY respond with a bucket index following the format the "
    "user demonstrated for you."
)

#: Candidate-sampling mode: propose a configuration expected to achieve a
#: given performance (LLAMBO's third prompting mode).
SYSTEM_INSTRUCTIONS_CANDIDATE = (
    "The user may describe their optimization problem to give specific "
    "context. Then they will demonstrate hyperparameter configurations for "
    "a regression problem in a feature-rich text-based CSV format. "
    "Following the examples, the user will provide a target performance "
    "value; you will need to propose one hyperparameter configuration that "
    "you expect to achieve that performance. Do NOT explain your thought "
    "process. ONLY respond with a configuration following the format that "
    "the user demonstrated for you."
)


#: Figure 1's problem description; the ``{...}`` fields are a kernel's.
_DESCRIPTION = (
    "The problem considers source-code optimization for a loop nest in "
    "C++ code. The 'size' parameter is invariant, but denotes a "
    "relativistic measure of the size of data inputs to the loop nest. "
    "Sizes can be represented by the following values sorted "
    "smallest-to-largest: {sizes}\n"
    "For size '{size}', {dims}. Size is NOT a tunable component of the "
    "problem.\n"
    "Tunable options in the configuration space are:\n"
    "* The first and second array inputs to the problem can be "
    "independently packed, represented as True/False for each\n"
    "* The outermost two loops in the nest may be interchanged, "
    "represented as True to perform interchange, else False\n"
    "* Each loop (outer, middle, and inner) are tiled, and the tile "
    "sizes can all be independently specified.\n"
    "The performance objective is the runtime of a program compiled "
    "with the modified source, so lower is better.\n"
    "A pseudocode representation of the problem is:\n"
    "input: Arrays {arrays}, scalar constant alpha\n"
    "code segment:\n"
    "# Optional packing array A\n"
    "# Optional packing array B\n"
    "# Optional interchange on outermost two loops\n"
    "for i=0 to N in tiles of size outer_loop_tiling_factor\n"
    "  for j=0 to M in tiles of size middle_loop_tiling_factor\n"
    "    for k=0 to {inner} in tiles of size inner_loop_tiling_factor\n"
    "      {statement}"
)

#: Per kernel: the input arrays, the innermost loop's bound and the
#: loop-nest statement.
_KERNEL_FIELDS = {
    "syr2k": {
        "arrays": "A[N,M], B[N,M], C[N,N]",
        "inner": "i",
        "statement": "C[i,k] = A[k,j]*alpha*B[i,j] + B[k,j]*alpha*A[i,j]",
    },
    "gemm": {
        "arrays": "A[N,K], B[K,M], C[N,M]",
        "inner": "K",
        "statement": "C[i,j] = C[i,j] + alpha*A[i,k]*B[k,j]",
    },
}


@lru_cache(maxsize=None)
def problem_description(task) -> str:
    """Figure 1, "Example User Problem Description", for ``task``.

    The text enumerates the size scale, pins the task's invariant size and
    its dimensions, lists the tunables, and gives the pseudocode of the
    loop nest of the task's kernel (syr2k or gemm).  Every prompt starts
    with it, so each (frozen, hashable) task renders it once.
    """
    dims = [f"{name}={value}" for name, value in zip("MNK", task.dimensions)]
    return _DESCRIPTION.format(
        sizes=", ".join(SIZE_NAMES),
        size=task.size,
        dims=", ".join(dims[:-1]) + " and " + dims[-1],
        **_KERNEL_FIELDS[task.kernel],
    )
