"""Tests for the fixed prompt templates."""

import hashlib

import pytest

from repro.dataset.gemm import GemmTask
from repro.dataset.syr2k import SIZE_NAMES, Syr2kTask
from repro.prompts.templates import (
    SYSTEM_INSTRUCTIONS,
    SYSTEM_INSTRUCTIONS_CANDIDATE,
    SYSTEM_INSTRUCTIONS_GENERATIVE,
    problem_description,
)


class TestSystemInstructions:
    def test_figure1_phrases(self):
        assert "Do NOT explain your thought process" in SYSTEM_INSTRUCTIONS
        assert "feature-rich text-based CSV format" in SYSTEM_INSTRUCTIONS
        assert "Do not alter the user's proposed configurations" in (
            SYSTEM_INSTRUCTIONS
        )

    def test_generative_mentions_buckets(self):
        assert "bucket" in SYSTEM_INSTRUCTIONS_GENERATIVE

    def test_candidate_asks_for_configuration(self):
        assert "propose one hyperparameter configuration" in (
            SYSTEM_INSTRUCTIONS_CANDIDATE
        )


class TestProblemDescription:
    def test_sm_dimensions(self):
        desc = problem_description(Syr2kTask("SM"))
        assert "For size 'SM', M=130 and N=160" in desc

    def test_size_scale_enumerated(self):
        desc = problem_description(Syr2kTask("SM"))
        assert ", ".join(SIZE_NAMES) in desc

    def test_tunables_listed(self):
        desc = problem_description(Syr2kTask("XL"))
        for phrase in (
            "independently packed",
            "interchanged",
            "tiled",
            "lower is better",
        ):
            assert phrase in desc

    def test_pseudocode_present(self):
        desc = problem_description(Syr2kTask("SM"))
        assert "for i=0 to N in tiles of size outer_loop_tiling_factor" in desc
        assert "C[i,k] = A[k,j]*alpha*B[i,j] + B[k,j]*alpha*A[i,j]" in desc

    def test_size_invariance_stated(self):
        desc = problem_description(Syr2kTask("SM"))
        assert "Size is NOT a tunable component" in desc


#: sha256 of every (kernel, size) description as the per-kernel templates
#: rendered it.  Prompt ids feed the recorded output digests, so the
#: shared template must reproduce those strings byte for byte.
_DESCRIPTION_SHA256 = [
    (Syr2kTask, "S",
     "3d58c042282cb7d2a4a7652faa988685bbfaad17b2b6da4e4ef12e76eb9a49cd"),
    (Syr2kTask, "SM",
     "456c5b482699471010484d37f86b766d90052db0925726a9697941c82e5a0b90"),
    (Syr2kTask, "M",
     "734263b64c5efe7f23db18dbc54b93a1bc921849f741744ff42b75853dfeb4db"),
    (Syr2kTask, "ML",
     "6fedbf5b8b70774d34802bc46282116c2579890641fc5b5d4fa3e62f3f863be9"),
    (Syr2kTask, "L",
     "7dc5c0d1987f8f1fbdd3b112d71d50ad4c484d9155c21ec3747384ebf5002571"),
    (Syr2kTask, "XL",
     "a88665318ad1c422f19b7c03931d6680152cdeacfd750099fdf9dae7ecbac78d"),
    (GemmTask, "S",
     "06f64d51df562f6e0adadcbaba28bd288986a5ba99952e65cf2bb0fd90ad38eb"),
    (GemmTask, "SM",
     "e82cb7b97a2263eecda290dfae7e37b4249a2ee70641e21616cfe3e442491f06"),
    (GemmTask, "M",
     "c2be20a456855e68f794efb712c223d2ca4779cb3be7e4c42e83b9dba8788e1e"),
    (GemmTask, "ML",
     "123957fd9881e0ec3d03bc4498acf408fca254f70109c3e68a7f9650979ed2fa"),
    (GemmTask, "L",
     "4913759c15beff66d31607c3c32152288ca5d2a89c5f49508bb1868f13a1839f"),
    (GemmTask, "XL",
     "ced08b9b2f0f60bdd58e71bca125aac32c24c0688347f02d6f82c101b144ae9b"),
]


@pytest.mark.parametrize("task_cls,size,digest", _DESCRIPTION_SHA256)
def test_description_bytes_pinned(task_cls, size, digest):
    text = problem_description(task_cls(size))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gemm_description_names_its_loop_nest():
    desc = problem_description(GemmTask("SM"))
    m, n, k = GemmTask("SM").dimensions
    assert f"For size 'SM', M={m}, N={n} and K={k}." in desc
    assert "input: Arrays A[N,K], B[K,M], C[N,M], scalar constant alpha" in desc
    assert desc.endswith(
        "    for k=0 to K in tiles of size inner_loop_tiling_factor\n"
        "      C[i,j] = C[i,j] + alpha*A[i,k]*B[k,j]"
    )
