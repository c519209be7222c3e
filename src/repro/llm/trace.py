"""Generation traces: the recorded logits the paper's analyses consume.

A :class:`GenerationTrace` stores, for every generated token, the full
sparse candidate set (ids + logits) and which candidate was sampled —
"record all generated nonzero logit values" (Section III-C).  The trace
exposes the *value region* (the steps from the first digit onward) in the
plain :class:`repro.analysis.decoding.StepCandidates` form so analysis does
not depend on this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.decoding import StepCandidates
from repro.errors import GenerationError
from repro.llm.vocab import TokenStrings, Vocabulary

__all__ = ["GenerationStep", "GenerationTrace"]


@dataclass(frozen=True)
class GenerationStep:
    """One generation step: sparse candidates and the sampled choice."""

    candidate_ids: np.ndarray
    logits: np.ndarray
    chosen_position: int

    def __post_init__(self):
        ids = np.asarray(self.candidate_ids, dtype=np.int64)
        logits = np.asarray(self.logits, dtype=float)
        object.__setattr__(self, "candidate_ids", ids)
        object.__setattr__(self, "logits", logits)
        if ids.shape != logits.shape or ids.ndim != 1:
            raise GenerationError("candidate ids/logits must be 1-D, aligned")
        if not 0 <= self.chosen_position < ids.size:
            raise GenerationError(
                f"chosen position {self.chosen_position} out of range"
            )

    @property
    def chosen_id(self) -> int:
        return int(self.candidate_ids[self.chosen_position])

    @property
    def n_candidates(self) -> int:
        return int(self.candidate_ids.size)


@dataclass
class GenerationTrace:
    """The full record of one generation."""

    prompt_ids: np.ndarray
    steps: list[GenerationStep] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        self.prompt_ids = np.asarray(self.prompt_ids, dtype=np.int64)

    @property
    def generated_ids(self) -> list[int]:
        """Sampled token ids, in order."""
        return [s.chosen_id for s in self.steps]

    def generated_text(self, vocab: Vocabulary) -> str:
        """Surface text of the generation (special tokens skipped)."""
        out = []
        for s in self.steps:
            tid = s.chosen_id
            if not vocab.is_special(tid):
                out.append(vocab.string_of(tid))
        return "".join(out)

    def value_region(self, vocab: Vocabulary) -> list[StepCandidates]:
        """Steps from the first sampled digit token onward.

        This is the region the decoding-tree analysis enumerates; empty
        when the generation never produced a digit.
        """
        for i, s in enumerate(self.steps):
            if vocab.string_of(s.chosen_id).isdigit():
                return [
                    StepCandidates(
                        tokens=TokenStrings(vocab, st.candidate_ids),
                        logits=st.logits,
                        chosen=st.chosen_position,
                    )
                    for st in self.steps[i:]
                ]
        return []

    def __len__(self) -> int:
        return len(self.steps)
