"""LLAMBO candidate sampling: ask the LM for a configuration.

LLAMBO's third prompting mode (Section II-B) "inverts the discriminative
relationship by proposing a configuration expected to produce a given
performance value".  Each iteration shows the LM the observations so far
and a target slightly better than the incumbent, and asks it to propose a
configuration.  Generations that do not parse into a complete, in-domain
configuration (a frequent failure mode, consistent with the paper's
format-deviation findings) fall back to a random proposal; the fallback
rate is tracked and reported by the ablation benchmark.
"""

from __future__ import annotations

from repro.dataset.space import ConfigSpace
from repro.dataset.syr2k import Syr2kTask
from repro.errors import ParseError, TuningError
from repro.llm.engine import GenerationEngine
from repro.llm.model import SurrogateLM
from repro.llm.tokenizer import Tokenizer
from repro.prompts.builder import PromptBuilder
from repro.prompts.parser import extract_configuration
from repro.tuning.base import Tuner, TuningHistory
from repro.utils.rng import derive_seed, rng_from

__all__ = ["LLMCandidateTuner"]


class LLMCandidateTuner(Tuner):
    """Configuration proposals via LM candidate-sampling prompts.

    Parameters
    ----------
    task:
        The syr2k task (needed for prompt construction).
    seed:
        Randomness root (generation seeds and random fallbacks).
    target_ratio:
        Target performance = incumbent best * this ratio (< 1 asks the LM
        to beat the incumbent).
    max_context_examples:
        At most this many recent observations are shown in the prompt.
    n_init:
        Random evaluations before the LM is first consulted.
    """

    name = "llm-sampler"

    def __init__(
        self,
        space: ConfigSpace,
        task: Syr2kTask,
        seed: int = 0,
        target_ratio: float = 0.9,
        max_context_examples: int = 20,
        n_init: int = 4,
    ):
        super().__init__(space, seed)
        if not 0 < target_ratio <= 1:
            raise TuningError(
                f"target_ratio must be in (0, 1], got {target_ratio}"
            )
        if n_init < 1:
            raise TuningError(f"n_init must be >= 1, got {n_init}")
        self.task = task
        self.target_ratio = target_ratio
        self.max_context_examples = max_context_examples
        self.n_init = n_init
        self.tokenizer = Tokenizer()
        self.model = SurrogateLM(self.tokenizer.vocab)
        # Proposing a configuration needs a full line of tokens, not a
        # short value string.
        self.engine = GenerationEngine(self.model, max_new_tokens=96)
        self.builder = PromptBuilder(task, self.tokenizer)
        self.n_fallbacks = 0
        self.n_proposals = 0
        self.reset()

    def reset(self) -> None:
        self._rng = rng_from(self.seed, "llm-sampler")
        self.n_fallbacks = 0
        self.n_proposals = 0

    def _random_unseen(self, history: TuningHistory) -> int:
        seen = history.evaluated
        for _ in range(64):
            idx = int(self._rng.integers(self.space.size))
            if idx not in seen:
                return idx
        return int(self._rng.integers(self.space.size))

    def propose(self, history: TuningHistory) -> int:
        if len(history) < self.n_init:
            return self._random_unseen(history)

        recent = list(zip(history.indices, history.runtimes))[
            -self.max_context_examples :
        ]
        examples = [
            (self.space.from_index(idx), runtime) for idx, runtime in recent
        ]
        target = history.best_runtime * self.target_ratio
        parts = self.builder.candidate_sampling(examples, target)
        gen_seed = derive_seed(self.seed, "llm-proposal", len(history))
        trace = self.engine.generate(parts.ids, seed=gen_seed)
        text = trace.generated_text(self.tokenizer.vocab)
        self.n_proposals += 1
        try:
            config = extract_configuration(text, self.space)
        except ParseError:
            self.n_fallbacks += 1
            return self._random_unseen(history)
        index = self.space.to_index(config)
        if index in history.evaluated:
            # Re-proposing an observed config wastes budget; perturb.
            self.n_fallbacks += 1
            return self._random_unseen(history)
        return index

    @property
    def fallback_rate(self) -> float:
        """Share of LM proposals that failed to parse or repeated."""
        if self.n_proposals == 0:
            return 0.0
        return self.n_fallbacks / self.n_proposals
