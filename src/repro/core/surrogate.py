"""The discriminative surrogate: predict a runtime from ICL examples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.decoding import StepCandidates
from repro.dataset.syr2k import Syr2kTask
from repro.errors import ParseError
from repro.llm.engine import GenerationEngine
from repro.llm.model import SurrogateLM
from repro.llm.prefix_cache import PreparedPrefix, PrefixCache
from repro.llm.sampling import SamplingParams
from repro.llm.tokenizer import Tokenizer
from repro.llm.trace import GenerationTrace
from repro.prompts.builder import PromptBuilder, PromptParts
from repro.prompts.parser import extract_prediction

__all__ = ["SurrogatePrediction", "DiscriminativeSurrogate"]


@dataclass
class SurrogatePrediction:
    """One surrogate prediction with its full generation evidence.

    Attributes
    ----------
    value:
        Parsed predicted runtime (None when the generation contained no
        parsable value — a format failure).
    value_text:
        The exact value substring (what copy analysis compares to ICL).
    generated_text:
        The full generated surface text.
    icl_value_strings:
        The performance strings shown in context.
    value_steps:
        Recorded candidates for the value region of the generation (input
        to the decoding-tree analyses).
    n_prompt_tokens:
        Prompt length (context-budget bookkeeping).
    seed:
        Sampling seed used.
    """

    value: float | None
    value_text: str
    generated_text: str
    icl_value_strings: list[str]
    value_steps: list[StepCandidates]
    n_prompt_tokens: int
    seed: int

    @property
    def parsed(self) -> bool:
        """Whether a value could be extracted from the generation."""
        return self.value is not None

    @property
    def exact_copy(self) -> bool:
        """Whether the value string verbatim-copies an ICL value."""
        return self.value_text in self.icl_value_strings


class DiscriminativeSurrogate:
    """LLAMBO discriminative surrogate on top of the surrogate LM.

    Parameters
    ----------
    task:
        The syr2k task (fixes the prompt's problem description).
    tokenizer, model, engine:
        Optional pre-built components; defaults construct the calibrated
        stack.
    prefix_cache:
        ``True`` (default) owns a
        :class:`~repro.llm.prefix_cache.PrefixCache` of prepared-prefix
        snapshots — prompts sharing their ICL prefix then only process
        the query delta, bit-identically to the cold path.  ``False``
        disables prefix reuse entirely (the benchmark baseline).
    """

    def __init__(
        self,
        task: Syr2kTask,
        tokenizer: Tokenizer | None = None,
        model: SurrogateLM | None = None,
        engine: GenerationEngine | None = None,
        sampling: SamplingParams | None = None,
        value_style: str = "decimal",
        prefix_cache: bool = True,
    ):
        self.task = task
        self.tokenizer = tokenizer or Tokenizer()
        self.model = model or SurrogateLM(self.tokenizer.vocab)
        self.engine = engine or GenerationEngine(self.model, sampling=sampling)
        self.builder = PromptBuilder(
            task, self.tokenizer, value_style=value_style
        )
        self.prefix_cache = PrefixCache(self.model) if prefix_cache else None

    def build_parts(
        self,
        examples: Sequence[tuple[Mapping[str, object], float]],
        query_config: Mapping[str, object],
    ) -> PromptParts:
        """Build the discriminative prompt without generating.

        Exposed separately from :meth:`predict` so the serving layer
        (:mod:`repro.serve`) builds a prompt only for a result-cache miss
        and hands it to the batch worker that decodes it.
        """
        return self.builder.discriminative(examples, query_config)

    def prepared_prefix(self, parts: PromptParts) -> PreparedPrefix | None:
        """Prepared-prefix snapshot for a built prompt (None when disabled).

        Looks up (building on miss) the snapshot for ``parts``' shared
        ICL prefix in this surrogate's :class:`PrefixCache`.  Returns
        ``None`` when prefix reuse is off or the prompt has no usable
        split.
        """
        if self.prefix_cache is None:
            return None
        prefix_len = int(getattr(parts, "prefix_len", 0) or 0)
        if prefix_len <= 0:
            return None
        return self.prefix_cache.prepared(parts.ids, prefix_len)

    def predict_parts(
        self,
        parts: PromptParts,
        seed: int = 0,
        analysis=None,
    ) -> SurrogatePrediction:
        """Generate + parse a prediction from an already-built prompt.

        Parameters
        ----------
        parts:
            Prompt from :meth:`build_parts`.
        seed:
            Sampling seed.
        analysis:
            Optional memoized :meth:`SurrogateLM.prepare` result for this
            prompt (must match ``parts.ids``); forwarded to the engine.
        """
        return self.predict_parts_batch(parts, [seed], analysis=analysis)[0]

    def predict_parts_batch(
        self,
        parts: PromptParts,
        seeds: Sequence[int],
        analysis=None,
        evidence: bool = True,
    ) -> list[SurrogatePrediction]:
        """One prediction per seed for a single built prompt.

        Decodes all seeds through the engine's lockstep loop (sharing the
        seed-independent content pass per step); each prediction depends
        on its own seed alone.  ``evidence=False`` leaves ``value_steps``
        empty instead of assembling the value region's candidates: a
        caller that reads only the value skips that work.
        """
        traces = self.engine.generate_batch(
            parts.ids,
            seeds,
            analysis=analysis,
            prefix=self.prepared_prefix(parts),
        )
        return [
            self._prediction_from_trace(parts, trace, seed, evidence)
            for trace, seed in zip(traces, seeds)
        ]

    def _prediction_from_trace(
        self,
        parts: PromptParts,
        trace: GenerationTrace,
        seed: int,
        evidence: bool,
    ) -> SurrogatePrediction:
        text = trace.generated_text(self.tokenizer.vocab)
        try:
            value, value_text = extract_prediction(text)
        except ParseError:
            value, value_text = None, ""
        return SurrogatePrediction(
            value=value,
            value_text=value_text,
            generated_text=text,
            icl_value_strings=list(parts.icl_value_strings),
            value_steps=(
                trace.value_region(self.tokenizer.vocab) if evidence else []
            ),
            n_prompt_tokens=int(parts.ids.size),
            seed=int(seed),
        )

    def predict(
        self,
        examples: Sequence[tuple[Mapping[str, object], float]],
        query_config: Mapping[str, object],
        seed: int = 0,
    ) -> SurrogatePrediction:
        """Predict the runtime of ``query_config`` from ``examples``."""
        return self.predict_parts(
            self.build_parts(examples, query_config), seed=seed
        )
