"""Assembly of full chat prompts from the three Figure-1 parts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.dataset.syr2k import Syr2kTask
from repro.errors import PromptError
from repro.llm.tokenizer import Tokenizer
from repro.prompts.serialize import (
    example_block,
    format_runtime,
    query_block,
    serialize_config,
)
from repro.prompts.templates import (
    SYSTEM_INSTRUCTIONS,
    SYSTEM_INSTRUCTIONS_CANDIDATE,
    SYSTEM_INSTRUCTIONS_GENERATIVE,
    problem_description,
)

__all__ = ["PromptParts", "PromptBuilder"]


@dataclass
class PromptParts:
    """A built prompt: full text, token ids, and bookkeeping for analysis.

    Attributes
    ----------
    text:
        The complete chat-formatted prompt string.
    ids:
        Token ids of ``text``.
    icl_value_strings:
        The serialized performance strings shown in context (the copy/
        prefix-cluster analyses compare generations against these).
    n_examples:
        Number of ICL examples included.
    prefix_len:
        Token count of the shared leading slice of ``ids`` — everything
        up to (but excluding) the query-specific tail.  Prompts built
        from the same task and ICL examples share this prefix exactly,
        which is what the :mod:`repro.llm.prefix_cache` layer keys on.
        Computed against the actual tokenization (the boundary is walked
        back if the tokenizer merged across the text split), so
        ``ids[:prefix_len]`` is always a verbatim prefix of the full
        encoding.  0 when no meaningful split exists.
    """

    text: str
    ids: np.ndarray
    icl_value_strings: list[str]
    n_examples: int
    prefix_len: int = 0


class PromptBuilder:
    """Builds LLAMBO-style prompts for one syr2k task.

    Parameters
    ----------
    task:
        The tuning task (fixes the problem description and size clause).
    tokenizer:
        Tokenizer used to encode the final prompt.
    """

    def __init__(
        self,
        task: Syr2kTask,
        tokenizer: Tokenizer | None = None,
        value_style: str = "decimal",
    ):
        self.task = task
        self.tokenizer = tokenizer or Tokenizer()
        # Validate eagerly so a typo fails at construction, not mid-grid.
        format_runtime(1.0, value_style)
        self.value_style = value_style
        # Shared-prefix encodings recur for every query of a sweep; memoize
        # a handful (keyed by prefix text) so prefix_len costs one encode
        # per distinct (system, examples) combination, not per prompt.
        self._prefix_ids_memo: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    def _chat_prefix(self, system: str, user_head: str) -> str:
        """Chat markers + system turn + the head of the user turn."""
        return (
            "<|begin_of_text|>"
            "<|start_header_id|>system<|end_header_id|>\n\n"
            f"{system}<|eot_id|>"
            "<|start_header_id|>user<|end_header_id|>\n\n"
            f"{user_head}"
        )

    def _prefix_ids(self, prefix_text: str) -> np.ndarray:
        pids = self._prefix_ids_memo.get(prefix_text)
        if pids is None:
            pids = np.asarray(self.tokenizer.encode(prefix_text), dtype=np.int64)
            if len(self._prefix_ids_memo) >= 8:
                self._prefix_ids_memo.pop(next(iter(self._prefix_ids_memo)))
            self._prefix_ids_memo[prefix_text] = pids
        return pids

    @staticmethod
    def _splice_is_exact(prefix_text: str, rest: str) -> bool:
        """Whether ``encode(prefix) + encode(rest) == encode(prefix+rest)``.

        The piece regex has no lookbehind, so per-piece encoding is
        position-local; the only way a piece can straddle the boundary is
        a run continuing across it.  A prefix ending in a single newline
        followed by anything but another newline cannot extend any
        alternative (``\\n\\n`` is the sole pattern consuming past a
        newline), so the spliced encoding is exact.
        """
        return prefix_text.endswith("\n") and not rest.startswith("\n")

    def _finish(
        self,
        system: str,
        user_head: str,
        user_tail: str,
        icl_values: list[str],
        n_examples: int,
    ) -> PromptParts:
        prefix_text = self._chat_prefix(system, user_head)
        rest = user_tail + (
            "<|eot_id|>"
            "<|start_header_id|>assistant<|end_header_id|>\n\n"
        )
        pids = self._prefix_ids(prefix_text)
        if self._splice_is_exact(prefix_text, rest):
            # Fast path: reuse the memoized prefix encoding and tokenize
            # only the query tail (grids re-encode the same multi-KB
            # prefix thousands of times otherwise).
            tail_ids = np.asarray(self.tokenizer.encode(rest), dtype=np.int64)
            ids = np.concatenate([pids, tail_ids])
            prefix_len = int(pids.size)
        else:
            ids = np.asarray(
                self.tokenizer.encode(prefix_text + rest), dtype=np.int64
            )
            # Clamp the split to the longest common token prefix: the
            # greedy tokenizer merged across the text boundary.
            m = min(int(pids.size), int(ids.size))
            eq = pids[:m] == ids[:m]
            prefix_len = m if bool(eq.all()) else int(np.argmin(eq))
        return PromptParts(
            text=prefix_text + rest,
            ids=ids,
            icl_value_strings=icl_values,
            n_examples=n_examples,
            prefix_len=prefix_len,
        )

    # ------------------------------------------------------------------ #
    def discriminative(
        self,
        examples: Sequence[tuple[Mapping[str, object], float]],
        query_config: Mapping[str, object],
    ) -> PromptParts:
        """The paper's main prompt: predict the runtime of ``query_config``.

        Parameters
        ----------
        examples:
            ``(configuration, runtime)`` ICL pairs, in presentation order.
        query_config:
            The configuration whose performance the model must predict.
        """
        if not examples:
            raise PromptError("discriminative prompts need >= 1 ICL example")
        size = self.task.size
        style = self.value_style
        blocks = [example_block(cfg, size, rt, style) for cfg, rt in examples]
        icl_values = [format_runtime(rt, style) for _, rt in examples]
        head = (
            problem_description(self.task)
            + "\n\nHere are the examples:\n"
            + "\n".join(blocks)
            + "\nPlease complete the following:\n"
        )
        tail = query_block(query_config, size)
        return self._finish(
            SYSTEM_INSTRUCTIONS, head, tail, icl_values, len(examples)
        )

    def generative(
        self,
        examples: Sequence[tuple[Mapping[str, object], int]],
        query_config: Mapping[str, object],
        n_buckets: int,
    ) -> PromptParts:
        """Generative surrogate mode: N-ary bucket classification."""
        if not examples:
            raise PromptError("generative prompts need >= 1 ICL example")
        if n_buckets < 2:
            raise PromptError(f"need >= 2 buckets, got {n_buckets}")
        size = self.task.size
        blocks = []
        labels = []
        for cfg, bucket in examples:
            if not 0 <= bucket < n_buckets:
                raise PromptError(
                    f"bucket {bucket} out of range [0, {n_buckets})"
                )
            blocks.append(
                f"Hyperparameter configuration: {serialize_config(cfg, size)}\n"
                f"Performance bucket: {bucket}\n"
            )
            labels.append(str(bucket))
        head = (
            problem_description(self.task)
            + f"\n\nPerformance is discretized into {n_buckets} buckets "
            "numbered 0 (fastest) through "
            f"{n_buckets - 1} (slowest).\n\nHere are the examples:\n"
            + "\n".join(blocks)
            + "\nPlease complete the following:\n"
        )
        tail = (
            f"Hyperparameter configuration: "
            f"{serialize_config(query_config, size)}\n"
            "Performance bucket:"
        )
        return self._finish(
            SYSTEM_INSTRUCTIONS_GENERATIVE, head, tail, labels, len(examples)
        )

    def candidate_sampling(
        self,
        examples: Sequence[tuple[Mapping[str, object], float]],
        target_runtime: float,
    ) -> PromptParts:
        """Candidate-sampling mode: propose a configuration for a target."""
        if not examples:
            raise PromptError("candidate prompts need >= 1 ICL example")
        size = self.task.size
        style = self.value_style
        blocks = [example_block(cfg, size, rt, style) for cfg, rt in examples]
        icl_values = [format_runtime(rt, style) for _, rt in examples]
        head = (
            problem_description(self.task)
            + "\n\nHere are the examples:\n"
            + "\n".join(blocks)
            + "\nPlease propose one hyperparameter configuration that "
            "achieves the following performance:\n"
        )
        tail = (
            f"Performance: {format_runtime(target_runtime, style)}\n"
            "Hyperparameter configuration:"
        )
        return self._finish(
            SYSTEM_INSTRUCTIONS_CANDIDATE, head, tail, icl_values, len(examples)
        )
