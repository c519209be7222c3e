"""Assembly of full chat prompts from the three Figure-1 parts."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.dataset.syr2k import Syr2kTask
from repro.errors import PromptError
from repro.llm.tokenizer import Tokenizer, splice_is_exact
from repro.prompts.serialize import config_clauses, format_runtime
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
        The split is a proven piece boundary, so ``ids[:prefix_len]`` is
        the encoding of the text before the query.  0 when no
        meaningful split exists.
    """

    text: str
    ids: np.ndarray
    icl_value_strings: list[str]
    n_examples: int
    prefix_len: int = 0


#: Chat markers around the system turn, the user turn and the open
#: assistant turn a prompt ends with.
_SYSTEM_OPEN = "<|begin_of_text|><|start_header_id|>system<|end_header_id|>\n\n"
_USER_OPEN = "<|eot_id|><|start_header_id|>user<|end_header_id|>\n\n"
_ASSISTANT_OPEN = "<|eot_id|><|start_header_id|>assistant<|end_header_id|>\n\n"
_EXAMPLES = "\n\nHere are the examples:\n"
_COMPLETE = "\n\nPlease complete the following:\n"
_PROPOSE = (
    "\n\nPlease propose one hyperparameter configuration that "
    "achieves the following performance:\n"
)
#: What separates two example lines (one ``\n\n`` piece).
_LINE_JOIN = "\n\n"
#: Memoised segments and clauses per builder; past this many the memo
#: starts over, so arbitrary request values cannot grow it for ever.
_MEMO_LIMIT = 4096
#: Typecode of the id arrays assembled: a C ``long long``, so the result
#: is an int64 ndarray over the same buffer.  Concatenating these is a
#: copy of bytes, where converting a list costs ~40 ns per token.
_IDS = "q"


class PromptBuilder:
    """Builds LLAMBO-style prompts for one syr2k task.

    A prompt's token ids are compiled from its template rather than
    tokenized from its text.  The fixed segments (chat markers, system
    turn, problem description, labels) are encoded once per builder, the
    ids of each ``", name is value"`` clause once per distinct clause
    text, and runtimes by chunking their digits directly.  An example
    line's ids are then a concatenation, and lines join with the
    ``\\n\\n`` id.  Every join is one :func:`~repro.llm.tokenizer.splice_is_exact`
    proves exact: a clause whose end it cannot prove apart from the
    ``,`` or newline that follows (a string value ending in a space, say),
    or a value that is not a plain number, sends its line through
    :meth:`Tokenizer.encode` instead.  So ``ids == encode(text)`` always.

    Parameters
    ----------
    task:
        The tuning task (fixes the problem description and size clause).
    tokenizer:
        Tokenizer used to encode the final prompt.
    value_style:
        How runtimes render (:data:`~repro.prompts.serialize.VALUE_STYLES`).
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
        self._segments: dict[str, array] = {}
        self._clauses: dict[str, array | None] = {}
        self._line_head = f"Hyperparameter configuration: size is {task.size}"

    # ------------------------------------------------------------------ #
    def _segment(self, text: str) -> array:
        """Ids of a fixed template segment, encoded once."""
        ids = self._segments.get(text)
        if ids is None:
            if len(self._segments) >= _MEMO_LIMIT:
                self._segments.clear()
            ids = self._segments[text] = array(_IDS, self.tokenizer.encode(text))
        return ids

    def _clause(self, clause: str) -> array | None:
        """Ids of a piece of a line's config part, encoded on first sight;
        ``None`` when its end may merge with the ``,`` or newline that
        follows it."""
        try:
            return self._clauses[clause]
        except KeyError:
            pass
        if len(self._clauses) >= _MEMO_LIMIT:
            self._clauses.clear()
        exact = splice_is_exact(clause, ",") and splice_is_exact(clause, "\n")
        ids = self._clauses[clause] = (
            array(_IDS, self.tokenizer.encode(clause)) if exact else None
        )
        return ids

    def _line(
        self, config: Mapping[str, object], label: str, value: str = ""
    ) -> tuple[str, array]:
        """``Hyperparameter configuration: {config}`` + label + value.

        Returns the line's text and ids.  ``label`` starts with a newline
        and ends in ``": "`` before a value, so it splits from the last
        clause (checked per clause) and from a value's leading digit; a
        line with a join the rule cannot prove is encoded whole.
        """
        clauses = [self._line_head, *config_clauses(config)]
        text = "".join([*clauses, label, value])
        ids = array(_IDS)
        memo = self._clauses
        for clause in clauses:
            clause_ids = memo.get(clause) or self._clause(clause)
            if clause_ids is None:
                return text, array(_IDS, self.tokenizer.encode(text))
            ids += clause_ids
        number = self.tokenizer.encode_number(value) if value else []
        if number is None:
            return text, array(_IDS, self.tokenizer.encode(text))
        ids += self._segment(label)
        ids.extend(number)
        return text, ids

    def _target_line(self, value: str) -> tuple[str, array]:
        """The candidate-sampling query: a runtime, then the open config."""
        head, tail = "Performance: ", "\nHyperparameter configuration:"
        text = head + value + tail
        number = self.tokenizer.encode_number(value)
        if number is None:
            return text, array(_IDS, self.tokenizer.encode(text))
        ids = self._segment(head) + array(_IDS, number)
        ids += self._segment(tail)
        return text, ids

    def _finish(
        self,
        system: str,
        head: str,
        lines: list[tuple[str, array]],
        close: str,
        query: tuple[str, array],
        icl_values: list[str],
    ) -> PromptParts:
        """Join the chat turns, the example lines and the query.

        Every join splits exactly: the opening ends in a newline before
        a line's ``Hyperparameter``; a line ends in its value, never a
        newline, before the ``\\n\\n`` that follows it; ``close`` ends in
        a newline before the query; the query ends in ``:`` before the
        assistant marker.
        """
        opening = _SYSTEM_OPEN + system + _USER_OPEN + head
        texts = [opening]
        ids = self._segment(opening)[:]
        join = self._segment(_LINE_JOIN)
        for i, (text, line_ids) in enumerate(lines):
            if i:
                texts.append(_LINE_JOIN)
                ids += join
            texts.append(text)
            ids += line_ids
        texts += [close, query[0], _ASSISTANT_OPEN]
        ids += self._segment(close)
        prefix_len = len(ids)
        ids += query[1]
        ids += self._segment(_ASSISTANT_OPEN)
        return PromptParts(
            text="".join(texts),
            ids=np.frombuffer(ids, dtype=np.int64),
            icl_value_strings=icl_values,
            n_examples=len(lines),
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
        icl_values, lines = self._runtime_lines(examples)
        return self._finish(
            SYSTEM_INSTRUCTIONS,
            problem_description(self.task) + _EXAMPLES,
            lines,
            _COMPLETE,
            self._line(query_config, "\nPerformance:"),
            icl_values,
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
        lines = []
        labels = []
        for cfg, bucket in examples:
            if not 0 <= bucket < n_buckets:
                raise PromptError(
                    f"bucket {bucket} out of range [0, {n_buckets})"
                )
            lines.append(self._line(cfg, "\nPerformance bucket: ", f"{bucket}"))
            labels.append(str(bucket))
        head = (
            problem_description(self.task)
            + f"\n\nPerformance is discretized into {n_buckets} buckets "
            "numbered 0 (fastest) through "
            f"{n_buckets - 1} (slowest)."
            + _EXAMPLES
        )
        return self._finish(
            SYSTEM_INSTRUCTIONS_GENERATIVE,
            head,
            lines,
            _COMPLETE,
            self._line(query_config, "\nPerformance bucket:"),
            labels,
        )

    def candidate_sampling(
        self,
        examples: Sequence[tuple[Mapping[str, object], float]],
        target_runtime: float,
    ) -> PromptParts:
        """Candidate-sampling mode: propose a configuration for a target."""
        if not examples:
            raise PromptError("candidate prompts need >= 1 ICL example")
        icl_values, lines = self._runtime_lines(examples)
        return self._finish(
            SYSTEM_INSTRUCTIONS_CANDIDATE,
            problem_description(self.task) + _EXAMPLES,
            lines,
            _PROPOSE,
            self._target_line(format_runtime(target_runtime, self.value_style)),
            icl_values,
        )

    def _runtime_lines(
        self, examples: Sequence[tuple[Mapping[str, object], float]]
    ) -> tuple[list[str], list[tuple[str, array]]]:
        """The rendered runtimes and the example lines showing them."""
        style = self.value_style
        values = [format_runtime(rt, style) for _, rt in examples]
        lines = [
            self._line(cfg, "\nPerformance: ", value)
            for (cfg, _), value in zip(examples, values)
        ]
        return values, lines
