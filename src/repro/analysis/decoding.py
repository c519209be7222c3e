"""Enumeration of feasible alternative decodings of a generated value.

Section III-C: "we locally execute the model and record all generated
nonzero logit values.  This allows us to construct all 'feasible'
generation alternatives in the given scenario. ... we consider all
combinations reachable via alternative decodings of the original
generation."  Section IV-B then reports, per token position of the value
string, how many tokens were selectable (Table II), and Section IV-C
searches the resulting value "haystack".

This module is deliberately independent of the LM implementation: it
consumes plain per-step candidate records (token strings + logits + the
sampled choice), so it would work identically on logits dumped from a real
Llama run.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import AnalysisError

__all__ = [
    "StepCandidates",
    "ValueCandidate",
    "DecodingAlternatives",
    "TokenPositionStats",
    "enumerate_value_decodings",
    "token_position_table",
]


@dataclass(frozen=True)
class StepCandidates:
    """The recorded nonzero-logit alternatives of one generation step."""

    tokens: tuple[str, ...]
    logits: np.ndarray
    chosen: int

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=float)
        object.__setattr__(self, "logits", logits)
        if len(self.tokens) != logits.shape[0]:
            raise AnalysisError(
                f"{len(self.tokens)} tokens but {logits.shape[0]} logits"
            )
        if not 0 <= self.chosen < len(self.tokens):
            raise AnalysisError(
                f"chosen index {self.chosen} out of range ({len(self.tokens)})"
            )

    @property
    def chosen_token(self) -> str:
        return self.tokens[self.chosen]

    def log_probs(self) -> np.ndarray:
        """Normalized log-probabilities over the recorded candidates."""
        z = self.logits - self.logits.max()
        return z - math.log(float(np.exp(z).sum()))


def _is_value_piece(token: str) -> bool:
    """Whether a token extends a decimal digit string."""
    return token != "" and all(c.isdigit() or c == "." for c in token)


def _valid_extension(prefix: str, token: str) -> bool:
    """Whether appending ``token`` keeps ``prefix`` a valid decimal prefix."""
    if not _is_value_piece(token):
        return False
    candidate = prefix + token
    return candidate.count(".") <= 1


def _parse_value(text: str) -> float | None:
    """Parse a completed value string; None when unparsable/empty."""
    if not text or text == "." or text.count(".") > 1:
        return None
    try:
        return float(text)
    except ValueError:
        return None


@dataclass(frozen=True)
class ValueCandidate:
    """One generable value with its decoding and joint log-probability."""

    text: str
    value: float
    logprob: float
    n_tokens: int


@dataclass
class DecodingAlternatives:
    """The haystack: all enumerated generable values for one generation.

    Attributes
    ----------
    candidates:
        Enumerated values, highest joint log-probability first (capped at
        the enumeration limit).
    position_counts:
        Number of *value-compatible* selectable tokens at each value token
        position of the original sample path (Table II's per-position
        possibility counts).
    naive_permutations:
        Product of ``position_counts`` — the combinatorial upper bound on
        distinct decodings the paper reports as "Permutations".
    truncated:
        True when the enumeration cap was hit (the candidate list is then
        the top slice by log-probability, not exhaustive).
    sampled_text:
        The value string actually sampled by the model.
    """

    candidates: list[ValueCandidate]
    position_counts: list[int]
    naive_permutations: int
    truncated: bool
    sampled_text: str

    @property
    def values(self) -> np.ndarray:
        """Candidate values as an array (parallel to :attr:`probs`)."""
        return np.asarray([c.value for c in self.candidates], dtype=float)

    @property
    def probs(self) -> np.ndarray:
        """Normalized candidate probabilities from joint log-probs."""
        if not self.candidates:
            return np.empty(0)
        lp = np.asarray([c.logprob for c in self.candidates], dtype=float)
        z = lp - lp.max()
        w = np.exp(z)
        return w / w.sum()


def enumerate_value_decodings(
    steps: Sequence[StepCandidates],
    max_candidates: int = 20000,
) -> DecodingAlternatives:
    """Enumerate generable values from recorded value-region steps.

    The search walks the prefix tree of per-step candidates in best-first
    (joint log-probability) order.  A branch terminates — yielding a value —
    when it picks a non-numeric token (newline, end-of-turn, ...) or when it
    exhausts the recorded steps; branches whose accumulated text is not a
    parsable decimal are discarded.

    Parameters
    ----------
    steps:
        Recorded candidates for each step of the value region, in order.
        The first step should be the first token of the value.
    max_candidates:
        Enumeration cap; the exact combinatorial count is still reported in
        ``naive_permutations``.
    """
    if not steps:
        raise AnalysisError("cannot enumerate decodings of an empty step list")
    if max_candidates < 1:
        raise AnalysisError("max_candidates must be >= 1")

    # --- Table II per-position counts along the sampled path ----------- #
    # Positions are counted while the *sampled* path is still inside the
    # numeric value; at each such step we count every selectable token.
    position_counts: list[int] = []
    sampled_text = ""
    for step in steps:
        tok = step.chosen_token
        if not _valid_extension(sampled_text, tok):
            break
        position_counts.append(len(step.tokens))
        sampled_text += tok
    if not position_counts:
        # The sample never entered a numeric region; count the first step.
        position_counts = [len(steps[0].tokens)]
    naive_permutations = int(np.prod([max(c, 1) for c in position_counts]))

    # --- best-first enumeration over the candidate prefix tree --------- #
    step_logprobs = [s.log_probs() for s in steps]
    # Heap entries: (-joint_logprob, -depth, tiebreak, step_index, text).
    # Ties on log-probability prefer deeper nodes (depth-first), so flat
    # distributions still reach complete values instead of stalling in a
    # breadth-first frontier.
    counter = itertools.count()
    heap: list[tuple[float, int, int, int, str]] = [
        (0.0, 0, next(counter), 0, "")
    ]
    out: list[ValueCandidate] = []
    seen_texts: set[str] = set()
    # Expansion budget keeps worst-case work bounded even with huge fanout.
    budget = max_candidates * 50

    while heap and len(out) < max_candidates and budget > 0:
        neg_lp, _, _, i, text = heapq.heappop(heap)
        lp = -neg_lp
        budget -= 1
        if i >= len(steps):
            value = _parse_value(text)
            if value is not None and text not in seen_texts:
                seen_texts.add(text)
                out.append(
                    ValueCandidate(
                        text=text, value=value, logprob=lp, n_tokens=i
                    )
                )
            continue
        step = steps[i]
        lps = step_logprobs[i]
        for t, token in enumerate(step.tokens):
            child_lp = lp + float(lps[t])
            if _valid_extension(text, token):
                child_text = text + token
                if i + 1 == len(steps):
                    # Last recorded step: the value completes here — emit
                    # directly rather than round-tripping through the heap
                    # (which would starve under flat distributions, where
                    # best-first degenerates to breadth-first).
                    value = _parse_value(child_text)
                    if value is not None and child_text not in seen_texts:
                        seen_texts.add(child_text)
                        out.append(
                            ValueCandidate(
                                text=child_text,
                                value=value,
                                logprob=child_lp,
                                n_tokens=i + 1,
                            )
                        )
                else:
                    heapq.heappush(
                        heap,
                        (
                            -child_lp,
                            -(i + 1),
                            next(counter),
                            i + 1,
                            child_text,
                        ),
                    )
            else:
                # Non-numeric token terminates the value here.
                value = _parse_value(text)
                if value is not None and text not in seen_texts:
                    seen_texts.add(text)
                    out.append(
                        ValueCandidate(
                            text=text, value=value, logprob=child_lp, n_tokens=i
                        )
                    )
    truncated = bool(heap) or len(out) > max_candidates

    out.sort(key=lambda c: -c.logprob)
    if len(out) > max_candidates:
        out = out[:max_candidates]
    return DecodingAlternatives(
        candidates=out,
        position_counts=position_counts,
        naive_permutations=naive_permutations,
        truncated=truncated,
        sampled_text=sampled_text,
    )


@dataclass(frozen=True)
class TokenPositionStats:
    """Table II row: selectable-token statistics for one value position."""

    position: int
    mean_possibilities: float
    std_possibilities: float
    n_samples: int


def token_position_table(
    alternatives: Sequence[DecodingAlternatives],
) -> tuple[list[TokenPositionStats], "TokenPositionStats"]:
    """Aggregate per-position possibility counts across many generations.

    Returns
    -------
    (rows, permutations_row):
        ``rows`` holds one :class:`TokenPositionStats` per value-token
        position (1-based, like Table II); ``permutations_row`` aggregates
        the per-generation ``naive_permutations`` with ``position == 0``.
    """
    if not alternatives:
        raise AnalysisError("need at least one generation to tabulate")
    max_len = max(len(a.position_counts) for a in alternatives)
    rows: list[TokenPositionStats] = []
    for pos in range(max_len):
        counts = np.asarray(
            [
                a.position_counts[pos]
                for a in alternatives
                if len(a.position_counts) > pos
            ],
            dtype=float,
        )
        rows.append(
            TokenPositionStats(
                position=pos + 1,
                mean_possibilities=float(counts.mean()),
                std_possibilities=float(counts.std(ddof=0)),
                n_samples=int(counts.size),
            )
        )
    perms = np.asarray(
        [a.naive_permutations for a in alternatives], dtype=float
    )
    perm_row = TokenPositionStats(
        position=0,
        mean_possibilities=float(perms.mean()),
        std_possibilities=float(perms.std(ddof=0)),
        n_samples=int(perms.size),
    )
    return rows, perm_row
