"""Next-token scorers composing the surrogate LM.

Each scorer inspects the context and returns a :class:`SparseScores` —
additive logit contributions over a sparse token support.  The scorers
model the mechanisms the ICL literature (and the paper's own post-hoc
analysis) identify in instruction-tuned transformers:

* :class:`InductionScorer` — induction heads: find earlier occurrences of
  the current context suffix and vote for the tokens that followed them,
  with exponentially stronger votes for longer matches and a mild recency
  bias.  This is the "parroting" mechanism behind Figure 3.
* :class:`RecencyUnigramScorer` — the prompt's token frequency with
  exponential recency decay (attention sinks on recent content).
* :class:`FormatScorer` — instruction-following: the model aligns its
  response with the *demonstrated* answer format.  It anchors on the
  ``Performance: `` cue occurrences in the prompt (what starts a value,
  how many decimals the demonstrations carry), spreads a noisy low-level
  prior over all digit chunks (which is what makes hundreds of tokens
  "selectable" at fractional positions — Table II), and ramps a stop
  signal once the value matches the demonstrated length.
* :class:`PriorScorer` — a fixed, hash-derived pretraining prior plus weak
  "world knowledge": a magnitude hint keyed to the problem-size keyword in
  the prompt (XL runtimes have a nonzero integer part; SM's start with 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.llm.vocab import Vocabulary
from repro.utils.rng import rng_from

__all__ = [
    "SparseScores",
    "InductionIndex",
    "InductionScorer",
    "RecencyUnigramScorer",
    "FormatScorer",
    "FormatAnalysis",
    "FormatPrefixIndex",
    "PriorScorer",
]


@dataclass
class SparseScores:
    """Additive logit contributions over a sparse token support."""

    ids: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=float)
        if self.ids.shape != self.scores.shape or self.ids.ndim != 1:
            raise ValueError("ids and scores must be equal-length 1-D arrays")

    @staticmethod
    def empty() -> "SparseScores":
        return SparseScores(np.empty(0, dtype=np.int64), np.empty(0))

    @staticmethod
    def accumulate(parts: list["SparseScores"]) -> "SparseScores":
        """Sum several sparse score vectors over the union support."""
        parts = [p for p in parts if p.ids.size]
        if not parts:
            return SparseScores.empty()
        all_ids = np.concatenate([p.ids for p in parts])
        all_scores = np.concatenate([p.scores for p in parts])
        return SparseScores(*_sum_by_id(all_ids, all_scores))


def _sum_by_id(ids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(support, per-id sums)`` of non-negative ``ids``, support ascending.

    ``bincount`` adds each bucket's values sequentially in element order,
    exactly as ``np.add.at`` over a ``np.unique`` inverse (and a dict
    loop) does, so the sums are bit-identical to those formulations.  The
    support comes from the unweighted counts, so ids whose values cancel
    to zero stay in it.
    """
    support = np.flatnonzero(np.bincount(ids))
    return support, np.bincount(ids, values)[support]


@dataclass(frozen=True)
class InductionIndex:
    """Packed n-gram windows of a prefix (see ``InductionScorer.build_index``)."""

    radix: int
    tables: tuple[tuple[np.ndarray, np.ndarray], ...]

    def starts(self, window: np.ndarray) -> np.ndarray:
        """Ascending starts of the indexed windows equal to ``window``."""
        if window.size > len(self.tables) or window.max() >= self.radix:
            return np.empty(0, dtype=np.int64)  # no prefix window matches
        key = 0
        for tok in window.tolist():
            key = key * self.radix + tok
        keys, starts = self.tables[window.size - 1]
        return starts[keys.searchsorted(key) : keys.searchsorted(key, "right")]


class InductionScorer:
    """Suffix-match voting over earlier context positions.

    Parameters
    ----------
    max_ngram:
        Longest suffix length searched.
    match_base:
        Per-extra-token multiplier on vote weight: a length-``L`` match
        votes with weight ``match_base**(L-1)``.
    recency_halflife:
        Votes decay by half every this many tokens of distance from the
        context end (the recency bias the paper highlights).
    scale, offset:
        The normalized vote distribution ``p`` contributes logits
        ``offset + scale * log(p)`` — ``offset`` sets how decisively
        induction evidence beats the diffuse format prior.
    """

    def __init__(
        self,
        max_ngram: int = 4,
        match_base: float = 1.8,
        recency_halflife: float = 1200.0,
        scale: float = 1.5,
        offset: float = 12.0,
    ):
        if max_ngram < 1:
            raise ValueError(f"max_ngram must be >= 1, got {max_ngram}")
        if match_base < 1.0:
            raise ValueError(f"match_base must be >= 1, got {match_base}")
        self.max_ngram = max_ngram
        self.match_base = match_base
        self.recency_halflife = recency_halflife
        self.scale = scale
        self.offset = offset

    def score(
        self, context: np.ndarray, offset_shift: float = 0.0
    ) -> SparseScores:
        """Vote weights for the token following ``context``.

        ``offset_shift`` lowers (negative) or raises the decisiveness
        offset — the model uses it to fade induction dominance at late
        value positions, where generations diverge from exact ICL copies.
        """
        ctx = np.asarray(context, dtype=np.int64)
        n = ctx.size
        if n < 2:
            return SparseScores.empty()
        votes: dict[int, float] = {}
        decay = np.log(2.0) / self.recency_halflife
        max_l = min(self.max_ngram, n - 1)
        for length in range(1, max_l + 1):
            suffix = ctx[n - length :]
            # Window starts 0..n-length-1 can be followed by a next token.
            eq = np.all(sliding_window_view(ctx[: n - 1], length) == suffix, axis=1)
            starts = np.nonzero(eq)[0]
            if starts.size == 0:
                continue
            weight_l = self.match_base ** (length - 1)
            next_tokens = ctx[starts + length]
            recency = np.exp(-decay * (n - (starts + length)))
            for tok, rec in zip(next_tokens, recency):
                votes[int(tok)] = votes.get(int(tok), 0.0) + weight_l * float(rec)
        return self._vote_scores(votes, offset_shift)

    def _vote_scores(
        self, votes: dict[int, float], offset_shift: float
    ) -> SparseScores:
        """Normalized votes -> ``offset + scale * log(p)`` in insertion order."""
        if not votes:
            return SparseScores.empty()
        ids = np.fromiter(votes.keys(), dtype=np.int64, count=len(votes))
        w = np.fromiter(votes.values(), dtype=float, count=len(votes))
        p = w / w.sum()
        return SparseScores(
            ids, self.offset + offset_shift + self.scale * np.log(p + 1e-12)
        )

    # ------------------------------------------------------------------ #
    # Prefix-indexed fast path.  ``score`` above stays the reference
    # implementation; ``score_indexed`` must be bit-identical to it (the
    # prefix-cache determinism tests diff full logit arrays both ways).
    # ------------------------------------------------------------------ #
    def build_index(self, prefix: np.ndarray) -> InductionIndex:
        """Precompute the suffix-match table for a fixed prompt prefix.

        For every n-gram length ``L`` the index lists the window starts
        within the prefix whose *next token* is also inside the prefix
        (``start <= len(prefix) - 1 - L``) — exactly the starts the
        reference full scan would find there.  Each window packs into one
        int64 key, base ``radix`` (one more than the largest prefix id);
        ``tables[L - 1]`` holds the keys in stable-sorted order beside the
        window starts in that order, so the starts sharing a key ascend.
        """
        ctx = np.asarray(prefix, dtype=np.int64)
        radix = int(ctx.max(initial=0)) + 1
        if radix**self.max_ngram > np.iinfo(np.int64).max:
            raise ValueError(f"{self.max_ngram}-gram keys of {radix} ids overflow int64")
        tables = []
        keys = np.zeros(ctx.size, dtype=np.int64)
        for length in range(1, min(self.max_ngram, ctx.size - 1) + 1):
            # key(start, L) = key(start, L - 1) * radix + ctx[start + L - 1]
            keys = keys[:-1] * radix + ctx[length - 1 : -1]
            order = np.argsort(keys, kind="stable")
            tables.append((keys[order], order))
        return InductionIndex(radix, tuple(tables))

    def score_indexed(
        self,
        context: np.ndarray,
        index: InductionIndex,
        prefix_len: int,
        offset_shift: float = 0.0,
    ) -> SparseScores:
        """Suffix-match voting using a prefix index plus a tail scan.

        Think of a length-``L`` match by the position ``t`` of its last
        token (``t <= n - 2``, so a next token follows).  Matches ending
        before ``prefix_len - 1`` come from the index.  The rest end in
        the tail ``[prefix_len - 1, n - 2]``: the length-1 matches there
        are one equality check, and the length-``L`` matches are the
        length-``L - 1`` ones that also agree ``L - 1`` tokens back, one
        shifted check per length.  Matches are visited in the reference
        scan's order (length ascending, starts ascending) and the votes
        go through the reference's own dict loop, so the scores are
        bit-identical to :meth:`score`.
        """
        ctx = np.asarray(context, dtype=np.int64)
        n = ctx.size
        if n < 2:
            return SparseScores.empty()
        t0 = max(prefix_len - 1, 0)
        match = ctx[t0 : n - 1] == ctx[-1]  # tail ends, length 1
        nexts: list[np.ndarray] = []  # next-token positions, in scan order
        weights: list[float] = []
        counts: list[int] = []
        for length in range(1, min(self.max_ngram, n - 1) + 1):
            back = length - 1
            if back:
                if t0 < back:
                    match[: back - t0] = False  # no window that long ends here
                lo = max(t0, back)
                match[lo - t0 :] &= ctx[lo - back : n - 1 - back] == ctx[n - length]
            found = np.concatenate(
                [index.starts(ctx[n - length :]) + length, np.flatnonzero(match) + t0 + 1]
            )
            if not found.size:
                break  # a length-L+1 match would contain a length-L one
            nexts.append(found)
            weights.append(self.match_base**back)
            counts.append(found.size)
        if not nexts:
            return SparseScores.empty()
        nxt = np.concatenate(nexts)
        decay = np.log(2.0) / self.recency_halflife
        vote = np.repeat(weights, counts) * np.exp(-decay * (n - nxt))
        votes: dict[int, float] = {}
        for tok, w in zip(ctx[nxt].tolist(), vote.tolist()):
            votes[tok] = votes.get(tok, 0.0) + w
        return self._vote_scores(votes, offset_shift)


class RecencyUnigramScorer:
    """Recency-decayed unigram frequency of the context."""

    def __init__(self, halflife: float = 1500.0, scale: float = 1.0):
        if halflife <= 0:
            raise ValueError(f"halflife must be positive, got {halflife}")
        self.halflife = halflife
        self.scale = scale

    def score(self, context: np.ndarray) -> SparseScores:
        """Recency-weighted token frequency over the whole context.

        One ``bincount`` pass; the sums match a ``np.add.at`` over the
        ``np.unique`` factorization bit for bit (see :func:`_sum_by_id`),
        so no prefix factorization is needed to make this cheap.
        """
        ctx = np.asarray(context, dtype=np.int64)
        n = ctx.size
        if n == 0:
            return SparseScores.empty()
        decay = np.log(2.0) / self.halflife
        weights = np.exp(-decay * (n - 1 - np.arange(n)))
        uniq, mass = _sum_by_id(ctx, weights)
        p = mass / mass.sum()
        return SparseScores(uniq, self.scale * np.log(p + 1e-12))


@dataclass
class _ValueState:
    """Where the generation currently stands inside a value string.

    ``phase`` walks ``preamble -> value -> done``: instruction-tuned models
    sometimes echo a label before the number — the format deviations
    Section III-C mentions — so non-numeric tokens before the first digit
    are tolerated as preamble rather than ending the value.
    """

    phase: str = "preamble"
    n_tokens: int = 0
    seen_dot: bool = False
    digits_after_dot: int = 0


@dataclass
class FormatAnalysis:
    """What the format scorer learned from one prompt.

    Attributes
    ----------
    start_votes:
        Recency-weighted votes (token id -> weight) for the token that
        begins a demonstrated value (the token right after the
        ``Performance: `` cue).
    expected_decimals:
        Modal number of digits after the decimal point across the
        demonstrated values (None when no demonstration was found).
    """

    start_votes: dict[int, float] = field(default_factory=dict)
    expected_decimals: int | None = None
    #: First fraction-chunk strings of the demonstrated values (e.g.
    #: ``"002"`` for ``0.0022155``): the prefixes generable alternatives
    #: cluster around (Figure 3).
    fraction_prefixes: list[str] = field(default_factory=list)
    #: True when the demonstrated values carry no decimal point (the
    #: generative bucket-label format): the model should then emit a bare
    #: integer and stop.
    integer_valued: bool = False


@dataclass(frozen=True)
class _CueRecord:
    """One parsed demonstrated value (what follows a ``Performance:`` cue).

    Position-dependent but length-independent: the recency weight of the
    start vote depends on the *current* context length, so it is not
    stored here — only the parse, which is frozen once the value lies
    fully inside a fixed prefix.
    """

    start: int
    first: int
    seen_dot: bool
    decimals: int
    fraction_prefix: str | None


@dataclass(frozen=True)
class FormatPrefixIndex:
    """Parsed cue records of a fixed prompt prefix (FSM prepared state).

    ``records`` holds the cue hits whose 8-token parse window lies fully
    inside the prefix (``hit <= prefix_len - 11``); hits nearer the
    boundary are re-scanned against the full context at analysis time.
    """

    prefix_len: int
    records: tuple[_CueRecord | None, ...]


class FormatScorer:
    """Instruction-following prior for the ``Performance: <decimal>`` format."""

    def __init__(
        self,
        vocab: Vocabulary,
        digit_boost: float = 0.5,
        digit_jitter: float = 1.5,
        dot_boost: float = 12.0,
        start_scale: float = 3.0,
        start_offset: float = 13.0,
        terminate_boost: float = 14.0,
        premature_stop_penalty: float = -4.0,
        jitter_seed: int = 7,
    ):
        self.vocab = vocab
        self.digit_boost = digit_boost
        self.digit_jitter = digit_jitter
        self.dot_boost = dot_boost
        self.start_scale = start_scale
        self.start_offset = start_offset
        self.terminate_boost = terminate_boost
        self.premature_stop_penalty = premature_stop_penalty
        self._digit_ids = np.asarray(vocab.digit_token_ids, dtype=np.int64)
        digit_strings = vocab.strings_of(self._digit_ids)
        self._digit_lengths = np.asarray(
            [len(s) for s in digit_strings], dtype=np.int64
        )
        # Leading one and two characters of each chunk as integer codes
        # (digit_noise's prefix affinity compares them against the
        # demonstrations' heads through a code-indexed table).
        heads = sorted({s[:k] for s in digit_strings for k in (1, 2)})
        self._head_code = {h: code for code, h in enumerate(heads)}
        self._digit_heads1 = np.asarray(
            [self._head_code[s[:1]] for s in digit_strings], dtype=np.int64
        )
        self._digit_heads2 = np.asarray(
            [self._head_code[s[:2]] for s in digit_strings], dtype=np.int64
        )
        # Fixed per-token jitter: which digit chunks feel "natural" is a
        # frozen property of pretraining, not of the sampling seed.
        self._jitter = rng_from(jitter_seed, "format-jitter").standard_normal(
            self._digit_ids.size
        )
        # Cues announcing a demonstrated value: "Performance: <value>" in
        # the regression prompts, "... bucket: <label>" in the generative
        # classification prompts.
        self._cues = []
        for lead in ("Performance", " bucket"):
            if lead in vocab:
                self._cues.append(
                    np.asarray(
                        [vocab.id_of(lead), vocab.id_of(":"), vocab.id_of(" ")],
                        dtype=np.int64,
                    )
                )

    # ------------------------------------------------------------------ #
    def _cue_hits(self, ctx: np.ndarray, lo: int = 0) -> np.ndarray:
        """Sorted, deduplicated cue-hit positions ``h >= lo`` in ``ctx``."""
        region = ctx[lo:]
        if region.size < 4:
            return np.empty(0, dtype=np.int64)
        hit_list = []
        for cue in self._cues:
            c0, c1, c2 = cue
            hit_list.append(
                np.nonzero(
                    (region[:-3] == c0)
                    & (region[1:-2] == c1)
                    & (region[2:-1] == c2)
                )[0]
            )
        if not hit_list:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(hit_list)) + lo

    def _parse_hit(self, ctx: np.ndarray, h: int, n: int) -> _CueRecord | None:
        """Parse the demonstrated value after cue hit ``h`` (None: no value)."""
        start = h + 3
        first = int(ctx[start])
        if not self.vocab.string_of(first).isdigit():
            return None
        # Count decimals of this demonstrated value and remember its
        # first fraction chunk (the prefix alternatives cluster on).
        seen_dot = False
        decimals = 0
        fraction_prefix: str | None = None
        newline_id = self.vocab.newline_id
        for pos in range(start, min(start + 8, n)):
            s = self.vocab.string_of(int(ctx[pos]))
            if s == "." and not seen_dot:
                seen_dot = True
            elif s.isdigit():
                if seen_dot:
                    if decimals == 0:
                        fraction_prefix = s
                    decimals += len(s)
            elif int(ctx[pos]) == newline_id or not (
                s.isdigit() or s == "."
            ):
                break
        return _CueRecord(start, first, seen_dot, decimals, fraction_prefix)

    def build_prefix(self, prefix_ids: np.ndarray) -> FormatPrefixIndex:
        """Pre-parse the cue records that lie fully inside a fixed prefix."""
        ctx = np.asarray(prefix_ids, dtype=np.int64)
        p = int(ctx.size)
        records = tuple(
            self._parse_hit(ctx, int(h), p)
            for h in self._cue_hits(ctx)
            if int(h) <= p - 11
        )
        return FormatPrefixIndex(prefix_len=p, records=records)

    def analyze_prompt(
        self,
        prompt_ids: np.ndarray,
        prefix: FormatPrefixIndex | None = None,
    ) -> FormatAnalysis:
        """Locate the demonstrated values after each value cue.

        With ``prefix`` (a :meth:`build_prefix` index for a leading slice
        of ``prompt_ids``), only cue hits near or past the prefix
        boundary are re-scanned; cached records merge in hit order, and
        the position-dependent recency weights are recomputed against the
        full length, so the analysis is identical to a cold scan.
        """
        ctx = np.asarray(prompt_ids, dtype=np.int64)
        analysis = FormatAnalysis()
        if ctx.size < 4:
            return analysis
        n = ctx.size
        records: list[_CueRecord | None]
        if prefix is None:
            records = [
                self._parse_hit(ctx, int(h), n) for h in self._cue_hits(ctx)
            ]
        else:
            lo = max(0, prefix.prefix_len - 10)
            records = list(prefix.records)
            records.extend(
                self._parse_hit(ctx, int(h), n)
                for h in self._cue_hits(ctx, lo=lo)
            )
        decimal_counts: list[int] = []
        integer_count = 0
        for rec in records:
            if rec is None:
                continue
            # Recency-weighted start vote.
            weight = float(np.exp(-(n - rec.start) / 4000.0))
            analysis.start_votes[rec.first] = (
                analysis.start_votes.get(rec.first, 0.0) + weight
            )
            if rec.fraction_prefix is not None:
                analysis.fraction_prefixes.append(rec.fraction_prefix)
            if rec.seen_dot and rec.decimals > 0:
                decimal_counts.append(rec.decimals)
            elif not rec.seen_dot:
                integer_count += 1
        if decimal_counts:
            values, counts = np.unique(decimal_counts, return_counts=True)
            analysis.expected_decimals = int(values[np.argmax(counts)])
        if integer_count > len(decimal_counts):
            analysis.integer_valued = True
            analysis.expected_decimals = 0
        return analysis

    # ------------------------------------------------------------------ #
    def value_state(self, generated_strings: list[str]) -> _ValueState:
        """Parse the generated-so-far strings into a value-progress state."""
        state = _ValueState()
        for s in generated_strings:
            if state.phase == "preamble":
                if s.isdigit():
                    state.phase = "value"
                    state.n_tokens = 1
                # anything else stays preamble (label echo etc.)
            elif state.phase == "value":
                if s == "." and not state.seen_dot:
                    state.seen_dot = True
                    state.n_tokens += 1
                elif s.isdigit():
                    state.n_tokens += 1
                    if state.seen_dot:
                        state.digits_after_dot += len(s)
                else:
                    state.phase = "done"
        return state

    def score(
        self,
        generated_strings: list[str],
        analysis: FormatAnalysis | None = None,
    ) -> SparseScores:
        state = self.value_state(generated_strings)
        if state.phase == "done":
            # Value finished: prefer to stop the turn.
            return SparseScores(
                np.asarray([self.vocab.specials.eot], dtype=np.int64),
                np.asarray([self.terminate_boost]),
            )

        ids: list[np.ndarray] = []
        scores: list[np.ndarray] = []
        if state.phase == "preamble" and analysis and analysis.start_votes:
            # Start the value the way the demonstrations did.
            sv_ids = np.fromiter(
                analysis.start_votes.keys(), dtype=np.int64,
                count=len(analysis.start_votes),
            )
            w = np.fromiter(
                analysis.start_votes.values(), dtype=float,
                count=len(analysis.start_votes),
            )
            p = w / w.sum()
            ids.append(sv_ids)
            scores.append(self.start_offset + self.start_scale * np.log(p + 1e-12))

        if state.phase == "value" and not state.seen_dot:
            if analysis and analysis.integer_valued:
                # Demonstrated values are bare integers (bucket labels):
                # finish the turn instead of starting a fraction.
                ids.append(
                    np.asarray(
                        [self.vocab.newline_id, self.vocab.specials.eot],
                        dtype=np.int64,
                    )
                )
                scores.append(
                    np.asarray(
                        [self.terminate_boost, self.terminate_boost - 1.0]
                    )
                )
            else:
                ids.append(np.asarray([self.vocab.dot_id], dtype=np.int64))
                scores.append(np.asarray([self.dot_boost]))

        if state.phase == "value" and state.seen_dot:
            expected = (
                analysis.expected_decimals
                if analysis and analysis.expected_decimals
                else 4
            )
            if state.digits_after_dot >= expected:
                stop = self.terminate_boost * (
                    1.0 + 0.3 * (state.digits_after_dot - expected)
                )
            else:
                stop = self.premature_stop_penalty * (
                    expected - state.digits_after_dot
                )
            ids.append(
                np.asarray(
                    [self.vocab.newline_id, self.vocab.specials.eot],
                    dtype=np.int64,
                )
            )
            scores.append(np.asarray([stop, stop - 1.0]))
        if not ids:
            return SparseScores.empty()
        return SparseScores(np.concatenate(ids), np.concatenate(scores))

    # ------------------------------------------------------------------ #
    def expected_decimals(self, analysis: FormatAnalysis | None) -> int:
        """Demonstrated fraction length (default 4 when undemonstrated)."""
        if analysis and analysis.expected_decimals:
            return analysis.expected_decimals
        return 4

    def digit_noise(
        self,
        generated_strings: list[str],
        analysis: FormatAnalysis | None = None,
    ) -> SparseScores:
        """The diffuse digit-chunk *distribution* (the Table II breadth).

        Returns a normalized probability distribution (as ``scores``) over
        digit tokens whose string length fits the decimals the
        demonstrated format still needs — chunks that would overshoot feel
        unnatural and are excluded.  The caller mixes this with the
        content distribution at a position-scheduled weight.

        Returns an empty score set outside the fraction region or when the
        value is already complete.
        """
        state = self.value_state(generated_strings)
        if state.phase != "value" or not state.seen_dot:
            return SparseScores.empty()
        remaining = self.expected_decimals(analysis) - state.digits_after_dot
        if remaining <= 0:
            return SparseScores.empty()
        lengths = self._digit_lengths
        preferred = min(3, remaining)
        fit = lengths <= remaining
        if not fit.any():
            return SparseScores.empty()
        fit_ids = self._digit_ids[fit]
        logits = self.digit_jitter * self._jitter[fit].copy()
        logits -= 3.5 * (lengths[fit] != preferred)
        if state.digits_after_dot == 0 and analysis:
            # The first fraction chunk pins the value's magnitude: even the
            # "noise" alternatives cluster around the prefixes of the
            # demonstrated values (Figure 3) rather than spreading over all
            # thousand chunks uniformly.
            demo = [p for p in analysis.fraction_prefixes if p]
            if demo:
                # A chunk sharing two leading digits with a demonstrated
                # prefix gets +8, else one leading digit +4, else 0.
                two = np.zeros(len(self._head_code))
                one = np.zeros(len(self._head_code))
                code = self._head_code
                two[[code[p[:2]] for p in demo if p[:2] in code]] = 8.0
                one[[code[p[0]] for p in demo if p[0] in code]] = 4.0
                logits = logits + np.maximum(
                    two[self._digit_heads2[fit]], one[self._digit_heads1[fit]]
                )
        z = logits - logits.max()
        q = np.exp(z)
        q /= q.sum()
        return SparseScores(fit_ids, q)


class PriorScorer:
    """Frozen pretraining prior plus weak magnitude "world knowledge".

    * Every token carries a fixed hash-derived bias (pretraining
      idiosyncrasy, constant across prompts and seeds).
    * If the context mentions a problem-size keyword, the *first* value
      token is nudged toward the plausible magnitude: sizes at the small
      end of the scale have sub-second runtimes (leading ``0``), the big
      ones have single-digit-seconds (leading ``1``-``9``).
    """

    #: Size keyword -> preferred leading-digit class ("zero" or "nonzero").
    SIZE_MAGNITUDE = {
        "S": "zero",
        "SM": "zero",
        "M": "zero",
        "ML": "nonzero",
        "L": "nonzero",
        "XL": "nonzero",
    }

    def __init__(
        self,
        vocab: Vocabulary,
        bias_scale: float = 0.35,
        magnitude_boost: float = 2.5,
        prior_seed: int = 13,
    ):
        self.vocab = vocab
        self.bias_scale = bias_scale
        self.magnitude_boost = magnitude_boost
        self._bias = bias_scale * rng_from(
            prior_seed, "pretrain-bias"
        ).standard_normal(len(vocab))

    def bias_for(self, ids: np.ndarray) -> np.ndarray:
        """The frozen per-token bias restricted to ``ids``."""
        return self._bias[np.asarray(ids, dtype=np.int64)]

    def first_token_magnitude(self, size: str | None) -> SparseScores:
        """Magnitude nudge for the first value token given the size keyword."""
        if size is None or size not in self.SIZE_MAGNITUDE:
            return SparseScores.empty()
        kind = self.SIZE_MAGNITUDE[size]
        zero_id = self.vocab.id_of("0")
        nonzero = np.asarray(
            [self.vocab.id_of(str(d)) for d in range(1, 10)], dtype=np.int64
        )
        if kind == "zero":
            return SparseScores(
                np.asarray([zero_id], dtype=np.int64),
                np.asarray([self.magnitude_boost]),
            )
        return SparseScores(
            nonzero, np.full(nonzero.size, self.magnitude_boost / 3.0)
        )
