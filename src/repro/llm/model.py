"""The surrogate language model: a scorer mixture with sparse logits.

:class:`SurrogateLM` composes the four scorers of
:mod:`repro.llm.scorers` into next-token logits over a sparse support (the
"nonzero logit" token set the paper records).  Component weights are
exposed in :class:`LMConfig` both for calibration and for the ablation
benchmarks (knocking out the induction head, the format prior, ...).

Determinism contract: logits depend only on ``(vocab, config, model_seed,
context, sample_seed, step)``.  Across *sampling* seeds only a small jitter
changes — reproducing the paper's observation that "different seeds often
produce identical token sets with slightly altered logit probabilities".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.errors import GenerationError
from repro.llm.prefix_cache import PreparedPrefix, token_fingerprint
from repro.llm.scorers import (
    FormatAnalysis,
    FormatScorer,
    InductionScorer,
    PriorScorer,
    RecencyUnigramScorer,
    SparseScores,
)
from repro.llm.vocab import Vocabulary
from repro.obs import get_tracer
from repro.utils.rng import rng_from

__all__ = ["LMConfig", "SurrogateLM"]


@dataclass(frozen=True)
class LMConfig:
    """Mixture weights and support shaping for the surrogate LM."""

    induction_weight: float = 1.0
    unigram_weight: float = 0.35
    format_weight: float = 1.0
    prior_weight: float = 1.0
    #: Multiplier on induction scores before the value has started: the
    #: assistant-turn boundary (special header tokens) weakens plain
    #: suffix-copying, letting instruction-following pick the answer format.
    preamble_induction_damping: float = 0.3
    #: Induction decisiveness fades by this many logits per fraction digit
    #: already emitted: leading digits parrot the context tightly, trailing
    #: digits diffuse — which is why "very few exact copies are generated"
    #: while values still cluster on ICL prefixes.
    induction_value_decay: float = 1.3
    #: Probability mass diverted to the diffuse digit-chunk distribution at
    #: fraction positions: the first fraction chunk (magnitude-critical),
    #: middle chunks, and the final digits.  This schedule is what shapes
    #: Table II's per-position "selectable token" counts and keeps exact
    #: ICL copies rare while generations still cluster on ICL prefixes.
    noise_eps_first: float = 0.14
    noise_eps_mid: float = 0.60
    noise_eps_last: float = 0.75
    #: Std-dev of the per-sampling-seed logit jitter.
    seed_jitter: float = 0.06
    #: Tokens with softmax probability below this floor are dropped from
    #: the recorded support (they are the "zero logit" tokens).
    support_floor: float = 3e-5
    #: Hard cap on recorded support size per step.
    max_support: int = 1200
    #: Component toggles for ablation studies.
    use_induction: bool = True
    use_unigram: bool = True
    use_format: bool = True
    use_prior: bool = True

    def __post_init__(self):
        if not 0 < self.support_floor < 1:
            raise ValueError(
                f"support_floor must be in (0,1), got {self.support_floor}"
            )
        if self.max_support < 1:
            raise ValueError(f"max_support must be >= 1, got {self.max_support}")


class SurrogateLM:
    """Sparse-logit next-token model over a fixed vocabulary.

    Parameters
    ----------
    vocab:
        Token vocabulary shared with the tokenizer.
    config:
        Mixture weights (defaults calibrated against the paper's Table II).
    model_seed:
        Freezes the hash-derived "pretraining" components (format jitter
        and prior bias).  Distinct model seeds are distinct "checkpoints".
    """

    def __init__(
        self,
        vocab: Vocabulary,
        config: LMConfig | None = None,
        model_seed: int = 0,
    ):
        self.vocab = vocab
        self.config = config or LMConfig()
        self.model_seed = int(model_seed)
        self.induction = InductionScorer()
        self.unigram = RecencyUnigramScorer()
        self.format = FormatScorer(vocab, jitter_seed=model_seed * 1000 + 7)
        self.prior = PriorScorer(vocab, prior_seed=model_seed * 1000 + 13)
        self._size_ids = {}
        for size in PriorScorer.SIZE_MAGNITUDE:
            for variant in (" " + size, size):
                if variant in vocab:
                    self._size_ids.setdefault(vocab.id_of(variant), size)

    # ------------------------------------------------------------------ #
    def _size_token_counts(self, ctx: np.ndarray) -> dict[str, int]:
        """Problem-size keyword frequencies over a token-id array."""
        counts: dict[str, int] = {}
        ids, freq = np.unique(ctx, return_counts=True)
        for tid, f in zip(ids, freq):
            size = self._size_ids.get(int(tid))
            if size is not None:
                counts[size] = counts.get(size, 0) + int(f)
        return counts

    def detect_size(
        self, context: np.ndarray, prefix: PreparedPrefix | None = None
    ) -> str | None:
        """Guess the problem-size keyword from token frequency.

        The task size appears once per ICL example (``size is SM``) while
        other sizes only occur in the problem description's enumeration, so
        the most frequent size token wins.  With a prepared ``prefix`` only
        the suffix delta is counted (the argmax is order-independent, so
        the result matches the cold path exactly).
        """
        ctx = np.asarray(context, dtype=np.int64)
        if ctx.size == 0:
            return None
        if prefix is not None and prefix.length <= ctx.size:
            counts = Counter(prefix.size_counts)
            counts.update(self._size_token_counts(ctx[prefix.length :]))
        else:
            counts = self._size_token_counts(ctx)
        if not counts:
            return None
        return max(counts, key=lambda s: (counts[s], s))

    # ------------------------------------------------------------------ #
    def prepare_prefix(self, prefix_ids: np.ndarray) -> PreparedPrefix:
        """Snapshot the prepared state of a fixed prompt prefix.

        The snapshot is immutable and reusable across every prompt that
        extends the prefix, every sampling seed, and every thread; see
        :mod:`repro.llm.prefix_cache` for the determinism contract.
        """
        ids = np.array(prefix_ids, dtype=np.int64, copy=True)
        ids.setflags(write=False)
        with get_tracer().span(
            "llm.prepare_prefix", n_prefix_tokens=int(ids.size)
        ):
            return PreparedPrefix(
                ids=ids,
                fingerprint=token_fingerprint(ids),
                induction=self.induction.build_index(ids),
                format_index=self.format.build_prefix(ids),
                size_counts=self._size_token_counts(ids),
            )

    def prepare(
        self,
        prompt_ids: np.ndarray,
        prefix: PreparedPrefix | None = None,
    ) -> FormatAnalysis:
        """One-time prompt analysis (cue anchoring, demonstrated format).

        With ``prefix`` (a :meth:`prepare_prefix` snapshot for a leading
        slice of the prompt) only the suffix delta is scanned; the result
        is identical to a cold analysis.
        """
        ids = np.asarray(prompt_ids, dtype=np.int64)
        reused = prefix is not None and prefix.length <= ids.size
        with get_tracer().span(
            "llm.prepare",
            n_prompt_tokens=int(ids.size),
            prefix_reused=bool(reused),
        ):
            return self.format.analyze_prompt(
                ids, prefix=prefix.format_index if reused else None
            )

    @property
    def identity(self) -> tuple:
        """Everything besides its inputs that the content pass reads.

        Two models with equal identities score every context alike, so
        :class:`~repro.llm.prefix_cache.DecodeStateCache` keys on it.
        """
        return (type(self), self.vocab, self.config, self.model_seed)

    def finalize_batch(
        self,
        ids: np.ndarray,
        probs: np.ndarray | None,
        sample_seeds: list[int],
        step: int,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Sparse logits under each of ``sample_seeds`` from one
        :meth:`content_pass` result.

        Each seed gets its own jitter, re-softmax and support selection,
        so a row depends on its own seed alone, whichever seeds share
        the call.
        """
        if probs is None:
            # Degenerate context: fall back to ending the turn.
            return [(ids, np.zeros(1)) for _ in sample_seeds]
        return [
            self._finalize_logits(ids, probs, int(s), step)
            for s in sample_seeds
        ]

    def content_pass(
        self,
        context: np.ndarray,
        generated_strings: list[str],
        analysis: FormatAnalysis | None = None,
        prefix: PreparedPrefix | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The seed-independent half of one decode step; each seed then
        reads the result through :meth:`finalize_batch`.

        Returns ``(ids, probs)``: the content distribution over the
        sparse support after the noise mix, a function of the context
        (prompt plus generated tokens) and :attr:`identity` alone.
        ``probs`` is None for the degenerate fall-back-to-eot case
        (``ids`` then holds the eot token alone).
        """
        ctx = np.asarray(context, dtype=np.int64)
        if ctx.size == 0:
            raise GenerationError("cannot score an empty context")
        cfg = self.config
        if analysis is None and cfg.use_format:
            n_gen = len(generated_strings)
            analysis = self.prepare(ctx[: ctx.size - n_gen], prefix=prefix)

        value_started = any(s.isdigit() for s in generated_strings)
        parts: list[SparseScores] = []
        if cfg.use_induction:
            state = self.format.value_state(generated_strings)
            shift = -cfg.induction_value_decay * state.digits_after_dot
            if prefix is not None:
                ind = self.induction.score_indexed(
                    ctx, prefix.induction, prefix.length, offset_shift=shift
                )
            else:
                ind = self.induction.score(ctx, offset_shift=shift)
            w = cfg.induction_weight
            if not value_started:
                w *= cfg.preamble_induction_damping
            parts.append(SparseScores(ind.ids, w * ind.scores))
        if cfg.use_unigram:
            uni = self.unigram.score(ctx)
            parts.append(SparseScores(uni.ids, cfg.unigram_weight * uni.scores))
        if cfg.use_format:
            fmt = self.format.score(generated_strings, analysis)
            parts.append(SparseScores(fmt.ids, cfg.format_weight * fmt.scores))
        if cfg.use_prior and not value_started:
            # Magnitude hint applies to the first value token only.
            mag = self.prior.first_token_magnitude(
                self.detect_size(ctx, prefix=prefix)
            )
            parts.append(SparseScores(mag.ids, cfg.prior_weight * mag.scores))

        merged = SparseScores.accumulate(parts)
        if merged.ids.size == 0:
            eot = np.asarray([self.vocab.specials.eot], dtype=np.int64)
            return eot, None

        content_logits = merged.scores
        if cfg.use_prior:
            content_logits = content_logits + cfg.prior_weight * self.prior.bias_for(
                merged.ids
            )
        z = content_logits - content_logits.max()
        p_content = np.exp(z)
        p_content /= p_content.sum()
        ids = merged.ids
        probs = p_content

        # Mix in the diffuse digit-chunk distribution at the scheduled
        # fraction-position weight (see LMConfig.noise_eps_*).
        eps = self._noise_eps(generated_strings, analysis) if cfg.use_format else 0.0
        if eps > 0.0:
            noise = self.format.digit_noise(generated_strings, analysis)
            if noise.ids.size:
                both = SparseScores.accumulate(
                    [
                        SparseScores(ids, (1.0 - eps) * probs),
                        SparseScores(noise.ids, eps * noise.scores),
                    ]
                )
                ids, probs = both.ids, both.scores
        return ids, probs

    # ------------------------------------------------------------------ #
    def _finalize_logits(
        self, ids: np.ndarray, probs: np.ndarray, sample_seed: int, step: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-seed jitter, re-softmax, and support selection."""
        cfg = self.config
        logits = np.log(probs + 1e-300)
        if cfg.seed_jitter > 0:
            jitter_rng = rng_from(
                self.model_seed, "seed-jitter", int(sample_seed), int(step)
            )
            logits = logits + cfg.seed_jitter * jitter_rng.standard_normal(
                ids.size
            )
            z = logits - logits.max()
            probs = np.exp(z)
            probs /= probs.sum()
        return self._select_support(ids, logits, probs)

    def _select_support(
        self, ids: np.ndarray, logits: np.ndarray, probs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probability floor + support cap -> the recorded "nonzero" set."""
        cfg = self.config
        keep = probs >= cfg.support_floor
        if not keep.any():
            keep[np.argmax(probs)] = True
        ids, logits = ids[keep], logits[keep]
        if ids.size > cfg.max_support:
            # ids arrive ascending (the accumulated support); taking the
            # kept positions in index order keeps them so.
            top = np.sort(np.argsort(logits)[-cfg.max_support :])
            ids, logits = ids[top], logits[top]
        return ids, logits

    def _noise_eps(
        self, generated_strings: list[str], analysis
    ) -> float:
        """The scheduled digit-noise mixture weight for this position."""
        cfg = self.config
        state = self.format.value_state(generated_strings)
        if state.phase != "value" or not state.seen_dot:
            return 0.0
        expected = self.format.expected_decimals(analysis)
        remaining = expected - state.digits_after_dot
        if remaining <= 0:
            return 0.0
        if state.digits_after_dot == 0:
            return cfg.noise_eps_first
        if remaining == 1:
            return cfg.noise_eps_last
        return cfg.noise_eps_mid
