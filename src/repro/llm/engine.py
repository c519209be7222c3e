"""The generation engine: autoregressive decoding with full logit capture."""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import GenerationError
from repro.llm.model import SurrogateLM
from repro.llm.prefix_cache import DECODE_STATES
from repro.obs import get_tracer
from repro.llm.sampling import SamplingParams, sample_token
from repro.llm.trace import GenerationStep, GenerationTrace
from repro.utils.rng import rng_from

__all__ = ["GenerationEngine"]


class GenerationEngine:
    """Drive a :class:`SurrogateLM` autoregressively, recording every step.

    Parameters
    ----------
    model:
        The surrogate LM.
    sampling:
        Decoding hyperparameters shared by all generations.
    max_new_tokens:
        Hard cap per generation (the discriminative-surrogate responses
        are a single short value string).
    """

    def __init__(
        self,
        model: SurrogateLM,
        sampling: SamplingParams | None = None,
        max_new_tokens: int = 16,
    ):
        if max_new_tokens < 1:
            raise GenerationError(
                f"max_new_tokens must be >= 1, got {max_new_tokens}"
            )
        self.model = model
        self.sampling = sampling or SamplingParams()
        self.max_new_tokens = max_new_tokens
        self._lock = threading.Lock()
        self._state_hits = 0
        self._state_misses = 0

    def generate(
        self, prompt_ids, seed: int = 0, analysis=None, prefix=None
    ) -> GenerationTrace:
        """Generate a completion for ``prompt_ids`` under ``seed``.

        A single seed decodes as a group of one:
        ``generate_batch(prompt_ids, [seed], ...)[0]``.

        Determinism contract: generation is a pure function of
        ``(prompt_ids, seed, self.sampling, self.max_new_tokens)`` plus the
        model's frozen identity (vocabulary, config, ``model_seed``).
        Identical (prompt, seed, sampling) triples are bit-reproducible —
        every step's candidate ids, logits, and sampled choice are equal
        across repeated calls and across processes, whether or not a
        prepared ``prefix`` was supplied, whichever other seeds share
        the decode, and whichever requests decoded this prompt before.
        The result cache in :mod:`repro.serve` memoizes full
        predictions on exactly this key, and
        ``tests/test_engine_determinism.py`` pins the contract.

        Parameters
        ----------
        prompt_ids:
            Token ids of the prompt.
        seed:
            Sampling seed (drives token choice and the per-seed logit
            jitter; nothing else).
        analysis:
            Optional precomputed :meth:`SurrogateLM.prepare` result for
            this exact prompt.  Passing it skips the per-call prompt
            analysis; it must have been computed from ``prompt_ids`` or
            generations may differ.
        prefix:
            Optional :class:`~repro.llm.prefix_cache.PreparedPrefix`
            snapshot for a leading slice of the prompt: per-step scoring
            then processes only the delta past the prefix, bit-identical
            to the cold path.
        """
        return self.generate_batch(
            prompt_ids, [seed], analysis=analysis, prefix=prefix
        )[0]

    def generate_batch(
        self, prompt_ids, seeds, analysis=None, prefix=None
    ) -> list[GenerationTrace]:
        """Generate one completion per seed for a single shared prompt.

        The one decode loop.  All seeds decode in lockstep: at each step,
        seeds whose generated-so-far token sequences coincide share one
        :meth:`SurrogateLM.content_pass`, so the seed-independent content
        pass runs once per distinct decode state instead of once per
        seed; each seed then gets its own
        :meth:`SurrogateLM.finalize_batch` row.  With a ``prefix``, a
        decode state some earlier call already scored (another request,
        or another seed of this prompt) is read from
        :data:`~repro.llm.prefix_cache.DECODE_STATES` instead of scored
        again.  Each seed stops at the first end-of-turn token, at a
        non-numeric token after the value has begun, or at
        ``max_new_tokens``.  Each returned trace depends on its own seed
        alone, whichever seeds share the decode and whichever requests
        decoded this prompt before (see :meth:`generate`).
        """
        prompt = np.asarray(prompt_ids, dtype=np.int64)
        if prompt.size == 0:
            raise GenerationError("cannot generate from an empty prompt")
        if prefix is not None and not prefix.extends(prompt):
            raise GenerationError(
                "prepared prefix does not match the prompt "
                f"(prefix length {prefix.length}, prompt length {prompt.size})"
            )
        seeds = [int(s) for s in seeds]
        if not seeds:
            return []
        # Decode states are shared only on the prefix-reuse path: without
        # a snapshot the decode stays the fully cold reference.  The
        # suffix is keyed in the vocabulary's narrowest id dtype, as the
        # cache stores ids.
        root = None
        if prefix is not None:
            id_dtype = np.min_scalar_type(len(self.model.vocab) - 1)
            root = (
                self.model.identity,
                prefix.fingerprint,
                prompt[prefix.length :].astype(id_dtype).tobytes(),
            )
        with get_tracer().span(
            "llm.generate",
            n_seeds=len(seeds),
            n_prompt_tokens=int(prompt.size),
            prefix_reused=prefix is not None,
        ) as span:
            model = self.model
            vocab = model.vocab
            if analysis is None:
                analysis = model.prepare(prompt, prefix=prefix)
            states = [_DecodeState(seed, prompt) for seed in seeds]
            n_kernel_calls = n_state_hits = 0
            for step in range(self.max_new_tokens):
                live = [st for st in states if not st.done]
                if not live:
                    break
                # Seeds at the same decode state share one content pass.
                groups: dict[tuple[int, ...], list[_DecodeState]] = {}
                for st in live:
                    groups.setdefault(tuple(st.generated_ids), []).append(st)
                for generated, members in groups.items():
                    lead = members[0]
                    key = (root, generated)
                    content = None if root is None else DECODE_STATES.get(key)
                    if content is None:
                        content = model.content_pass(
                            lead.context(),
                            lead.generated_strings,
                            analysis=analysis,
                            prefix=prefix,
                        )
                        n_kernel_calls += 1
                        if root is not None:
                            DECODE_STATES.put(key, *content)
                    else:
                        n_state_hits += 1
                    results = model.finalize_batch(
                        *content, [m.seed for m in members], step
                    )
                    for st, (ids, logits) in zip(members, results):
                        st.advance(ids, logits, self.sampling, vocab)
            if root is not None:
                with self._lock:
                    self._state_hits += n_state_hits
                    self._state_misses += n_kernel_calls
            span.set(
                n_new_tokens=sum(len(st.trace.steps) for st in states),
                n_kernel_calls=n_kernel_calls,
                n_state_hits=n_state_hits,
            )
            return [st.trace for st in states]

    def state_lookups(self) -> tuple[int, int]:
        """``(hits, misses)`` of this engine's decode-state lookups.

        Counted on the prefix-reuse path only; a miss is a content pass
        run.
        """
        with self._lock:
            return (self._state_hits, self._state_misses)


class _DecodeState:
    """One seed's decoding state in :meth:`GenerationEngine.generate_batch`:
    its sampling stream, its trace, and the tokens generated so far."""

    def __init__(self, seed: int, prompt: np.ndarray):
        self.seed = seed
        self.rng = rng_from(seed, "sampling")
        self.trace = GenerationTrace(prompt_ids=prompt, seed=int(seed))
        self.prompt = prompt
        self.generated_ids: list[int] = []
        self.generated_strings: list[str] = []
        self.value_started = False
        self.done = False

    def context(self) -> np.ndarray:
        """The prompt plus the generated tokens (built on demand: a
        decode-state hit never needs it)."""
        return np.concatenate(
            (self.prompt, np.asarray(self.generated_ids, dtype=np.int64))
        )

    def advance(self, ids, logits, sampling, vocab) -> None:
        """Sample one token and apply the termination rules."""
        pos = sample_token(ids, logits, sampling, self.rng)
        self.trace.steps.append(
            GenerationStep(candidate_ids=ids, logits=logits, chosen_position=pos)
        )
        chosen = int(ids[pos])
        token_str = vocab.string_of(chosen)
        self.generated_ids.append(chosen)
        self.generated_strings.append(token_str)
        if chosen == vocab.specials.eot or chosen == vocab.specials.end_of_text:
            self.done = True
        elif token_str.isdigit():
            self.value_started = True
        elif self.value_started and not (token_str == "." or token_str.isdigit()):
            self.done = True
