"""Token sampling over sparse logits: temperature, top-k, nucleus (top-p)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GenerationError

__all__ = ["SamplingParams", "sample_token"]


@dataclass(frozen=True)
class SamplingParams:
    """Decoding hyperparameters (Llama-style defaults)."""

    temperature: float = 0.7
    top_p: float = 0.90
    top_k: int = 0  # 0 disables top-k
    greedy: bool = False

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")


def sample_token(
    ids: np.ndarray,
    logits: np.ndarray,
    params: SamplingParams,
    rng: np.random.Generator,
) -> int:
    """Sample one token id from sparse ``(ids, logits)``.

    Greedy decoding (or ``temperature == 0``) returns the argmax.  Otherwise
    logits are tempered, truncated by top-k then top-p, renormalized, and
    sampled.

    Returns the *position* within ``ids`` of the sampled token, so callers
    can index parallel candidate arrays directly.
    """
    ids = np.asarray(ids)
    logits = np.asarray(logits, dtype=float)
    if ids.ndim != 1 or ids.shape != logits.shape or ids.size == 0:
        raise GenerationError("ids and logits must be equal-length non-empty")
    if params.greedy or params.temperature == 0.0:
        return int(np.argmax(logits))
    if ids.size == 1:
        # What the inverse-CDF draw below returns for one candidate, with
        # the same one-draw advance of the generator.
        rng.random()
        return 0

    z = logits / params.temperature
    z = z - z.max()
    probs = np.exp(z)
    probs /= probs.sum()

    order = np.argsort(probs)[::-1]
    if params.top_k > 0:
        order = order[: params.top_k]
    cum = np.cumsum(probs[order])
    # Keep the minimal prefix with mass >= top_p (always at least one).
    cutoff = int(np.searchsorted(cum, params.top_p, side="left")) + 1
    kept = order[:cutoff]
    p = probs[kept]
    p = p / p.sum()
    # Inverse-CDF draw: the steps of ``rng.choice(kept.size, p=p)``
    # without its argument checks, so the index and the generator's
    # next draw match it exactly (tests pin the equivalence).
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(kept[cdf.searchsorted(rng.random(), side="right")])
