"""Request/response envelopes for the surrogate inference service.

A :class:`Request` is one surrogate prediction to serve: the ICL examples,
the query configuration, and the sampling seed — exactly the inputs of
:meth:`repro.core.surrogate.DiscriminativeSurrogate.predict` — plus
service-level knobs (task size routing, per-request timeout).  A
:class:`Response` wraps the resulting
:class:`~repro.core.surrogate.SurrogatePrediction` with serving metadata:
end-to-end latency, whether the result cache hit, and the batch the
request rode in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.surrogate import SurrogatePrediction
from repro.errors import ServiceError

__all__ = ["Request", "Response"]


@dataclass(frozen=True)
class Request:
    """One surrogate-prediction request.

    Attributes
    ----------
    examples:
        ``(configuration, runtime)`` ICL pairs, in presentation order.
    query_config:
        The configuration whose runtime the surrogate must predict.
    seed:
        Sampling seed.  Together with the built prompt and the engine's
        sampling parameters it forms the full-result cache key, so
        identical requests are served from cache.
    size:
        Task size used to route the request to a per-size surrogate
        (ignored when the service was constructed with an explicit
        surrogate).
    timeout_s:
        Per-request completion deadline for the blocking submit path;
        ``None`` falls back to the service default (which may also be
        ``None``: wait forever).
    """

    examples: Sequence[tuple[Mapping[str, object], float]]
    query_config: Mapping[str, object]
    seed: int = 0
    size: str = "SM"
    timeout_s: float | None = None

    def __post_init__(self):
        if not self.examples:
            raise ServiceError("a request needs >= 1 ICL example")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ServiceError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )

    @property
    def prompt_key(self) -> str:
        """Seed-independent digest of the prompt inputs.

        Two requests with equal keys build the same prompt (same task
        size, ICL examples, and query), so they share a prepared prefix
        and can ride one lockstep batch decode differing only by seed.
        The scheduler sorts flush batches by this key to make such
        requests adjacent.  Config items are keyed in dict order, the
        order the prompt renders them in: the same items in another
        order build another prompt.  Computed once and memoized on the
        instance.
        """
        key = self.__dict__.get("_prompt_key")
        if key is None:
            canon = (
                self.size,
                tuple((str(k), repr(v)) for k, v in self.query_config.items()),
                tuple(
                    (
                        tuple((str(k), repr(v)) for k, v in cfg.items()),
                        repr(float(rt)),
                    )
                    for cfg, rt in self.examples
                ),
            )
            key = hashlib.blake2b(
                repr(canon).encode(), digest_size=12
            ).hexdigest()
            object.__setattr__(self, "_prompt_key", key)
        return key


@dataclass(frozen=True)
class Response:
    """A served prediction plus its serving metadata.

    Cached responses share the underlying
    :class:`~repro.core.surrogate.SurrogatePrediction` object; treat it as
    read-only.

    ``degraded`` marks responses produced by the resilience layer's
    fallback chain instead of live generation; ``provenance`` names the
    source: ``"service"`` (live path), ``"result-cache"``,
    ``"gbt-surrogate"``, or ``"magnitude-prior"``.
    """

    request_id: int
    prediction: SurrogatePrediction
    latency_s: float
    result_cache_hit: bool = False
    batch_size: int = 1
    #: Number of same-prompt requests decoded together in one lockstep
    #: batch (1 when the request was generated — or cached — alone).
    group_width: int = 1
    degraded: bool = False
    provenance: str = "service"

    @property
    def value(self) -> float | None:
        """Shortcut to the parsed predicted runtime."""
        return self.prediction.value
