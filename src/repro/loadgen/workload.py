"""Deterministic workload mixes: *what* each offered request asks for.

A :class:`WorkloadMix` describes the request population — task size, ICL
depth, how many distinct prompts exist, how popularity is skewed across
them, how many tenants share the service, and how many sampling-seed
"lanes" each prompt is replayed under.  :func:`build_workload` expands a
mix into a concrete list of :class:`LoadItem` envelopes, one per arrival,
as a pure function of ``(mix, n, seed)``.

The skew is the point.  Real serving traffic is never uniform: a few hot
prompts dominate, which is exactly what the serving stack's prefix-reuse
layer and result cache are built for.  Prompt popularity here follows a
Zipf law with exponent ``skew``, so hot prompts recur both *within* a
flush batch (same ``Request.prompt_key`` → one lockstep prefix-group
decode) and *across* batches (result- and prefix-cache hits) — the load test
exercises the same cache and grouping machinery production traffic
would, rather than a worst-case all-unique stream no cache could serve.

Seed lanes bound the distinct ``(prompt, seed)`` pairs: lane 0 of a hot
prompt is a result-cache hit after its first serve, while a different
lane of the same prompt misses the result cache but shares the prepared
prefix — the result and prefix caches are stressed independently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.dataset import generate_dataset
from repro.dataset.splits import disjoint_example_sets
from repro.dataset.syr2k import SIZE_NAMES
from repro.errors import LoadgenError
from repro.serve.request import Request
from repro.utils.rng import derive_seed

__all__ = ["WorkloadMix", "LoadItem", "build_workload", "workload_digest"]


@dataclass(frozen=True)
class WorkloadMix:
    """The request-population half of a load-test spec.

    Attributes
    ----------
    size:
        syr2k task size every request targets.
    n_icl:
        ICL examples per prompt (shared across the whole mix, so prompts
        differ only in their query configuration).
    n_unique:
        Distinct prompts (query configurations) in the population.
    skew:
        Zipf exponent over prompt popularity: weight of prompt ``k`` is
        ``1 / (k + 1) ** skew``.  ``0.0`` is uniform; ``1.1`` (default)
        gives the classic hot-head/long-tail shape.
    n_tenants:
        Tenants the arrivals are attributed to (uniformly at random,
        deterministic per arrival index) — the SLO report breaks latency
        and outcome counts down per tenant.
    seed_lanes:
        Distinct sampling seeds each prompt is replayed under.
    timeout_s:
        Optional per-request deadline stamped on every built request.
    """

    size: str = "SM"
    n_icl: int = 4
    n_unique: int = 8
    skew: float = 1.1
    n_tenants: int = 3
    seed_lanes: int = 4
    timeout_s: float | None = None

    def __post_init__(self):
        if self.size not in SIZE_NAMES:
            raise LoadgenError(
                f"size must be one of {SIZE_NAMES}, got {self.size!r}"
            )
        for name in ("n_icl", "n_unique", "n_tenants", "seed_lanes"):
            if getattr(self, name) < 1:
                raise LoadgenError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.skew < 0:
            raise LoadgenError(f"skew must be >= 0, got {self.skew}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise LoadgenError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )


@dataclass(frozen=True)
class LoadItem:
    """One offered request plus its load-test attribution."""

    index: int
    tenant: str
    prompt_index: int
    request: Request = field(repr=False)


@lru_cache(maxsize=8)
def _prompt_pool(
    size: str, n_icl: int, n_unique: int, seed: int
) -> tuple[tuple, tuple]:
    """(shared ICL examples, per-prompt query configs) for a mix.

    Cached: dataset generation dominates workload-build time and the
    pool is reused across repeated drivers in one process (benchmarks,
    determinism double-runs).
    """
    dataset = generate_dataset(size)
    sets, queries = disjoint_example_sets(
        dataset, 1, n_icl, seed=seed, n_queries=n_unique
    )
    examples = tuple(
        (dataset.config(int(r)), float(dataset.runtimes[int(r)]))
        for r in sets[0]
    )
    configs = tuple(dataset.config(int(q)) for q in queries)
    return examples, configs


def build_workload(mix: WorkloadMix, n: int, seed: int) -> list[LoadItem]:
    """Expand ``mix`` into ``n`` concrete arrivals, deterministically.

    Prompt choice is one vectorized Zipf-weighted draw; tenant and seed
    lane are per-arrival :func:`derive_seed` hashes — all pure functions
    of ``seed``, independent of execution order or parallelism.
    """
    if n < 0:
        raise LoadgenError(f"n must be >= 0, got {n}")
    examples, configs = _prompt_pool(
        mix.size, mix.n_icl, mix.n_unique,
        derive_seed(seed, "loadgen", "examples"),
    )
    weights = 1.0 / np.power(
        np.arange(1, mix.n_unique + 1, dtype=np.float64), mix.skew
    )
    weights /= weights.sum()
    rng = np.random.default_rng(derive_seed(seed, "loadgen", "prompts"))
    prompt_idx = rng.choice(mix.n_unique, size=n, p=weights)

    items: list[LoadItem] = []
    for i in range(n):
        p = int(prompt_idx[i])
        tenant = derive_seed(seed, "loadgen", "tenant", i) % mix.n_tenants
        lane = derive_seed(seed, "loadgen", "lane", i) % mix.seed_lanes
        items.append(
            LoadItem(
                index=i,
                tenant=f"tenant-{tenant}",
                prompt_index=p,
                request=Request(
                    examples=examples,
                    query_config=configs[p],
                    seed=derive_seed(seed, "loadgen", "reqseed", p, lane),
                    size=mix.size,
                    timeout_s=mix.timeout_s,
                ),
            )
        )
    return items


def workload_digest(items: list[LoadItem]) -> str:
    """Fingerprint of the workload content: (tenant, prompt_key, seed)
    per arrival, in order.  Equal digests mean every offered request is
    identical — the content-side twin of
    :func:`~repro.loadgen.arrivals.schedule_digest`."""
    h = hashlib.blake2b(digest_size=12)
    for item in items:
        h.update(
            f"{item.tenant}/{item.request.prompt_key}/"
            f"{item.request.seed}\n".encode()
        )
    return h.hexdigest()
