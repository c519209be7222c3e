"""``serve_hot`` and ``tune_closed``: the online serving paths.

``serve_hot`` is an open loop: independent users send Poisson arrivals
at a fixed rate, well below saturation, to the in-process
``PredictionService``.  Prompts follow a Zipf(1.1) skew over a pool with
two seed lanes, and a warm-up serves every (prompt, seed) pair once, so
measured requests are result-cache hits: the microbatcher wait, prompt
build and tokenize, fingerprint and cache lookup are the whole request.
The benchmark owns the send clock (one thread) and times each request
from its scheduled send time.

``tune_closed`` is a closed loop: one client waits for each reply before
sending the next request, like a tuner's propose -> predict cycle.
Requests go through ``ShardedPredictionService`` with one shard.  Every
request is a distinct (prompt, seed) pair over prompts whose prefix and
prepared analysis were warmed, so the prefix and prepare caches hit and
every result misses: decode, the result-cache write and the
pickle-and-pipe hop carry the load.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
from functools import partial

from common import (
    CoreRotation,
    SpanLog,
    descendants_peak_rss_mb,
    digest,
    now,
    percentile_ms,
)

SIZE = "SM"
N_ICL = 10
N_PROMPTS = 48
#: Outputs of the first requests (in request order) form the digest set.
N_DIGEST = 32
#: Whole responses kept for the wire-size sample.
N_KEEP = 200


class _ServeWorkload:
    unit = "request"
    shards = 0
    limit_s = 0.0

    def __init__(self, seed: int, trace: bool):
        self.seed = seed
        self.trace = trace
        self.log = SpanLog() if trace else None
        self.setup_phases: dict[str, float] = {}
        self.texts: dict[int, str] = {}
        self.widths: dict[int, int] = {}
        self.responses: dict[int, object] = {}
        self.errors: dict[int, str] = {}
        self.latency_s: dict[int, float] = {}

    # ------------------------------------------------------------------ #
    def input_digest(self) -> str:
        chunks = [repr(cfg) + repr(rt) for cfg, rt in self.items[0].request.examples]
        chunks += [
            f"{sorted(it.request.query_config.items())}/{it.request.seed}"
            for it in self.items
        ]
        return digest(chunks + [self.schedule_bytes()])

    def schedule_bytes(self) -> bytes:
        return b""

    def setup(self) -> None:
        from repro.serve import make_service

        start = now()
        self.service = make_service(shards=self.shards)
        # Shard workers boot while the first request waits, so spawn
        # time runs until that first reply; the rest is warm-up.
        made_s = now() - start
        first_s = self.warm_up()
        spawn_s = made_s + first_s if self.shards else 0.0
        self.setup_phases["setup.shard_spawn_s"] = spawn_s
        self.setup_phases["setup.warmup_s"] = now() - start - spawn_s
        self.stats_before = self.service.stats()
        if self.trace:
            self.replay = _Replay(self.log)
            for request in self.warm_requests:
                self.replay.request(request, None, -1)

    # ------------------------------------------------------------------ #
    def _record(self, i: int, due: float, future) -> None:
        self.latency_s[i] = now() - due
        exc = future.exception()
        if exc is None:
            self._answer(i, future.result())
        else:
            self.errors[i] = type(exc).__name__

    def _answer(self, i: int, response) -> None:
        # Whole responses are kept only where they are needed (replay,
        # wire-size sample), so the benchmark's own retention does not
        # grow with throughput and move peak_rss_mb.
        self.texts[i] = response.prediction.generated_text
        self.widths[i] = response.group_width
        if self.trace and i % self.trace_every == 0 or i < N_KEEP:
            self.responses[i] = response

    def finish(self) -> None:
        """Scrape, close the service, and replay traced requests."""
        self.stats_after = self.service.stats()
        self.children_rss_mb = descendants_peak_rss_mb()
        if self.trace:
            from repro.obs.metrics import collect_service_metrics

            start = now()
            collect_service_metrics(self.service)
            self.scrape_ms = (now() - start) * 1e3
        self.service.close()
        if self.trace:
            for i, response in sorted(self.responses.items()):
                if i % self.trace_every == 0:
                    due = self.due_at(i)
                    root = self.log.add("serve.request", due, due + self.latency_s[i], None, i)
                    self.replay_one(i, response, root)

    def close(self) -> None:
        if hasattr(self, "service"):
            self.service.close()

    # ------------------------------------------------------------------ #
    def check(self) -> tuple[int, int, str]:
        """Compare served texts with a cold private surrogate's.

        Every checked (prompt, seed) pair is recomputed through
        ``DiscriminativeSurrogate.predict`` with prefix reuse off; a
        response whose generated text differs is a failed request, as is
        one that raised, was shed or timed out.
        """
        expected = _ColdReference()
        self.wrong = {
            i for i, text in self.texts.items()
            if self.checked(i) and text != expected(self.items[i].request)
        }
        attempted = self.attempted
        failed = attempted - len(self.texts) + len(self.wrong)
        if self.trace:
            failed += self.replay.mismatches
        texts = [self.texts.get(i, "<missing>") for i in range(N_DIGEST)]
        return attempted, failed, digest(texts)

    def checked(self, i: int) -> bool:
        return True

    def reference_digest(self) -> str:
        expected = _ColdReference()
        return digest(expected(it.request) for it in self.items[:N_DIGEST])

    # ------------------------------------------------------------------ #
    def end_to_end(self) -> tuple[dict, list[str]]:
        ok_lat = [self.latency_s[i] for i in self.texts if i not in self.wrong]
        p50 = percentile_ms(ok_lat, 50)
        p99 = percentile_ms(ok_lat, 99)
        in_slo = sum(1 for s in ok_lat if s <= self.limit_s)
        rate = len(self.texts) / self.window_s
        metrics = {
            "probes_per_s": (rate, "1/s"),
            "requests_per_s": (rate, "1/s"),
            "latency_p50_ms": (p50.value_ms, "ms"),
            "slo_attainment": (in_slo / self.attempted, "ratio"),
        }
        notes = [
            f"{self.attempted} requests attempted, {len(self.texts)} answered "
            f"in {self.window_s:.3f} s; errors: {sorted(set(self.errors.values())) or 'none'}",
            p50.describe("latency_p50_ms"),
            p99.describe("latency p99 (not a metric)"),
            f"slo_attainment: {in_slo}/{self.attempted} requests correct within "
            f"{self.limit_s * 1e3:.0f} ms",
        ]
        return metrics, notes

    def per_layer(self) -> dict:
        log, before, after = self.log, self.stats_before, self.stats_after

        def ratio(hits, misses):
            h = getattr(after, hits) - getattr(before, hits)
            m = getattr(after, misses) - getattr(before, misses)
            return h / (h + m) if h + m else 0.0

        widths = list(self.widths.values())
        return {
            "prompts.build_us": (_mean(log.durations_ms("prompts.build_parts")) * 1e3, "us"),
            "prompts.tokens": (_mean(self.replay.tokens), "count"),
            "serve.cache.fingerprint_us": (
                _mean(log.durations_ms("serve.cache.prompt_fingerprint")) * 1e3, "us"),
            "serve.cache.lookup_us": (
                _mean(log.durations_ms("serve.cache.result_lookup")) * 1e3, "us"),
            "serve.cache.result_hit_ratio": (ratio("result_hits", "result_misses"), "ratio"),
            "serve.cache.prepare_hit_ratio": (ratio("prepare_hits", "prepare_misses"), "ratio"),
            "serve.scheduler.queue_wait_p50_ms": (after.p50_queue_wait_s * 1e3, "ms"),
            "serve.scheduler.mean_batch_size": (after.mean_batch_size, "count"),
            "llm.prefix_cache.hit_ratio": (ratio("prefix_hits", "prefix_misses"), "ratio"),
            "llm.prefix_prepare_ms": (_mean(log.durations_ms("llm.prefix_prepare")), "ms"),
            "llm.prepare_ms": (_mean(log.durations_ms("llm.prepare")), "ms"),
            "llm.decode_ms": (_mean(log.durations_ms("llm.predict_parts")), "ms"),
            "llm.group_width_mean": (_mean(widths), "count"),
            "obs.scrape_ms": (self.scrape_ms, "ms"),
        }


class ServeHot(_ServeWorkload):
    rate = 150.0
    limit_s = 0.050
    #: A run is invalid when the send clock fell behind its schedule.
    late_p50_limit_s = 0.002
    late_p99_limit_s = 0.050
    trace_every = 1

    def __init__(self, seed: int, trace: bool, seconds: float):
        super().__init__(seed, trace)
        from repro.loadgen import WorkloadMix, arrival_schedule, build_workload

        self.schedule = arrival_schedule("poisson", self.rate, seconds, seed)
        mix = WorkloadMix(size=SIZE, n_icl=N_ICL, n_unique=N_PROMPTS, skew=1.1,
                          n_tenants=1, seed_lanes=2)
        self.items = build_workload(mix, len(self.schedule), seed)
        pairs = {(it.request.prompt_key, it.request.seed): it.request for it in self.items}
        self.warm_requests = list(pairs.values())

    def schedule_bytes(self) -> bytes:
        return self.schedule.tobytes()

    def warm_up(self) -> float:
        self.service.submit_many(self.warm_requests)
        return 0.0

    def due_at(self, i: int) -> float:
        return self.base + float(self.schedule[i])

    def measure(self, seconds: float) -> None:
        n = len(self.schedule)
        self.attempted = n
        self.sent_at = [0.0] * n
        futures = []
        self.base = now() + 0.01
        for i in range(n):
            due = self.due_at(i)
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            self.sent_at[i] = now()
            try:
                future = self.service.submit_async(self.items[i].request)
            except Exception as exc:  # shed at admission: a failed request
                self.errors[i] = type(exc).__name__
                continue
            future.add_done_callback(partial(self._record, i, due))
            futures.append(future)
        deadline = now() + 10.0
        for future in futures:
            try:
                future.result(timeout=max(deadline - now(), 0.0))
            except Exception:
                pass  # recorded by the callback, or left unanswered
        self.window_s = max(float(self.schedule[i]) + s for i, s in self.latency_s.items())
        self.late_s = [self.sent_at[i] - self.due_at(i) for i in range(n)]
        self.finish()

    def lateness(self) -> tuple[float, float, bool]:
        p50 = percentile_ms(self.late_s, 50).value_ms
        p99 = percentile_ms(self.late_s, 99).value_ms
        valid = p50 <= self.late_p50_limit_s * 1e3 and p99 <= self.late_p99_limit_s * 1e3
        return p50, p99, valid

    def replay_one(self, i, response, root) -> None:
        self.log.add("loadgen.send_late", self.due_at(i), self.sent_at[i], root, i)
        self.replay.request(self.items[i].request, root, i, response)

    def per_layer(self) -> dict:
        metrics = super().per_layer()
        metrics["loadgen.late_p99_ms"] = (self.lateness()[1], "ms")
        return metrics


class TuneClosed(_ServeWorkload):
    shards = 1
    #: One client keeps the parent and the worker from competing for the
    #: host's two cores: with two clients the per-request latency spread
    #: from 16 to 36 ms (p10-p90) and throughput varied by a third
    #: across runs, against 15-19 ms with one.
    clients = 1
    limit_s = 0.100
    #: Requests generated per second of run: well above what the client
    #: completes, so the loop never runs dry.
    max_rate = 400
    #: Beyond the digest set, every n-th request is checked (a cold
    #: recompute costs about one decode).
    check_every = 8
    trace_every = 2

    def __init__(self, seed: int, trace: bool, seconds: float):
        super().__init__(seed, trace)
        from repro.loadgen import WorkloadMix, build_workload
        from repro.serve import Request

        mix = WorkloadMix(size=SIZE, n_icl=N_ICL, n_unique=N_PROMPTS, skew=0.0,
                          n_tenants=1, seed_lanes=2**31 - 1)
        self.items = build_workload(mix, int(self.max_rate * seconds), seed)
        prompts = {it.prompt_index: it.request for it in self.items}
        # One warm-up request per prompt under a seed no measured request
        # uses (lane seeds are derived hashes; these are small integers).
        self.warm_requests = [
            Request(examples=r.examples, query_config=r.query_config, seed=k, size=SIZE)
            for k, r in sorted(prompts.items())
        ]

    def warm_up(self) -> float:
        """Serve the warm-up set; returns the first reply's wait."""
        start = now()
        self.service.submit(self.warm_requests[0])
        first = now() - start
        self.service.submit_many(self.warm_requests[1:])
        return first

    def checked(self, i: int) -> bool:
        return i < N_DIGEST or i % self.check_every == 0

    def due_at(self, i: int) -> float:
        return self.sent_at[i]

    def measure(self, seconds: float) -> None:
        self.sent_at: dict[int, float] = {}
        counter = itertools.count()
        lock = threading.Lock()
        start = now()
        stop_at = start + seconds

        def client():
            while True:
                with lock:
                    i = next(counter)
                if i >= len(self.items) or now() >= stop_at:
                    return
                sent = self.sent_at[i] = now()
                try:
                    response = self.service.submit(self.items[i].request)
                except Exception as exc:  # failed/shed/timed out
                    self.latency_s[i] = now() - sent
                    self.errors[i] = type(exc).__name__
                else:
                    self.latency_s[i] = now() - sent
                    self._answer(i, response)

        threads = [threading.Thread(target=client) for _ in range(self.clients)]
        with CoreRotation(processes=True):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        self.window_s = max(self.sent_at[i] + self.latency_s[i] for i in self.latency_s) - start
        self.attempted = len(self.sent_at)
        self.finish()

    def replay_one(self, i, response, root) -> None:
        self.replay.request(self.items[i].request, root, i, response, wire=True)

    def per_layer(self) -> dict:
        metrics = super().per_layer()
        sizes = [len(pickle.dumps(self.responses[i])) for i in range(N_KEEP) if i in self.responses]
        metrics["serve.shard.response_bytes"] = (_mean(sizes), "bytes")
        metrics["serve.shard.pickle_us"] = (
            _mean(self.log.durations_ms("serve.shard.pickle")) * 1e3, "us")
        return metrics


class _ColdReference:
    """Generated text per (prompt, seed) from a cold private surrogate."""

    def __init__(self):
        from repro.core.surrogate import DiscriminativeSurrogate
        from repro.dataset.syr2k import Syr2kTask

        self.surrogate = DiscriminativeSurrogate(Syr2kTask(SIZE), prefix_cache=False)
        self.texts: dict = {}

    def __call__(self, request) -> str:
        key = (request.prompt_key, request.seed)
        if key not in self.texts:
            self.texts[key] = self.surrogate.predict(
                request.examples, request.query_config, seed=request.seed
            ).generated_text
        return self.texts[key]


class _Replay:
    """A private serving stack that replays requests stage by stage.

    It mirrors the order ``PredictionService`` serves a request in —
    build prompt, fingerprint, result lookup, prepare lookup (or
    prepare), prefix snapshot, decode, result store — with its own
    surrogate and LRU caches, warmed like the service's, so each stage
    runs in the cache state the service saw.
    """

    def __init__(self, log: SpanLog):
        from repro.core.surrogate import DiscriminativeSurrogate
        from repro.dataset.syr2k import Syr2kTask
        from repro.serve import LRUCache

        self.log = log
        self.surrogate = DiscriminativeSurrogate(Syr2kTask(SIZE))
        self.results = LRUCache(4096)
        self.prepared = LRUCache(256)
        self.tokens: list[int] = []
        self.mismatches = 0

    def request(self, request, root, rid, response=None, wire=False):
        from repro.serve.cache import MISS, prompt_fingerprint

        log, s = self.log, self.surrogate
        if root is None:  # warm-up: replay without recording spans
            log = SpanLog()
        parts = log.timed("prompts.build_parts", root, rid, s.build_parts,
                          request.examples, request.query_config)
        fingerprint = log.timed("serve.cache.prompt_fingerprint", root, rid,
                                prompt_fingerprint, parts.ids)
        key = (fingerprint, int(request.seed), s.engine.sampling, s.engine.max_new_tokens)
        prediction = log.timed("serve.cache.result_lookup", root, rid, self.results.get, key)
        if prediction is MISS:
            analysis = log.timed("serve.cache.prepare_lookup", root, rid,
                                 self.prepared.get, fingerprint)
            if analysis is MISS:
                analysis = log.timed("llm.prepare", root, rid, s.model.prepare, parts.ids)
                self.prepared.put(fingerprint, analysis)
            misses = s.prefix_cache.snapshot()[1]
            start = now()
            s.prepared_prefix(parts)
            hit = s.prefix_cache.snapshot()[1] == misses
            log.add("llm.prefix_lookup" if hit else "llm.prefix_prepare", start, now(), root, rid)
            prediction = log.timed("llm.predict_parts", root, rid, s.predict_parts,
                                   parts, seed=request.seed, analysis=analysis)
            log.timed("serve.cache.result_store", root, rid, self.results.put, key, prediction)
        if wire:
            log.timed("serve.shard.pickle", root, rid,
                      lambda: pickle.loads(pickle.dumps(response)))
        if root is not None:
            self.tokens.append(int(parts.ids.size))
            if response is not None and (
                response.prediction.generated_text != prediction.generated_text
            ):
                self.mismatches += 1


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
