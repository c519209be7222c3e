"""Tests for cross-process trace stitching (tracer absorb + shard wiring).

The distributed-tracing contract: shard workers trace in disjoint
span-id blocks (:func:`worker_id_start`), parent their spans to ids
carried in the request messages, and ship records back over the result
pipe; the parent absorbs them into ONE tree.  Pinned here:

* absorb is order-independent — children may arrive before parents;
* orphaned spans (a SIGKILLed shard never ships the enclosing span)
  render as marked-lost roots instead of crashing the tooling;
* parent-id integrity holds across shard counts {0, 1, 4}: every span
  in a live trace resolves to a recorded parent, and the sharded tree
  nests submit → roundtrip/worker → request → generate.
"""

import pytest

from repro.errors import ShardError
from repro.obs import (
    Span,
    Tracer,
    render_span_tree,
    span_children,
    summarize_spans,
    use_tracer,
    worker_id_start,
)
from repro.serve import Request, make_service


@pytest.fixture(scope="module")
def examples(sm_dataset):
    return [
        (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
        for i in range(4)
    ]


def _request(sm_dataset, examples, query=42, seed=0):
    return Request(
        examples=examples,
        query_config=sm_dataset.config(query),
        seed=seed,
        size="SM",
    )


def _orphans(spans):
    known = {s.span_id for s in spans}
    return [
        s for s in spans
        if s.parent_id is not None and s.parent_id not in known
    ]


class TestWorkerIdBlocks:
    def test_blocks_are_disjoint_across_shards_and_generations(self):
        starts = sorted(
            worker_id_start(shard, gen)
            for shard in range(8)
            for gen in range(4)
        )
        assert len(set(starts)) == len(starts)
        # Each (shard, generation) owns a 2^28-id block.
        assert all(b - a >= (1 << 28) for a, b in zip(starts, starts[1:]))

    def test_parent_ids_sit_below_every_worker_block(self):
        lowest = worker_id_start(0, 0)
        tracer = Tracer()
        for _ in range(1000):
            with tracer.span("parent"):
                pass
        assert max(s.span_id for s in tracer.spans()) < lowest


class TestAbsorb:
    def _worker_records(self, parent_id, id_start):
        """Drained records of a worker trace parented to ``parent_id``."""
        worker = Tracer(id_start=id_start)
        with worker.span("shard.worker", parent=parent_id):
            with worker.span("serve.request"):
                with worker.span("serve.generate"):
                    pass
        return worker.drain()

    def test_out_of_order_arrival_still_stitches(self):
        parent = Tracer()
        with parent.span("shard.submit") as root:
            records = self._worker_records(
                root.span_id, worker_id_start(0, 0)
            )
        # Ship the deepest spans first: a late pipe drain can deliver a
        # child batch before the batch holding its parent.
        records.sort(key=lambda rec: rec[1], reverse=True)
        for record in records:
            parent.absorb([record])
        spans = parent.spans()
        assert _orphans(spans) == []
        by_name = {s.name: s for s in spans}
        assert by_name["shard.worker"].parent_id == \
            by_name["shard.submit"].span_id
        assert by_name["serve.request"].parent_id == \
            by_name["shard.worker"].span_id
        tree = render_span_tree(spans)
        assert "!orphan" not in tree

    def test_absorb_applies_clock_offset(self):
        parent = Tracer()
        records = self._worker_records(None, worker_id_start(1, 0))
        parent.absorb(records, offset_s=100.0)
        assert all(s.start_s >= 100.0 for s in parent.spans())

    def test_absorbed_ids_do_not_collide_across_respawns(self):
        parent = Tracer()
        with parent.span("shard.submit") as root:
            pass
        for gen in range(3):
            parent.absorb(
                self._worker_records(
                    root.span_id, worker_id_start(0, gen)
                )
            )
        spans = parent.spans()
        assert len({s.span_id for s in spans}) == len(spans)
        assert _orphans(spans) == []


class TestOrphanRendering:
    def _lossy_trace(self):
        """A stitched trace whose worker-side parent never shipped."""
        lost_parent = worker_id_start(0, 0) + 7
        return [
            Span("shard.submit", 1, None, 0.0, 0.001),
            Span("serve.request", lost_parent + 1, lost_parent, 0.0, 0.02),
            Span("serve.generate", lost_parent + 2, lost_parent + 1,
                 0.01, 0.005),
        ]

    def test_orphan_marked_lost_not_crashing(self):
        spans = self._lossy_trace()
        tree = render_span_tree(spans, max_roots=10)
        lost = worker_id_start(0, 0) + 7
        assert f"!orphan(parent={lost} lost)" in tree
        # The orphan's own subtree still renders beneath it.
        assert "serve.generate" in tree

    def test_orphan_becomes_root_in_children_map(self):
        spans = self._lossy_trace()
        roots = span_children(spans)[None]
        assert {s.name for s in roots} == {"shard.submit", "serve.request"}

    def test_summary_counts_orphaned_stages(self):
        summary = summarize_spans(self._lossy_trace())
        rendered = summary.render()
        assert "serve.generate" in rendered


@pytest.mark.parametrize("shards", [0, 1, 4])
class TestLiveParentIntegrity:
    """One stitched tree per shard count, no lost parentage."""

    def _trace(self, shards, sm_dataset, examples):
        tracer = Tracer()
        with use_tracer(tracer):
            with make_service(shards=shards, max_batch_size=4) as service:
                futures = [
                    service.submit_async(
                        _request(sm_dataset, examples, query=q, seed=0)
                    )
                    for q in (40, 41, 42)
                ]
                for future in futures:
                    future.result(timeout=120)
        return tracer.spans()

    def test_every_parent_resolves(self, shards, sm_dataset, examples):
        spans = self._trace(shards, sm_dataset, examples)
        assert spans
        assert len({s.span_id for s in spans}) == len(spans)
        assert _orphans(spans) == []

        names = {s.name for s in spans}
        by_id = {s.span_id: s for s in spans}
        if shards == 0:
            assert "serve.request" in names
            assert not any(n.startswith("shard.") for n in names)
            return
        # Sharded: submit → roundtrip (parent side) + worker-side
        # subtree, worker span ids inside their namespaced blocks.
        assert {"shard.submit", "shard.roundtrip", "shard.worker",
                "serve.request", "serve.generate"} <= names
        lowest_block = worker_id_start(0, 0)
        for span in spans:
            if span.name == "shard.worker":
                assert span.span_id >= lowest_block
                parent = by_id[span.parent_id]
                assert parent.name == "shard.submit"
                assert parent.span_id < lowest_block
            if span.name == "shard.roundtrip":
                assert by_id[span.parent_id].name == "shard.submit"
            if span.name == "serve.request":
                assert by_id[span.parent_id].name == "shard.worker"


@pytest.mark.parametrize("shards", [0, 1])
def test_every_request_has_one_root_hits_included(
    shards, sm_dataset, examples
):
    """Hits answered at admission still yield one ``serve.request`` root,
    parented where a batched request's root is: under ``shard.worker``
    when sharded, under the caller's span in process."""
    requests = [
        _request(sm_dataset, examples, query=q, seed=0)
        for q in (40, 41, 40, 41)
    ]
    tracer = Tracer()
    with use_tracer(tracer):
        with make_service(shards=shards, max_batch_size=4) as service:
            with tracer.span("client"):
                responses = [service.submit(r) for r in requests]
    spans = tracer.spans()
    assert _orphans(spans) == []
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.name == "serve.request"]
    assert len(roots) == len(requests)
    assert [r.result_cache_hit for r in responses] == [False, False, True, True]
    assert sorted(s.attributes["result_cache_hit"] for s in roots) == [
        False, False, True, True,
    ]
    parents = [by_id[s.parent_id] for s in roots]
    assert {p.name for p in parents} == {"shard.worker" if shards else "client"}
    assert len({p.span_id for p in parents}) == (len(requests) if shards else 1)


@pytest.mark.chaos
class TestKilledShardOrphans:
    def test_tooling_survives_a_sigkilled_shard(
        self, sm_dataset, examples
    ):
        tracer = Tracer()
        with use_tracer(tracer):
            with make_service(
                shards=2, max_batch_size=4, max_restarts=2
            ) as service:
                futures = [
                    service.submit_async(
                        _request(sm_dataset, examples, query=q, seed=s)
                    )
                    for s in range(2)
                    for q in (40, 41, 42)
                ]
                service.kill_shard(0)
                service.kill_shard(1)
                for future in futures:
                    try:
                        future.result(timeout=120)
                    except ShardError:
                        pass
                # The respawned shards serve a second wave, so the trace
                # mixes lost-generation and healthy spans.
                for q in (40, 41):
                    service.submit(_request(sm_dataset, examples, query=q))
        spans = tracer.spans()
        assert spans
        # The analysis tooling must digest the lossy trace whole.
        tree = render_span_tree(spans, max_roots=len(spans))
        summarize_spans(spans).render()
        for orphan in _orphans(spans):
            assert f"!orphan(parent={orphan.parent_id} lost)" in tree
