"""Tests for the deterministic micro-batching scheduler (pull mode)."""

import pytest

from repro.llm.api import TransientApiError
from repro.serve.gateway import GatewayConfig, PasGateway
from repro.serve.scheduler import MicroBatcher
from repro.serve.types import ServeRequest

PROMPTS = [
    "how do i parse csv files? show me how.",
    "how do i bake bread? walk me through it.",
    "why does my regex backtrack so much? be concise.",
    "how do i parse csv files? show me how.",  # duplicate
    "how do i profile python code? please explain it in detail.",
    "how do i sort a csv by two columns? show me how.",
    "what is a good chess opening for beginners? be concise.",
]


def _requests(prompts=PROMPTS, model="gpt-4-0613"):
    return [ServeRequest(prompt=p, model=model) for p in prompts]


def pull_loop(batcher, serve, requests):
    """One arrival per tick; pull after each, force the tail at the end.

    Every pulled batch goes to ``serve`` (``gateway.ask_batch``, say) and
    the responses come back in arrival order.
    """
    responses = []
    tick = 0
    for tick, request in enumerate(requests, start=1):
        batcher.submit_at(tick, request)
        batch = batcher.take(tick)
        if batch:
            responses.extend(serve(batch))
    tail = batcher.take(tick, force=True)
    if tail:
        responses.extend(serve(tail))
    return responses


def _collect(batches):
    def serve(batch):
        batches.append(list(batch))
        return []

    return serve


class TestTriggers:
    def test_size_trigger_drains_full_batch(self):
        mb = MicroBatcher(max_batch=3, max_wait=10)
        reqs = _requests()
        for tick, r in enumerate(reqs[:2], start=1):
            mb.submit_at(tick, r)
            assert mb.take(tick) == []
        assert mb.pending == 2
        mb.submit_at(3, reqs[2])  # third request fills the batch
        assert mb.ready(3) == "size"
        assert len(mb.take(3)) == 3
        assert mb.pending == 0
        assert mb.records[0].trigger == "size"
        assert mb.records[0].occupancy == 1.0

    def test_wait_trigger_drains_partial_batch(self):
        batches = []
        mb = MicroBatcher(max_batch=100, max_wait=3)
        pull_loop(mb, _collect(batches), _requests()[:4])
        # request 1 arrived at tick 1; by tick 4 it has waited 3 ticks.
        assert [len(b) for b in batches] == [4]
        assert mb.records[0].trigger == "wait"
        assert mb.records[0].max_wait_ticks == 3
        assert mb.records[0].occupancy == pytest.approx(0.04)

    def test_flush_drains_tail(self):
        mb = MicroBatcher(max_batch=100, max_wait=100)
        for tick, r in enumerate(_requests()[:2], start=1):
            mb.submit_at(tick, r)
        assert mb.take(2) == []
        assert len(mb.take(2, force=True)) == 2
        assert mb.records[0].trigger == "flush"
        assert mb.take(2, force=True) == []  # idempotent when empty

    def test_logical_clock_counts_submissions(self):
        mb = MicroBatcher(max_batch=2, max_wait=2)
        assert mb.clock == 0
        pull_loop(mb, _collect([]), _requests()[:5])
        assert mb.clock == 5

    def test_stats_accumulate(self):
        mb = MicroBatcher(max_batch=3, max_wait=10)
        pull_loop(mb, _collect([]), _requests()[:7])
        assert mb.stats.submitted == 7
        assert mb.stats.drained == 7
        assert mb.stats.batches == 3
        assert mb.stats.triggers == {"size": 2, "flush": 1}
        assert mb.stats.mean_batch_size == pytest.approx(7 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait=0)

    def test_occupancy_percentiles_in_stats(self):
        mb = MicroBatcher(max_batch=4, max_wait=10)
        # one full batch (1.0), then the forced half batch (0.5)
        pull_loop(mb, _collect([]), _requests()[:6])
        stats = mb.stats.as_dict()
        assert stats["mean_occupancy"] == pytest.approx(0.75)
        assert stats["occupancy_p50"] == pytest.approx(0.5)
        assert stats["occupancy_p99"] == pytest.approx(1.0)


class TestTimedSubmission:
    def test_submit_at_fires_wait_trigger_on_trace_gaps(self):
        mb = MicroBatcher(max_batch=10, max_wait=3)
        reqs = _requests()
        mb.submit_at(1, reqs[0])
        mb.submit_at(2, reqs[1])
        assert mb.take(2) == []
        mb.submit_at(9, reqs[2])  # the 7-tick gap ages the queue past max_wait
        assert len(mb.take(9)) == 3
        assert mb.records[0].trigger == "wait"
        assert mb.records[0].max_wait_ticks == 8

    def test_submit_at_rejects_time_travel(self):
        mb = MicroBatcher(max_batch=10, max_wait=10)
        mb.submit_at(5, _requests()[0])
        mb.submit_at(5, _requests()[1])  # same tick is fine
        with pytest.raises(ValueError):
            mb.submit_at(4, _requests()[2])

    def test_run_arrivals_matches_direct_ask_batch(self, trained_pas):
        reqs = _requests()
        direct = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        scheduled = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        mb = MicroBatcher(max_batch=3, max_wait=2)
        assert pull_loop(mb, scheduled.ask_batch, reqs) == direct.ask_batch(reqs)
        assert scheduled.stats == direct.stats


class TestContinuousMode:
    """The pull mode: submissions queue, and only :meth:`take` drains."""

    def test_submissions_only_queue(self):
        mb = MicroBatcher(max_batch=2, max_wait=2)
        for tick, r in enumerate(_requests()[:5], start=1):
            mb.submit_at(tick, r)
        assert mb.pending == 5
        assert mb.records == []

    def test_take_respects_triggers_and_limit(self):
        mb = MicroBatcher(max_batch=3, max_wait=10)
        reqs = _requests()
        mb.submit_at(1, reqs[0])
        assert mb.ready(1) is None
        assert mb.take(1) == []  # nothing ready yet
        mb.submit_at(1, reqs[1])
        mb.submit_at(2, reqs[2])
        assert mb.ready(2) == "size"
        taken = mb.take(2, limit=2)
        assert [t.prompt for t in taken] == [r.prompt for r in reqs[:2]]
        assert mb.pending == 1
        assert mb.records[0].trigger == "size"

    def test_take_force_flushes_tail(self):
        mb = MicroBatcher(max_batch=10, max_wait=10)
        mb.submit_at(1, _requests()[0])
        assert mb.take(2) == []
        assert len(mb.take(2, force=True)) == 1
        assert mb.records[0].trigger == "flush"

    def test_wait_trigger_uses_take_clock(self):
        mb = MicroBatcher(max_batch=10, max_wait=4)
        mb.submit_at(1, _requests()[0])
        assert mb.ready(4) is None
        assert mb.ready(5) == "wait"
        assert len(mb.take(5)) == 1
        assert mb.clock == 5


class TestRemovedRun:
    def test_run_shim_is_gone(self):
        # The deprecated one-shot MicroBatcher.run() was removed after its
        # call sites migrated to the ServingEngine; it must not quietly
        # come back.
        assert not hasattr(MicroBatcher(), "run")

    def test_handler_mode_is_gone(self):
        # The batcher only queues and hands out batches; serving them is
        # the caller's job, so there is no drain handler to call.
        mb = MicroBatcher()
        for name in ("submit", "flush", "run_arrivals", "continuous"):
            assert not hasattr(mb, name)
        with pytest.raises(TypeError):
            MicroBatcher(handler=lambda batch: [])


class TestGatewayParity:
    """Pulled batches through ask_batch == one direct ask_batch == the ask loop."""

    def test_run_matches_direct_ask_batch(self, trained_pas):
        reqs = _requests()
        direct = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        scheduled = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        mb = MicroBatcher(max_batch=3, max_wait=2)
        assert pull_loop(mb, scheduled.ask_batch, reqs) == direct.ask_batch(reqs)
        assert scheduled.stats == direct.stats
        assert list(scheduled._complement_cache._data) == list(
            direct._complement_cache._data
        )

    def test_run_matches_scalar_loop_under_eviction(self, trained_pas):
        # Tiny caches force evictions across batch boundaries; the
        # partitioned replay must still match the scalar sequence.
        reqs = _requests(PROMPTS + PROMPTS[::-1])
        scalar = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=3, embed_cache_size=3))
        scheduled = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=3, embed_cache_size=3))
        mb = MicroBatcher(max_batch=4, max_wait=3)
        assert pull_loop(mb, scheduled.ask_batch, reqs) == [scalar.ask(r) for r in reqs]
        assert scheduled.stats == scalar.stats

    def test_responses_in_arrival_order(self, trained_pas):
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        mb = MicroBatcher(max_batch=2, max_wait=5)
        reqs = [
            ServeRequest(prompt=p, model="gpt-4-0613", request_id=str(i))
            for i, p in enumerate(PROMPTS)
        ]
        responses = pull_loop(mb, gateway.ask_batch, reqs)
        assert [r.request_id for r in responses] == [str(i) for i in range(len(PROMPTS))]

    def test_handler_exception_consumes_batch(self, trained_pas, monkeypatch):
        gateway = PasGateway(
            pas=trained_pas, config=GatewayConfig(cache_size=8, strict=True)
        )
        client = gateway.client_for("gpt-4-0613")

        def exploding_complete(messages):
            raise TransientApiError("gpt-4-0613: all attempts failed transiently")

        monkeypatch.setattr(client, "complete", exploding_complete)
        mb = MicroBatcher(max_batch=2, max_wait=10)
        reqs = _requests()[:2]
        mb.submit_at(1, reqs[0])
        assert mb.take(1) == []
        mb.submit_at(2, reqs[1])
        batch = mb.take(2)
        assert mb.pending == 0  # a pulled batch has left the queue
        with pytest.raises(TransientApiError):
            gateway.ask_batch(batch)
        assert gateway.stats.failures_per_model == {"gpt-4-0613": 1}
