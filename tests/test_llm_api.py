"""Tests for the ChatClient wrapper (usage, retries, budgets)."""

import pytest

from repro.errors import BudgetExceededError, ConfigError
from repro.llm import api
from repro.llm.api import ChatClient, LatencyModel, TransientApiError, Usage
from repro.llm.engine import SimulatedLLM
from repro.llm.types import ChatCompletion, Message, build_messages
from repro.world.aspects import render_directive


@pytest.fixture()
def client():
    return ChatClient(engine=SimulatedLLM("gpt-4-0613"))


class TestMessages:
    def test_invalid_role_rejected(self):
        with pytest.raises(ValueError):
            Message("robot", "hi")

    def test_valid_roles(self):
        for role in ("system", "user", "assistant"):
            Message(role, "x")

    def test_completion_total_tokens(self):
        c = ChatCompletion(model="m", content="x", prompt_tokens=3, completion_tokens=4)
        assert c.total_tokens == 7


class TestComplete:
    def test_basic_completion(self, client):
        completion = client.complete([Message("user", "how do i bake bread?")])
        assert completion.content
        assert completion.model == "gpt-4-0613"
        assert completion.completion_tokens > 0

    def test_empty_messages_rejected(self, client):
        with pytest.raises(ValueError):
            client.complete([])

    def test_requires_user_message(self, client):
        with pytest.raises(ValueError):
            client.complete([Message("system", "be helpful")])

    def test_system_message_acts_as_supplement(self, client):
        plain = client.complete([Message("user", "how do i bake bread?")])
        from repro.world.aspects import render_directive

        guided = client.complete(
            [
                Message("system", render_directive("examples")),
                Message("user", "how do i bake bread?"),
            ]
        )
        assert plain.content != guided.content

    def test_ask_convenience(self, client):
        assert client.ask("how do i bake bread?") == client.ask("how do i bake bread?")


class TestUsageAccounting:
    def test_usage_accumulates(self, client):
        client.ask("first question about cooking")
        client.ask("second question about gardening")
        assert client.usage.requests == 2
        assert client.usage.prompt_tokens > 0
        assert client.usage.completion_tokens > 0

    def test_total_tokens(self):
        usage = Usage(prompt_tokens=3, completion_tokens=9)
        assert usage.total_tokens == 12

    def test_budget_enforced(self):
        client = ChatClient(engine=SimulatedLLM("gpt-4-0613"), max_requests=2)
        client.ask("q one about topics")
        client.ask("q two about topics")
        with pytest.raises(BudgetExceededError):
            client.ask("q three about topics")


class TestFailureInjection:
    def test_retries_succeed_eventually(self):
        client = ChatClient(
            engine=SimulatedLLM("gpt-4-0613"),
            failure_rate=0.5,
            max_retries=10,
        )
        for i in range(10):
            completion = client.complete([Message("user", f"question {i} about things")])
            assert completion.content
        assert client.usage.failures > 0

    def test_zero_retries_can_fail(self):
        client = ChatClient(
            engine=SimulatedLLM("gpt-4-0613"),
            failure_rate=0.95,
            max_retries=0,
        )
        failed = 0
        for i in range(20):
            try:
                client.complete([Message("user", f"question {i} about stuff")])
            except TransientApiError:
                failed += 1
        assert failed > 10

    def test_failure_deterministic(self):
        def run():
            client = ChatClient(
                engine=SimulatedLLM("gpt-4-0613"), failure_rate=0.6, max_retries=5
            )
            outcomes = []
            for i in range(10):
                try:
                    outcomes.append(client.complete([Message("user", f"q {i} x y z")]).retries)
                except TransientApiError:
                    outcomes.append(-1)
            return outcomes

        assert run() == run()

    def test_invalid_failure_rate(self):
        with pytest.raises(ValueError):
            ChatClient(engine=SimulatedLLM("gpt-4-0613"), failure_rate=1.0)

    def test_invalid_retries(self):
        with pytest.raises(ValueError):
            ChatClient(engine=SimulatedLLM("gpt-4-0613"), max_retries=-1)


class TestLatencyModel:
    def test_ticks_deterministic_and_positive(self):
        engine = SimulatedLLM("gpt-4-0613")
        model = LatencyModel(base_ticks=6.0, per_token_ticks=0.25, jitter=0.25)
        a = model.ticks(engine, "what is a monad? be concise.", None, 12)
        b = model.ticks(engine, "what is a monad? be concise.", None, 12)
        assert a == b >= 1

    def test_token_count_raises_latency(self):
        engine = SimulatedLLM("gpt-4-0613")
        model = LatencyModel(jitter=0.0)
        short = model.ticks(engine, "short prompt here", None, 4)
        long = model.ticks(engine, "short prompt here", None, 400)
        assert long > short

    def test_zero_jitter_is_exact(self):
        engine = SimulatedLLM("gpt-4-0613")
        model = LatencyModel(base_ticks=10.0, per_token_ticks=0.5, jitter=0.0)
        assert model.ticks(engine, "any prompt at all", None, 20) == 20

    def test_validation(self):
        with pytest.raises(ConfigError):
            LatencyModel(base_ticks=-1.0)
        with pytest.raises(ConfigError):
            LatencyModel(per_token_ticks=-0.1)
        with pytest.raises(ConfigError):
            LatencyModel(jitter=-0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["base_ticks", "per_token_ticks", "jitter"])
    def test_non_finite_components_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"LatencyModel.{name} must be finite"):
            LatencyModel(**{name: value})

    def test_client_completion_latency(self):
        client = ChatClient(engine=SimulatedLLM("gpt-4-0613"))
        messages = [Message("user", "how do i parse csv files? show me how.")]
        first = client.completion_latency(messages)
        assert first == client.completion_latency(messages) >= 1
        # A system supplement adds tokens, so latency can only grow.
        augmented = [Message("system", "use the csv module and show code"), *messages]
        assert client.completion_latency(augmented) >= first
        # Pricing a completion never consumes the engine's RNG state or
        # usage accounting.
        assert client.usage.requests == 0

    def test_max_inflight_validation(self):
        with pytest.raises(ValueError):
            ChatClient(engine=SimulatedLLM("gpt-4-0613"), max_inflight=0)


class TestCompletionMemo:
    """A client memoises the pure part of a completion per (prompt, supplement)."""

    PAIRS = [
        ("how do i bake bread?", ""),
        ("how do i bake bread?", render_directive("examples")),
        ("why does my regex backtrack so much? be concise.", ""),
        ("why does my regex backtrack so much? be concise.", render_directive("depth")),
    ]

    def test_respond_runs_once_per_distinct_pair(self, monkeypatch):
        client = ChatClient(engine=SimulatedLLM("gpt-4-0613"))
        respond = client.engine.respond
        calls = []

        def counting_respond(prompt, supplement=None):
            calls.append((prompt, supplement))
            return respond(prompt, supplement=supplement)

        monkeypatch.setattr(client.engine, "respond", counting_respond)
        sequence = self.PAIRS * 3
        completions = [client.complete(build_messages(p, s)) for p, s in sequence]
        assert len(calls) == len(set(calls)) == len(self.PAIRS)
        assert completions == [
            ChatClient(engine=SimulatedLLM("gpt-4-0613")).complete(build_messages(p, s))
            for p, s in sequence
        ]
        # Usage still counts every call, hit or miss.
        assert client.usage.requests == len(sequence)
        assert client.usage.prompt_tokens == sum(c.prompt_tokens for c in completions)
        assert client.usage.completion_tokens == sum(
            c.completion_tokens for c in completions
        )

    def test_results_match_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(api, "_MEMO_LIMIT", 2)
        client = ChatClient(engine=SimulatedLLM("gpt-4-0613"))
        for _ in range(2):
            for prompt, supplement in self.PAIRS:
                messages = build_messages(prompt, supplement)
                fresh = ChatClient(engine=SimulatedLLM("gpt-4-0613"))
                assert client.completion_latency(messages) == fresh.completion_latency(
                    messages
                )
                assert client.complete(messages) == fresh.complete(messages)
        assert len(client.memo.completions) == len(client.memo.latencies) == 2
