"""The unified Serializable protocol (ISSUE 10).

One registry, one envelope: every config/state class that round-trips
through dicts registers under a versioned ``"schema"`` key, and
:func:`repro.utils.serialize.serialize` /
:func:`repro.utils.serialize.deserialize` dispatch on it.  The pinned
contracts:

* the envelope is **additive** — ``serialize(obj)`` is ``as_dict()``
  plus the schema key, so every pre-existing byte-pinned ``as_dict``
  export is untouched;
* round-trip parity holds for **every registered class** (the sample
  table below must stay complete — adding a registration without a
  sample fails the completeness check);
* unknown or missing schemas fail loudly;
* every export is byte-pinned (``EXPORT_SHA256``, captured from the
  hand-written methods the field codec replaced), and every pinned
  record obeys the codec's one decoding rule.
"""

import dataclasses
import hashlib
import json
import re

import pytest

from repro.errors import ConfigError
from repro.llm.api import LatencyModel
from repro.obs.trace import Trace, Tracer, TraceStore
from repro.pipeline.config import PipelineConfig, RunnerConfig
from repro.pipeline.collect import CollectionConfig, CollectionResult, SelectedPrompt
from repro.pipeline.dataset import PromptPair, PromptPairDataset
from repro.pipeline.generate import GenerationConfig
from repro.policy import ContextualBandit, PolicyConfig
from repro.resilience import FaultPlan, OutageWindow, RetryPolicy
from repro.serve import (
    EngineConfig,
    FairnessPolicy,
    FleetPlan,
    GatewayConfig,
    HedgePolicy,
    ModelPool,
    RouterConfig,
    ServeResponse,
    ServingConfig,
    TenantPolicy,
    TenantProfile,
    TrafficConfig,
)
from repro.utils.serialize import (
    SCHEMA_KEY,
    Record,
    Serializable,
    deserialize,
    registered_schemas,
    schema_id,
    serialize,
)
from repro.world.prompts import SyntheticPrompt


def _trace() -> Trace:
    tracer = Tracer(store=TraceStore())
    with tracer.span("gateway.ask", model="gpt-4-0613"):
        with tracer.span("augment") as span:
            span.set(cached=True)
    return tracer.store.traces[0]


def _bandit() -> ContextualBandit:
    bandit = ContextualBandit(("static", "none"), epsilon=0.25, seed=3)
    for tick, reward in enumerate((0.5, 2.75, 4.0)):
        arm = bandit.select(("coding", "acme"), tick)
        bandit.observe(("coding", "acme"), arm, reward)
    return bandit


#: One representative (non-default where it matters) instance per
#: registered schema.  The completeness test keeps this table honest.
SAMPLES = {
    "TenantPolicy/1": TenantPolicy("paid", quota=5, priority=2),
    "ModelPool/1": ModelPool("mix", (("gpt-4-0613", 3.0), ("gpt-3.5-turbo-1106", 1.0))),
    "HedgePolicy/1": HedgePolicy(percentile=95.0, min_samples=8),
    "FairnessPolicy/1": FairnessPolicy(mode="wfq", weights=(("paid", 2.0),)),
    "FleetPlan/1": FleetPlan(
        replicas=3, hedge=HedgePolicy(after_ticks=6), spike_rate=0.1, spike_ticks=8
    ),
    "RouterConfig/1": RouterConfig(
        n_replicas=2, policy="least_loaded", tenants=(TenantPolicy("t", quota=2),)
    ),
    "GatewayConfig/1": GatewayConfig(
        cache_size=16,
        seed=5,
        fault_plan=FaultPlan(seed=2, completion_failure_rate=0.1),
        retry_policy=RetryPolicy(max_retries=3),
    ),
    "EngineConfig/1": EngineConfig(max_inflight=8, shed_policy="degrade"),
    "TenantProfile/1": TenantProfile("paid", weight=2.0, priority=1),
    "TrafficConfig/1": TrafficConfig(n_requests=32, process="bursty"),
    "PolicyConfig/1": PolicyConfig(enabled=True, judge_seed=17),
    "ServingConfig/1": ServingConfig(
        router=RouterConfig(n_replicas=2),
        fleet=FleetPlan(replicas=2, hedge=HedgePolicy(after_ticks=4)),
    ),
    "PipelineConfig/1": PipelineConfig(
        collection=CollectionConfig(quality_threshold=0.5),
        generation=GenerationConfig(max_rounds=2),
        runner=RunnerConfig(checkpoint_every=8),
        seed=9,
    ),
    "ServeResponse/1": ServeResponse(
        request_id="r1",
        model="gpt-4-0613",
        response="answer",
        complement="context",
        complement_cached=True,
        prompt_tokens=12,
        completion_tokens=20,
        status="ok",
        strategy="static",
    ),
    "ContextualBandit/1": _bandit(),
    "Trace/1": _trace(),
}


class TestRegistry:
    def test_sample_table_is_complete(self):
        assert set(SAMPLES) == set(registered_schemas())

    def test_every_registered_class_satisfies_the_protocol(self):
        for key, cls in registered_schemas().items():
            assert isinstance(SAMPLES[key], cls)
            assert isinstance(SAMPLES[key], Serializable)
            assert schema_id(cls) == key

    @pytest.mark.parametrize("key", sorted(SAMPLES))
    def test_round_trip_through_json(self, key):
        obj = SAMPLES[key]
        payload = serialize(obj)
        assert payload[SCHEMA_KEY] == key
        restored = deserialize(json.loads(json.dumps(payload)))
        assert type(restored) is type(obj)
        # Compare re-serialized envelopes: classes without __eq__ (the
        # bandit, traces) still pin lossless round-trips this way.
        assert serialize(restored) == payload

    @pytest.mark.parametrize("key", sorted(SAMPLES))
    def test_envelope_is_as_dict_plus_schema(self, key):
        obj = SAMPLES[key]
        payload = serialize(obj)
        body = dict(payload)
        del body[SCHEMA_KEY]
        assert body == obj.as_dict()  # byte-pinned exports untouched


class TestFailureModes:
    def test_missing_schema_key_raises(self):
        with pytest.raises(ValueError, match="schema"):
            deserialize({"tenant": "t"})

    def test_unknown_schema_raises(self):
        with pytest.raises(ValueError, match="Ghost/9"):
            deserialize({SCHEMA_KEY: "Ghost/9"})

    def test_non_dict_payload_raises(self):
        with pytest.raises(ValueError):
            deserialize(["not", "a", "dict"])


class TestTraceRoundTrip:
    def test_span_tree_is_restored_exactly(self):
        trace = _trace()
        restored = Trace.from_dict(trace.as_dict())
        assert restored.as_dict() == trace.as_dict()
        assert restored.root.name == "gateway.ask"
        assert restored.spans[1].parent_id == 0
        assert restored.spans[1].attrs == {"cached": True}
        assert restored.depth_of(restored.spans[1]) == 1

    def test_empty_trace_is_rejected(self):
        with pytest.raises(ValueError, match="at least one span"):
            Trace.from_dict({"trace_id": 0, "spans": []})

    def test_out_of_order_span_ids_are_rejected(self):
        data = _trace().as_dict()
        data["spans"][0]["span_id"] = 5
        with pytest.raises(ValueError, match="creation order"):
            Trace.from_dict(data)


class TestBanditRoundTrip:
    def test_resumed_bandit_selects_identically(self):
        bandit = _bandit()
        resumed = deserialize(json.loads(json.dumps(serialize(bandit))))
        for tick in range(10, 16):
            assert resumed.select(("coding", "acme"), tick) == bandit.select(
                ("coding", "acme"), tick
            )


# --------------------------------------------------------------------- #
# byte pins on every as_dict() export
# --------------------------------------------------------------------- #

PROMPT = SyntheticPrompt(
    uid=7,
    text="How should I index a table that has forty million rows?",
    category="coding",
    needs=frozenset({"step_by_step", "examples", "constraints"}),
    topic="database indexing",
    dup_of=3,
    hard=True,
)

PAIR = PromptPair(
    prompt_uid=7,
    prompt_text=PROMPT.text,
    complement_text="Walk through the steps and give one example.",
    category="coding",
    true_category="analysis",
    true_needs=frozenset({"step_by_step", "examples"}),
    regeneration_rounds=2,
)

FAULTS = FaultPlan(
    seed=11,
    completion_failure_rate=0.2,
    augment_failure_rate=0.1,
    latency_spike_rate=0.05,
    latency_spike_ticks=8,
    outages=(OutageWindow("gpt-4-0613", 10, 20), OutageWindow("qwen2-72b-chat", 4, 6)),
)

RETRY = RetryPolicy(
    max_retries=2, base_backoff=2.0, max_backoff=16.0, jitter=0.1, deadline_ticks=64.0, seed=4
)

SERVING = ServingConfig(
    router=RouterConfig(
        n_replicas=4,
        policy="least_loaded",
        hash_key="tenant",
        vnodes=32,
        cache_scope="shared",
        seed=7,
        tenants=(
            TenantPolicy("free", quota=50, quota_window_ticks=128),
            TenantPolicy("paid", rate_tokens_per_tick=0.5, burst=4, priority=3),
        ),
        pools=(ModelPool("mix", (("gpt-4-0613", 3.0), ("gpt-3.5-turbo-1106", 1.0))),),
    ),
    gateway=GatewayConfig(
        cache_size=64,
        embed_cache_size=32,
        failure_rate=0.05,
        max_retries=2,
        seed=5,
        strict=True,
        fault_plan=FAULTS,
        retry_policy=RETRY,
        breaker_threshold=3,
        breaker_recovery_ticks=24,
        latency_model=LatencyModel(base_ticks=3.0, per_token_ticks=0.02, jitter=0.1),
        max_inflight=4,
    ),
    engine=EngineConfig(
        max_inflight=8, max_batch=16, max_wait=2, max_queue=64, deadline_ticks=40,
        shed_policy="degrade", keep_responses=False,
    ),
    traffic=TrafficConfig(
        n_requests=500,
        seed=13,
        process="diurnal",
        mean_gap_ticks=1.5,
        zipf_exponent=1.2,
        tenants=(
            TenantProfile("free", weight=3.0, augment_rate=0.5, deadline_ticks=32),
            TenantProfile("paid", weight=1.0, priority=2, models=(("mix", 1.0),)),
        ),
    ),
    policy=PolicyConfig(
        enabled=True,
        strategies=("static", "salted", "none"),
        algorithm="ucb1",
        epsilon=0.25,
        ucb_c=1.5,
        salt=2,
        seed=3,
        judge_seed=17,
        quality_gate=4.25,
        max_promoted_per_category=2,
        state=_bandit().as_dict(),
    ),
    fleet=FleetPlan(
        replicas=4,
        hedge=HedgePolicy(percentile=95.0, min_samples=8),
        fairness=FairnessPolicy(mode="wfq", weights=(("free", 1.0), ("paid", 3.0))),
        spike_rate=0.05,
        spike_ticks=12,
    ),
)

#: Non-default instances of the record classes ``SAMPLES`` does not
#: cover, plus the hand-written exports that stay beside the codec.
EXTRA = {
    "SyntheticPrompt": PROMPT,
    "PromptPair": PAIR,
    "PromptPairDataset": PromptPairDataset(
        [PAIR, PromptPair(9, "Plan a trip", "", "travel", "travel", frozenset())],
        curated=False,
        n_dropped=3,
    ),
    "SelectedPrompt": SelectedPrompt(PROMPT, predicted_category="analysis", quality=0.75),
    "OutageWindow": OutageWindow("gpt-4-0613", 10, 20),
    "LatencyModel": LatencyModel(base_ticks=3.0, per_token_ticks=0.02, jitter=0.1),
    "GenerationConfig": GenerationConfig(
        spurious_rate=0.2, pet_bias=0.5, drop_rate=0.1, direct_answer_rate=0.05,
        max_rounds=2, curate=False,
    ),
    "FaultPlan": FAULTS,
    "RetryPolicy": RETRY,
    "CollectionConfig": CollectionConfig(
        dedup_threshold=0.9, keep_per_group=2, target_size=40, skip_quality_filter=True,
        dedup_shards=2,
    ),
    "RunnerConfig": RunnerConfig(
        checkpoint_every=8,
        critic_model="teacher-gpt-4-critic",
        fault_plan=FAULTS,
        retry_policy=RETRY,
        fail_after_stage="quality",
        fail_after_pairs=5,
    ),
    "ServingConfig/full": SERVING,
    "CollectionResult": CollectionResult(
        selected=[SelectedPrompt(PROMPT, "coding", 0.5)],
        n_input=10,
        n_after_dedup=8,
        n_after_quality=5,
        n_final=1,
        stats={"quality_removed_uids": {4, 2, 9}, "dedup_removed_uids": {5, 1}, "kept": 1},
    ),
    "ServeResponse/untagged": ServeResponse(
        request_id=None,
        model="gpt-4-0613",
        response="",
        complement="",
        complement_cached=False,
        prompt_tokens=3,
        completion_tokens=0,
        status="failed",
        error="circuit open",
        attempts=0,
    ),
}

PINNED = {**SAMPLES, **EXTRA}


def _export(obj) -> str:
    return json.dumps(obj.as_dict())


#: sha256 of ``json.dumps(obj.as_dict())`` for every pinned object,
#: captured from the per-class hand-written methods before the field
#: codec replaced them.  ``CollectionConfig`` and ``PipelineConfig/1`` were
#: re-pinned when ``CollectionConfig.dedup_backend`` was deleted: their
#: bytes are the earlier export with that one key removed.
EXPORT_SHA256 = {
    "CollectionConfig": "6aeb723fdf3cb9123fbde7c94888b7cfd92c42ebb2a4349df8692673092ea9ea",
    "CollectionResult": "1564745c54fe9c2af64fab333a73d3dd17b014fb82bf076e0296cf73cf2038be",
    "ContextualBandit/1": "c606ca25f6f6b39bbfe527faaf1b5050c01b43554fec5678c753df3d55aad6f5",
    "EngineConfig/1": "b0f412f2e89e57c84363e2f8eaeca12aa4b1ec9e26ae3d0d450d693f79c4fd19",
    "FairnessPolicy/1": "1b1176506600ba0a5935e7fb5a0b44f85bc4d027317790fda711646ac7c47808",
    "FaultPlan": "fedbeca344035aec946c75312bd5878490b323259dd634d77dfd14a0aca75566",
    "FleetPlan/1": "54932ce47fb5e9bf0f69727bd8629d8f99c2f3dfbe96e32852a4b3a54221e16c",
    "GatewayConfig/1": "e31a184279f5c413fd0b576ff96fdced79fd06439d946e69ae068e58c702865a",
    "GenerationConfig": "d86c3f46b0b34b5bf2e86b54fd1044a5be9997b007771ffaa81662512614d89b",
    "HedgePolicy/1": "60924e8950ea1f64db95e7465aedeed442884fe182ec643f699bc4f2bf6643f5",
    "LatencyModel": "2a5815ae3d7cb33a0264d3578daa92d0b94ff56056551f9275c3f2360ba9cb9e",
    "ModelPool/1": "6fa4025007d33319d7539e097f3701ec42fd4b6ce438d31906edb93e3d4b83f2",
    "OutageWindow": "f7cf75502e89974241402d27d035597bf1fabba6df75ed4aa7e03c4b99cffa66",
    "PipelineConfig/1": "2e0e25b8b85b7c9a83a9d55dc5f69f76e03e45064d593f832591039a174af50d",
    "PolicyConfig/1": "61bbc6db59b717836932ea641c19909fa8806c2fca4c62604eed53786d81837a",
    "PromptPair": "81b644e9f20fb84b15253cee41b9aeee9deb4b471838f4cbc850f78a5b0d6e6b",
    "PromptPairDataset": "ba70519ba81734024af030f6eac19e7143d37f3a1a3eeca97970c7856210c51d",
    "RetryPolicy": "f0cc51d95d4914c8bdf958193565af6d442924c79b45363e6e40073035b6fbbe",
    "RouterConfig/1": "46b6eda06905c7eeb1f909d77bf7e2e057f88399acb68396665680f03fed8b70",
    "RunnerConfig": "6f4e6a6725fe936502599cfd8fb89bc0ccc50e8a5d6535819a3b66a0b58c3149",
    "SelectedPrompt": "3c9c426059c2e5886581a43a4a2ff8cbc1fbb5b00e01734d360799b5f3f0bbac",
    "ServeResponse/1": "3f48e2cfb125aff760b1718f7ca5a51735e0df21eb772f3bcd1ed89aabd7b612",
    "ServeResponse/untagged": "f10e7b2891169088f95b7e5bac92d27b2cbafd185e764e67318a71d3cde7697e",
    "ServingConfig/1": "97c9763da2200ab8a003af0a8f770bc5a2918c4da18f75f094ba16848747ee90",
    "ServingConfig/full": "69026325fc0cc4fda1257ad1c9a216a9efae7e4d93705168959872cb5984c6a9",
    "SyntheticPrompt": "6d103a4d9530a3d333a886b2d98fb034bda47364e74894986b6b1d010d785b7f",
    "TenantPolicy/1": "1de323f09ad34b4d632ded4807f2ae4b79cb88dfbe2f2cdd19b9bcaefb5bc589",
    "TenantProfile/1": "785a68c3fcea229579b177a01eef7a2223d76e42207026c5b0bdd50db70ab682",
    "Trace/1": "282dce4031ddcd8ab8919bee3cbc76c965951157f607e45197ad611ef3a2aeaf",
    "TrafficConfig/1": "adc521b3c8d68239bf9b32a33d7798edd7b048a2c76cad5801686d4f87f2e161",
}


class TestExportPins:
    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_export_bytes_match_pin(self, key):
        assert hashlib.sha256(_export(PINNED[key]).encode()).hexdigest() == EXPORT_SHA256[key]

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_from_dict_re_exports_the_pinned_bytes(self, key):
        text = _export(PINNED[key])
        assert _export(type(PINNED[key]).from_dict(json.loads(text))) == text


# --------------------------------------------------------------------- #
# the field codec's one decoding rule
# --------------------------------------------------------------------- #

RECORDS = sorted(key for key, obj in PINNED.items() if isinstance(obj, Record))

#: A value of the wrong type for a leaf, keyed by the leaf's current type.
#: ``None`` and plain dicts (``PolicyConfig.state``) sit in optional fields
#: whose every type rejects an array.
WRONG = {str: 1, bool: "false", int: 4.7, float: "p95", type(None): [], dict: []}


def _dotted(root: str, path: tuple) -> str:
    return root + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


def _at(payload, path: tuple):
    for key in path:
        payload = payload[key]
    return payload


def _records(obj, path: tuple = ()):
    """``(path, record)`` for ``obj`` and every record nested in it."""
    yield path, obj
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, Record):
            yield from _records(value, path + (f.name,))
        elif isinstance(value, (tuple, list)):
            for i, item in enumerate(value):
                if isinstance(item, Record):
                    yield from _records(item, path + (f.name, i))


def _leaves(obj, payload):
    """``(path, value)`` for every scalar, null or plain-dict leaf of the
    payload of ``obj`` (array items included, nested records excluded)."""

    def scalars(path, value):
        if isinstance(value, list):
            for i, item in enumerate(value):
                yield from scalars(path + (i,), item)
        else:
            yield path, value

    for path, record in _records(obj):
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            items = value if isinstance(value, (tuple, list)) else (value,)
            if items and all(isinstance(item, Record) for item in items):
                continue
            yield from scalars(path + (f.name,), _at(payload, path + (f.name,)))


def _replace_at(obj, path: tuple, **changes):
    """``obj`` with ``changes`` applied to the record at ``path``."""
    if not path:
        return dataclasses.replace(obj, **changes)
    child = getattr(obj, path[0])
    if isinstance(child, (tuple, list)):
        items = list(child)
        items[path[1]] = _replace_at(items[path[1]], path[2:], **changes)
        child = type(child)(items)
    else:
        child = _replace_at(child, path[1:], **changes)
    return dataclasses.replace(obj, **{path[0]: child})


def _default(f: dataclasses.Field):
    return f.default_factory() if f.default is dataclasses.MISSING else f.default


class TestDecoderDefects:
    """Hand-authored input the per-class decoders used to misread."""

    def test_string_false_no_longer_turns_strict_on(self):
        data = GatewayConfig().as_dict()
        data["strict"] = "false"
        with pytest.raises(ConfigError, match=r"^GatewayConfig\.strict: expected a boolean, got str"):
            GatewayConfig.from_dict(data)

    def test_fractional_cache_size_is_not_truncated(self):
        data = SAMPLES["GatewayConfig/1"].as_dict()
        data["cache_size"] = 4.7
        with pytest.raises(ConfigError, match=r"^GatewayConfig\.cache_size: expected an integer, got float"):
            GatewayConfig.from_dict(data)

    def test_misspelt_fleet_plan_key_is_rejected(self):
        plan = {SCHEMA_KEY: "FleetPlan/1", "replicas": 4, "spike_rate": 0.3, "spike_tiks": 3}
        with pytest.raises(TypeError, match=r"^FleetPlan: unknown key 'spike_tiks'"):
            deserialize(plan)

    def test_percentile_string_names_its_path(self):
        data = SERVING.as_dict()
        data["fleet"]["hedge"]["percentile"] = "p95"
        with pytest.raises(
            ConfigError,
            match=r"^ServingConfig\.fleet\.hedge\.percentile: expected a number, got str",
        ):
            ServingConfig.from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize(
        "path", [("policy",), ("fleet",), ("fleet", "fairness")], ids=".".join
    )
    def test_null_section_is_rejected(self, path):
        data = SERVING.as_dict()
        _at(data, path[:-1])[path[-1]] = None
        with pytest.raises(ConfigError, match=rf"^{_dotted('ServingConfig', path)}: expected an object, got null"):
            ServingConfig.from_dict(data)

    def test_json_int_in_a_float_field_decodes_as_float(self):
        restored = RetryPolicy.from_dict(RetryPolicy(deadline_ticks=3).as_dict())
        assert type(restored.deadline_ticks) is float
        assert _export(restored) == _export(RetryPolicy(deadline_ticks=3.0))


class TestDecodingRule:
    """One rule for every record, swept over every pinned record's payload."""

    @pytest.mark.parametrize("key", RECORDS)
    def test_wrong_type_at_any_leaf_names_its_path(self, key):
        obj = PINNED[key]
        root = type(obj).__name__
        leaves = list(_leaves(obj, obj.as_dict()))
        assert leaves
        for path, value in leaves:
            payload = obj.as_dict()
            _at(payload, path[:-1])[path[-1]] = WRONG[type(value)]
            with pytest.raises(ConfigError) as excinfo:
                type(obj).from_dict(payload)
            assert str(excinfo.value).startswith(_dotted(root, path) + ": expected "), path

    @pytest.mark.parametrize("key", RECORDS)
    def test_extra_key_in_any_nested_record_raises_type_error(self, key):
        obj = PINNED[key]
        for path, _ in _records(obj):
            payload = obj.as_dict()
            _at(payload, path)["extra_knob"] = 1
            with pytest.raises(TypeError) as excinfo:
                type(obj).from_dict(payload)
            message = str(excinfo.value)
            assert message.startswith(f"{_dotted(type(obj).__name__, path)}: unknown key 'extra_knob'")

    @pytest.mark.parametrize("key", RECORDS)
    def test_dropped_key_takes_its_default_or_names_its_path(self, key):
        obj = PINNED[key]
        for path, record in _records(obj):
            for f in dataclasses.fields(record):
                payload = obj.as_dict()
                del _at(payload, path)[f.name]
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                    where = _dotted(type(obj).__name__, path + (f.name,))
                    with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: missing required key"):
                        type(obj).from_dict(payload)
                    continue
                try:
                    expected = _replace_at(obj, path, **{f.name: _default(f)})
                except ConfigError as exc:  # the default is invalid in this record
                    with pytest.raises(ConfigError, match=re.escape(str(exc))):
                        type(obj).from_dict(payload)
                else:
                    assert type(obj).from_dict(payload) == expected, (path, f.name)

    def test_non_object_payload_names_the_class(self):
        with pytest.raises(ConfigError, match=r"^FleetPlan: expected an object, got list"):
            FleetPlan.from_dict([])
