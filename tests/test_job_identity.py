"""Job identity: the contract under the content-addressed result cache.

A job's key is a content hash over exactly
:data:`~repro.experiments.engine.IDENTITY_FIELDS`; everything else on
the dataclass is declared in :data:`NON_IDENTITY_FIELDS` and must never
reach the hash.  The regression tests pin that partition — adding a
field to ``Job`` without classifying it fails here, *before* it can
silently split or merge cache entries.

The hypothesis suite drives the same property through the service's
submission protocol: any two spellings of the same simulation (JSON key
order, defaults spelled out vs omitted, preset + overrides vs full
explicit config, different telemetry destinations) must hash to the
same key, and any submission that changes an identity field must not.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.errors import UsageError
from repro.experiments.engine import (
    IDENTITY_FIELDS,
    NON_IDENTITY_FIELDS,
    Job,
    identity_payload,
)
from repro.service import job_from_submission, submission_from_job


def base_job(**overrides) -> Job:
    settings = dict(
        benchmark="mst",
        mechanism="ecdp+throttle",
        config=SystemConfig.scaled(),
        input_set="ref",
        profile_input="train",
        telemetry_dir=None,
        artifact_dir=None,
        record_trace=False,
    )
    settings.update(overrides)
    return Job(**settings)


class TestFieldPartition:
    """Every Job field is identity or non-identity — never unclassified."""

    def test_every_field_is_classified_exactly_once(self):
        declared = set(IDENTITY_FIELDS) | set(NON_IDENTITY_FIELDS)
        actual = {field.name for field in dataclasses.fields(Job)}
        assert declared == actual, (
            "Job fields and the IDENTITY_FIELDS/NON_IDENTITY_FIELDS "
            "partition disagree — classify the new field explicitly"
        )
        assert not set(IDENTITY_FIELDS) & set(NON_IDENTITY_FIELDS)

    def test_excluded_fields_are_exactly_the_volatile_ones(self):
        # the full enumeration, so a reviewer sees the policy at a glance:
        # where telemetry lands, and whether the trace is replayed from
        # (or recorded into) the artifact store, do not change what was
        # simulated
        assert NON_IDENTITY_FIELDS == (
            "telemetry_dir", "artifact_dir", "record_trace"
        )

    def test_non_identity_fields_are_not_submission_fields(self):
        # where a run's outputs go and whether it records its trace are
        # the dispatcher's choice: a submission naming one is refused
        for name in NON_IDENTITY_FIELDS:
            with pytest.raises(UsageError):
                job_from_submission(
                    {"benchmark": "mst", "mechanism": "cdp", name: "/x"}
                )

    def test_identity_payload_covers_exactly_the_identity_fields(self):
        payload = identity_payload(base_job())
        assert set(payload) == set(IDENTITY_FIELDS)

    def test_non_identity_fields_never_reach_the_key(self):
        keys = {
            base_job(**{field: where}).key()
            for field in NON_IDENTITY_FIELDS
            for where in (None, "/tmp/a", "/tmp/b", "relative/dir")
        }
        assert keys == {base_job().key()}

    @pytest.mark.parametrize(
        "change",
        [
            {"benchmark": "health"},
            {"mechanism": "cdp"},
            {"input_set": "test"},
            {"profile_input": "ref"},
            {"config": SystemConfig.scaled().with_overrides(stream_count=8)},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_every_identity_field_reaches_the_key(self, change):
        assert base_job(**change).key() != base_job().key()


# only fields whose sole constraint is "positive int": hypothesis must
# explore values, not fight SystemConfig.validate()
OVERRIDE_MENU = {
    "stream_count": st.integers(min_value=1, max_value=64),
    "prefetch_queue_size": st.integers(min_value=1, max_value=256),
    "rob_size": st.integers(min_value=16, max_value=512),
    "dram_banks": st.integers(min_value=1, max_value=16),
}

overrides_strategy = st.fixed_dictionaries(
    {}, optional=OVERRIDE_MENU
)

submission_shape = st.fixed_dictionaries(
    {
        "benchmark": st.sampled_from(["mst", "health", "bisort"]),
        "mechanism": st.sampled_from(["baseline", "cdp", "ecdp+throttle"]),
    },
    optional={
        "input_set": st.sampled_from(["ref", "train", "test"]),
        "profile_input": st.sampled_from(["train", "ref"]),
        "config": overrides_strategy,
    },
)


class TestNormalizationProperties:
    @settings(max_examples=60, deadline=None)
    @given(submission=submission_shape, data=st.data())
    def test_spelling_never_changes_the_key(self, submission, data):
        """Omitted defaults, key order, telemetry: all hash-invariant."""
        job = job_from_submission(submission)

        # spell every default out explicitly
        explicit = dict(submission)
        explicit.setdefault("preset", "scaled")
        explicit.setdefault("input_set", "ref")
        explicit.setdefault("profile_input", "train")
        explicit.setdefault("config", {})
        assert job_from_submission(explicit).key() == job.key()

        # shuffle top-level JSON key order
        order = data.draw(st.permutations(list(explicit)))
        shuffled = {name: explicit[name] for name in order}
        assert job_from_submission(shuffled).key() == job.key()

        # telemetry and artifact destinations, and the recording
        # decision, are server-side details
        routed = job_from_submission(
            submission, telemetry_dir="/tmp/t", artifact_dir="/tmp/a",
            record_trace=True,
        )
        assert routed.key() == job.key()

        # the wire round-trip (full explicit config, scaled preset)
        # reconstructs the identical key — client/server agreement
        assert job_from_submission(submission_from_job(job)).key() == (
            job.key()
        )

    @settings(max_examples=60, deadline=None)
    @given(first=overrides_strategy, second=overrides_strategy)
    def test_distinct_configs_never_collide(self, first, second):
        base = {"benchmark": "mst", "mechanism": "cdp"}
        job_a = job_from_submission({**base, "config": first})
        job_b = job_from_submission({**base, "config": second})
        if job_a.config == job_b.config:
            assert job_a.key() == job_b.key()
        else:
            assert job_a.key() != job_b.key()

    @settings(max_examples=30, deadline=None)
    @given(overrides=overrides_strategy)
    def test_explicit_defaults_equal_omitted_defaults(self, overrides):
        """Overriding a knob to its default value is a no-op for the key."""
        defaults = SystemConfig.scaled()
        redundant = {
            name: getattr(defaults, name)
            for name in OVERRIDE_MENU
            if name not in overrides
        }
        base = {"benchmark": "health", "mechanism": "baseline"}
        sparse = job_from_submission({**base, "config": overrides})
        padded = job_from_submission(
            {**base, "config": {**overrides, **redundant}}
        )
        assert sparse.key() == padded.key()
