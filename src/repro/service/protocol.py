"""Submission protocol: wire payloads ⇄ content-hashed Jobs.

A submission is a small JSON object::

    {"benchmark": "mst", "mechanism": "ecdp+throttle",
     "preset": "scaled", "config": {"l2_size": 131072},
     "input_set": "ref", "profile_input": "train"}

Normalization is what makes the service's result cache *content
addressed* rather than request addressed: the payload is reduced to a
:class:`~repro.experiments.engine.job.Job`, whose key is a content hash
over exactly :data:`~repro.experiments.engine.job.IDENTITY_FIELDS`.  So
two submissions that differ only in JSON key order, in spelling out
config fields that equal the preset's defaults, or in where telemetry
goes, dedupe onto one cached result — while any change to a field that
affects the simulation produces a distinct key.  The hypothesis suite in
``tests/test_job_identity.py`` holds this property down.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.core.config import SystemConfig
from repro.errors import ConfigError, UsageError
from repro.experiments.engine.job import Job

#: top-level fields a submission may carry; anything else is a 400
SUBMISSION_FIELDS = frozenset(
    {"benchmark", "mechanism", "preset", "config", "input_set",
     "profile_input"}
)

#: named base configurations overrides are applied on top of
PRESETS = {"scaled": SystemConfig.scaled, "paper": SystemConfig.paper}

#: the status of a job a draining server left unrun: it has no
#: record, never will on that server, and must be resubmitted
ABANDONED = "abandoned"

#: valid SystemConfig override names (computed once)
_CONFIG_FIELDS = frozenset(
    field.name for field in dataclasses.fields(SystemConfig)
)


def _required_name(payload: Dict[str, Any], field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str) or not value:
        raise UsageError(
            f"submission field {field!r} must be a non-empty string "
            f"(got {value!r})"
        )
    return value


def job_from_submission(
    payload: Any,
    telemetry_dir: Optional[str] = None,
    artifact_dir: Optional[str] = None,
    record_trace: bool = False,
) -> Job:
    """Normalize one wire submission to a content-hashed :class:`Job`.

    Raises :class:`~repro.errors.UsageError` (HTTP 400 on the server) for
    anything malformed: unknown fields, unknown preset, config overrides
    that are not SystemConfig knobs, or overrides that fail
    ``SystemConfig.validate()``.  *telemetry_dir*, *artifact_dir* and
    *record_trace* are the server's (or dispatcher's) choice, not the
    submitter's — all are non-identity fields, so they never affect the
    job key.
    """
    if not isinstance(payload, dict):
        raise UsageError(
            f"submission must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = set(payload) - SUBMISSION_FIELDS
    if unknown:
        raise UsageError(
            f"unknown submission field(s): {', '.join(sorted(unknown))}; "
            f"valid fields: {', '.join(sorted(SUBMISSION_FIELDS))}"
        )
    benchmark = _required_name(payload, "benchmark")
    mechanism = _required_name(payload, "mechanism")
    preset = payload.get("preset", "scaled")
    if preset not in PRESETS:
        raise UsageError(
            f"unknown preset {preset!r}; valid presets: "
            f"{', '.join(sorted(PRESETS))}"
        )
    overrides = payload.get("config") or {}
    if not isinstance(overrides, dict):
        raise UsageError(
            f'submission field "config" must be an object of '
            f"SystemConfig overrides (got {overrides!r})"
        )
    bad = set(overrides) - _CONFIG_FIELDS
    if bad:
        raise UsageError(
            f"unknown config field(s): {', '.join(sorted(bad))}"
        )
    try:
        config = PRESETS[preset]().with_overrides(**overrides).validate()
    except ConfigError:
        raise  # already a UsageError with field-level detail
    input_set = payload.get("input_set", "ref")
    profile_input = payload.get("profile_input", "train")
    for name, value in (("input_set", input_set),
                        ("profile_input", profile_input)):
        if not isinstance(value, str) or not value:
            raise UsageError(
                f"submission field {name!r} must be a non-empty string "
                f"(got {value!r})"
            )
    return Job(
        benchmark,
        mechanism,
        config,
        input_set=input_set,
        profile_input=profile_input,
        telemetry_dir=telemetry_dir,
        artifact_dir=artifact_dir,
        record_trace=record_trace,
    )


def submission_from_job(job: Job) -> Dict[str, Any]:
    """The wire payload that normalizes back to exactly *job*.

    Spells out the full config as overrides on the scaled preset, so the
    server reconstructs a field-identical SystemConfig — and therefore
    the identical job key — whatever preset the config started from.
    """
    if dataclasses.is_dataclass(job.config) and not isinstance(
        job.config, type
    ):
        config = dataclasses.asdict(job.config)
    elif isinstance(job.config, dict):
        config = dict(job.config)
    else:
        raise UsageError(
            f"cannot serialize config of type "
            f"{type(job.config).__name__} for submission"
        )
    return {
        "benchmark": job.benchmark,
        "mechanism": job.mechanism,
        "preset": "scaled",
        "config": config,
        "input_set": job.input_set,
        "profile_input": job.profile_input,
    }
