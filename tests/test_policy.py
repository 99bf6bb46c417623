"""Unit tests for the throttling-policy subsystem (repro.policy).

The differential suite proves the default path identical to the legacy
controller; these tests pin the subsystem's edges: the params grammar,
config validation, policy behaviour at the decision level, offline
training, and the policy columns in journal records, exports, the
service store, and the CLI.
"""

import json

import pytest

from repro.core.config import SystemConfig
from repro.errors import ConfigError
from repro.experiments.engine.checkpoint import journal_record
from repro.experiments.engine.job import Job, JobFailure, JobResult
from repro.experiments.export import FIELDS, export_row
from repro.policy import (
    ACTIONS,
    FeedbackSignals,
    PolicyThrottle,
    QLearningPolicy,
    StaticLevelPolicy,
    Table3Policy,
    create_policy,
    parse_policy_params,
    train_policy,
    validate_policy,
)
from repro.policy.qlearn import (
    N_ACTIONS,
    N_STATES,
    decode_q,
    encode_q,
    zero_table,
)
from repro.policy.training import (
    train_q_table,
    transitions_from_series,
)
from repro.throttle.levels import MAX_LEVEL


def signals(owner="stream", coverage=0.0, accuracy=0.0, rival=0.0,
            level=MAX_LEVEL):
    return FeedbackSignals(
        owner=owner, coverage=coverage, accuracy=accuracy,
        rival_coverage=rival, level=level,
    )


# -- params grammar ---------------------------------------------------------

def test_parse_policy_params_roundtrip():
    assert parse_policy_params("") == {}
    assert parse_policy_params("a=1, b = x=y") == {"a": "1", "b": "x=y"}


@pytest.mark.parametrize("bad", ["noequals", "=1", "a=1,a=2"])
def test_parse_policy_params_rejects(bad):
    with pytest.raises(ValueError):
        parse_policy_params(bad)


def test_validate_policy_problems():
    assert validate_policy("table3", "") == {}
    assert "throttle_policy" in validate_policy("nope", "")
    assert "policy_params" in validate_policy("table3", "x=1")
    assert "policy_params" in validate_policy("static", "level=9")
    # qlearn replays a trained table and has no default one
    assert "policy_params" in validate_policy("qlearn", "")
    assert "policy_params" in validate_policy("qlearn", "epsilon=0.1")
    assert validate_policy("qlearn", f"q={encode_q(zero_table())}") == {}
    # a non-finite table would turn every Q value NaN
    nan_table = "|".join(["nan"] * (N_STATES * N_ACTIONS))
    assert "policy_params" in validate_policy("qlearn", f"q={nan_table}")


def test_config_validation_reports_policy_fields():
    with pytest.raises(ConfigError) as err:
        SystemConfig.scaled().with_overrides(
            throttle_policy="static", policy_params="level=99"
        ).validate()
    assert "policy_params" in str(err.value)
    # valid selections pass through with_overrides + validate untouched
    config = SystemConfig.scaled().with_overrides(
        throttle_policy="static", policy_params="level=1"
    ).validate()
    assert create_policy(config).name == "static"


# -- policy behaviour -------------------------------------------------------

def test_table3_policy_matches_decide_case_semantics():
    policy = Table3Policy()
    assert policy.decide(signals(coverage=0.9)).action == "up"
    assert policy.decide(signals(accuracy=0.1)).action == "down"
    up = policy.decide(signals(accuracy=0.8, rival=0.0))
    assert (up.case, up.action) == (3, "up")
    hold = policy.decide(signals(accuracy=0.8, rival=0.9))
    assert (hold.case, hold.action) == (5, "hold")


def test_static_policy_walks_to_target():
    policy = StaticLevelPolicy(level=1)
    assert policy.decide(signals(level=3)).action == "down"
    assert policy.decide(signals(level=0)).action == "up"
    assert policy.decide(signals(level=1)).action == "hold"
    with pytest.raises(ValueError):
        StaticLevelPolicy(level=MAX_LEVEL + 1)


def test_qlearn_trained_table_is_greedy_and_deterministic():
    table = zero_table()
    table[0][2] = 1.0  # state 0 prefers "up"
    policy = QLearningPolicy(q=encode_q(table))
    s = signals(coverage=0.0, accuracy=0.0, rival=0.0, level=0)
    assert policy.decide(s).action == "up"
    assert policy.decide(s).action == "up"


def test_qlearn_rejects_bad_hyperparameters():
    # the table is the policy's only parameter
    with pytest.raises(ValueError):
        decode_q("1|2|3")


def test_controller_enforces_min_prefetchers():
    with pytest.raises(ValueError):
        PolicyThrottle([], Table3Policy())


# -- offline training -------------------------------------------------------

def _series_rows(n=6):
    """A tiny synthetic interval series shaped like the recorder's."""
    rows = []
    for i in range(n):
        rows.append({
            "core": "core0", "interval": i + 1, "tail": False,
            "cycle": 1000 * (i + 1), "bpki": 10.0 + i,
            "demand_misses": 50, "dram_occupancy": 3, "mshr_occupancy": 2,
            "prefetchers": {
                "stream": {"accuracy": 0.8, "coverage": 0.15,
                           "level": min(MAX_LEVEL, i)},
                # down the ladder and back up: the trained table then
                # holds both moves
                "cdp": {"accuracy": 0.2, "coverage": 0.05,
                        "level": min(MAX_LEVEL, abs(MAX_LEVEL - i))},
            },
        })
    return rows


def trained_q() -> str:
    """A Q table trained on ``_series_rows()``, encoded for ``q=``."""
    return encode_q(train_q_table(transitions_from_series(_series_rows())))


def test_transitions_reconstruct_actions_from_level_deltas():
    transitions = transitions_from_series(_series_rows())
    assert transitions
    n_owner_streams = 2
    assert len(transitions) == (6 - 2) * n_owner_streams
    actions = {a for (_, a, _, _) in transitions}
    assert actions <= {0, 1, 2}
    for state, _, _, next_state in transitions:
        assert 0 <= state < N_STATES
        assert 0 <= next_state < N_STATES


def test_train_policy_payload_runs_end_to_end(tmp_path):
    series = tmp_path / "cell.series.jsonl"
    series.write_text(
        "\n".join(json.dumps(row) for row in _series_rows()) + "\n"
    )
    payload = train_policy([str(series)], epochs=2)
    assert payload["policy"] == "qlearn"
    assert payload["transitions"] > 0
    # the emitted params are the table alone, and must validate and
    # construct
    table = train_q_table(transitions_from_series(_series_rows()),
                          epochs=2)
    assert payload["policy_params"] == f"q={encode_q(table)}"
    assert validate_policy("qlearn", payload["policy_params"]) == {}
    config = SystemConfig.scaled().with_overrides(
        throttle_policy="qlearn", policy_params=payload["policy_params"]
    ).validate()
    policy = create_policy(config)
    assert isinstance(policy, QLearningPolicy)
    assert len(policy.table) == N_STATES


def test_train_policy_errors(tmp_path):
    with pytest.raises(ConfigError):
        train_policy([str(tmp_path / "missing.jsonl")])
    with pytest.raises(ConfigError):
        train_policy([])
    short = tmp_path / "short.series.jsonl"
    short.write_text(json.dumps(_series_rows(2)[0]) + "\n")
    with pytest.raises(ConfigError):
        train_policy([str(short)])


def test_train_q_table_shapes_and_epochs():
    transitions = transitions_from_series(_series_rows())
    table = train_q_table(transitions, epochs=1)
    assert len(table) == N_STATES and len(table[0]) == N_ACTIONS
    with pytest.raises(ConfigError):
        train_q_table(transitions, epochs=0)


# -- provenance columns -----------------------------------------------------

def _outcome(config, status="ok"):
    job = Job("mst", "ecdp+throttle", config, input_set="test")
    if status == "ok":
        return JobResult(job, "ok", result=None)
    return JobResult(job, "failed",
                     failure=JobFailure("Boom", "boom", transient=False))


def test_journal_record_carries_policy_columns():
    config = SystemConfig.scaled().with_overrides(
        throttle_policy="static", policy_params="level=2"
    )
    record = journal_record(_outcome(config))
    assert record["policy"] == "static"
    assert record["policy_params"] == "level=2"
    # failed rows keep the policy: it was part of what was asked for
    failed = journal_record(_outcome(config, status="failed"))
    assert failed["policy"] == "static"
    # dict-shaped configs (pre-policy journals) carry no columns
    legacy = journal_record(
        JobResult(Job("mst", "cdp", {"engine": "fast"}), "ok")
    )
    assert "policy" not in legacy


def test_export_fields_include_policy_columns():
    assert "policy" in FIELDS and "policy_params" in FIELDS
    config = SystemConfig.scaled().with_overrides(
        throttle_policy="static", policy_params="level=1"
    )
    record = export_row(journal_record(_outcome(config, status="failed")))
    assert record["policy"] == "static"
    assert record["policy_params"] == "level=1"
    # a journal written before policies existed has no policy columns
    null_row = export_row(journal_record(_outcome({}, status="failed")))
    assert null_row["policy"] is None


def test_store_policy_counts(tmp_path):
    from repro.experiments.engine.checkpoint import CheckpointJournal
    from repro.service.store import ResultStore

    journal = CheckpointJournal(tmp_path / "svc.jsonl")
    store = ResultStore(journal)
    config = SystemConfig.scaled()
    static_config = config.with_overrides(throttle_policy="static")
    records = {
        "a": journal_record(_outcome(config)),
        "b": journal_record(_outcome(static_config)),
        "c": journal_record(_outcome(static_config)),
    }
    legacy = dict(records["a"])
    del legacy["policy"], legacy["policy_params"]
    records["d"] = legacy
    store._records.update(records)
    assert store.policy_counts() == {"table3": 1, "static": 2, "null": 1}


# -- CLI --------------------------------------------------------------------

def test_cli_train_policy_writes_payload(tmp_path, capsys):
    from repro.cli import main

    series = tmp_path / "cell.series.jsonl"
    series.write_text(
        "\n".join(json.dumps(row) for row in _series_rows()) + "\n"
    )
    out = tmp_path / "policy.json"
    assert main([
        "train-policy", str(series), "--epochs", "2", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["policy"] == "qlearn"
    assert validate_policy("qlearn", payload["policy_params"]) == {}


def test_cli_policy_flags_reach_the_config(tmp_path):
    from repro.cli import _config

    class Args:
        paper = False
        engine = None
        policy = "static"
        policy_params = "level=1"
        policy_file = None

    config = _config(Args())
    assert config.throttle_policy == "static"
    assert config.policy_params == "level=1"

    payload_path = tmp_path / "p.json"
    payload_path.write_text(json.dumps(
        {"policy": "static", "policy_params": "level=2"}
    ))

    class FileArgs:
        paper = False
        engine = None
        policy = None
        policy_params = None
        policy_file = str(payload_path)

    config = _config(FileArgs())
    assert config.throttle_policy == "static"
    assert config.policy_params == "level=2"


def test_cli_run_accepts_policy(capsys):
    from repro.cli import main

    assert main([
        "run", "mst", "ecdp+throttle", "--input-set", "test",
        "--policy", "static", "--policy-params", "level=1",
    ]) == 0
