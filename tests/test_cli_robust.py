"""CLI robustness: sweep flags, exit codes, one-line errors, resume."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


SWEEP_ARGS = [
    "sweep", "--benchmarks", "mst", "--mechanisms", "cdp",
    "--input-set", "test",
]


class TestParser:
    def test_new_sweep_flags_parse(self):
        args = build_parser().parse_args(
            SWEEP_ARGS
            + ["--jobs", "4", "--timeout", "30", "--retries", "1", "--resume"]
        )
        assert args.jobs == 4
        assert args.timeout == 30.0
        assert args.retries == 1
        assert args.resume

    def test_smoke_flag_parses(self):
        assert build_parser().parse_args(["sweep", "--smoke"]).smoke


class TestExitCodes:
    def test_successful_sweep_exits_zero(self, workdir, capsys):
        assert main(SWEEP_ARGS) == 0
        assert "gmean" in capsys.readouterr().out

    def test_partial_failure_exits_one_and_reports_reasons(
        self, workdir, capsys
    ):
        # an unmeetable per-job timeout makes every job fail (recorded,
        # not raised) — the sweep still completes and renders the table.
        # Cold caches matter: forked workers inherit the parent's memoized
        # results, which would let a warm job finish before the deadline.
        from repro.experiments.runner import clear_caches

        clear_caches()
        code = main(SWEEP_ARGS + ["--timeout", "0.001", "--retries", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.out  # table cells degrade
        assert "JobTimeoutError" in captured.err  # reasons on stderr
        assert "Traceback" not in captured.err

    def test_unknown_benchmark_exits_two_without_traceback(
        self, workdir, capsys
    ):
        assert main(["sweep", "--benchmarks", "nope"]) == 2
        captured = capsys.readouterr()
        assert "error: unknown workload 'nope'" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--jobs", "0"),
            ("--retries", "-1"),
            ("--timeout", "-5"),
            ("--timeout", "nan"),
        ],
    )
    def test_invalid_sweep_options_exit_two(self, workdir, capsys, flag, value):
        assert main(SWEEP_ARGS + [flag, value]) == 2
        captured = capsys.readouterr()
        assert "invalid sweep options" in captured.err
        assert flag in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_mechanism_exits_two(self, workdir, capsys):
        assert main(SWEEP_ARGS[:1] + ["--mechanisms", "warp-drive"]) == 2
        assert "warp-drive" in capsys.readouterr().err

    def test_debug_flag_raises_instead_of_swallowing(self, workdir):
        with pytest.raises(KeyError):
            main(["run", "nope", "baseline", "--debug"])


class TestCheckpointResume:
    def test_journal_written_and_resume_skips_completed(
        self, workdir, capsys
    ):
        assert main(SWEEP_ARGS) == 0
        journals = list((workdir / ".repro-checkpoints").glob("*.jsonl"))
        assert len(journals) == 1
        capsys.readouterr()

        assert main(SWEEP_ARGS + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "2 resumed" in captured.out

    def test_fresh_run_clears_stale_journal(self, workdir, capsys):
        assert main(SWEEP_ARGS) == 0
        capsys.readouterr()
        # without --resume the journal restarts: nothing is resumed
        assert main(SWEEP_ARGS) == 0
        assert "0 resumed" in capsys.readouterr().out

    def test_custom_sweep_name_and_dir(self, workdir, capsys):
        assert (
            main(
                SWEEP_ARGS
                + ["--sweep-name", "mysweep", "--checkpoint-dir", "cp"]
            )
            == 0
        )
        assert (workdir / "cp" / "mysweep.jsonl").exists()


class TestChaosFlags:
    def test_inject_faults_abort_exits_130_and_resume_finishes(
        self, workdir, capsys
    ):
        import json

        plan = workdir / "plan.json"
        plan.write_text(json.dumps({
            "faults": [
                {"kind": "crash", "job": "mst/cdp"},
                {"kind": "abort", "job": "mst/baseline"},
            ]
        }))
        assert main(SWEEP_ARGS + ["--inject-faults", str(plan)]) == 130
        captured = capsys.readouterr()
        assert "chaos: injecting 2 fault(s)" in captured.err
        assert "--resume" in captured.err
        assert main(SWEEP_ARGS + ["--resume"]) == 0
        assert "gmean" in capsys.readouterr().out

    def test_bad_fault_plan_exits_two(self, workdir, capsys):
        plan = workdir / "plan.json"
        plan.write_text('{"faults": [{"kind": "tsunami"}]}')
        assert main(SWEEP_ARGS + ["--inject-faults", str(plan)]) == 2
        captured = capsys.readouterr()
        assert "tsunami" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--no-progress-timeout", "0"),
            ("--no-progress-timeout", "nan"),
            ("--max-crashes", "-1"),
        ],
    )
    def test_invalid_supervision_options_exit_two(
        self, workdir, capsys, flag, value
    ):
        assert main(SWEEP_ARGS + [flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_watchdog_and_quarantine_flags_accepted(self, workdir, capsys):
        assert main(SWEEP_ARGS + [
            "--no-progress-timeout", "30", "--max-crashes", "2",
            "--retry-poisoned",
        ]) == 0
        assert "gmean" in capsys.readouterr().out


class TestServeCommand:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--jobs", "0"),
            ("--timeout", "0"),
            ("--timeout", "nan"),
            ("--timeout", "inf"),
            ("--no-progress-timeout", "nan"),
            ("--retries", "-1"),
            ("--max-crashes", "-1"),
            ("--max-queue", "0"),
            ("--max-client-pending", "0"),
            ("--port", "70000"),
            ("--port", "-1"),
        ],
    )
    def test_invalid_serve_options_exit_two(
        self, workdir, capsys, flag, value
    ):
        assert main(["serve", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid serve options")
        assert flag in err
        assert len(err.splitlines()) == 1

    def test_port_in_use_fails_in_one_line(self, workdir, capsys):
        import socket

        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}")
        assert len(err.splitlines()) == 1


class TestTraceCommand:
    @pytest.mark.parametrize("flag", ["--out", "--series"])
    def test_missing_output_directory_exits_two_before_simulating(
        self, workdir, capsys, flag
    ):
        args = [
            "trace", "mst", "baseline", "--input-set", "test",
            "--out", "x.trace.json", "--series", "x.series.jsonl",
        ]
        args[args.index(flag) + 1] = "nodir/x.json"
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err and "nodir" in err
        assert "Traceback" not in err
        assert list(workdir.iterdir()) == []  # nothing written first


class TestJournalCommands:
    def run_sweep(self, workdir):
        assert main(SWEEP_ARGS + ["--sweep-name", "j"]) == 0
        return workdir / ".repro-checkpoints" / "j.jsonl"

    def test_verify_clean_journal_exits_zero(self, workdir, capsys):
        path = self.run_sweep(workdir)
        capsys.readouterr()
        assert main(["journal", "verify", str(path)]) == 0
        assert "2 record(s)" in capsys.readouterr().out

    def test_verify_damaged_journal_exits_one_then_compact_heals(
        self, workdir, capsys
    ):
        path = self.run_sweep(workdir)
        with open(path, "a") as stream:
            stream.write("definitely not a record\n")
        capsys.readouterr()
        assert main(["journal", "verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert "corrupt" in captured.out
        assert "compact" in captured.err
        assert main(["journal", "compact", str(path)]) == 0
        assert "dropped 1" in capsys.readouterr().out
        assert main(["journal", "verify", str(path)]) == 0

    def test_verify_missing_journal_exits_two(self, workdir, capsys):
        assert main(["journal", "verify", "nope.jsonl"]) == 2
        assert "no checkpoint journal" in capsys.readouterr().err


class TestParallelSweep:
    def test_parallel_jobs_produce_same_table(self, workdir, capsys):
        assert main(SWEEP_ARGS) == 0
        serial = capsys.readouterr().out
        assert main(SWEEP_ARGS + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        # determinism survives process isolation (same table modulo the
        # checkpoint-path line)
        strip = lambda text: [
            line for line in text.splitlines() if "sweep:" not in line
        ]
        assert strip(serial) == strip(parallel)
