"""Campaign CLI contract tests: exit codes and report files."""

import json

import pytest

from repro.core.cli import main as cli_main


class TestCampaignCli:
    def test_smoke_campaign_writes_reports(self, tmp_path, capsys):
        json_out = tmp_path / "t3.json"
        md_out = tmp_path / "t3.md"
        rc = cli_main(["campaign", "--cases", "A2", "--workers", "2",
                       "--json", str(json_out),
                       "--markdown", str(md_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "100% liveness/safety properties proof" in out
        data = json.loads(json_out.read_text())
        assert data["totals"]["ok"] == 1
        assert "| A2." in md_out.read_text()

    def test_obs_flags_write_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        record = tmp_path / "record.json"
        rc = cli_main(["campaign", "--cases", "A2", "--workers", "2",
                       "--group-size", "1",
                       "--trace", str(trace),
                       "--trace-jsonl", str(jsonl),
                       "--metrics",
                       "--execution-record", str(record)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Phases: frontend" in out
        assert "Metrics:" in out
        assert "task.executed" in out
        doc = json.loads(trace.read_text())
        assert {e["ph"] for e in doc["traceEvents"]} >= {"M", "X"}
        assert jsonl.read_text().count("\n") > 0
        from repro.obs.record import validate_record
        data = json.loads(record.read_text())
        validate_record(data)
        assert data["config"]["group_size"] == 1
        assert data["span_count"] > 0
        # Tracing is per-run: a later untraced campaign stays clean.
        from repro.obs import TRACER
        assert not TRACER.enabled

    def test_default_record_names_each_jobs_worker(self, tmp_path, capsys):
        # Whole-design groups run each job as one task on one worker (a
        # single worker never steals, so no job is split).
        record = tmp_path / "record.json"
        rc = cli_main(["campaign", "--cases", "A2", "--workers", "1",
                       "--execution-record", str(record)])
        assert rc == 0
        capsys.readouterr()
        tasks = json.loads(record.read_text())["tasks"]
        assert tasks and all(":" in task["worker"] for task in tasks)

    def test_report_json_carries_phases(self, tmp_path, capsys):
        json_out = tmp_path / "report.json"
        rc = cli_main(["campaign", "--cases", "A2", "--workers", "1",
                       "--group-size", "1",
                       "--json", str(json_out)])
        assert rc == 0
        capsys.readouterr()
        data = json.loads(json_out.read_text())
        phases = data["phases"]
        assert set(phases) == {"frontend_s", "solve_s", "engine_other_s",
                               "overhead_s", "wall_s"}
        assert phases["solve_s"] > 0
        # 1-worker runs are additive: phases account for the wall time.
        total = (phases["frontend_s"] + phases["solve_s"]
                 + phases["engine_other_s"] + phases["overhead_s"])
        assert total == pytest.approx(phases["wall_s"], abs=0.05)

    def test_usage_errors_exit_1(self, capsys):
        # Both semantic and argparse-level usage errors keep the
        # documented contract: 1 = bad usage, 2 = failed jobs.
        assert cli_main(["campaign", "--cases", "ZZ"]) == 1
        assert cli_main(["campaign", "--workers", "0"]) == 1
        assert cli_main(["campaign", "--workers", "abc"]) == 1
        assert cli_main(["campaign", "--timeout", "-5"]) == 1
        assert cli_main(["campaign", "--listen", "nocolon",
                         "--transport", "tcp"]) == 1
        assert cli_main(["campaign", "--spawn-workers", "-1"]) == 1
        assert cli_main(["campaign", "--min-workers", "0"]) == 1
        # Every campaign runs property tasks, sized by --group-size;
        # there is no unit switch.
        assert cli_main(["campaign", "--granularity", "design"]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert cli_main(["campaign", "--help"]) == 0
        assert "--cache-dir" in capsys.readouterr().out

    def test_failed_job_exits_2(self, capsys):
        rc = cli_main(["campaign", "--cases", "A2", "--variants", "fixed",
                       "--timeout", "0.01"])
        assert rc == 2
        assert "timeout" in capsys.readouterr().out


class TestWorkersAuto:
    """``--workers auto`` (and worker ``--slots auto``) = CPU count."""

    def test_auto_resolves_to_cpu_count(self, monkeypatch):
        import os

        from repro.campaign import resolve_worker_count

        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_worker_count("auto") == 6
        assert resolve_worker_count("AUTO") == 6
        assert resolve_worker_count("3") == 3
        assert resolve_worker_count(4) == 4

    def test_invalid_values_rejected(self):
        import pytest

        from repro.campaign import resolve_worker_count

        for bad in ("0", "-2", "many", 0, None, 1.5):
            with pytest.raises(ValueError):
                resolve_worker_count(bad)

    def test_single_core_warns_exactly_once(self, monkeypatch, capsys):
        import os

        from repro.campaign import resolve_worker_count
        from repro.campaign import scheduler as scheduler_mod

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(scheduler_mod, "_WARNED_SINGLE_CORE", False)
        assert resolve_worker_count("auto") == 1
        first = capsys.readouterr().err
        assert "single CPU core" in first
        assert resolve_worker_count("auto") == 1
        assert capsys.readouterr().err == ""   # warn-once

    def test_cpu_count_unknown_falls_back_to_1(self, monkeypatch):
        import os

        from repro.campaign import resolve_worker_count
        from repro.campaign import scheduler as scheduler_mod

        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.setattr(scheduler_mod, "_WARNED_SINGLE_CORE", True)
        assert resolve_worker_count("auto") == 1

    def test_campaign_default_is_auto(self, monkeypatch, capsys):
        """The CLI default is 'auto', resolved through the same helper —
        the hardcoded 1-worker default is gone."""
        from repro.core.cli import build_campaign_parser

        args = build_campaign_parser().parse_args([])
        assert args.workers == "auto"

    def test_worker_cli_slots_auto(self, monkeypatch):
        import os

        from repro.dist.worker import build_worker_parser

        args = build_worker_parser().parse_args(
            ["--connect", "127.0.0.1:1", "--slots", "auto"])
        assert args.slots == "auto"
