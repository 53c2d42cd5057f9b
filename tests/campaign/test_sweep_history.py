"""Sweep-axis CLI/report tests and campaign-history regression tests."""

import json

import pytest

from repro.campaign import (CampaignHistory, CampaignJob, CampaignReport,
                            JobResult, default_engine_config, expand_jobs)
from repro.core.cli import _expand_sweep, main as cli_main
from repro.core.language import AutoSVAError
from repro.formal import EngineConfig


class TestSweepParsing:
    def test_single_axis(self):
        configs = _expand_sweep(["max_bound=4,8"], EngineConfig())
        assert [c.max_bound for c in configs] == [4, 8]

    def test_engine_axis(self):
        configs = _expand_sweep(["proof_engine=pdr,kind"], EngineConfig())
        assert [c.proof_engine for c in configs] == ["pdr", "kind"]

    def test_cartesian_product(self):
        configs = _expand_sweep(["max_bound=4,8", "proof_engine=pdr,kind"],
                                EngineConfig())
        assert len(configs) == 4
        assert {(c.max_bound, c.proof_engine) for c in configs} == \
            {(4, "pdr"), (4, "kind"), (8, "pdr"), (8, "kind")}

    def test_bad_specs_rejected(self):
        with pytest.raises(AutoSVAError):
            _expand_sweep(["max_bound"], EngineConfig())
        with pytest.raises(AutoSVAError):
            _expand_sweep(["no_such_field=1,2"], EngineConfig())
        with pytest.raises(AutoSVAError):
            _expand_sweep(["max_bound=four"], EngineConfig())
        with pytest.raises(AutoSVAError):
            _expand_sweep(["kliveness_rounds=1,2"], EngineConfig())
        # Engine names are validated eagerly, inside the sweep expansion.
        with pytest.raises(AutoSVAError):
            _expand_sweep(["proof_engine=pdr,jasper"], EngineConfig())
        # A field given twice must error, not silently keep the last one.
        with pytest.raises(AutoSVAError, match="twice"):
            _expand_sweep(["max_bound=4", "max_bound=8"], EngineConfig())

    def test_sweep_jobs_carry_config_index(self):
        configs = _expand_sweep(["max_bound=4,8"], EngineConfig())
        jobs = expand_jobs(case_ids=["A2"], variants=("fixed",),
                           configs=configs)
        assert [j.config_index for j in jobs] == [0, 1]
        single = expand_jobs(case_ids=["A2"], variants=("fixed",))
        assert [j.config_index for j in single] == [None]

    def test_cli_bad_sweep_exits_1(self, capsys):
        assert cli_main(["campaign", "--cases", "A2",
                         "--sweep", "bogus=1"]) == 1
        capsys.readouterr()


def _job(job_id, case_id="A9", variant="fixed", config_index=None, **kw):
    return CampaignJob(
        job_id=job_id, case_id=case_id, case_name="Synthetic",
        dut_module="m", variant=variant, dut_file="x.sv", extra_files=(),
        engine_config=default_engine_config(), config_index=config_index,
        **kw)


def _payload(proof_rate, cex=(), props=3):
    return {
        "design": "m", "proof_rate": proof_rate, "num_properties": props,
        "num_proven": props - len(cex), "num_cex": len(cex),
        "cex": [{"name": f"u_m_sva.as__{n}", "depth": d} for n, d in cex],
        "properties": [], "annotation_loc": 2, "property_count": props,
        "engine_time_s": 0.5,
    }


def _sweep_report():
    jobs = [_job("A9.fixed.cfg0", config_index=0),
            _job("A9.fixed.cfg1", config_index=1),
            _job("A9.buggy.cfg0", variant="buggy", config_index=0),
            _job("A9.buggy.cfg1", variant="buggy", config_index=1)]
    results = [
        JobResult("A9.fixed.cfg0", "ok", _payload(1.0)),
        JobResult("A9.fixed.cfg1", "ok", _payload(0.5)),
        JobResult("A9.buggy.cfg0", "ok",
                  _payload(0.5, cex=[("t_eventual_response", 4)])),
        JobResult("A9.buggy.cfg1", "ok", _payload(1.0)),
    ]
    return CampaignReport(jobs, results, workers=1)


class TestConfigComparison:
    def test_per_config_aggregates(self):
        comparison = _sweep_report().config_comparison()
        assert [entry["config"] for entry in comparison] == [0, 1]
        assert comparison[0]["fixed_proof_rate"] == 1.0
        assert comparison[0]["buggy_cex_found"] == 1
        assert comparison[1]["fixed_proof_rate"] == 0.5
        assert comparison[1]["buggy_cex_found"] == 0

    def test_comparison_in_exports(self):
        report = _sweep_report()
        assert "Config sweep comparison:" in report.summary()
        assert "### Config sweep" in report.to_markdown()
        data = json.loads(report.to_json())
        assert len(data["config_comparison"]) == 2

    def test_no_section_outside_sweeps(self):
        jobs = [_job("A9.fixed")]
        results = [JobResult("A9.fixed", "ok", _payload(1.0))]
        report = CampaignReport(jobs, results)
        assert report.config_comparison() == []
        assert "Config sweep" not in report.summary()
        assert "Config sweep" not in report.to_markdown()


def _simple_report(fixed_rate=1.0, cex=(("t_eventual_response", 4),),
                   errors=False):
    jobs = [_job("A9.fixed"), _job("A9.buggy", variant="buggy")]
    buggy = (JobResult("A9.buggy", "error", error="boom") if errors
             else JobResult("A9.buggy", "ok", _payload(0.5, cex=list(cex))))
    results = [JobResult("A9.fixed", "ok", _payload(fixed_rate)), buggy]
    return CampaignReport(jobs, results)


class TestCampaignHistory:
    def test_append_and_read_back(self, tmp_path):
        history = CampaignHistory(tmp_path / "runs.jsonl")
        assert history.last() is None
        record = history.append(_simple_report(), label="first")
        assert history.last()["label"] == "first"
        assert record["designs"]["A9"]["fixed_proof_rate"] == 1.0
        history.append(_simple_report())
        assert len(history.entries()) == 2

    def test_no_baseline_means_no_regressions(self, tmp_path):
        history = CampaignHistory(tmp_path / "runs.jsonl")
        assert history.regressions(_simple_report()) == []

    def test_proof_rate_regression_detected(self, tmp_path):
        history = CampaignHistory(tmp_path / "runs.jsonl")
        history.append(_simple_report(fixed_rate=1.0))
        findings = history.regressions(_simple_report(fixed_rate=0.5))
        assert any("proof rate regressed 100% -> 50%" in f
                   for f in findings)

    def test_lost_and_drifted_cex_detected(self, tmp_path):
        history = CampaignHistory(tmp_path / "runs.jsonl")
        history.append(_simple_report())
        lost = history.regressions(_simple_report(cex=()))
        assert any("no longer found" in f for f in lost)
        drifted = history.regressions(
            _simple_report(cex=(("t_eventual_response", 7),)))
        assert any("drifted 4 -> 7" in f for f in drifted)

    def test_new_errors_detected(self, tmp_path):
        history = CampaignHistory(tmp_path / "runs.jsonl")
        history.append(_simple_report())
        findings = history.regressions(_simple_report(errors=True))
        assert any("now failing" in f for f in findings)

    def test_improvements_not_flagged(self, tmp_path):
        history = CampaignHistory(tmp_path / "runs.jsonl")
        history.append(_simple_report(fixed_rate=0.5))
        assert history.regressions(_simple_report(fixed_rate=1.0)) == []

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        history = CampaignHistory(path)
        history.append(_simple_report())
        with path.open("a") as handle:
            handle.write("{torn json...\n")
        assert len(history.entries()) == 1
        assert history.last() is not None

    def test_cli_history_roundtrip(self, tmp_path, capsys):
        hist = tmp_path / "runs.jsonl"
        argv = ["campaign", "--cases", "A2", "--variants", "fixed",
                "--history", str(hist)]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "No regressions vs previous run." in out
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "No regressions vs previous run." in out
        assert len(hist.read_text().splitlines()) == 2


class TestTimingWorkerIdentity:
    """Timing records carry where each task ran (host:pid), so
    calibration over heterogeneous fleets can filter per host."""

    def _history_with(self, tmp_path, samples):
        history = CampaignHistory(tmp_path / "runs.jsonl")
        history.append_timings(samples)
        return history

    def test_samples_round_trip_with_worker_field(self, tmp_path):
        history = self._history_with(tmp_path, [
            {"kinds": {"assert": 1}, "wall_time_s": 2.0,
             "worker": "bench1:4242"},
        ])
        samples = history.timing_samples()
        assert samples == [{"kinds": {"assert": 1}, "wall_time_s": 2.0,
                            "worker": "bench1:4242"}]

    def test_host_filter(self, tmp_path):
        history = self._history_with(tmp_path, [
            {"kinds": {"assert": 1}, "wall_time_s": 2.0,
             "worker": "bench1:1"},
            {"kinds": {"assert": 1}, "wall_time_s": 9.0,
             "worker": "slowbox:2"},
            {"kinds": {"cover": 1}, "wall_time_s": 0.5},   # pre-field
        ])
        picked = history.timing_samples(hosts=["bench1"])
        assert [s["wall_time_s"] for s in picked] == [2.0]
        # No filter: everything, legacy records included.
        assert len(history.timing_samples()) == 3

    def test_calibration_ignores_unknown_fields(self, tmp_path):
        """Records written by newer builds (worker identity, future
        fields) must feed calibration unchanged — backward compatible in
        both directions."""
        from repro.campaign import CostModel

        base = CostModel()
        plain = [
            {"kinds": {"cover": 1}, "wall_time_s": 1.0},
            {"kinds": {"assert": 1}, "wall_time_s": 12.0},
        ]
        decorated = [
            {"kinds": {"cover": 1}, "wall_time_s": 1.0,
             "worker": "bench1:77", "future_field": {"x": [1, 2]}},
            {"kinds": {"assert": 1}, "wall_time_s": 12.0,
             "worker": "bench1:78", "schema": 99},
        ]
        assert base.calibrated(decorated).kind_weights == \
            base.calibrated(plain).kind_weights
        # And it genuinely recalibrated (assert/cover ratio moved).
        assert base.calibrated(decorated).kind_weights != \
            base.kind_weights

    def test_cli_records_worker_identity(self, tmp_path, capsys):
        hist = tmp_path / "runs.jsonl"
        assert cli_main(["campaign", "--cases", "A1",
                         "--group-size", "1", "--workers", "1",
                         "--history", str(hist)]) == 0
        capsys.readouterr()
        records = [json.loads(line)
                   for line in hist.read_text().splitlines()]
        timing = [r for r in records if r.get("type") == "timings"]
        assert timing, "property campaign should append timing samples"
        for sample in timing[0]["samples"]:
            assert ":" in sample["worker"]
            assert len(sample["kinds"]) == 1


class TestHistoryAtomicity:
    def test_concurrent_appends_never_tear_a_line(self, tmp_path):
        """Many processes appending to one history must interleave whole
        lines, never fragments — the O_APPEND single-write contract the
        campaign service relies on when concurrent campaigns settle
        against a shared history file."""
        import multiprocessing

        path = tmp_path / "runs.jsonl"
        writers, each = 4, 25
        context = multiprocessing.get_context("fork")
        procs = [context.Process(target=_append_many,
                                 args=(str(path), writer, each))
                 for writer in range(writers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
            assert proc.exitcode == 0
        lines = path.read_text().splitlines()
        assert len(lines) == writers * each
        seen = set()
        for line in lines:
            record = json.loads(line)     # any torn line raises here
            assert record["samples"][0]["kinds"]["assert"] == 1
            seen.add((record["label"], record["samples"][0]["seq"]))
        assert seen == {(f"w{writer}", seq)
                        for writer in range(writers)
                        for seq in range(each)}

    def test_fsync_mode_appends_identically(self, tmp_path):
        hist = CampaignHistory(tmp_path / "runs.jsonl", fsync=True)
        hist.append_timings(
            [{"kinds": {"assert": 1}, "wall_time_s": 0.5}], label="d")
        assert hist.timing_samples()[0]["wall_time_s"] == 0.5


def _append_many(path, writer, count):
    history = CampaignHistory(path)
    for seq in range(count):
        history.append_timings(
            [{"kinds": {"assert": 1}, "wall_time_s": 0.01,
              "seq": seq, "pad": "x" * 2048}],
            label=f"w{writer}")
