"""Campaign jobs: one job = design × variant × engine configuration.

A :class:`CampaignJob` is a fully self-contained, picklable description of
one verification run — which corpus RTL to load, which module is the DUT,
and how to bound the engine.  :func:`expand_jobs` unfolds the corpus
registry (or any subset of it) into the campaign's input list.  Jobs are
not executed as such: :mod:`repro.campaign.sharding` turns each one into
property tasks and merges their verdicts back into one result per job,
whose payload :func:`summarize_report` shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..designs import CORPUS, DesignCase, case_by_id, load
from ..formal.engine import CheckReport, EngineConfig

__all__ = ["CampaignJob", "expand_jobs", "summarize_report"]


@dataclass(frozen=True)
class CampaignJob:
    """One design × variant × config of a campaign: its input record.

    Everything is stored by value (file names, config fields); sources
    load from the corpus on demand.  ``job_id`` is unique within a
    campaign, labels the job's property tasks and doubles as the stable
    sort key for deterministic result ordering.
    """

    job_id: str                      # e.g. "A3.buggy"
    case_id: str
    case_name: str
    dut_module: str
    variant: str                     # "fixed" | "buggy"
    dut_file: str
    extra_files: Tuple[str, ...]
    engine_config: EngineConfig
    expect_proof: Optional[bool] = None
    expect_cex: Optional[str] = None
    #: Position in the sweep's config list (None outside a sweep) — what
    #: the report's per-config comparison groups on.
    config_index: Optional[int] = None

    def sources(self) -> List[str]:
        """Load the job's RTL sources (DUT first) from the corpus."""
        return [load(self.dut_file)] + [load(f) for f in self.extra_files]

    def cache_chunks(self):
        """(tag, text) pairs that determine this job's outcome — the
        artifact-cache key material (engine config is appended by the
        cache itself)."""
        yield "module", self.dut_module
        for source in self.sources():
            yield "source", source


def default_engine_config() -> EngineConfig:
    """The bounds the corpus tests/benchmarks run with."""
    return EngineConfig(max_bound=8, max_frames=30)


def expand_jobs(cases: Optional[Sequence[DesignCase]] = None,
                case_ids: Optional[Iterable[str]] = None,
                variants: Sequence[str] = ("fixed", "buggy"),
                config: Optional[EngineConfig] = None,
                configs: Optional[Sequence[EngineConfig]] = None
                ) -> List[CampaignJob]:
    """Unfold corpus cases into the campaign's job list.

    ``cases`` (or ``case_ids``) selects the designs — the whole registry by
    default.  ``variants`` selects which of fixed/buggy to run; a variant a
    case does not have is skipped silently (only A3/A4/A5/O1/E10 carry a
    buggy file).  ``configs`` sweeps several engine configurations per
    design (the ablation axis); ``config`` is the single-config shorthand.
    """
    if cases is None:
        cases = ([case_by_id(cid) for cid in case_ids]
                 if case_ids is not None else list(CORPUS))
    if configs is None:
        configs = [config or default_engine_config()]
    sweep = len(configs) > 1

    jobs: List[CampaignJob] = []
    for case in cases:
        for variant in variants:
            if variant == "fixed":
                dut_file = case.dut_file
                expect_proof = case.expect_fixed_proof
                expect_cex = None
            elif variant == "buggy":
                if not case.buggy_file:
                    continue
                dut_file = case.buggy_file
                expect_proof = False
                expect_cex = case.expect_buggy_cex
            else:
                raise ValueError(f"unknown variant {variant!r}")
            for idx, engine_config in enumerate(configs):
                job_id = f"{case.case_id}.{variant}"
                if sweep:
                    job_id += f".cfg{idx}"
                jobs.append(CampaignJob(
                    job_id=job_id, case_id=case.case_id,
                    case_name=case.name, dut_module=case.dut_module,
                    variant=variant, dut_file=dut_file,
                    extra_files=tuple(case.extra_files),
                    engine_config=replace(engine_config),
                    expect_proof=expect_proof, expect_cex=expect_cex,
                    config_index=idx if sweep else None))
    return jobs


def summarize_report(report: CheckReport) -> Dict[str, object]:
    """Flatten a :class:`CheckReport` into a JSON-able payload.

    Per-property wall times are deliberately kept out of the
    ``properties`` list: everything in it is deterministic, which is what
    lets the scheduler promise identical results for any worker count and
    the cache replay runs byte-for-byte.
    """
    properties = [
        {"name": r.name, "kind": r.kind, "status": r.status,
         "depth": r.depth}
        for r in report.results
    ]
    return {
        "design": report.design,
        "proof_rate": report.proof_rate,
        "num_properties": report.num_properties,
        "num_proven": report.num_proven,
        "num_cex": report.num_cex,
        "cex": [{"name": r.name, "depth": r.depth}
                for r in report.cex_results],
        "properties": properties,
        # Measurements, not verdicts: the equivalence contract
        # (verdict_contract) strips these alongside engine_time_s.
        "solve_time_s": report.solve_time_s,
        "solver": dict(report.solver),
    }

