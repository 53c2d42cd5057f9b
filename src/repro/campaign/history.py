"""Campaign history: append-only run log + regression detection.

Every campaign run can append one JSONL line summarizing its outcome —
per-design proof rates, CEX properties with depths, error counts — and
compare itself against the previous line.  The comparison catches the
drifts that matter for a verification campaign:

* **proof-rate regressions** — a design that proved 100% last run and no
  longer does (an engine or RTL change broke a proof);
* **lost CEXs** — a bug the campaign used to find is no longer found
  (a bounds change masked it);
* **CEX-depth drift** — a counterexample got deeper (the bug moved) or
  shallower;
* **new failures** — jobs that now error/time out.

The file is plain JSONL: one self-contained object per run, safe to
truncate, rotate or diff.  ``autosva campaign --history FILE`` wires this
in; the regression section prints after the Table III summary.

Besides run summaries the log also carries ``timings`` records — measured
per-task wall times keyed by property-kind counts — which
:meth:`~repro.campaign.costmodel.CostModel.calibrated` folds back into
the cost model, so cost-scheduled campaigns converge on the machine's
real liveness/assert/cover cost ratios.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from .report import CampaignReport

__all__ = ["CampaignHistory", "atomic_append"]

_FORMAT_VERSION = 1


def atomic_append(path: Path, data: bytes, fsync: bool = False) -> None:
    """Append ``data`` to ``path`` as one atomic write.

    ``O_APPEND`` + a single ``os.write`` lands the bytes as one
    contiguous range (POSIX), so concurrent appenders can interleave
    records but never tear one; a buffered ``open("a")`` could flush a
    record in pieces.  ``fsync=True`` forces the record to stable
    storage before returning — the durability primitive the service
    journal (:mod:`repro.service.journal`) is built on.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def _row_record(row) -> Dict[str, object]:
    return {
        "outcome": row.outcome,
        "fixed_proof_rate": row.fixed_proof_rate,
        "buggy_proof_rate": row.buggy_proof_rate,
        "cex": dict(zip(row.cex_properties, row.cex_depths)),
        "errors": len(row.errors),
        "mismatches": len(row.mismatches),
    }


def summarize_run(report: CampaignReport,
                  label: Optional[str] = None) -> Dict[str, object]:
    """The JSONL record for one campaign run."""
    totals = report.totals()
    return {
        "version": _FORMAT_VERSION,
        "timestamp": time.time(),
        "label": label,
        "totals": totals,
        "designs": {row.case_id: _row_record(row) for row in report.rows()},
    }


class CampaignHistory:
    """An append-only JSONL log of campaign runs.

    Appends are **atomic at the line level**: each record is written as
    a single ``os.write`` on an ``O_APPEND`` descriptor, which POSIX
    guarantees lands as one contiguous byte range — concurrent writers
    (the campaign service settles many campaigns against one history
    file) can interleave *lines* but never tear one.  ``fsync=True``
    additionally forces each record to stable storage before ``append``
    returns, for histories that feed billing or audit rather than just
    regression comparison.
    """

    def __init__(self, path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync

    # -- persistence -------------------------------------------------------
    def entries(self) -> List[Dict[str, object]]:
        """All parseable history records, oldest first."""
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return []
        out = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except ValueError:
                continue  # a torn/corrupt line never poisons the history
        return out

    def last(self) -> Optional[Dict[str, object]]:
        """The previous *run summary* (timing records don't count)."""
        runs = [entry for entry in self.entries()
                if entry.get("type") != "timings"]
        return runs[-1] if runs else None

    def _write(self, record: Dict[str, object]) -> Dict[str, object]:
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        atomic_append(self.path, data, fsync=self.fsync)
        return record

    def append(self, report: CampaignReport,
               label: Optional[str] = None) -> Dict[str, object]:
        """Append this run's summary; returns the record written."""
        return self._write(summarize_run(report, label=label))

    # -- cost-model timing samples ----------------------------------------
    def append_timings(self, samples: List[Dict[str, object]],
                       label: Optional[str] = None
                       ) -> Optional[Dict[str, object]]:
        """Append measured per-task wall times for cost-model calibration.

        Each sample is ``{"kinds": {kind: count}, "wall_time_s": s,
        "worker": "host:pid"}`` — one per executed (non-cached) property
        task whose properties share one kind (the only samples
        calibration can use).  ``worker`` records *where* the task ran,
        so calibration over a heterogeneous fabric (a laptop coordinator
        plus big iron agents) can be filtered per host instead of mixing
        machines with different cost ratios; samples recorded before the field existed
        simply lack it, and :meth:`~repro.campaign.costmodel.CostModel.calibrated`
        ignores fields it does not know — both directions stay
        compatible.  No record is written when there are no samples (an
        all-cached rerun teaches nothing).
        """
        if not samples:
            return None
        return self._write({
            "version": _FORMAT_VERSION,
            "type": "timings",
            "timestamp": time.time(),
            "label": label,
            "samples": samples,
        })

    def timing_samples(self, limit_runs: int = 5,
                       hosts: Optional[List[str]] = None
                       ) -> List[Dict[str, object]]:
        """Samples from the most recent ``limit_runs`` timing records,
        newest last — the input :meth:`CostModel.calibrated` expects.

        ``hosts`` restricts the result to samples whose ``worker`` field
        (``host:pid``) names one of the given hosts — the heterogeneous-
        fabric filter.  Samples without worker identity (pre-field
        records, cache replays) are excluded by any host filter, since
        their machine is unknown.
        """
        records = [entry for entry in self.entries()
                   if entry.get("type") == "timings"]
        out: List[Dict[str, object]] = []
        for record in records[-limit_runs:]:
            samples = record.get("samples")
            if isinstance(samples, list):
                out.extend(s for s in samples if isinstance(s, dict))
        if hosts is not None:
            wanted = set(hosts)
            out = [sample for sample in out
                   if isinstance(sample.get("worker"), str)
                   and sample["worker"].rsplit(":", 1)[0] in wanted]
        return out

    # -- regression detection ----------------------------------------------
    def regressions(self, report: CampaignReport,
                    baseline: Optional[Dict[str, object]] = None
                    ) -> List[str]:
        """Human-readable regressions of ``report`` vs the previous run.

        Returns an empty list when there is no baseline yet or nothing
        drifted.  Improvements (higher proof rate, newly found CEXs) are
        deliberately not flagged — the list is an alarm, not a changelog.
        """
        baseline = baseline if baseline is not None else self.last()
        if not baseline:
            return []
        previous: Dict[str, Dict] = baseline.get("designs", {})
        findings: List[str] = []
        for row in report.rows():
            before = previous.get(row.case_id)
            if before is None:
                continue
            for variant, attr in (("fixed", "fixed_proof_rate"),
                                  ("buggy", "buggy_proof_rate")):
                old = before.get(attr)
                new = getattr(row, attr)
                if old is not None and new is not None and new < old:
                    findings.append(
                        f"{row.case_id}: {variant} proof rate regressed "
                        f"{old:.0%} -> {new:.0%}")
            old_cex: Dict[str, int] = before.get("cex", {})
            new_cex = dict(zip(row.cex_properties, row.cex_depths))
            for name, old_depth in old_cex.items():
                if name not in new_cex:
                    findings.append(
                        f"{row.case_id}: CEX on '{name}' no longer found "
                        f"(was depth {old_depth})")
                elif new_cex[name] != old_depth:
                    findings.append(
                        f"{row.case_id}: CEX depth on '{name}' drifted "
                        f"{old_depth} -> {new_cex[name]}")
            if row.errors and not before.get("errors"):
                findings.append(
                    f"{row.case_id}: {len(row.errors)} job(s) now failing "
                    f"(was clean)")
        return findings
