"""``repro.api`` — the public verification API, per-property first.

The paper's usage model (conf_dac_Orenes-VeraMWM21) is per-property:
AutoSVA generates many SVA properties per module and the FV tool reports a
proof/CEX verdict for each one.  This layer makes that the API's atomic
unit instead of the whole design:

* :class:`~repro.api.task.PropertyTask` — design × variant ×
  property-group × engine-config, fully picklable, the schedulable unit;
* :func:`~repro.api.compile.compile_design` /
  :class:`~repro.api.compile.CompiledDesign` — the compile step, split out
  of the check step and memoized in :data:`~repro.api.compile.COMPILE_CACHE`
  so sharding a design's property set costs one frontend run, not N;
* :class:`~repro.api.session.VerificationSession` — schedules tasks on the
  campaign worker pool and **streams** :class:`~repro.api.task.TaskEvent`
  objects as verdicts land, with per-design
  :class:`~repro.formal.engine.CheckReport` aggregates rebuilt on demand;
* the engine registry (re-exported from :mod:`repro.formal.engines`) —
  ``EngineConfig.proof_engine`` / ``liveness_strategy`` name registered
  backends (``pdr``, ``kind``, ``bmc-only`` / ``l2s``, ``bounded``) and
  third-party engines plug in via :func:`register_engine`.

Quick start::

    from repro.api import EngineConfig, VerificationSession, expand_tasks

    tasks = expand_tasks([rtl_text, prop_sv, bind_sv], "tlb",
                         EngineConfig(max_bound=8), group_size=1)
    session = VerificationSession(tasks, workers=4)
    for event in session.run():
        print(f"{event.task_id}: {event.status}")
    report = session.reports()["tlb"]

Deprecation path
----------------

The pre-existing call shapes keep working as thin shims over this layer
and are the *compatibility* surface, not the primary one:

* ``repro.core.run_fv(ft, sources, config)`` — still returns a
  ``CheckReport`` (with traces); now compiles through the shared cache.
* ``FormalEngine(factory, config).check_all()`` — unchanged; new code
  should prefer ``check_properties`` on a ``CompiledDesign.system``
  factory.

Campaigns run on this layer too: ``repro.campaign.run_property_campaign``
expands each corpus job into property tasks (``group_size=None`` for one
task per design) and merges their verdicts back per job.

New integrations should target ``repro.api``; the shims are kept for the
corpus scripts and will only grow, never change shape.
"""

from ..formal.engine import CheckReport, EngineConfig, PropertyResult
from ..formal.engines import (Engine, EngineVerdict, LivenessStrategy,
                              available_engines,
                              available_liveness_strategies, get_engine,
                              get_liveness_strategy, register_engine,
                              register_liveness_strategy)
from .compile import (COMPILE_CACHE, CompileCache, CompiledDesign,
                      compile_design, design_key)
from .session import (VerificationSession, aggregate_reports,
                      event_from_result, run_tasks)
from .task import (PropertyTask, TaskEvent, execute_task, expand_tasks,
                   group_properties)

__all__ = [
    "CheckReport", "EngineConfig", "PropertyResult",
    "Engine", "EngineVerdict", "LivenessStrategy",
    "available_engines", "available_liveness_strategies",
    "get_engine", "get_liveness_strategy",
    "register_engine", "register_liveness_strategy",
    "COMPILE_CACHE", "CompileCache", "CompiledDesign",
    "compile_design", "design_key",
    "VerificationSession", "aggregate_reports", "event_from_result",
    "run_tasks",
    "PropertyTask", "TaskEvent", "execute_task", "expand_tasks",
    "group_properties",
]
