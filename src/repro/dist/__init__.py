"""Distributed verification fabric: remote workers over TCP.

This package runs verification campaigns across processes and hosts
behind the exact same :class:`~repro.campaign.scheduler.Scheduler` /
:class:`~repro.api.session.VerificationSession` API as the local
multiprocessing path — every verdict is bit-identical, only where the
solver cycles burn changes.

Three layers:

* :mod:`repro.dist.protocol` — the versioned, size-framed
  newline-delimited-JSON wire format (hello/capabilities, task, event,
  result, heartbeat, steal/steal-grant, shutdown) plus the unit codec
  that ships :class:`~repro.api.task.PropertyTask` payloads across the
  wire;
* :mod:`repro.dist.worker` — the standalone worker agent
  (``autosva worker --connect HOST:PORT --slots N``): compiles designs
  on first sight through its own process-local compile cache, runs each
  task in a forked child under the campaign's wall-clock/memory bounds,
  and streams events and results back;
* :mod:`repro.dist.coordinator` — :class:`~repro.dist.coordinator.TcpTransport`,
  the transport that plugs into the scheduler as a pool of remote slots:
  capacity-weighted cost dispatch, heartbeat liveness, requeue-on-death
  with dead-worker exclusion, and steal-grants that reclaim prefetched
  tasks from busy workers at the campaign tail.

Security posture (v1): **trusted networks only** — frames are neither
authenticated nor encrypted.  Bind the coordinator to loopback or a
private segment; see ``docs/distributed.md``.
"""

from .coordinator import TcpTransport, parse_address, spawn_local_workers
from .protocol import (PROTOCOL_VERSION, FrameDecoder, ProtocolError,
                       decode_unit, encode_frame, encode_unit,
                       register_unit)
from .worker import WorkerAgent, worker_main

__all__ = [
    "PROTOCOL_VERSION", "FrameDecoder", "ProtocolError",
    "decode_unit", "encode_frame", "encode_unit", "register_unit",
    "TcpTransport", "parse_address", "spawn_local_workers",
    "WorkerAgent", "worker_main",
]
