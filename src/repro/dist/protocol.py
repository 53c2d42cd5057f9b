"""The fabric wire protocol: size-framed JSON messages + the unit codec.

Framing
-------

Every message is one JSON object on the wire, framed as::

    <decimal byte length>\\n<compact JSON, UTF-8>\\n

— newline-delimited for eyeball/`nc` debuggability, size-prefixed so the
reader never has to scan payload bytes for delimiters (property-task
sources are ~100 KB of RTL text and may legally contain anything).
:func:`encode_frame` produces one frame; :class:`FrameDecoder` is the
incremental reader both endpoints feed raw ``recv()`` chunks into.
Malformed input — non-numeric length, oversized frame, bad JSON, a
non-object payload — raises :class:`ProtocolError`, never ``KeyError``
or silent desync.

Messages
--------

All messages are JSON objects with a ``type`` field:

===============  ======  ====================================================
type             sender  meaning
===============  ======  ====================================================
``hello``        both    worker: version + capabilities (slots, host, pid,
                         unit types); coordinator: version ack
``task``         coord   one unit of work + its execution bounds
``event``        worker  progress: ``task_started``, ``compile_started`` /
                         ``compile_done`` (first-sight design compile)
``result``       worker  a task finished: status, payload, error, wall time
``heartbeat``    both    liveness ping (coordinator) / echo (worker)
``steal``        coord   give back up to ``max`` not-yet-started tasks
``steal_grant``  worker  the task ids actually relinquished (may be empty)
``shutdown``     both    coord: drain and exit (``reason`` for logs);
                         worker: graceful-drain announcement — optional
                         ``task_ids`` name the unstarted tasks handed
                         back for requeue
===============  ======  ====================================================

Version negotiation: the worker's ``hello`` carries
:data:`PROTOCOL_VERSION`; the coordinator accepts only an exact match
(there is one version so far) and otherwise answers ``shutdown`` with the
mismatch in ``reason`` — see :func:`negotiate_version`.

Unit codec
----------

``task`` messages carry a *unit* — any registered schedulable job type —
as plain JSON.  :func:`register_unit` maps a type name to (class, encode,
decode, runner); :class:`~repro.api.task.PropertyTask` is built in, and
worker-side plugins (``autosva worker --preload module``) can add more.  The decode
path reconstructs frozen dataclasses exactly (tuples, nested
:class:`~repro.formal.engine.EngineConfig`), so a round-tripped unit
compares ``==`` to the original — the property the fuzz tests pin down.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Dict, List, Tuple, Type

from ..testing.faults import FAULTS

__all__ = ["PROTOCOL_VERSION", "MAX_FRAME_BYTES", "MESSAGE_TYPES",
           "ProtocolError", "FrameDecoder", "encode_frame", "transmit",
           "negotiate_version", "validate_message",
           "register_unit", "encode_unit", "decode_unit", "runner_for"]

#: Bump on any incompatible change to framing, message fields or the unit
#: codec.  Negotiated in the hello exchange; mismatches are refused.
PROTOCOL_VERSION = 1

#: Hard upper bound on one frame.  The largest legitimate payload is a
#: task's merged RTL + testbench source (~100 KB on this corpus); 64 MB
#: leaves orders of magnitude of headroom while making a corrupt or
#: hostile length prefix fail fast instead of exhausting memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

MESSAGE_TYPES = ("hello", "task", "event", "result", "heartbeat",
                 "steal", "steal_grant", "shutdown")

#: type -> fields that must be present (beyond ``type`` itself).
_REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "hello": ("version",),
    "task": ("task",),
    "event": ("kind",),
    "result": ("task_id", "status"),
    "heartbeat": ("seq",),
    "steal": ("max",),
    "steal_grant": ("task_ids",),
    "shutdown": (),
}


class ProtocolError(Exception):
    """Malformed frame, unknown message, or version mismatch."""


# -- framing ---------------------------------------------------------------

def encode_frame(message: Dict[str, object]) -> bytes:
    """Serialize one message as a size-prefixed JSON line."""
    data = json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return b"%d\n%s\n" % (len(data), data)


def transmit(sock, message: Dict[str, object]) -> None:
    """Encode and send one frame — through the wire fault sites.

    The single choke point both fabric ends use for every outgoing
    frame, so chaos rehearsals (:mod:`repro.testing.faults`) can model a
    flaky network without touching either peer's logic:

    * ``dist.frame_delay`` — sleep before the frame goes out;
    * ``dist.frame_corrupt`` — flip one payload byte; the receiver's
      decoder rejects the frame and kills the connection, exactly like
      real line noise;
    * ``dist.frame_drop`` — raise ``OSError`` without sending, exactly
      like a connection reset mid-frame (the frame is *not* half-sent,
      matching TCP's all-or-nothing delivery of a died connection's
      tail).

    Either fault ends the connection; recovery is the ordinary death
    machinery — coordinator requeues, worker reconnects.
    """
    data = encode_frame(message)
    if FAULTS.enabled:
        FAULTS.lag("dist.frame_delay")
        if FAULTS.maybe_fire("dist.frame_corrupt"):
            middle = len(data) // 2
            data = data[:middle] + bytes([data[middle] ^ 0x5A]) \
                + data[middle + 1:]
        if FAULTS.maybe_fire("dist.frame_drop"):
            raise OSError("injected fault: frame dropped (connection reset)")
    sock.sendall(data)


class FrameDecoder:
    """Incremental frame reader: feed ``recv()`` chunks, get messages.

    Tolerates arbitrary chunking (a frame split at any byte, many frames
    in one chunk).  Any malformed input raises :class:`ProtocolError`;
    after an error the stream is unrecoverable by design — framing
    errors on a trusted transport mean a broken peer, not line noise.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        self._buffer.extend(data)
        messages: List[Dict[str, object]] = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if len(self._buffer) > 20:
                    raise ProtocolError(
                        "frame header exceeds 20 bytes without a newline")
                return messages
            header = bytes(self._buffer[:newline])
            try:
                length = int(header)
            except ValueError:
                raise ProtocolError(
                    f"non-numeric frame length {header!r}") from None
            if length < 0 or length > MAX_FRAME_BYTES:
                raise ProtocolError(f"frame length {length} out of range")
            end = newline + 1 + length
            if len(self._buffer) < end + 1:
                return messages          # payload (or trailer) incomplete
            payload = bytes(self._buffer[newline + 1:end])
            if self._buffer[end:end + 1] != b"\n":
                raise ProtocolError("frame missing trailing newline")
            del self._buffer[:end + 1]
            try:
                message = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise ProtocolError(f"undecodable frame payload: {exc}") \
                    from None
            if not isinstance(message, dict):
                raise ProtocolError(
                    f"frame payload is {type(message).__name__}, "
                    f"expected an object")
            messages.append(message)


# -- message validation ----------------------------------------------------

def validate_message(message: Dict[str, object]) -> Dict[str, object]:
    """Check a decoded message's type and required fields.

    Returns the message (for chaining) or raises :class:`ProtocolError`
    naming exactly what is missing — the fabric never surfaces a raw
    ``KeyError`` for a peer's malformed traffic.
    """
    kind = message.get("type")
    if kind not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {kind!r}")
    missing = [name for name in _REQUIRED_FIELDS[kind]
               if name not in message]
    if missing:
        raise ProtocolError(
            f"{kind} message missing field(s): {', '.join(missing)}")
    return message


def negotiate_version(theirs: object) -> int:
    """Version handshake: exact match only (one protocol version so far).

    Returns the agreed version or raises :class:`ProtocolError` with a
    message fit to ship back in a ``shutdown`` frame.
    """
    if not isinstance(theirs, int) or theirs != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {theirs!r}, "
            f"this build speaks {PROTOCOL_VERSION}")
    return PROTOCOL_VERSION


# -- unit codec ------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _UnitCodec:
    name: str
    cls: Type
    encode: Callable[[object], Dict[str, object]]
    decode: Callable[[Dict[str, object]], object]
    runner: Callable[[object], Dict[str, object]]


_UNIT_CODECS: Dict[str, _UnitCodec] = {}


def register_unit(name: str, cls: Type,
                  encode: Callable[[object], Dict[str, object]],
                  decode: Callable[[Dict[str, object]], object],
                  runner: Callable[[object], Dict[str, object]]) -> None:
    """Register a schedulable unit type for wire transport.

    ``encode`` maps an instance to a JSON-able dict (without the ``unit``
    tag, which this layer adds); ``decode`` inverts it exactly;
    ``runner`` is the worker-side entry point.  Registering an existing
    name replaces it, so tests and plugins can override built-ins.
    """
    _UNIT_CODECS[name] = _UnitCodec(name, cls, encode, decode, runner)


def encode_unit(unit: object) -> Dict[str, object]:
    """Serialize any registered unit to a tagged JSON-able dict."""
    for codec in _UNIT_CODECS.values():
        if isinstance(unit, codec.cls):
            payload = codec.encode(unit)
            return {"unit": codec.name, **payload}
    raise ProtocolError(
        f"no wire codec registered for {type(unit).__name__}; "
        f"known units: {', '.join(sorted(_UNIT_CODECS))}")


def decode_unit(data: Dict[str, object]) -> object:
    """Reconstruct a unit from its wire form."""
    name = data.get("unit")
    codec = _UNIT_CODECS.get(name)
    if codec is None:
        raise ProtocolError(
            f"unknown unit type {name!r}; known units: "
            f"{', '.join(sorted(_UNIT_CODECS))} (worker missing a "
            f"--preload plugin?)")
    body = {key: value for key, value in data.items() if key != "unit"}
    try:
        return codec.decode(body)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            f"malformed {name} unit payload: {exc}") from None


def runner_for(unit: object) -> Callable[[object], Dict[str, object]]:
    """The worker-side execution function for a decoded unit."""
    for codec in _UNIT_CODECS.values():
        if isinstance(unit, codec.cls):
            return codec.runner
    raise ProtocolError(f"no runner registered for {type(unit).__name__}")


# -- built-in units --------------------------------------------------------

def _encode_config(config) -> Dict[str, object]:
    return dataclasses.asdict(config)


def _decode_config(data: Dict[str, object]):
    from ..formal.engine import EngineConfig

    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    kwargs = {key: value for key, value in data.items() if key in fields}
    if "kliveness_rounds" in kwargs:
        kwargs["kliveness_rounds"] = tuple(kwargs["kliveness_rounds"])
    return EngineConfig(**kwargs)


def _encode_property_task(task) -> Dict[str, object]:
    body = dataclasses.asdict(task)
    body["engine_config"] = _encode_config(task.engine_config)
    return body


def _decode_property_task(data: Dict[str, object]):
    from ..api.task import PropertyTask

    return PropertyTask(
        task_id=data["task_id"], design=data["design"],
        dut_module=data["dut_module"], sources=tuple(data["sources"]),
        engine_config=_decode_config(data["engine_config"]),
        properties=tuple(data.get("properties", ())),
        variant=data.get("variant", "fixed"),
        defines=tuple(data.get("defines", ())),
        kinds=tuple(data.get("kinds", ())),
        coi_sizes=tuple(int(n) for n in data.get("coi_sizes", ())),
        order=tuple(int(n) for n in data.get("order", ())))


def _register_builtins() -> None:
    from ..api.task import PropertyTask, execute_task

    register_unit("property-task", PropertyTask,
                  _encode_property_task, _decode_property_task,
                  execute_task)


_register_builtins()
