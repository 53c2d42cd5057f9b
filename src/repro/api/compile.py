"""The compile half of the verification flow: RTL sources → reusable model.

The expensive step of every check is the RTL frontend — preprocess, parse,
elaborate, lower to an AIG (:func:`repro.rtl.synth.synthesize`).  The old
``FormalEngine`` hid that cost inside its ``system_factory``, re-running the
frontend for *every* fresh system a check needed; with per-property tasks
that would mean recompiling the DUT N times for N properties.

This module splits compilation out:

* :class:`CompiledDesign` is the result of compiling one design × variant —
  an immutable base :class:`~repro.formal.transition.TransitionSystem` plus
  its property inventory, keyed by a content hash of everything that
  determined it.  ``compiled.system()`` hands each check an independent
  clone (O(gates) dict copies, no frontend), so it *is* the
  ``system_factory`` the engine wants.
* :class:`CompileCache` memoizes compiles by content key.  The module-level
  :data:`COMPILE_CACHE` (used via :func:`compile_design`) is what makes
  "exactly one compile per design × variant" hold across a sharded
  property set: the scheduler's parent process compiles once while
  expanding tasks, and forked workers inherit the populated cache.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..formal.transition import TransitionSystem
from ..rtl.synth import synthesize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..formal.engine import EngineConfig, FormalEngine

__all__ = ["CompiledDesign", "CompileCache", "COMPILE_CACHE",
           "compile_design", "design_key", "hash_chunks",
           "config_fingerprint"]


def config_fingerprint(config) -> str:
    """Canonical content fingerprint of an :class:`EngineConfig`.

    The ONE serialization used wherever a config keys a cache — the
    campaign artifact cache, the shard-plan cache and the per-design
    engine LRU.  Divergent serializations would fingerprint the same
    config differently per key space, which is exactly the class of silent
    staleness bug content addressing is meant to rule out.
    """
    return json.dumps(asdict(config), sort_keys=True, default=list)


def hash_chunks(pairs) -> str:
    """SHA-256 over length-framed ``(tag, text)`` pairs.

    The one implementation of the content-key framing shared by every key
    space (compile cache, campaign artifact cache, property-task chunks):
    ``tag:len(data):data`` per pair, so ``("s", "ab"), ("s", "c")`` and
    ``("s", "abc")`` hash differently.  The framing is
    compatibility-sensitive — changing it invalidates all caches at once.
    """
    hasher = hashlib.sha256()
    for tag, text in pairs:
        data = text.encode()
        hasher.update(f"{tag}:{len(data)}:".encode())
        hasher.update(data)
    return hasher.hexdigest()


def design_key(sources: Sequence[str], top: str,
               defines: Sequence[str] = ()) -> str:
    """Content hash of everything that determines a compile's output."""
    return hash_chunks(
        [("top", top)]
        + [("define", define) for define in defines]
        + [("source", source) for source in sources])


@dataclass
class CompiledDesign:
    """One design × variant, compiled once and checkable many times.

    ``base`` is never handed out directly: checks mutate their system
    (L2S monitors, k-liveness counters), so :meth:`system` clones it per
    call.  ``key`` is the :func:`design_key` content hash; ``inventory``
    lists every checkable property as ``(name, kind)`` in the canonical
    check order (asserts, covers, liveness — declaration order within
    each), which is the order aggregated reports reconstruct.
    """

    top: str
    key: str
    base: TransitionSystem
    sources: Tuple[str, ...]
    defines: Tuple[str, ...] = ()
    compile_time_s: float = 0.0
    clones: int = 0

    def system(self) -> TransitionSystem:
        """A fresh, independent system instance (the engine factory)."""
        self.clones += 1
        return self.base.clone()

    def engine_for(self, config: "EngineConfig") -> "FormalEngine":
        """A persistent :class:`~repro.formal.engine.FormalEngine`.

        The same compiled design checked repeatedly (per-property tasks of
        one group, warm ``run_fv`` calls, interactive sessions) reuses one
        engine per (design, engine-config): the engine keeps its sweep
        unrollers and L2S compilation warm between ``check_properties``
        calls, so the N-th check of a design pays zero re-encoding.  Backed by the module-level
        :data:`_WARM_ENGINES` LRU — bounded globally, not per design, so
        a process that walks many designs (a sweep loop, a notebook)
        holds a handful of warm engines total, and an engine whose solver
        arenas outgrew the size cap is retired rather than reused (arenas
        only grow; dead learned/guard slots are not compacted).
        """
        from dataclasses import replace

        from ..formal.engine import FormalEngine

        cache_key = (self.key, config_fingerprint(config))
        engine = _WARM_ENGINES.get(cache_key)
        if engine is not None:
            if engine.warm_ints() <= _MAX_WARM_INTS:
                _WARM_ENGINES.move_to_end(cache_key)
                return engine
            del _WARM_ENGINES[cache_key]  # oversized: rebuild fresh
        # The engine gets its own config copy: the cache entry is keyed by
        # the config's *current* content, and a caller mutating the object
        # afterwards must not retroactively change what the cached engine
        # checks with.
        engine = FormalEngine(self.system, replace(config))
        _WARM_ENGINES[cache_key] = engine
        while len(_WARM_ENGINES) > _MAX_WARM_ENGINES:
            _WARM_ENGINES.popitem(last=False)
        return engine

    @property
    def inventory(self) -> List[Tuple[str, str]]:
        return ([(p.name, "assert") for p in self.base.asserts]
                + [(p.name, "cover") for p in self.base.covers]
                + [(p.name, "live") for p in self.base.liveness])

    def property_names(self) -> List[str]:
        return [name for name, _ in self.inventory]


class CompileCache:
    """Memoized compiles, keyed by content hash, with an LRU bound.

    ``compiles`` counts actual frontend runs, ``hits`` counts avoided ones —
    the counters the campaign acceptance test asserts on ("exactly one
    compile per design × variant").

    ``max_entries`` must comfortably exceed the number of distinct
    design × variant sources a single campaign shards: the one-compile
    guarantee relies on every parent-side compile still being resident
    when the workers fork, so an eviction between sharding and forking
    silently turns into per-worker recompiles (correct, but N× slower).
    The default covers the corpus (13 design × variants) with an order of
    magnitude to spare; compiled corpus designs are a few thousand AIG
    nodes each, so memory stays in the tens of MB.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CompiledDesign]" = OrderedDict()
        self.compiles = 0
        self.hits = 0

    def get_or_compile(self, sources: Sequence[str], top: str,
                       defines: Sequence[str] = ()) -> CompiledDesign:
        key = design_key(sources, top, defines)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        begin = time.perf_counter()
        merged = "\n".join(sources)
        base = synthesize(merged, top, defines=tuple(defines))
        compiled = CompiledDesign(
            top=top, key=key, base=base, sources=tuple(sources),
            defines=tuple(defines),
            compile_time_s=time.perf_counter() - begin)
        self.compiles += 1
        self._entries[key] = compiled
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return compiled

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {"compiles": self.compiles, "hits": self.hits,
                "entries": len(self._entries)}


#: The process-wide cache.  Workers forked from a parent that already
#: compiled a design inherit these entries and never recompile it.
COMPILE_CACHE = CompileCache()

#: Warm engines across ALL compiled designs, keyed by
#: (design key, config fingerprint) — see CompiledDesign.engine_for.
_WARM_ENGINES: "OrderedDict[Tuple[str, str], FormalEngine]" = OrderedDict()
#: Total warm engines held per process.
_MAX_WARM_ENGINES = 4
#: Retire a warm engine once its solver arenas exceed this many list
#: slots.  A CPython slot of distinct (mostly non-cached) ints costs
#: ~36 bytes, so the worst-case retained set is roughly
#: _MAX_WARM_ENGINES x _MAX_WARM_INTS x 36B ~ 280 MB — size this down if
#: running under a tight campaign ``memory_limit_mb``.  (Campaign workers
#: fork per task and exit, so they never accumulate warm engines.)
_MAX_WARM_INTS = 2_000_000


def compile_design(sources: Sequence[str], top: str,
                   defines: Sequence[str] = (),
                   cache: Optional[CompileCache] = None) -> CompiledDesign:
    """Compile (or fetch) a design through ``cache`` (default: global)."""
    return (cache or COMPILE_CACHE).get_or_compile(sources, top, defines)
