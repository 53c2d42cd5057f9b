"""Content-addressed artifact cache for campaign runs.

A cache key is the SHA-256 of everything that determines a job's outcome:
the DUT RTL text (annotations are comments *in* that text, so they are
hashed with it), every extra source, the DUT module name, the engine
configuration, and a schema-version salt.  Editing one design therefore
invalidates exactly that design's entries; a rerun over an unchanged
corpus is served entirely from disk and touches no solver.

Entries are small JSON files under the cache directory — transparent,
diff-able, and safe to delete at any time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from ..testing.faults import FAULTS

__all__ = ["ArtifactCache", "CacheEntry"]

#: Bump when the result payload schema or engine semantics change: old
#: entries then miss instead of replaying stale results.  (2: entries
#: became ``{"payload": ..., "wall_time_s": ...}`` envelopes so cached
#: replays can report the original check time; envelopes now also carry
#: an explicit ``schema`` field so the load path can tell a legacy entry
#: from a future one instead of guessing from shape.)
_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CacheEntry:
    """One stored result: the payload plus when-it-ran metadata."""

    payload: Dict[str, object]
    #: Wall time of the run that produced the payload (None for entries
    #: without timing, e.g. shard plans).
    wall_time_s: Optional[float] = None


class ArtifactCache:
    """A directory of content-addressed job results."""

    def __init__(self, cache_dir, fsync: bool = False) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Force each entry to stable storage before the rename makes it
        #: visible — a crash can then never leave a *visible* torn entry
        #: (torn files are already only a miss, so this is for caches
        #: whose entries feed audit trails, not correctness).
        self.fsync = fsync

    # -- keying ------------------------------------------------------------
    def key(self, job) -> str:
        """Content hash of all outcome-determining inputs of ``job``.

        Accepts anything with ``cache_chunks()`` and an
        ``engine_config``; campaigns key
        :class:`~repro.api.task.PropertyTask` results, whose chunks
        include the property-group names so different shards of one
        design get distinct entries.
        """
        from ..api.compile import config_fingerprint, hash_chunks

        pairs = [("schema", str(_SCHEMA_VERSION))]
        pairs.extend(job.cache_chunks())
        pairs.append(("config", config_fingerprint(job.engine_config)))
        return hash_chunks(pairs)

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    # -- lookup / store ----------------------------------------------------
    def _read(self, key: str) -> Optional[CacheEntry]:
        """The one read-and-validate path behind get() and contains().

        Schema handling is explicit, not shape-sniffed:

        * entries written by a **newer** build (``schema`` above ours)
          raise :class:`~repro.core.language.AutoSVAError` naming the
          versions — replaying a payload this build cannot interpret, or
          failing with a bare ``KeyError``, are both worse than stopping;
        * **schema-1** entries (the pre-envelope format: the raw payload
          dict itself, no ``schema``/``payload`` fields) migrate on read
          — the payload is served with no original-wall-time metadata,
          exactly what that format recorded;
        * torn/corrupt files stay a miss (the entry rewrites itself).
        """
        try:
            raw = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict):
            return None
        schema = raw.get("schema")
        if schema is None:
            # Entries before the explicit field: envelopes are schema 2,
            # anything else is the schema-1 raw-payload format.
            schema = 2 if "payload" in raw else 1
        if not isinstance(schema, int) or schema > _SCHEMA_VERSION:
            from ..core.language import AutoSVAError

            raise AutoSVAError(
                f"cache entry {self._path(key)} was written with schema "
                f"{schema!r}; this build reads schema <= {_SCHEMA_VERSION}."
                f" Delete the entry (or the cache directory) or upgrade.")
        if schema < 2:
            return CacheEntry(payload=raw, wall_time_s=None)
        if "payload" not in raw:
            return None  # truncated envelope: treat as a miss
        wall = raw.get("wall_time_s")
        return CacheEntry(payload=raw["payload"],
                          wall_time_s=float(wall) if wall is not None
                          else None)

    def get_entry(self, key: str) -> Optional[CacheEntry]:
        """Payload plus stored metadata (original wall time)."""
        entry = self._read(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def get(self, key: str) -> Optional[Dict[str, object]]:
        entry = self.get_entry(key)
        return entry.payload if entry is not None else None

    def contains(self, key: str) -> bool:
        """Valid-entry peek that does not touch the hit/miss counters.

        Used by the shard planner to decide whether a restored job still
        needs a parent-side compile without distorting replay statistics.
        Shares :meth:`_read` with :meth:`get`, so an entry this says is
        present is one the replay can actually serve.
        """
        return self._read(key) is not None

    def put(self, key: str, payload: Dict[str, object],
            wall_time_s: Optional[float] = None) -> None:
        path = self._path(key)
        # Per-process tmp name: concurrent campaigns sharing a cache dir
        # must not race on the rename source.  Content-addressing makes the
        # replace itself safe — writers of the same key agree on content.
        tmp = self.cache_dir / f".{key}.{os.getpid()}.tmp"
        data = json.dumps(
            {"schema": _SCHEMA_VERSION, "payload": payload,
             "wall_time_s": wall_time_s},
            sort_keys=True)
        if FAULTS.enabled and FAULTS.maybe_fire("cache.torn_write"):
            # Chaos rehearsal of a crash mid-write that still got renamed
            # into place (or a pre-envelope torn file): readers must treat
            # the half-entry as a miss and the next writer repairs it.
            data = data[: max(1, len(data) // 2)]
        with tmp.open("w") as handle:
            handle.write(data)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        tmp.replace(path)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": sum(1 for _ in self.cache_dir.glob("*.json"))}
