"""Content-addressed deterministic result cache.

Every :class:`~repro.campaigns.spec.Scenario` run is a pure function of
its canonical spec + seed, so its measured result is cacheable forever:
a hot scenario costs one execution ever, and nightly campaigns, Pareto
sweeps, and bench gates stop re-paying for work already done.  The
store is keyed by :meth:`Scenario.content_hash` — a version-salted
SHA-256 of the execution-shaping spec — and holds only the *measured*
columns (:func:`repro.campaigns.aggregate.measured_payload`): the
identity labels (``scenario_id``/``index``/``group``/``tags``) are
re-attached from the requesting scenario at hit time, so the same
experiment reached from two campaigns shares one entry and a cache hit
aggregates bit-identically to a fresh computation (``elapsed_ms`` is
wall-clock and excluded from aggregates by construction).

On-disk layout (sharded so a million entries never sit in one
directory, atomic so a crash mid-write can never corrupt an entry)::

    <root>/objects/<hash[:2]>/<hash>.json   one entry per result
    <root>/last_run.json                    hit/miss stats of the last
                                            cache-enabled campaign run

Entries are written to a temp file in the destination directory and
published with :func:`os.replace`, read back with integrity
verification (the stored payload must re-hash to the file's own name),
and **never** written for ``status="timeout"`` or ``status="error"``
rows — a timeout depends on the host's wall clock and an error may be
environmental, so neither is a pure function of the spec.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.campaigns.aggregate import MEASURED_COLUMNS, measured_payload
from repro.campaigns.spec import (
    CONTENT_HASH_VERSION,
    Scenario,
    ScenarioResult,
)

#: Row dispositions the cache refuses to store (see module docstring).
UNCACHEABLE_STATUS: Tuple[str, ...] = ("timeout", "error")

#: Name of the per-run stats file kept beside the object store.
LAST_RUN_FILENAME = "last_run.json"

#: Prefix of the temp files writes publish with :func:`os.replace`; a
#: writer killed before the replace leaves one behind.
_TEMP_PREFIX = ".tmp-"


def default_cache_dir() -> str:
    """The result-store root when none is configured explicitly:
    ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-results``, else
    ``~/.cache/repro-results`` (mirroring the native kernel tier's
    ``.so`` cache convention)."""
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-results")


@dataclass
class CacheRunStats:
    """Hit/miss accounting for one cache-enabled campaign run.

    ``saved_ms`` sums the *stored* compute cost of every hit — the
    ``elapsed_ms`` the original (miss) execution paid — which is what
    the campaign summary reports as compute seconds saved.
    """

    hits: int = 0
    misses: int = 0
    saved_ms: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot (artifact ``meta`` shape)."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else None,
            "saved_compute_s": self.saved_ms / 1000.0,
        }


@dataclass
class ResultCache:
    """The sharded content-addressed result store (see module docstring).

    One instance tracks one campaign run's hit/miss stats in
    :attr:`run_stats`; call :meth:`reset_run_stats` between runs (the
    runner does) and :meth:`write_last_run` to persist them for
    ``repro cache stats``.
    """

    root: str
    run_stats: CacheRunStats = field(default_factory=CacheRunStats)

    # -- layout ---------------------------------------------------------

    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def entry_path(self, content_hash: str) -> str:
        """Where the entry for ``content_hash`` lives (whether or not it
        exists yet)."""
        return os.path.join(
            self._objects_dir(), content_hash[:2], f"{content_hash}.json"
        )

    def _entry_paths(self, temp: bool = False) -> List[str]:
        """All entry files, sorted for deterministic iteration; with
        ``temp=True``, the temp files of interrupted :meth:`put` calls
        instead."""
        paths: List[str] = []
        objects = self._objects_dir()
        if not os.path.isdir(objects):
            return paths
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and name.startswith(_TEMP_PREFIX) == temp:
                    paths.append(os.path.join(shard_dir, name))
        return paths

    # -- store / load ---------------------------------------------------

    def put(self, scenario: Scenario, result: ScenarioResult) -> bool:
        """Store ``result`` under ``scenario``'s content hash.

        Returns ``True`` if an entry was written; timeout/error rows
        are refused (``False``).  The write is atomic (temp file +
        :func:`os.replace` in the destination directory), so concurrent
        writers and crashes can at worst lose the entry, never corrupt
        it — and equal scenarios write byte-identical payloads, so a
        lost race overwrites an entry with itself.
        """
        if result.status in UNCACHEABLE_STATUS:
            return False
        content_hash = scenario.content_hash()
        entry = {
            "hash": content_hash,
            "version": CONTENT_HASH_VERSION,
            "key": scenario.content_payload(),
            "measured": measured_payload(result),
            "elapsed_ms": result.elapsed_ms,
        }
        path = self.entry_path(content_hash)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            dir=directory, prefix=_TEMP_PREFIX, suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True, indent=1)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.remove(temp_path)
            raise
        return True

    def _load_entry(self, path: str) -> Optional[Dict[str, object]]:
        """Parse and integrity-check one entry file.

        Returns ``None`` (a miss) for unreadable, unparsable,
        wrong-version, or tampered entries — the stored ``key`` payload
        must re-hash to the hash the file is filed under, and the
        ``measured`` section must cover exactly the measured columns.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("version") != CONTENT_HASH_VERSION:
            return None
        expected = os.path.basename(path)[: -len(".json")]
        if entry.get("hash") != expected:
            return None
        key = entry.get("key")
        measured = entry.get("measured")
        if not isinstance(key, dict) or not isinstance(measured, dict):
            return None
        canonical = json.dumps(
            key, sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )
        if hashlib.sha256(canonical.encode("utf-8")).hexdigest() != expected:
            return None
        if set(measured) != set(MEASURED_COLUMNS):
            return None
        return entry

    def get(self, scenario: Scenario) -> Optional[ScenarioResult]:
        """The cached result for ``scenario``, or ``None`` on a miss.

        A hit rebuilds a full :class:`ScenarioResult` by joining the
        stored measured columns with the *requesting* scenario's
        identity labels; ``elapsed_ms`` is zero (the hit did no
        compute), which never enters aggregates.  Hits and misses are
        counted into :attr:`run_stats`.
        """
        entry = self._load_entry(self.entry_path(scenario.content_hash()))
        if entry is None:
            self.run_stats.misses += 1
            return None
        measured = dict(entry["measured"])
        measured["tags"] = scenario.tags
        try:
            result = ScenarioResult(
                scenario_id=scenario.scenario_id,
                index=scenario.index,
                group=scenario.group,
                elapsed_ms=0.0,
                **measured,
            )
        except TypeError:
            self.run_stats.misses += 1
            return None
        self.run_stats.hits += 1
        self.run_stats.saved_ms += float(entry.get("elapsed_ms") or 0.0)
        return result

    # -- maintenance ----------------------------------------------------

    def reset_run_stats(self) -> None:
        """Zero the per-run hit/miss counters (one campaign = one run)."""
        self.run_stats = CacheRunStats()

    def stats(self) -> Dict[str, object]:
        """Store-wide totals: entry count and bytes on disk."""
        paths = self._entry_paths()
        return {
            "root": self.root,
            "entries": len(paths),
            "bytes": sum(os.path.getsize(path) for path in paths),
        }

    def verify(self, remove: bool = False) -> List[str]:
        """Re-hash and cross-check every stored entry.

        Returns human-readable problem descriptions for entries that
        fail the integrity check (empty = the store is sound); with
        ``remove=True`` the corrupt entries are also deleted, so the
        next campaign run recomputes them instead of tripping over
        them forever.
        """
        problems: List[str] = []
        for path in self._entry_paths():
            if self._load_entry(path) is None:
                problems.append(f"corrupt cache entry: {path}")
                if remove:
                    os.remove(path)
        return problems

    def gc(self, older_than_s: float) -> Dict[str, object]:
        """Delete entries whose file mtime is older than
        ``older_than_s`` seconds; returns ``{"removed", "kept",
        "freed_bytes"}``.  Temp files that interrupted writes left
        behind and that are older than the same cutoff go too; they
        count toward ``freed_bytes`` only (newer ones may belong to a
        write still in progress)."""
        cutoff = time.time() - older_than_s
        removed = kept = freed = 0
        for temp in (False, True):
            for path in self._entry_paths(temp):
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                if stat.st_mtime < cutoff:
                    freed += stat.st_size
                    os.remove(path)
                    removed += not temp
                elif not temp:
                    kept += 1
        return {"removed": removed, "kept": kept, "freed_bytes": freed}

    # -- last-run stats (for `repro cache stats`) -----------------------

    def write_last_run(self, meta: Optional[Dict[str, object]] = None) -> str:
        """Persist :attr:`run_stats` (plus optional campaign ``meta``)
        as the store's last-run record."""
        os.makedirs(self.root, exist_ok=True)
        payload = dict(self.run_stats.to_dict())
        if meta:
            payload.update(meta)
        path = os.path.join(self.root, LAST_RUN_FILENAME)
        fd, temp_path = tempfile.mkstemp(
            dir=self.root, prefix=_TEMP_PREFIX, suffix=".json"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.write("\n")
        os.replace(temp_path, path)
        return path

    def load_last_run(self) -> Optional[Dict[str, object]]:
        """The last-run record, or ``None`` when no cache-enabled
        campaign has run against this store yet."""
        path = os.path.join(self.root, LAST_RUN_FILENAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None
