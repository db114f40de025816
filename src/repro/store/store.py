"""The :class:`Store` facade: one directory, all three areas.

A store ties together the object area (:mod:`repro.store.objects`),
the run-history table (:mod:`repro.store.history`), and the shard
directories (:mod:`repro.store.layout`) under one root, and hands out
correctly-wired views of each:

* :meth:`Store.object_store` — the result-cache backend, optionally
  redirected into a writer-private shard;
* :meth:`Store.history` — the run table (shard tables unioned in);
* :meth:`Store.shard` — a shard's own history, for recording a shard
  run's manifest next to its objects.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional

from .history import LEDGER_FILENAME, RunHistory
from .layout import (
    OBJECTS_DIRNAME,
    default_shard_name,
    list_shards,
    parse_worker_shard,
    safe_hostname,
)
from .objects import ObjectStore, _process_alive


@dataclass(frozen=True)
class StoreStats:
    """What ``repro-store stats`` reports for one store."""

    root: str
    objects: int
    object_bytes: int
    runs: int
    shards: int
    shard_objects: int
    shard_runs: int

    def to_dict(self) -> Dict:
        return {
            "root": self.root,
            "objects": self.objects,
            "object_bytes": self.object_bytes,
            "runs": self.runs,
            "shards": self.shards,
            "shard_objects": self.shard_objects,
            "shard_runs": self.shard_runs,
        }


class Store:
    """One persistence root: ``objects/`` + ``runs.jsonl`` + shards."""

    def __init__(self, root: str) -> None:
        self.root = root

    # ------------------------------------------------------------------

    @property
    def objects_root(self) -> str:
        """The master object area directory."""
        return os.path.join(self.root, OBJECTS_DIRNAME)

    def shard_path(self, name: Optional[str] = None) -> str:
        """A shard directory path (this process's by default)."""
        return os.path.join(self.root,
                            name if name else default_shard_name())

    def shards(self) -> List[str]:
        """Existing shard directory paths, sorted."""
        return list_shards(self.root)

    # ------------------------------------------------------------------

    def object_store(self, shard: Optional[str] = None) -> ObjectStore:
        """The store's object area as a result-cache backend.

        Args:
            shard: when given (a shard directory name, or ``""`` for
                this process's default name), writes are redirected
                into that shard's private object area; reads still
                consult the master area first.  ``None`` writes
                straight into the master area.

        Either way the returned store has
        :attr:`~repro.store.objects.ObjectStore.worker_shard_base` set,
        so a parallel pipeline fans its workers' puts into private
        sub-shards and folds them back on join.
        """
        shard_root = None
        if shard is not None:
            shard_root = os.path.join(self.shard_path(shard or None),
                                      OBJECTS_DIRNAME)
        area = ObjectStore(self.objects_root, shard_root=shard_root)
        area.worker_shard_base = self.root
        self.sweep_dead_worker_shards(area)
        return area

    def sweep_dead_worker_shards(self, area: ObjectStore) -> int:
        """Absorb worker sub-shards whose owning process is gone.

        A parallel store-backed run arms per-worker
        ``shard-<host>-<pid>-w<index>/`` areas and folds them back on
        join; a run killed mid-pool can still leak them (the absorb
        runs in a ``finally``, but ``SIGKILL`` skips even that).  On
        the next store open, any such directory belonging to a dead
        process *on this host* is absorbed into ``area``'s write area
        and removed — mirroring the stale ``*.tmp.<pid>`` sweep, and
        losing nothing because entries are content-addressed.

        ``K/N`` corpus shards and foreign hosts' shards are never
        touched: the former await an explicit ``repro-store merge``,
        and the latter's PIDs cannot be probed from here.  Returns the
        number of shard directories swept; never raises.
        """
        host = safe_hostname()
        swept = 0
        for shard_dir in list_shards(self.root):
            owner = parse_worker_shard(os.path.basename(shard_dir))
            if owner is None:
                continue
            shard_host, pid = owner
            if shard_host != host or _process_alive(pid):
                continue
            area.absorb(os.path.join(shard_dir, OBJECTS_DIRNAME))
            shutil.rmtree(shard_dir, ignore_errors=True)
            swept += 1
        if swept:
            area.metrics.counter("cache.swept_shards").inc(swept)
            area.log.info("cache.sweep_shards", root=self.root,
                          removed=swept)
        return swept

    def history(self) -> RunHistory:
        """The master run table (shard tables unioned on read)."""
        return RunHistory(self.root)

    def shard(self, name: Optional[str] = None) -> RunHistory:
        """One shard's own run table (no further nesting)."""
        return RunHistory(self.shard_path(name))

    # ------------------------------------------------------------------

    def stats(self) -> StoreStats:
        """Object / run / shard counts and sizes, best-effort."""
        area = ObjectStore(self.objects_root)
        objects = 0
        object_bytes = 0
        for _key, path in area.entries():
            objects += 1
            try:
                object_bytes += os.path.getsize(path)
            except OSError:
                pass
        shard_objects = 0
        shard_runs = 0
        shards = self.shards()
        for shard_dir in shards:
            shard_objects += sum(
                1 for _ in area.entries(
                    os.path.join(shard_dir, OBJECTS_DIRNAME)))
            try:
                shard_runs += len(
                    RunHistory(shard_dir)._parse_file(
                        os.path.join(shard_dir, LEDGER_FILENAME)))
            except OSError:
                pass
        runs = 0
        history = RunHistory(self.root)
        try:
            runs = len(history._parse_file(history.path))
        except OSError:
            pass
        return StoreStats(root=self.root, objects=objects,
                          object_bytes=object_bytes, runs=runs,
                          shards=len(shards),
                          shard_objects=shard_objects,
                          shard_runs=shard_runs)
