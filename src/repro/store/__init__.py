"""Sharded, content-addressed persistence for the assessment stack.

This package is the one persistence surface: ``--store DIR`` on
``repro-assess`` and ``repro-serve``, read back by ``repro-trends
--store`` and administered by ``repro-store``.  One store directory
holds everything an assessment persists across runs, processes, and
machines:

* ``objects/`` — the content-addressed object area (two-level fanout,
  atomic writes); the result cache's entries live here
  (:meth:`Store.object_store`);
* ``runs.jsonl`` — the run-history table, one JSON manifest per run
  (:meth:`Store.history`);
* ``shard-<host>-<pid>*/`` — per-process shard directories, each a
  miniature store (its own object area + run table) that one writer
  owns exclusively, so concurrent invocations and worker pools never
  contend on shared files.

:func:`~repro.store.merge.merge_into` folds any number of shards (and
whole foreign stores, bare object areas, and bare ``runs.jsonl``
directories) into a master store *idempotently and commutatively*: the
merged master's bytes are identical regardless of merge order, because
objects resolve content-addressed and run manifests union by run id
into a canonical sorted table.  That is the scale-out contract — one
corpus split across N machines, each writing its own shard, merged
into one master that a final assessment replays byte-identically (the
mini-coverage ``Storage`` pattern: process-private partial databases
combined into a master).  It is also the migration path for a flat
cache directory and a run-ledger directory written by older releases::

    repro-store merge STORE --from OLD_CACHE_DIR --from-ledger OLD_LEDGER_DIR
"""

from .gc import GcStats, collect_garbage
from .history import (
    LEDGER_FILENAME,
    LEDGER_SCHEMA,
    RunHistory,
    RunRecord,
    new_run_id,
)
from .layout import (
    OBJECTS_DIRNAME,
    SHARD_PREFIX,
    default_shard_name,
    is_shard_dir,
    list_shards,
)
from .merge import MergeStats, import_ledger, merge_into, merge_shards
from .objects import CACHE_MISS, SCHEMA_TAG, ObjectStore
from .store import Store

__all__ = [
    "CACHE_MISS",
    "GcStats",
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA",
    "MergeStats",
    "OBJECTS_DIRNAME",
    "ObjectStore",
    "RunHistory",
    "RunRecord",
    "SCHEMA_TAG",
    "SHARD_PREFIX",
    "Store",
    "collect_garbage",
    "default_shard_name",
    "import_ledger",
    "is_shard_dir",
    "list_shards",
    "merge_into",
    "merge_shards",
    "new_run_id",
]
