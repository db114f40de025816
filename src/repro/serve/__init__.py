"""Serving layer: the long-lived ``repro-serve`` assessment daemon.

Where ``repro-assess`` is one cold process per run, this package keeps
the expensive state — rules profile, result store, parse/check object
cache — resident in one process and answers ``assess`` / ``diff`` /
``rules`` / ``stats`` requests over a line-delimited JSON protocol
(:mod:`.protocol`), over stdio or TCP.  The ``--watch`` mode layers a
stat-first incremental tree watcher (:mod:`.watcher`) on top: only
changed files are re-read, only their parse/check stages re-run
(everything else is a content-addressed cache hit), and each material
change streams a verdict- plus finding-level diff
(:mod:`repro.core.diff`, via :mod:`.stream`) against the previous
assessment.

Fault containment is per-request: a checker crash degrades one reply
(``"degraded": true`` — the protocol's exit-code-3), never the daemon.
"""

from .protocol import (
    PROTOCOL_VERSION,
    VERBS,
    encode_reply,
    error_reply,
    parse_request,
)
from .server import AssessmentServer, run_stdio, run_tcp
from .stream import watch_events
from .watcher import TreeWatcher, WatchDelta

__all__ = [
    "AssessmentServer",
    "PROTOCOL_VERSION",
    "TreeWatcher",
    "VERBS",
    "WatchDelta",
    "encode_reply",
    "error_reply",
    "parse_request",
    "run_stdio",
    "run_tcp",
    "watch_events",
]
