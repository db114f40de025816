"""Watch-mode streaming: verdict- and finding-level diffs, live.

The watch loop re-assesses a tree whenever it changes and streams one
JSON event per assessment.  Each update event carries both diff layers
of :mod:`repro.core.diff` against the previous iteration — which ISO
26262 techniques changed verdict, and *which findings* appeared or
disappeared (with the rules they belong to) — so a CI tail sees "edit
to ``control.cpp`` added two ``M15.1`` findings and flipped goto-usage
to non-compliant" in a single JSON line.  Both layers come from one
:meth:`~repro.serve.server.AssessmentServer.diff` reply, the same one
the ``diff`` verb answers with.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator

from ..errors import ReproError

__all__ = ["watch_events"]


def watch_events(server, root: str, *, iterations: int = 0,
                 interval: float = 2.0,
                 sleep=time.sleep) -> Iterator[Dict[str, Any]]:
    """The ``--watch`` loop: yield one event per (re-)assessment.

    The first event is the baseline (``"event": "baseline"``); each
    later poll that observed a *material* delta (content added, changed,
    or removed — identical rewrites do not count) re-assesses through
    the server's hot cache and yields an ``"update"`` event carrying the
    delta, the fresh assessment reply, and the verdict- plus
    finding-level diff against the previous iteration.

    Args:
        server: the :class:`~repro.serve.server.AssessmentServer`
            holding cache, profile, and store state.
        root: tree to watch.
        iterations: total polls *after* the baseline; ``0`` means run
            until interrupted.  Finite values make the loop
            deterministic for tests and CI.
        interval: seconds between polls.
        sleep: injectable clock for tests.

    A degraded assessment (contained checker crash) yields its event
    with ``"degraded": true`` and the loop continues — the containment
    boundary is per-iteration, matching the serve protocol's
    per-request boundary.
    """
    baseline = server.assess(root)
    yield {"event": "baseline", "iteration": 0, **baseline}
    count = 0
    while iterations == 0 or count < iterations:
        count += 1
        sleep(interval)
        delta = server.refresh(root)
        if not delta.material:
            continue
        try:
            reply = server.assess(root, refresh=False)
        except ReproError as error:
            # Per-iteration containment: a tree emptying out (or any
            # other expected fault) degrades this event, not the loop.
            yield {"event": "error", "iteration": count,
                   "delta": delta.to_dict(), "error": str(error),
                   "degraded": True}
            continue
        diff = server.diff(root)
        yield {
            "event": "update", "iteration": count,
            "delta": delta.to_dict(), **reply,
            "diff": diff["verdicts"], "finding_diff": diff["findings"],
        }
