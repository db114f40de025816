"""Per-layer timers wrapped, from outside, around the program's entry points.

The traced run swaps each layer's public entry point for a timing
wrapper (:meth:`LayerClock.install`) and puts the originals back
afterwards (:meth:`LayerClock.uninstall`); no program source changes.
A layer's self time is its wrapper time minus the time of the wrappers
nested inside it, so ``parse_translation_unit`` excludes the
``tokenize`` it calls.

Process-pool workers are forked with the wrappers in place.  The
wrapped worker task functions write each task's layer times to a spool
file, which the parent folds in after the operation
(:meth:`LayerClock.collect_workers`).  Those worker seconds run in
parallel with the parent's ``parallel.run_tasks`` wait, so they are
kept apart from the parent's self times that ``unattributed_s`` is
computed from.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer with a self time, in report order.
LAYERS = (
    "pipeline.run",
    "lexer.tokenize",
    "cppmodel.model",
    "engine.sweep",
    "metrics.measure",
    "checkers.finalize",
    "checkers.unit_design.finalize",
    "checkers.architecture.finalize",
    "iso26262.assess",
    "report.render",
    "parallel.run_tasks",
    "store.get",
    "store.put",
    "store.absorb",
    "store.history_append",
    "serve.handle",
    "serve.poll",
    "serve.diff",
    "obs.run_record",
)


def _add(table: Dict[str, float], name: str, value: float) -> None:
    table[name] = table.get(name, 0.0) + value


class LayerClock:
    """Self-time and count accumulators behind the layer wrappers.

    Attributes:
        self_s: layer -> self seconds spent in this process.
        worker_s: layer -> self seconds spent in pool workers.
        counts: counter name -> total, from both processes.
        excluded_s: seconds spent in the clock's own bookkeeping
            (re-pickling IPC payloads, sizing store entries) inside a
            traced operation; the caller subtracts it from the
            operation's wall time.
    """

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.self_s: Dict[str, float] = {}
        self.worker_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.excluded_s = 0.0
        self._stack: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers

    def timed(self, layer: str, function: Callable,
              after: Optional[Callable] = None) -> Callable:
        """``function`` with its self time charged to ``layer``.

        ``after(clock, result, args)`` runs once the call returns, for
        counts; its own cost is excluded from every enclosing layer and
        from the operation's wall time.
        """
        clock = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = clock._stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return_value = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                _add(clock.self_s, layer, elapsed - stack.pop())
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                start = time.perf_counter()
                after(clock, return_value, args)
                spent = time.perf_counter() - start
                clock.excluded_s += spent
                if stack:
                    stack[-1] += spent
            return return_value

        return wrapper

    def shipping(self, function: Callable) -> Callable:
        """A pool task function that spools its worker's layer times.

        ``functools.wraps`` keeps the task function's module and
        qualified name, so the pool pickles the wrapper by the same
        reference, and the forked worker resolves it to the wrapper.
        """
        clock = self

        @functools.wraps(function)
        def wrapper(task):
            if os.getpid() == clock.pid:
                return function(task)  # serial fallback in the parent
            before_s = dict(clock.self_s)
            before_counts = dict(clock.counts)
            return_value = function(task)
            delta = {
                "self_s": {name: value - before_s.get(name, 0.0)
                           for name, value in clock.self_s.items()},
                "counts": {name: value - before_counts.get(name, 0.0)
                           for name, value in clock.counts.items()},
            }
            path = os.path.join(
                clock.spool_dir,
                f"worker-{os.getpid()}-{time.monotonic_ns()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(delta, handle)
            return return_value

        return wrapper

    def collect_workers(self) -> None:
        """Fold (and delete) the spool files workers left behind."""
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.startswith("worker-"):
                continue
            path = os.path.join(self.spool_dir, name)
            with open(path, encoding="utf-8") as handle:
                delta = json.load(handle)
            os.remove(path)
            for layer, value in delta["self_s"].items():
                _add(self.worker_s, layer, value)
            for counter, value in delta["counts"].items():
                _add(self.counts, counter, value)

    # ------------------------------------------------------------------
    # installation

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Swap every layer entry point for its timing wrapper."""
        import repro.core.parallel as parallel
        import repro.core.pipeline as pipeline
        import repro.lang.cppmodel as cppmodel
        import repro.report.model as report_model
        import repro.serve.server as server
        from repro.checkers.architecture import ArchitectureChecker
        from repro.checkers.base import Checker
        from repro.checkers.unitdesign import UnitDesignChecker
        from repro.core.pipeline import AssessmentPipeline
        from repro.iso26262.compliance import ComplianceEngine
        from repro.report.base import JsonReporter
        from repro.serve.server import AssessmentServer
        from repro.serve.watcher import TreeWatcher
        from repro.store.history import RunHistory
        from repro.store.objects import CACHE_MISS, ObjectStore

        def count_tokens(clock, tokens, args):
            _add(clock.counts, "lexer.tokens", len(tokens))

        def count_sweep(clock, bundle, args):
            _add(clock.counts, "engine.units_swept", 1)

        def count_ipc(clock, results, args):
            tasks = args[1]
            _add(clock.counts, "parallel.ipc_bytes",
                 len(pickle.dumps(list(tasks)))
                 + len(pickle.dumps(results)))

        def count_get(clock, value, args):
            _add(clock.counts, "store.gets", 1)
            if value is not CACHE_MISS:
                _add(clock.counts, "store.hits", 1)

        def count_put(clock, written, args):
            if written:
                area, key = args[0], args[1]
                _add(clock.counts, "store.puts", 1)
                _add(clock.counts, "store.put_bytes", os.path.getsize(
                    area.entry_path(key, area.write_root)))

        model = self.timed("cppmodel.model",
                           vars(pipeline)["parse_translation_unit"])
        sweep = self.timed("engine.sweep",
                           vars(pipeline)["fused_unit_bundle"],
                           count_sweep)
        diff_layer = {name: self.timed("serve.diff", vars(server)[name])
                      for name in ("finding_diff", "diff_assessments",
                                   "gap_reduction")}
        patches = [
            (AssessmentPipeline, "run",
             self.timed("pipeline.run", vars(AssessmentPipeline)["run"])),
            (cppmodel, "tokenize",
             self.timed("lexer.tokenize", cppmodel.tokenize,
                        count_tokens)),
            (pipeline, "parse_translation_unit", model),
            (parallel, "parse_translation_unit", model),
            (pipeline, "fused_unit_bundle", sweep),
            (parallel, "fused_unit_bundle", sweep),
            (pipeline, "measure_module",
             self.timed("metrics.measure", pipeline.measure_module)),
            (Checker, "finish_from_units",
             self.timed("checkers.finalize",
                        vars(Checker)["finish_from_units"])),
            (UnitDesignChecker, "finish_from_units",
             self.timed("checkers.unit_design.finalize",
                        vars(UnitDesignChecker)["finish_from_units"])),
            (ArchitectureChecker, "check_project",
             self.timed("checkers.architecture.finalize",
                        vars(ArchitectureChecker)["check_project"])),
            (ComplianceEngine, "assess_all",
             self.timed("iso26262.assess",
                        vars(ComplianceEngine)["assess_all"])),
            (pipeline, "generate_observations",
             self.timed("iso26262.assess",
                        pipeline.generate_observations)),
            (report_model, "build_report_model",
             self.timed("report.render",
                        report_model.build_report_model)),
            (JsonReporter, "render",
             self.timed("report.render", vars(JsonReporter)["render"])),
            (pipeline, "run_tasks",
             self.timed("parallel.run_tasks", pipeline.run_tasks,
                        count_ipc)),
            (ObjectStore, "get",
             self.timed("store.get", vars(ObjectStore)["get"],
                        count_get)),
            (ObjectStore, "put",
             self.timed("store.put", vars(ObjectStore)["put"],
                        count_put)),
            (ObjectStore, "absorb",
             self.timed("store.absorb", vars(ObjectStore)["absorb"])),
            (RunHistory, "append",
             self.timed("store.history_append",
                        vars(RunHistory)["append"])),
            (AssessmentServer, "handle",
             self.timed("serve.handle", vars(AssessmentServer)["handle"])),
            (TreeWatcher, "poll",
             self.timed("serve.poll", vars(TreeWatcher)["poll"])),
            (server, "build_run_record",
             self.timed("obs.run_record", server.build_run_record)),
        ]
        patches.extend((server, name, wrapper)
                       for name, wrapper in diff_layer.items())
        for name in ("run_parse_task", "run_check_task"):
            shipped = self.shipping(vars(parallel)[name])
            patches.append((parallel, name, shipped))
            patches.append((pipeline, name, shipped))
        for owner, attribute, replacement in patches:
            self._patch(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
