"""The three benchmark workloads, driven in-process through the public API.

Each workload has a ``setup`` (timed as ``setup_s``) and an ``op`` that
performs one timed operation and checks its output.  ``op`` returns
``(timings, ok)``: ``timings`` maps ``"assess"`` and ``"edit"`` to wall
seconds, measured with the collector idle and the previous operation's
results dropped.

* ``cold-serial``: one full cold assessment plus the JSON report, no
  store.  Lexer, model and the fused sweep do nearly all the work.
* ``fanout-store``: the same assessment with two process workers and a
  fresh on-disk store per operation.  Pool IPC and store writes and
  absorbs dominate.
* ``serve-edit``: one hot ``AssessmentServer`` over an on-disk tree and
  store; each operation plants a function in one file and sends
  ``assess`` and ``diff``.  Store reads and whole-corpus work per edit
  dominate; the lexer sees one file.

Without the daemon, a user sees an edit's effect by running one cold
assessment, so on the two cold workloads ``edit`` is the same operation
as ``assess``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from typing import Dict, Optional, Tuple

import repro.report.model as report_model
from repro import PipelineConfig, Tracer, apollo_spec, assess_sources
from repro.corpus import generate_corpus
from repro.corpus.writer import write_corpus
from repro.report.base import JsonReporter
from repro.serve import AssessmentServer
from repro.store import Store

#: The trailing block ``serve-edit`` rewrites; the cast sits on
#: ``_CAST_OFFSET`` lines after the block's first line.
_EDIT_BEGIN = "// perfbench-edit-begin\n"
_EDIT_BLOCK = (_EDIT_BEGIN
               + "int perfbench_edit_{n}(int value) {{\n"
               + "    if (value < 0) {{\n"
               + "        return 0;\n"
               + "    }}\n"
               + "    return (int)(value * 3);\n"
               + "}}\n"
               + "// perfbench-edit-end\n")
_CAST_OFFSET = 5

Timings = Dict[str, float]


def render_json(result, sources) -> str:
    """The ``--json`` report of one assessment."""
    return JsonReporter().render(
        report_model.build_report_model(result, sources))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_bytes(root: str) -> int:
    """Bytes of every regular file under ``root``."""
    total = 0
    for directory, _, names in os.walk(root):
        for name in names:
            total += os.path.getsize(os.path.join(directory, name))
    return total


class Workload:
    """One workload over the seeded corpus at ``scale``."""

    name = ""
    #: Pool workers and kind the workload runs the pipeline with.
    jobs = 1
    executor = "serial"

    def __init__(self, seed: int, scale: float, work_dir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.sources: Dict[str, str] = {}
        #: Seconds the last setup spent generating / writing the corpus.
        self.generate_s = 0.0
        self.write_s = 0.0
        #: Store bytes on disk, per operation or at the end; ``None``
        #: when the workload has no store.
        self.store_bytes: Optional[int] = None

    def generate(self) -> None:
        start = time.perf_counter()
        corpus = generate_corpus(apollo_spec(scale=self.scale,
                                             seed=self.seed))
        self.generate_s = time.perf_counter() - start
        self.corpus = corpus
        self.sources = corpus.sources()

    def prepare(self) -> None:
        """Compute output oracles, once and outside every timing."""

    def setup(self) -> bool:
        """Build the workload's state; True when its outputs check.

        By default: generate the corpus and run one discarded operation.
        """
        self.generate()
        timings, ok = self.op()
        return ok

    def op(self, tracer: Optional[Tracer] = None) -> Tuple[Timings, bool]:
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop state between setups and at the end."""


class ColdSerial(Workload):
    name = "cold-serial"
    #: Digest of the first setup's JSON; every later one must match it.
    reference: Optional[str] = None

    def op(self, tracer: Optional[Tracer] = None) -> Tuple[Timings, bool]:
        gc.collect()
        start = time.perf_counter()
        result = assess_sources(self.sources)
        text = render_json(result, self.sources)
        elapsed = time.perf_counter() - start
        if self.reference is None:
            self.reference = digest(text)
        ok = not result.degraded and digest(text) == self.reference
        return {"assess": elapsed, "edit": elapsed}, ok


class FanoutStore(Workload):
    name = "fanout-store"
    jobs = 2
    executor = "process"

    def prepare(self) -> None:
        # The oracle: the serial output for the same seed and scale.
        self.generate()
        self.reference = render_json(assess_sources(self.sources),
                                     self.sources)

    def op(self, tracer: Optional[Tracer] = None) -> Tuple[Timings, bool]:
        root = tempfile.mkdtemp(prefix="store-", dir=self.work_dir)
        try:
            gc.collect()
            start = time.perf_counter()
            config = PipelineConfig(jobs=self.jobs, executor=self.executor,
                                    cache=Store(root).object_store(),
                                    tracer=tracer)
            result = assess_sources(self.sources, config)
            text = render_json(result, self.sources)
            elapsed = time.perf_counter() - start
            self.store_bytes = tree_bytes(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        ok = not result.degraded and text == self.reference
        return {"assess": elapsed, "edit": elapsed}, ok


class ServeEdit(Workload):
    name = "serve-edit"
    #: Directory holding the current tree and store.
    root: Optional[str] = None

    def setup(self) -> bool:
        self.root = tempfile.mkdtemp(prefix="serve-", dir=self.work_dir)
        tree = os.path.join(self.root, "tree")
        self.generate()
        start = time.perf_counter()
        write_corpus(self.corpus, tree)
        self.write_s = time.perf_counter() - start
        self.tree = tree
        self.current = dict(self.sources)
        self.paths = sorted(self.sources)
        self.rng = random.Random(self.seed)
        self.edits = 0
        self.server = AssessmentServer(
            tree, store=Store(os.path.join(self.root, "store")))
        first = self.server.handle_line('{"id": 0, "verb": "assess"}')
        ok = (first.get("ok") is True and not first.get("degraded")
              and first["cache"]["misses"] == 2 * len(self.paths))
        timings, edit_ok = self.op()
        return ok and edit_ok

    def _plant(self) -> Tuple[str, str, int]:
        """Rewrite one file's trailing block; returns (path, text, line
        of the planted cast)."""
        path = self.rng.choice(self.paths)
        text = self.current[path]
        cut = text.find(_EDIT_BEGIN)
        if cut >= 0:
            text = text[:cut]
        elif not text.endswith("\n"):
            text += "\n"
        self.edits += 1
        line = text.count("\n") + 1 + _CAST_OFFSET
        text += _EDIT_BLOCK.format(n=self.edits)
        self.current[path] = text
        return path, text, line

    def op(self, tracer: Optional[Tracer] = None) -> Tuple[Timings, bool]:
        path, text, line = self._plant()
        target = os.path.join(self.tree, path)
        number = self.edits
        gc.collect()
        start = time.perf_counter()
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
        assessed = self.server.handle_line(
            json.dumps({"id": number, "verb": "assess"}))
        middle = time.perf_counter()
        diff = self.server.handle_line(
            json.dumps({"id": number, "verb": "diff"}))
        end = time.perf_counter()
        # A re-planted cast can land on the line the file's previous
        # plant used, so it is checked in the assessment; the function
        # name is fresh, so its multi-exit finding must be new in the
        # diff.
        cast = f"{path}:{line}: [ST.c_cast]"
        exits = f"'perfbench_edit_{number}' has 2 exit points"
        ok = (assessed.get("ok") is True and diff.get("ok") is True
              and not assessed.get("degraded")
              and not diff.get("degraded")
              and assessed["cache"]["misses"] == 2
              and any(finding.startswith(cast)
                      for findings in assessed["findings"].values()
                      for finding in findings)
              and any(exits in finding
                      for finding in diff["findings"]["new"]))
        return {"assess": middle - start, "edit": end - start}, ok

    def teardown(self) -> None:
        if self.root is not None:
            self.store_bytes = tree_bytes(os.path.join(self.root, "store"))
            self.server = None
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


WORKLOADS = {workload.name: workload
             for workload in (ColdSerial, FanoutStore, ServeEdit)}
