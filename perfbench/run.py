"""The repository benchmark: ISO 26262-6 assessment workloads, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-serial --seed 1 --seconds 30 --trace 0

It generates the seeded Apollo-like corpus, sets the workload up
``SETUP_REPEATS`` times (``setup_s`` is their median), then runs timed
operations for ``--seconds`` and checks every operation's output.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the input and host the numbers were measured on.

Reported times are *reference seconds* (see ``probe.py``): each timed
setup and operation is scaled by a host-speed probe taken around it,
because the shared host's speed drifts far more than one run can
average out.  The raw wall-second medians are recorded on the line
before the result.

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced operations with operations traced by
the wrappers in ``layers.py`` and reports per-layer metrics: seconds
and counts per operation, the time no layer accounts for, and the
tracing overhead (traced against untraced median).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List

from probe import HostProbe, reference_seconds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed operations every run makes, however long they take.
MIN_OPS = 4
#: Corpus scale: about 150 files and 0.55 MB of source.
DEFAULT_SCALE = 0.1
#: Seconds to wait for pool workers to exit before reporting.
REAP_SECONDS = 60
MB = 1024.0 * 1024.0


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark the ISO 26262-6 assessment workloads.")
    parser.add_argument("--workload", required=True,
                        choices=("cold-serial", "fanout-store",
                                 "serve-edit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="corpus scale (the smoke test runs 0.02)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")
    return args


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def p75(values: List[float]) -> float:
    return statistics.quantiles(values, n=4)[2]


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def reap_children() -> None:
    """Wait until every pool worker this process started has exited."""
    deadline = time.monotonic() + REAP_SECONDS
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.05)


def count_tokens(sources: Dict[str, str]) -> int:
    from repro.lang.lexer import tokenize
    return sum(len(tokenize(text, path, strict=False))
               for path, text in sources.items())


class Runner:
    """Runs one workload's setups and timed operations."""

    def __init__(self, workload, seconds: int) -> None:
        self.workload = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.setup_ok = True
        self.setup_s: List[float] = []
        self.probe = HostProbe(workload.jobs)
        self.setup_probes: List[float] = []
        #: Raw wall-second medians, recorded next to the result.
        self.wall: Dict[str, float] = {}

    def setup(self, repeats: int) -> None:
        self.workload.prepare()
        self.setup_probes.append(self.probe())
        for _ in range(repeats):
            self.workload.teardown()
            start = time.perf_counter()
            ok = self.workload.setup()
            self.setup_s.append(time.perf_counter() - start)
            self.setup_probes.append(self.probe())
            self.setup_ok = self.setup_ok and ok

    def loop(self, operation) -> None:
        """Call ``operation(index)`` until the next would overrun the
        run's seconds (after at least ``MIN_OPS`` calls)."""
        durations: List[float] = []
        start = time.perf_counter()
        while (len(durations) < MIN_OPS
               or time.perf_counter() - start
               + statistics.median(durations) <= self.seconds):
            began = time.perf_counter()
            self.attempted += 1
            try:
                ok = operation(len(durations))
            except Exception:  # a failed operation, not a failed run
                traceback.print_exc()
                ok = False
            if not ok:
                self.failed += 1
            durations.append(time.perf_counter() - began)

    # ------------------------------------------------------------------

    def untraced(self) -> Dict:
        samples: Dict[str, List[float]] = {"assess": [], "edit": []}
        probes: List[float] = []

        def operation(index: int) -> bool:
            timings, ok = self.workload.op()
            for name in samples:
                samples[name].append(timings[name])
            probes.append(self.probe())
            return ok

        self.setup(SETUP_REPEATS)
        probes.append(self.setup_probes[-1])
        self.loop(operation)
        self.wall = {"setup_s": statistics.median(self.setup_s),
                     "assess_s": statistics.median(samples["assess"]),
                     "edit_s": statistics.median(samples["edit"]),
                     "probe_s": statistics.median(probes)}
        setup = reference_seconds(self.setup_s, self.setup_probes)
        assess = reference_seconds(samples["assess"], probes)
        edit = reference_seconds(samples["edit"], probes)
        return {
            "setup_s": metric(statistics.median(setup), "s"),
            "assess_s": metric(statistics.median(assess), "s"),
            "edit_s": metric(statistics.median(edit), "s"),
            "edit_p75_s": metric(p75(edit), "s"),
        }

    def traced(self, spool_dir: str) -> Dict:
        from layers import LAYERS, LayerClock
        from repro import Tracer

        clock = LayerClock(spool_dir)
        workload = self.workload
        untraced: List[float] = []
        traced: List[float] = []
        unattributed: List[float] = []
        busy = 0.0

        def operation(index: int) -> bool:
            nonlocal busy
            if index % 2 == 0:
                timings, ok = workload.op()
                untraced.append(timings["edit"])
                return ok
            tracer = Tracer() if workload.jobs > 1 else None
            excluded = clock.excluded_s
            before = sum(clock.self_s.values())
            clock.install()
            try:
                timings, ok = workload.op(tracer)
            finally:
                clock.uninstall()
            wall = timings["edit"] - (clock.excluded_s - excluded)
            traced.append(wall)
            unattributed.append(wall - (sum(clock.self_s.values())
                                        - before))
            clock.collect_workers()
            if tracer is not None:
                busy += sum(span.duration for root in tracer.roots
                            for span in root.walk()
                            if span.name in ("parse_worker",
                                             "checker_worker"))
            return ok

        self.setup(1)
        self.loop(operation)
        ops = len(traced)

        def per_op(name: str) -> float:
            return (clock.self_s.get(name, 0.0)
                    + clock.worker_s.get(name, 0.0)) / ops

        def count(name: str) -> float:
            return clock.counts.get(name, 0.0) / ops

        metrics = {f"{layer}_s": metric(per_op(layer), "s")
                   for layer in LAYERS}
        run_tasks = clock.self_s.get("parallel.run_tasks", 0.0)
        gets = clock.counts.get("store.gets", 0.0)
        metrics.update({
            "lexer.tokens": metric(count("lexer.tokens"), "count"),
            "engine.units_swept": metric(count("engine.units_swept"),
                                         "count"),
            "parallel.ipc_mb": metric(count("parallel.ipc_bytes") / MB,
                                      "MB"),
            "parallel.worker_busy_ratio": metric(
                busy / (run_tasks * workload.jobs)
                if run_tasks else 0.0, "ratio"),
            "store.puts": metric(count("store.puts"), "count"),
            "store.put_mb": metric(count("store.put_bytes") / MB, "MB"),
            "store.gets": metric(count("store.gets"), "count"),
            "store.hit_ratio": metric(
                clock.counts.get("store.hits", 0.0) / gets
                if gets else 0.0, "ratio"),
            "corpus.generate_s": metric(workload.generate_s, "s"),
            "corpus.write_s": metric(workload.write_s, "s"),
            "unattributed_s": metric(statistics.mean(unattributed), "s"),
            "trace.traced_s": metric(statistics.median(traced), "s"),
            "trace.untraced_s": metric(statistics.median(untraced), "s"),
            "trace.overhead": metric(
                statistics.median(traced) / statistics.median(untraced)
                - 1.0, "ratio"),
        })
        return metrics


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print("perfbench: no program sources at src/repro; run it from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    from workloads import WORKLOADS

    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale,
                                            work_dir)
        runner = Runner(workload, args.seconds)
        try:
            if args.trace:
                metrics = runner.traced(work_dir)
            else:
                metrics = runner.untraced()
        finally:
            workload.teardown()
            runner.probe.close()
            reap_children()
        if args.trace:
            metrics["store_mb"] = metric(
                (workload.store_bytes or 0) / MB, "MB")
            metrics["error_rate"] = metric(
                runner.failed / runner.attempted, "ratio")
        else:
            metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
        sources = workload.sources
        properties = {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "files": len(sources),
            "bytes": sum(len(text.encode("utf-8"))
                         for text in sources.values()),
            "tokens": count_tokens(sources),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "jobs": workload.jobs,
            "executor": workload.executor,
            "trace": args.trace,
            "ops": runner.attempted,
            "setups": len(runner.setup_s),
            "wall": runner.wall,
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    print(json.dumps({"input": properties}, sort_keys=True))
    print(json.dumps({
        "correct": runner.setup_ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
