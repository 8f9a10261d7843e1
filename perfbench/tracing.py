"""Per-layer timing of the traced run, from outside the program.

:class:`Tracer` replaces public functions of the program's layers with
timing wrappers for the duration of a traced round and restores them
afterwards; untraced rounds run the program untouched. A wrapper times
only the outermost call of its key, so recursion or a function reached
through two module bindings (``segmentation.swab`` and the name
``branches`` imported) is counted once.

Fleet jobs run in forked worker processes, which inherit the wrappers
but not a way back to the parent. :func:`install` therefore also routes
the fleet's job function through :func:`traced_fleet_job`, which saves
each job's totals to a file the parent merges after the sweep.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

#: The tracer a forked fleet worker inherited from the traced parent.
_active = None


class Tracer:
    """Call counts, inclusive seconds, samples and amounts per key."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.samples = defaultdict(list)
        self.amounts = defaultdict(int)
        self._depth = defaultdict(int)
        self._patches = []
        self.pid = os.getpid()

    def reset(self):
        for table in (self.seconds, self.calls, self.samples, self.amounts):
            table.clear()

    def state(self):
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "amounts": dict(self.amounts),
        }

    def merge(self, state):
        for key, value in state["seconds"].items():
            self.seconds[key] += value
        for key, value in state["calls"].items():
            self.calls[key] += value
        for key, value in state["samples"].items():
            self.samples[key].extend(value)
        for key, value in state["amounts"].items():
            self.amounts[key] += value

    def wrap(self, owner, attr, key, sample=False, amount=None):
        """Time calls to ``owner.attr`` under *key* until :meth:`remove`.

        ``sample`` keeps every call's seconds (for medians); ``amount``
        maps a call's result to a quantity summed into ``amounts``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._depth[key]:
                return original(*args, **kwargs)
            tracer._depth[key] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._depth[key] -= 1
            tracer.seconds[key] += elapsed
            tracer.calls[key] += 1
            if sample:
                tracer.samples[key].append(elapsed)
            if amount is not None:
                tracer.amounts[key] += amount(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def remove(self):
        global _active
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if _active is self:
            _active = None


def install(tracer, job_dir=None):
    """Wrap the layers' public entry points; returns *tracer*.

    *job_dir*, when given, is where forked fleet jobs save their totals.
    """
    global _active
    from repro.analysis import outliers, segmentation, smoothing
    from repro.analysis.sax import SaxEncoder
    from repro.core import branches, classification, incremental
    from repro.core.pipeline import PreprocessingPipeline
    from repro.engine.table import Table
    from repro.fleet import orchestrator
    from repro.fleet.checkpoint import CheckpointStore
    from repro.stream.checkpoint import StreamCheckpointer
    from repro.tracefile import asciilog, binlog, colbin

    count_rows = Table.count

    def rows_of(loaded):
        return len(loaded) if isinstance(loaded, list) else count_rows(loaded)

    for codec in (asciilog, binlog, colbin):
        tracer.wrap(codec, "load_table", "tracefile.load", amount=rows_of)
        tracer.wrap(codec, "load_records", "tracefile.load", amount=rows_of)

    tracer.wrap(PreprocessingPipeline, "run", "core.run")
    tracer.wrap(classification, "classify", "core.classify")
    tracer.wrap(incremental, "classify", "core.classify")
    tracer.wrap(incremental, "process_branch", "core.branch")
    tracer.wrap(incremental, "apply_extensions", "core.extend")
    tracer.wrap(incremental, "merge_results", "core.merge")
    tracer.wrap(incremental.IncrementalRunner, "process_window",
                "stream.window", sample=True)

    tracer.wrap(segmentation, "swab", "analysis.swab")
    tracer.wrap(branches, "swab", "analysis.swab")
    tracer.wrap(segmentation, "bottom_up", "analysis.bottom_up")
    tracer.wrap(segmentation, "fit_segment", "analysis.fit_segment")
    tracer.wrap(SaxEncoder, "symbol_for_level", "analysis.sax")
    for smoother in (smoothing.MovingAverage, smoothing.ExponentialSmoothing,
                     smoothing.MedianFilter):
        tracer.wrap(smoother, "smooth", "analysis.smooth")
    for detector in (outliers.ZScoreDetector, outliers.IqrDetector,
                     outliers.HampelDetector):
        tracer.wrap(detector, "mask", "analysis.outlier")

    tracer.wrap(Table, "cache", "engine.cache")
    tracer.wrap(Table, "count", "engine.count")

    tracer.wrap(StreamCheckpointer, "save_session", "stream.checkpoint",
                sample=True, amount=os.path.getsize)
    tracer.wrap(CheckpointStore, "save", "fleet.checkpoint",
                amount=os.path.getsize)
    tracer.wrap(orchestrator, "_aggregate", "fleet.aggregate")
    if job_dir is not None:
        make_runner = orchestrator.make_runner

        def traced_runner(**kwargs):
            kwargs["fn"] = functools.partial(traced_fleet_job, str(job_dir))
            return make_runner(**kwargs)

        orchestrator.make_runner = traced_runner
        tracer._patches.append((orchestrator, "make_runner", make_runner))
    _active = tracer
    return tracer


def traced_fleet_job(job_dir, payload):
    """Run one fleet job in a worker and save the worker's totals.

    Module-level so the fleet's process pool can send it to workers. A
    job run in the traced process itself (a one-worker sweep) records
    straight into the parent's tracer.
    """
    from repro.fleet.workers import execute_trace_job

    tracer = _active
    if tracer.pid == os.getpid():
        return execute_trace_job(payload)
    tracer.reset()
    try:
        return execute_trace_job(payload)
    finally:
        path = Path(job_dir) / "{}-{}.json".format(
            payload["job_id"], os.getpid()
        )
        path.write_text(json.dumps(tracer.state()), encoding="utf-8")


def merge_job_files(tracer, job_dir):
    """Fold the totals saved by :func:`traced_fleet_job` into *tracer*."""
    for path in sorted(Path(job_dir).glob("*.json")):
        tracer.merge(json.loads(path.read_text(encoding="utf-8")))
        path.unlink()
