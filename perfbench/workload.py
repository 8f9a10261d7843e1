"""One benchmark workload in a fresh process.

``run.py`` starts this file once per set-up sample and once more for
the measured rounds, so that import and set-up costs are paid the way
every CLI invocation pays them, and so that the process's peak memory
belongs to one workload alone::

    python3 perfbench/workload.py --work-dir DIR --phase setup|measure \\
        --seconds S --trace 0|1

The process prints ``READY <json>`` as soon as it is set up -- the
moment before it reads its first frame -- and, in the measure phase,
``RESULT <json>`` after its rounds and checks. A round is one journey
(``syn-journey``), one fleet sweep (``sta-fleet``) or one replay of
every vehicle through the stream service (``syn-stream``); rounds repeat
until ``--seconds`` have passed. With ``--trace 1`` every second round
runs with the layer wrappers of :mod:`tracing` installed and reports
per-layer metrics.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

#: Algorithm 1 stages that carry a span in the pipeline's run report.
STAGES = ("preselect", "interpret", "split", "reduce", "extend", "branch",
          "merge")

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("tracefile.load_s", "s", "lower"),
    ("tracefile.rows", "count", "higher"),
    ("core.preselect_s", "s", "lower"),
    ("core.interpret_s", "s", "lower"),
    ("core.split_s", "s", "lower"),
    ("core.reduce_s", "s", "lower"),
    ("core.extend_s", "s", "lower"),
    ("core.branch_s", "s", "lower"),
    ("core.merge_s", "s", "lower"),
    ("core.unattributed_s", "s", "lower"),
    ("core.classify_s", "s", "lower"),
    ("core.k_pre_rows", "count", "lower"),
    ("core.k_s_rows", "count", "lower"),
    ("core.reduced_rows", "count", "lower"),
    ("core.r_out_rows", "count", "lower"),
    ("analysis.swab_s", "s", "lower"),
    ("analysis.swab_calls", "count", "lower"),
    ("analysis.bottom_up_calls", "count", "lower"),
    ("analysis.fit_segment_calls", "count", "lower"),
    ("analysis.sax_s", "s", "lower"),
    ("analysis.smooth_s", "s", "lower"),
    ("analysis.outlier_s", "s", "lower"),
    ("engine.tasks", "count", "lower"),
    ("engine.columnar_tasks", "count", "higher"),
    ("engine.columnar_join_tasks", "count", "higher"),
    ("engine.columnar_shuffle_tasks", "count", "higher"),
    ("engine.columnar_fallbacks", "count", "lower"),
    ("engine.kernels_compiled", "count", "lower"),
    ("engine.kernel_fallbacks", "count", "lower"),
    ("engine.splits", "count", "lower"),
    ("engine.cache_s", "s", "lower"),
    ("engine.count_s", "s", "lower"),
    ("stream.window_s", "s", "lower"),
    ("stream.windows_sealed", "count", "higher"),
    ("stream.checkpoints", "count", "lower"),
    ("stream.checkpoint_s", "s", "lower"),
    ("stream.checkpoint_p50_s", "s", "lower"),
    ("stream.checkpoint_bytes", "bytes", "lower"),
    ("stream.queue_high_water", "count", "lower"),
    ("stream.late_dropped", "count", "lower"),
    ("fleet.job_s", "s", "lower"),
    ("fleet.jobs_executed", "count", "higher"),
    ("fleet.checkpoint_s", "s", "lower"),
    ("fleet.checkpoint_bytes", "bytes", "lower"),
    ("fleet.result_bytes", "bytes", "lower"),
    ("fleet.aggregate_s", "s", "lower"),
    ("fleet.catalog_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.config_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)

#: Stream service settings of ``syn-stream``.
WINDOW_SECONDS = 1.0
GRACE_SECONDS = 0.5
CHECKPOINT_EVERY = 500


def _median(values):
    return statistics.median(values) if values else 0.0


def _executor_layers(counters):
    def get(name):
        return counters.get("executor." + name, 0)

    return {
        "engine.tasks": get("tasks_run"),
        "engine.columnar_tasks": get("columnar_tasks"),
        "engine.columnar_join_tasks": get("columnar_join_tasks"),
        "engine.columnar_shuffle_tasks": get("columnar_shuffle_tasks"),
        "engine.columnar_fallbacks": get("columnar_fallbacks"),
        "engine.kernels_compiled": get("kernels_compiled"),
        "engine.kernel_fallbacks": get("kernel_fallbacks"),
        "engine.splits": get("splits"),
    }


def _traced_layers(tracer):
    """Layer metrics every workload takes from the wrappers alone."""
    sec, calls = tracer.seconds, tracer.calls
    return {
        "tracefile.load_s": sec["tracefile.load"],
        "tracefile.rows": tracer.amounts["tracefile.load"],
        "core.classify_s": sec["core.classify"],
        "analysis.swab_s": sec["analysis.swab"],
        "analysis.swab_calls": calls["analysis.swab"],
        "analysis.bottom_up_calls": calls["analysis.bottom_up"],
        "analysis.fit_segment_calls": calls["analysis.fit_segment"],
        "analysis.sax_s": sec["analysis.sax"],
        "analysis.smooth_s": sec["analysis.smooth"],
        "analysis.outlier_s": sec["analysis.outlier"],
        "engine.cache_s": sec["engine.cache"],
        "engine.count_s": sec["engine.count"],
        "stream.window_s": _median(tracer.samples["stream.window"]),
        "stream.checkpoint_s": sec["stream.checkpoint"],
        "stream.checkpoint_p50_s": _median(
            tracer.samples["stream.checkpoint"]),
        "stream.checkpoint_bytes": tracer.amounts["stream.checkpoint"],
        "fleet.checkpoint_s": sec["fleet.checkpoint"],
        "fleet.checkpoint_bytes": tracer.amounts["fleet.checkpoint"],
        "fleet.aggregate_s": sec["fleet.aggregate"],
    }


def _stage_layers(stage_seconds, run_seconds, counters):
    """Core metrics from the pipeline's own stage spans and counters."""
    out = {"core.{}_s".format(s): stage_seconds.get(s, 0.0) for s in STAGES}
    out["core.unattributed_s"] = run_seconds - sum(stage_seconds.values())
    out["core.k_pre_rows"] = counters.get("pipeline.preselect.rows_out", 0)
    out["core.k_s_rows"] = counters.get("pipeline.interpret.rows_out", 0)
    out["core.reduced_rows"] = counters.get("pipeline.reduce.rows_out", 0)
    out["core.r_out_rows"] = counters.get("pipeline.merge.rows_out", 0)
    out.update(_executor_layers(counters))
    return out


class Round:
    """Timings, operation counts and outputs of one round."""

    def __init__(self, wall, journey_s, finalize_s, frames_per_s,
                 attempted, outputs):
        self.wall = wall
        self.journey_s = journey_s
        self.finalize_s = finalize_s
        self.frames_per_s = frames_per_s
        self.attempted = attempted
        self.failed = 0
        self.outputs = outputs


class Workload:
    """Shared plumbing: manifest, parameter document and traces."""

    operations = 1
    #: Move the (single-threaded) measuring process to the next CPU
    #: between rounds; see :func:`measure`.
    pin_rounds = True

    def __init__(self, work_dir):
        self.work_dir = Path(work_dir)
        self.manifest = json.loads(
            (self.work_dir / "manifest.json").read_text(encoding="utf-8"))
        self.params_path = self.work_dir / self.manifest["params"]
        self.document = json.loads(self.params_path.read_text(
            encoding="utf-8"))
        self.traces = [self.work_dir / t for t in self.manifest["traces"]]
        self.frames = self.manifest["frames"]
        self.setup_times = {}

    def _imports(self):
        start = time.perf_counter()
        import repro.core.pipeline  # noqa: F401  (pulls in every layer)
        import repro.fleet  # noqa: F401
        import repro.stream  # noqa: F401

        self.imported = time.perf_counter()
        self.setup_times["import_s"] = self.imported - start

    def _config(self):
        """Database, PipelineConfig from the document, engine context."""
        from repro.core.params import load_config
        from repro.datasets import SPECS, build_dataset
        from repro.engine import EngineContext

        database = build_dataset(SPECS[self.manifest["dataset"]]).database
        self.config = load_config(self.params_path, database)
        self.context = EngineContext.serial()

    def prepare(self, index):
        """Fresh per-run state for round *index* >= 1 (untimed)."""

    def records(self, trace):
        from repro.tracefile import codec_for

        return codec_for(trace).load_records(trace)

    def references(self, trace, dedup=True):
        """Reference decode and split/reduction of one trace."""
        import checker

        records = self.records(trace)
        decoded = checker.decode(self.manifest["dataset"], records,
                                 self.document["signals"])
        refs = checker.reference(
            decoded, checker.reduction_limits(self.document), dedup=dedup)
        return records, decoded, refs


class SynJourney(Workload):
    """One SYN journey from a ``.trc`` file through the serial pipeline."""

    def setup(self):
        self._imports()
        self._config()
        from repro.core.pipeline import PreprocessingPipeline

        self.pipeline = PreprocessingPipeline(self.config)

    def prepare(self, index):
        from repro.engine import EngineContext

        self.context = EngineContext.serial()

    def round(self):
        from repro.tracefile import codec_for

        trace = self.traces[0]
        start = time.perf_counter()
        k_b = codec_for(trace).load_table(self.context, trace)
        loaded = time.perf_counter()
        result = self.pipeline.run(k_b)
        done = time.perf_counter()
        journey = done - start
        return Round(journey, journey, done - loaded,
                     self.frames[0] / journey, 1, result)

    def layers(self, rnd, tracer):
        report = rnd.outputs.report
        stages = {s: report.spans.seconds(s) for s in STAGES}
        out = _stage_layers(stages, tracer.seconds["core.run"],
                            report.metrics.counters())
        return out

    def capture(self, rnd):
        result = rnd.outputs
        return {
            "k_s": result.k_s.collect(),
            "outcomes": {
                s: (o.rows_before_reduction, o.rows_after_reduction)
                for s, o in result.outcomes.items()
            },
            "classification": {
                s: pair[1]
                for s, pair in result.classification_summary().items()
            },
            "r_out": result.r_out.collect(),
        }

    def same_output(self, first, rnd):
        return rnd.outputs.r_out.collect() == first["r_out"]

    def check(self, first):
        import checker

        _records, decoded, refs = self.references(self.traces[0])
        return checker.check_output(
            refs, checker.expected_branches(self.manifest["dataset"]),
            first["r_out"], k_s=first["k_s"], decoded=decoded,
            outcomes=first["outcomes"],
            classification=first["classification"],
            label=self.manifest["traces"][0])


class StaFleet(Workload):
    """A checkpointed fleet sweep over STA journeys on a process pool."""

    # Forked workers inherit the parent's CPU affinity, so pinning the
    # sweep's process would squeeze every worker onto one CPU.
    pin_rounds = False

    def __init__(self, work_dir):
        super().__init__(work_dir)
        self.operations = len(self.traces)
        self.workers = min(2, os.cpu_count() or 1)

    def setup(self):
        self._imports()
        from repro import fleet

        start = time.perf_counter()
        self.catalog = fleet.make_catalog(
            self.work_dir, self.traces, self.manifest["dataset"],
            self.document)
        self.setup_times["catalog_s"] = time.perf_counter() - start

    def prepare(self, index):
        for name in ("checkpoints", "failures", "output"):
            shutil.rmtree(self.work_dir / name, ignore_errors=True)
        for name in ("fleet-summary.json", "fleet-report.json"):
            path = self.work_dir / name
            if path.exists():
                path.unlink()

    def round(self):
        from repro import fleet

        start = time.perf_counter()
        result = fleet.run(self.work_dir, workers=self.workers)
        wall = time.perf_counter() - start
        rnd = Round(wall, wall / len(self.traces), wall,
                    sum(self.frames) / wall, len(self.traces), result)
        rnd.failed = len(self.traces) - len(result.executed)
        return rnd

    def layers(self, rnd, tracer):
        result = rnd.outputs
        histograms = result.report.metrics.histograms()
        stages = {
            s: histograms.get("fleet.stage_seconds." + s, {}).get(
                "total", 0.0)
            for s in STAGES
        }
        out = _stage_layers(stages, tracer.seconds["core.run"],
                            result.report.metrics.counters())
        job = result.registry.histograms().get("fleet.job_seconds", {})
        out["fleet.job_s"] = job.get("p50", 0.0)
        out["fleet.jobs_executed"] = len(result.executed)
        out["fleet.result_bytes"] = sum(
            p.stat().st_size
            for p in (self.work_dir / "output").rglob("*") if p.is_file())
        out["fleet.catalog_s"] = self.setup_times["catalog_s"]
        return out

    def _output_rows(self):
        from repro.engine import EngineContext, TableStore
        from repro.fleet import OUTPUT_TABLE

        return TableStore(self.work_dir / "output").read(
            EngineContext.serial(), OUTPUT_TABLE).collect()

    def capture(self, rnd):
        from repro.fleet import CheckpointStore

        store = CheckpointStore(self.work_dir)
        payloads = {}
        for job in self.catalog:
            payload = store.load(job.job_id)
            payloads[job.trace] = {
                "k_s": payload["counts"]["k_s"],
                "classification": {
                    s: pair[1]
                    for s, pair in payload["classification"].items()
                },
            }
        return {
            "failed": dict(rnd.outputs.failed),
            "executed": len(rnd.outputs.executed),
            "trace_rows": rnd.outputs.summary.get("trace_rows"),
            "payloads": payloads,
            "rows": self._output_rows(),
        }

    def same_output(self, first, rnd):
        return self._output_rows() == first["rows"]

    def check(self, first):
        import checker

        problems = []
        if first["failed"] or first["executed"] != len(self.traces):
            problems.append("fleet: {} of {} jobs executed, failures {}"
                            .format(first["executed"], len(self.traces),
                                    sorted(first["failed"])))
        if first["trace_rows"] != sum(self.frames):
            problems.append("fleet: summary trace_rows {} != {} frames "
                            "written".format(first["trace_rows"],
                                             sum(self.frames)))
        by_trace = {}
        for row in first["rows"]:
            by_trace.setdefault(row[-1], []).append(tuple(row[:-1]))
        branches = checker.expected_branches(self.manifest["dataset"])
        for name, trace in zip(self.manifest["traces"], self.traces):
            _records, decoded, refs = self.references(trace)
            payload = first["payloads"].get(name)
            if payload is None:
                problems.append("fleet: no checkpoint for " + name)
                continue
            decoded_rows = sum(len(v) for v in decoded.values())
            if payload["k_s"] != decoded_rows:
                problems.append("{}: K_s has {} rows, in-house decode {}"
                                .format(name, payload["k_s"], decoded_rows))
            problems.extend(checker.check_output(
                refs, branches, by_trace.get(name, []),
                classification=payload["classification"], label=name))
        return problems


class SynStream(Workload):
    """SYN vehicles replayed through the checkpointed stream service."""

    def __init__(self, work_dir):
        super().__init__(work_dir)
        self.operations = len(self.traces)
        self.vehicles = [t.stem for t in self.traces]

    def setup(self):
        self._imports()
        self._config()
        start = time.perf_counter()
        self.replays = [self.records(trace) for trace in self.traces]
        self.load_seconds = time.perf_counter() - start
        self._open(0)

    def _open(self, index):
        from repro.obs import MetricsRegistry
        from repro.stream import (ReplaySource, StreamConfig,
                                  StreamIngestService)

        run_dir = self.work_dir / "stream-{}-{}".format(os.getpid(), index)
        shutil.rmtree(run_dir, ignore_errors=True)
        self.run_dir = run_dir
        self.metrics = MetricsRegistry()
        self.service = StreamIngestService(
            run_dir,
            StreamConfig(window_seconds=WINDOW_SECONDS,
                         grace_seconds=GRACE_SECONDS,
                         checkpoint_every=CHECKPOINT_EVERY),
            metrics=self.metrics,
        )
        for vehicle, records in zip(self.vehicles, self.replays):
            self.service.add_vehicle(vehicle, ReplaySource(records),
                                     self.config, self.context)

    def prepare(self, index):
        from repro.engine import EngineContext

        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.context = EngineContext.serial()
        self._open(index)

    def round(self):
        import asyncio

        start = time.perf_counter()
        served = asyncio.run(self.service.serve())
        drained = time.perf_counter()
        finals = self.service.finalize_all()
        done = time.perf_counter()
        received = self.metrics.counters().get("stream.frames_received", 0)
        rnd = Round(done - start, (done - start) / len(self.vehicles),
                    done - drained, received / (drained - start),
                    len(self.vehicles), (served, finals))
        rnd.failed = sum(
            1 for summary in served.sessions.values()
            if not summary["drained"]) + (len(self.vehicles) - len(finals))
        return rnd

    def layers(self, rnd, tracer):
        served, finals = rnd.outputs
        counters = self.metrics.counters()
        gauges = self.metrics.gauges()
        stages = {
            "extend": tracer.seconds["core.extend"],
            "branch": tracer.seconds["core.branch"],
            "merge": tracer.seconds["core.merge"],
        }
        finalize_inner = sum(stages.values()) + tracer.seconds[
            "core.classify"]
        out = {"core.{}_s".format(s): stages.get(s, 0.0) for s in STAGES}
        out["core.unattributed_s"] = rnd.finalize_s - finalize_inner
        out["core.reduced_rows"] = sum(
            len(entry["reduced_rows"])
            for session in self.service.sessions.values()
            for entry in session.runner.export_state()["states"].values())
        out["core.r_out_rows"] = sum(f.r_out.count() for f in finals.values())
        out.update(_executor_layers(self.context.executor.obs.counters()))
        out["tracefile.load_s"] = self.load_seconds
        out["tracefile.rows"] = sum(len(r) for r in self.replays)
        out["stream.windows_sealed"] = counters.get(
            "stream.windows_sealed", 0)
        out["stream.checkpoints"] = counters.get("stream.checkpoints", 0)
        out["stream.late_dropped"] = counters.get("stream.late_dropped", 0)
        out["stream.queue_high_water"] = max(
            (v for k, v in gauges.items()
             if k.startswith("stream.queue.high_water.")), default=0)
        return out

    def capture(self, rnd):
        served, finals = rnd.outputs
        return {
            "killed": served.killed,
            "sessions": dict(served.sessions),
            "late_dropped": self.metrics.counters().get(
                "stream.late_dropped", 0),
            "r_out": {v: f.r_out.collect() for v, f in finals.items()},
            "classifications": {
                v: {key: c.branch for key, c in f.classifications.items()}
                for v, f in finals.items()
            },
        }

    def same_output(self, first, rnd):
        _served, finals = rnd.outputs
        return {v: f.r_out.collect() for v, f in finals.items()} == \
            first["r_out"]

    def check(self, first):
        import checker
        from repro.core.pipeline import PreprocessingPipeline
        from repro.engine import EngineContext
        from repro.protocols.frames import BYTE_RECORD_COLUMNS

        problems = []
        if first["killed"] or first["late_dropped"]:
            problems.append("stream: killed={} late_dropped={}".format(
                first["killed"], first["late_dropped"]))
        branches = checker.expected_branches(self.manifest["dataset"])
        for vehicle, trace, frames in zip(self.vehicles, self.traces,
                                          self.frames):
            summary = first["sessions"].get(vehicle, {})
            if not summary.get("drained") or \
                    summary.get("frames_ingested") != frames:
                problems.append("{}: session {} after replaying {} frames"
                                .format(vehicle, summary, frames))
            records, decoded, refs = self.references(trace, dedup=False)
            streamed = first["r_out"].get(vehicle, [])
            per_signal = {}
            for (s_id, _b_id), branch in first["classifications"].get(
                    vehicle, {}).items():
                per_signal.setdefault(s_id, set()).add(branch)
            problems.extend(checker.check_output(
                refs, branches, streamed,
                classification={
                    s: next(iter(b)) if len(b) == 1 else sorted(b)
                    for s, b in per_signal.items()
                },
                label=vehicle + " stream"))
            # The whole-trace pipeline on the same records is the
            # reference the windowed service must agree with once the
            # rows of gateway-corresponding channels (which the windowed
            # runner does not deduplicate) are set aside.
            context = EngineContext.serial()
            batch = PreprocessingPipeline(self.config).run(
                context.table_from_rows(list(BYTE_RECORD_COLUMNS), records))
            batch_rows = batch.r_out.collect()
            dedup_refs = checker.reference(
                decoded, checker.reduction_limits(self.document))
            problems.extend(checker.check_output(
                dedup_refs, branches, batch_rows, k_s=batch.k_s.collect(),
                decoded=decoded,
                outcomes={
                    s: (o.rows_before_reduction, o.rows_after_reduction)
                    for s, o in batch.outcomes.items()
                },
                classification={
                    s: pair[1]
                    for s, pair in batch.classification_summary().items()
                },
                label=vehicle + " batch"))
            kept = checker.without_corresponding(streamed, dedup_refs)
            if Counter(kept) != Counter(batch_rows):
                problems.append(
                    "{}: stream R_out minus corresponding channels ({} rows) "
                    "differs from the pipeline's R_out ({} rows)".format(
                        vehicle, len(kept), len(batch_rows)))
        return problems


WORKLOAD_CLASSES = {
    "syn-journey": SynJourney,
    "sta-fleet": StaFleet,
    "syn-stream": SynStream,
}


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def measure(workload, seconds, trace):
    """Run rounds for *seconds*; returns the result dict for run.py.

    On a shared host each CPU's speed drifts on its own for tens of
    seconds at a time, so a single-process workload that stays on one
    CPU reports that CPU's phase. Rounds of such workloads therefore
    take turns on the available CPUs (pairs of rounds in a traced run,
    so that each traced round is compared with an untraced round on the
    same CPU).
    """
    import tracing

    cpus = sorted(os.sched_getaffinity(0))

    samples = {"journey_s": [], "finalize_s": [], "frames_per_s": []}
    walls = {False: [], True: []}
    layer_rounds = []
    attempted = failed = 0
    first = None
    identical = True
    job_dir = workload.work_dir / "trace-jobs"
    job_dir.mkdir(exist_ok=True)
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(trace) and index % 2 == 1
        if index:
            workload.prepare(index)
        if workload.pin_rounds and len(cpus) > 1:
            turn = index // 2 if trace else index
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        gc.collect()
        tracer = tracing.install(tracing.Tracer(), job_dir) if traced \
            else None
        try:
            rnd = workload.round()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rnd = None
        finally:
            if tracer is not None:
                tracer.remove()
        if rnd is None:
            attempted += workload.operations
            failed += workload.operations
        else:
            attempted += rnd.attempted
            failed += rnd.failed
            if not rnd.failed:
                samples["journey_s"].append(rnd.journey_s)
                samples["finalize_s"].append(rnd.finalize_s)
                samples["frames_per_s"].append(rnd.frames_per_s)
                walls[traced].append(rnd.wall)
                if first is None:
                    first = workload.capture(rnd)
                elif not workload.same_output(first, rnd):
                    identical = False
            if traced:
                tracing.merge_job_files(tracer, job_dir)
                layers = _traced_layers(tracer)
                layers.update(workload.layers(rnd, tracer))
                layer_rounds.append(layers)
        rnd = None
        index += 1
        # A traced run needs one untraced and one traced round at least.
        if time.perf_counter() - start >= seconds and \
                (not trace or index >= 2):
            break
    os.sched_setaffinity(0, cpus)
    peak = _peak_rss_mb()
    problems = []
    if first is None:
        problems.append("no round completed")
    else:
        problems.extend(workload.check(first))
    if not identical:
        problems.append("a later round's R_out differs from the first's")
    result = {
        "attempted": attempted,
        "failed": failed,
        "rounds": index,
        "problems": problems,
        "samples": samples,
        "peak_rss_mb": peak,
    }
    if trace:
        names = sorted({k for layers in layer_rounds for k in layers})
        layers = {
            name: statistics.median(
                [layers.get(name, 0) for layers in layer_rounds])
            for name in names
        }
        if walls[True] and walls[False]:
            layers["bench.trace_overhead_s"] = (
                statistics.median(walls[True])
                - statistics.median(walls[False]))
        result["layers"] = layers
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--phase", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    manifest = json.loads(
        (Path(args.work_dir) / "manifest.json").read_text(encoding="utf-8"))
    workload = WORKLOAD_CLASSES[manifest["workload"]](args.work_dir)
    workload.setup()
    ready = time.perf_counter()
    workload.setup_times["config_s"] = ready - workload.imported
    workload.setup_times["ready_at"] = time.time()
    print("READY " + json.dumps(workload.setup_times), flush=True)
    if args.phase == "setup":
        return 0
    result = measure(workload, args.seconds, args.trace)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
