"""Seeded benchmark inputs: trace files and parameter documents.

Everything a workload reads is made here from the workload name and the
seed, and written under one work directory together with a
``manifest.json`` that names the files. The program under test only
ever sees these files; the seed itself never reaches it.

Trace generation simulates the data set's vehicle, which is the slowest
part of preparing a run, so traces are generated on up to two child
processes (this file run as a script), each of which is waited for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"

WORKLOADS = ("syn-journey", "sta-fleet", "syn-stream")

MANIFEST = "manifest.json"


@dataclass(frozen=True)
class Sizes:
    """Journey lengths (simulated seconds) and counts of one benchmark mode."""

    journey_seconds: float
    fleet_traces: int
    fleet_seconds: float
    stream_vehicles: int
    stream_seconds: float


#: The measured configuration. Journeys are short enough that every run
#: of every workload fits several rounds into its measuring time and all
#: runs fit the benchmark's time budget; 60 s stream vehicles are long
#: enough for checkpointing to be a visible share of serve time.
FULL = Sizes(journey_seconds=120.0, fleet_traces=8, fleet_seconds=60.0,
             stream_vehicles=2, stream_seconds=60.0)

#: Short journeys for the benchmark's own tests; the shortest on which
#: every signal still classifies into the branch it was built for.
SMOKE = Sizes(journey_seconds=20.0, fleet_traces=2, fleet_seconds=15.0,
              stream_vehicles=2, stream_seconds=20.0)


def journey_offsets(workload, seed, sizes):
    """The data-set journey numbers (``seed_offset``) a run records.

    Distinct seeds give disjoint journeys; each journey of a run is a
    different drive of the same vehicle.
    """
    if workload == "syn-journey":
        return [seed]
    if workload == "sta-fleet":
        count = sizes.fleet_traces
    elif workload == "syn-stream":
        count = sizes.stream_vehicles
    else:
        raise ValueError("unknown workload {!r}".format(workload))
    return [seed * count + j for j in range(count)]


def dataset_of(workload):
    return "STA" if workload == "sta-fleet" else "SYN"


def parameter_document(workload):
    """The parameter document the workload's pipeline is configured with.

    SYN workloads use the CLI's default document (one
    ``unchanged_within_cycle`` constraint per signal at its cycle time).
    ``sta-fleet`` uses a state-monitoring document: the STA vehicle's
    β and γ signals only, each with the same constraint, and no α
    signals.
    """
    from repro.datasets import SPECS, build_dataset
    from repro.fleet import default_params

    if workload != "sta-fleet":
        return default_params(dataset_of(workload))
    bundle = build_dataset(SPECS["STA"])
    signals = list(bundle.beta_ids + bundle.gamma_ids)
    return {
        "signals": signals,
        "constraints": [
            {
                "signal": s,
                "type": "unchanged_within_cycle",
                "cycle_time": bundle.cycle_times[s],
            }
            for s in signals
        ],
    }


def _record_journey(dataset, offset, duration, path):
    """Simulate one journey and dump it; returns the frame count."""
    from repro.datasets import SPECS, build_dataset
    from repro.tracefile import codec_for

    records = build_dataset(SPECS[dataset], seed_offset=offset) \
        .byte_records(duration)
    return codec_for(path).dump_records(records, path)


def _record_all(dataset, duration, jobs, timeout):
    """Record ``(offset, path)`` *jobs* on up to two child processes.

    Returns ``{offset: frame count}``. Every child is waited for, also
    when one fails or the *timeout* passes.
    """
    workers = max(1, min(2, os.cpu_count() or 1, len(jobs)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(SOURCES)])
    procs = []
    try:
        for chunk in (jobs[i::workers] for i in range(workers)):
            command = [sys.executable, str(Path(__file__).resolve()),
                       dataset, repr(duration)]
            command += ["{}={}".format(offset, path)
                        for offset, path in chunk]
            procs.append(subprocess.Popen(
                command, stdout=subprocess.PIPE, env=env, text=True))
        frames = {}
        for proc in procs:
            out, _ = proc.communicate(timeout=timeout)
            if proc.returncode != 0:
                raise RuntimeError(
                    "trace recording exited with status {}".format(
                        proc.returncode))
            frames.update(
                (int(k), v) for k, v in json.loads(out).items())
        return frames
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def make_inputs(workload, seed, sizes, work_dir, timeout=170.0):
    """Write the run's traces, parameter document and manifest.

    Returns the manifest dict (also saved as ``work_dir/manifest.json``).
    Trace paths in the manifest are relative to *work_dir*.
    """
    work_dir = Path(work_dir)
    trace_dir = work_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    dataset = dataset_of(workload)
    duration = {
        "syn-journey": sizes.journey_seconds,
        "sta-fleet": sizes.fleet_seconds,
        "syn-stream": sizes.stream_seconds,
    }[workload]
    offsets = journey_offsets(workload, seed, sizes)
    traces = [
        "traces/journey{:05d}.trc".format(offset) for offset in offsets
    ]
    recorded = _record_all(
        dataset, duration,
        [(offset, str(work_dir / trace))
         for offset, trace in zip(offsets, traces)],
        timeout)
    frames = [recorded[offset] for offset in offsets]
    document = parameter_document(workload)
    (work_dir / "params.json").write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )
    manifest = {
        "workload": workload,
        "seed": seed,
        "dataset": dataset,
        "sizes": asdict(sizes),
        "duration": duration,
        "journeys": offsets,
        "traces": traces,
        "frames": frames,
        "params": "params.json",
    }
    (work_dir / MANIFEST).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return manifest


def main(argv):
    """``inputs.py DATASET DURATION OFFSET=PATH...``: record journeys.

    Prints ``{offset: frame count}`` as JSON.
    """
    dataset, duration = argv[0], float(argv[1])
    frames = {}
    for job in argv[2:]:
        offset, path = job.split("=", 1)
        frames[offset] = _record_journey(dataset, int(offset), duration,
                                         path)
    print(json.dumps(frames))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
