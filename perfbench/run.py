"""End-to-end benchmark of the trace interpretation and reduction pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload syn-journey --seed 0 \\
        --seconds 20 --trace 0

Workloads (see README.md): ``syn-journey``, ``sta-fleet``,
``syn-stream``. The run generates its inputs from ``--seed`` under
``.perfbench/`` (removed again at exit), measures set-up time in fresh
processes, runs the workload's rounds for ``--seconds`` in one more
fresh process, checks every output against an independent reference
and prints, as its last line, one JSON object::

    {"correct": true, "attempted": 4, "failed": 0,
     "metrics": {"setup_s": {"value": 2.1, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a run whose every second round is traced.
``--smoke`` shrinks every journey to a few seconds (for tests). Exits
with status 2, printing no result, when the program's sources are not
next to the benchmark.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"

#: Fresh processes that time set-up; the last one goes on to measure.
SETUP_SAMPLES = 3

#: A run must end within this many seconds, inputs and checks included.
RUN_DEADLINE = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("journey_s", "s"),
    ("frames_per_s", "frames/s"),
    ("finalize_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """A benchmark run that cannot produce a result."""


def _become_subreaper():
    """Adopt orphaned descendants, so that :func:`_reap` can wait for them.

    Fleet workers are forked by the measuring process; if that process
    is killed they would otherwise be left to an init that may never
    reap them. Linux only; elsewhere a no-op.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap(group, timeout=10.0):
    """Kill what is left of process *group* and wait for our children."""
    try:
        os.killpg(group, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    end = time.monotonic() + timeout
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() >= end:
                return
            time.sleep(0.01)


def _child(work_dir, phase, seconds, trace, deadline):
    """Run workload.py once; returns (set-up seconds, READY, RESULT)."""
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--work-dir", str(work_dir), "--phase", phase,
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(SOURCES)])
    started = time.time()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            cwd=str(ROOT), text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        _reap(proc.pid)
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = json.loads(line[len("READY "):])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0 or ready is None:
        raise BenchError("{} process exited with status {}".format(
            phase, proc.returncode))
    if phase == "measure" and result is None:
        raise BenchError("measure process printed no result")
    return ready["ready_at"] - started, ready, result


def _median_of(dicts, key):
    return statistics.median(d.get(key, 0.0) for d in dicts)


def run(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns the result object to print."""
    from inputs import FULL, SMOKE, make_inputs
    from workload import PER_LAYER

    deadline = time.monotonic() + RUN_DEADLINE
    work_dir = ROOT / ".perfbench" / "{}-{}-{}".format(
        workload, seed, os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        make_inputs(workload, seed, SMOKE if smoke else FULL, work_dir,
                    timeout=max(1.0, deadline - time.monotonic()))
        setups = [
            _child(work_dir, "setup", seconds, trace, deadline)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        setups.append(_child(work_dir, "measure", seconds, trace, deadline))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    result = setups[-1][2]
    for problem in result["problems"]:
        print("check failed: " + problem, file=sys.stderr)
    if trace:
        layers = dict(result["layers"])
        breakdowns = [ready for _wall, ready, _result in setups]
        layers["setup.import_s"] = _median_of(breakdowns, "import_s")
        layers["setup.config_s"] = _median_of(breakdowns, "config_s")
        metrics = {
            name: {"value": layers.get(name, 0), "unit": unit}
            for name, unit, _better in PER_LAYER
        }
    else:
        samples = result["samples"]
        values = {
            "setup_s": statistics.median(wall for wall, _r, _x in setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        for name in ("journey_s", "frames_per_s", "finalize_s"):
            values[name] = statistics.median(samples[name]) \
                if samples[name] else 0.0
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    from inputs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="few-second journeys, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print("error: no program sources at {}".format(SOURCES),
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCES)]
    _become_subreaper()
    try:
        outcome = run(args.workload, args.seed, args.seconds, args.trace,
                      smoke=args.smoke)
    except (BenchError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 1
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
