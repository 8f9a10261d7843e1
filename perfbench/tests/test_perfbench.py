"""Tests of the end-to-end benchmark itself.

Run from the repository root with ``python -m pytest perfbench/tests``.
The smoke tests run every workload end to end on short journeys,
checks included; the checker tests feed it corrupted outputs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from inputs import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(workload.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_checks_outputs_and_reports_every_metric(name, trace):
    done = _bench("--workload", name, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = run.END_TO_END if not trace else workload.PER_LAYER
    assert sorted(result["metrics"]) == sorted(n[0] for n in names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_program_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "syn-journey", "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


@pytest.fixture(scope="module")
def journey_outputs():
    """A 30 s SYN journey through the pipeline, and its reference."""
    from repro.core.params import config_from_dict
    from repro.core.pipeline import PreprocessingPipeline
    from repro.datasets import SPECS, build_dataset
    from repro.engine import EngineContext
    from repro.fleet import default_params
    from repro.protocols.frames import BYTE_RECORD_COLUMNS

    document = default_params("SYN")
    bundle = build_dataset(SPECS["SYN"], seed_offset=2)
    records = bundle.byte_records(30.0)
    context = EngineContext.serial()
    result = PreprocessingPipeline(
        config_from_dict(document, bundle.database)
    ).run(context.table_from_rows(list(BYTE_RECORD_COLUMNS), records))
    decoded = checker.decode("SYN", records, document["signals"])
    return {
        "refs": checker.reference(decoded,
                                  checker.reduction_limits(document)),
        "branches": checker.expected_branches("SYN"),
        "decoded": decoded,
        "r_out": result.r_out.collect(),
        "k_s": result.k_s.collect(),
        "outcomes": {
            s: (o.rows_before_reduction, o.rows_after_reduction)
            for s, o in result.outcomes.items()
        },
        "classification": {
            s: pair[1] for s, pair in result.classification_summary().items()
        },
    }


def _check(outputs, **changes):
    parts = dict(outputs)
    parts.update(changes)
    return checker.check_output(
        parts["refs"], parts["branches"], parts["r_out"], k_s=parts["k_s"],
        decoded=parts["decoded"], outcomes=parts["outcomes"],
        classification=parts["classification"])


def test_checker_passes_the_pipelines_output(journey_outputs):
    assert _check(journey_outputs) == []


def test_checker_fails_a_dropped_r_out_row(journey_outputs):
    rows = journey_outputs["r_out"]
    index = next(i for i, row in enumerate(rows)
                 if journey_outputs["branches"][row[1]] != checker.ALPHA)
    assert _check(journey_outputs, r_out=rows[:index] + rows[index + 1:])


def test_checker_fails_an_altered_k_s_value(journey_outputs):
    rows = list(journey_outputs["k_s"])
    t, v, s_id, b_id = rows[0]
    rows[0] = (t, "altered", s_id, b_id)
    assert _check(journey_outputs, k_s=rows)


def test_checker_fails_a_reclassified_signal(journey_outputs):
    classification = dict(journey_outputs["classification"])
    s_id = next(s for s, b in classification.items() if b == checker.BETA)
    classification[s_id] = checker.GAMMA
    assert _check(journey_outputs, classification=classification)


def test_checker_fails_r_out_out_of_order(journey_outputs):
    rows = list(journey_outputs["r_out"])
    rows[0], rows[-1] = rows[-1], rows[0]
    assert _check(journey_outputs, r_out=rows)
