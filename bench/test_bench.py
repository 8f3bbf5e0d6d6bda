"""Tests of the benchmark itself: the seeded generator and the result line.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from lcrit import cli  # noqa: E402
from lcrit.arith import is_fundamental_discriminant  # noqa: E402
from lcrit.criterion import LEVELS, table_condition  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert generate(name, 3) == generate(name, 3)
    assert generate(name, 3) != generate(name, 4)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_every_generated_input_is_accepted(name, seed):
    for inv, spec in zip(generate(name, seed), WORKLOADS[name].scans):
        start, stop = int(inv.argv[4]), int(inv.argv[6])
        assert 0 > start >= stop
        kept = [d for d in range(start, stop - 1, -1)
                if cli._valid_pair(d, LEVELS[inv.level].d0)
                and is_fundamental_discriminant(d) and table_condition(inv.level, d)]
        assert kept == list(inv.ds)
        assert len(kept) == spec.rows


def test_generated_scan_runs_through_the_cli():
    inv = generate("small-d", 1)[0]
    proc = subprocess.run([sys.executable, "-m", "lcrit.cli", *inv.argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(inv.ds)


@pytest.mark.parametrize("trace, kind", ((0, "end_to_end"), (1, "per_layer")))
def test_every_metric_is_printed_with_its_unit(trace, kind):
    proc = bench("--workload", "small-d", "--seed", "1", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.split()[1:2] == [name] and line.endswith(" " + unit)
                   for line in lines[:-1])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "results"))
    proc = bench("--workload", "small-d", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
