"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They run the tiny grid through ``run.py`` and show that the output checks
catch a corrupted trace.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing
from run import END_TO_END, SRC

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "tiny", "--seed", "3", "--seconds", "1"]


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tiny(trace):
    proc = subprocess.run(RUN + ["--trace", str(trace)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(trace, section):
    lines, result = _run_tiny(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name
    if trace == 0:
        assert any(line.strip().startswith("runs_failed = 0 fraction") for line in lines)


def test_declared_metrics_match_the_code():
    declared = _declared()
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(tracing.PER_LAYER)


@pytest.fixture(scope="module")
def tiny_trace():
    sys.path.insert(0, str(SRC))
    from gmsfem import adapt, cli, mesh

    grid = mesh.GridHierarchy(3, 10)
    field = cli.generate_field("channel", 1e4, grid.nf, 7)
    f_density = cli.box_fraction(grid, cli.K1_BOX) - cli.box_fraction(grid, cli.K2_BOX)
    problem = adapt.build_problem(grid, field, f_density, cli.box_fraction(grid, cli.K2_BOX))
    cfg = adapt.MarkingConfig(max_iterations=4)
    return adapt, problem, cfg, adapt.adapt_loop(problem, "standard", cfg)


def test_checker_passes_a_clean_run(tiny_trace):
    adapt, problem, cfg, trace = tiny_trace
    assert checks.check_trace(trace, cfg) == []
    assert checks.check_problem(problem) == []


def test_checker_flags_a_rising_energy_error(tiny_trace):
    adapt, problem, cfg, trace = tiny_trace
    rows = list(trace.rows)
    rows[2] = dataclasses.replace(rows[2], energy_error=rows[1].energy_error * 1.01)
    corrupted = adapt.AdaptTrace(trace.strategy, rows, trace.final_counts, trace.stop_reason)
    found = checks.check_trace(corrupted, cfg)
    assert len(found) == 1 and "energy error rises at iteration 2" in found[0]


def test_checker_flags_stalled_dofs(tiny_trace):
    adapt, problem, cfg, trace = tiny_trace
    rows = list(trace.rows)
    rows[3] = dataclasses.replace(rows[3], dofs=rows[2].dofs)
    corrupted = adapt.AdaptTrace(trace.strategy, rows, trace.final_counts, trace.stop_reason)
    assert any("dofs not increasing at iteration 3" in p for p in checks.check_trace(corrupted, cfg))


def test_checker_flags_a_changed_digest(tiny_trace, tmp_path):
    adapt, problem, cfg, trace = tiny_trace
    path = tmp_path / "trace.csv"
    adapt.write_trace_csv(trace, path)
    expected = {"channel@1e4/standard": checks.digest(path)}
    assert checks.check_digests({"channel@1e4/standard": checks.digest(path)}, expected) == []
    path.write_text(path.read_text().replace(",1,", ",2,", 1))
    assert checks.check_digests({"channel@1e4/standard": checks.digest(path)}, expected) == [
        "channel@1e4/standard"
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", *RUN[2:], "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no gmsfem package" in proc.stderr
