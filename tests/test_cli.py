import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage

import gmsfem
from gmsfem import adapt, cli, mesh, ms_space
from gmsfem.adapt import STRATEGIES, MarkingConfig
from gmsfem.cli import ExperimentConfig

from conftest import cpu_affinity


def test_module_entry_point_runs_without_runpy_warning():
    # importing the package must not import gmsfem.cli, or runpy warns that
    # the module it is about to run is already in sys.modules
    src = str(Path(gmsfem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gmsfem.cli", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _trace_columns(path, names):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: [row[name] for row in rows] for name in names}


def test_trajectory_independent_of_blas_thread_count(tmp_path):
    # the same run at 1 and 2 BLAS threads, each in its own process because
    # the thread pool is sized when numpy loads, must enrich the same way and
    # write the same bytes: build_problem and adapt_loop run at one BLAS thread
    src = str(Path(gmsfem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["--nc", "5", "--r", "4", "--field", "channel", "--contrast", "1e3"]
    argv += ["--seed", "9", "--max-iters", "8", "--quiet"]
    columns = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        env.update(OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        result = subprocess.run(
            [sys.executable, "-m", "gmsfem.cli", *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        columns[threads] = {
            strategy: _trace_columns(out / f"trace_{strategy}.csv", ("dofs", "marked_count"))
            for strategy in STRATEGIES
        }
    for strategy in STRATEGIES:
        assert len(columns["1"][strategy]["dofs"]) == 8, strategy
        assert columns["1"][strategy] == columns["2"][strategy], strategy
    names = sorted(path.name for path in (tmp_path / "threads1").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "threads2").iterdir())
    for name in names:
        one, two = (tmp_path / f"threads{t}" / name for t in ("1", "2"))
        assert one.read_bytes() == two.read_bytes(), name


# ---------------------------------------------------------------------------
# field generation


def test_generate_field_contrast_one_is_uniform():
    for kind in ("channel", "inclusions"):
        field = cli.generate_field(kind, 1.0, 40, seed=5)
        assert np.all(field.values == 1.0)


def test_generate_field_rejects_bad_input():
    with pytest.raises(ValueError):
        cli.generate_field("channel", 1e4, 19, seed=0)
    with pytest.raises(ValueError):
        cli.generate_field("maze", 1e4, 40, seed=0)
    with pytest.raises(ValueError):
        cli.generate_field("channel", 0.5, 40, seed=0)


@pytest.mark.parametrize("name, value", [("nf", 20.5), ("seed", 7.5)])
def test_generate_field_rejects_fractional_whole_numbers(name, value):
    args = {"nf": 40, "seed": 0, name: value}
    with pytest.raises(ValueError) as excinfo:
        cli.generate_field("channel", 1e4, **args)
    assert str(excinfo.value) == f"{name} must be an integer, got {value}"


@pytest.mark.parametrize("contrast", [float("nan"), float("inf")])
def test_non_finite_contrast_fails_early(contrast):
    message = f"contrast must be finite and >= 1, got {contrast}"
    with pytest.raises(ValueError) as excinfo:
        cli.generate_field("channel", contrast, 40, seed=0)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        ExperimentConfig(contrast=contrast)
    assert str(excinfo.value) == message


def test_negative_seed_fails_early(tmp_path, capsys):
    message = "seed must be >= 0, got -1"
    with pytest.raises(ValueError) as excinfo:
        cli.generate_field("channel", 1e4, 40, seed=-1)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        ExperimentConfig(seed=np.int64(-1))
    assert str(excinfo.value) == message
    out = tmp_path / "out"
    assert cli.main(["--nc", "5", "--r", "4", "--seed", "-1", "--quiet", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _crossing_exists(mask):
    """Flood-fill oracle: 4-connected path of True cells from x=0 to x=nf-1."""
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels, count = scipy.ndimage.label(mask, structure=four)
    left = set(labels[:, 0][mask[:, 0]])
    right = set(labels[:, -1][mask[:, -1]])
    return bool(left & right)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_channel_field_has_crossing_band(seed):
    field = cli.generate_field("channel", 1e4, 100, seed=seed)
    assert _crossing_exists(field.values > 1.0)


@pytest.mark.parametrize("seed", [0, 7])
def test_inclusions_field_has_no_crossing(seed):
    field = cli.generate_field("inclusions", 1e4, 100, seed=seed)
    assert not _crossing_exists(field.values > 1.0)


def test_field_kinds_share_inclusions():
    channel = cli.generate_field("channel", 1e6, 80, seed=3)
    inclusions = cli.generate_field("inclusions", 1e6, 80, seed=3)
    # the channel raster adds the band on top of the same inclusion draws
    assert np.all(channel.values[inclusions.values > 1.0] > 1.0)
    assert (channel.values > 1.0).sum() > (inclusions.values > 1.0).sum()


def test_generate_field_is_deterministic():
    a = cli.generate_field("channel", 1e4, 60, seed=11)
    b = cli.generate_field("channel", 1e4, 60, seed=11)
    c = cli.generate_field("channel", 1e4, 60, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


# ---------------------------------------------------------------------------
# field file I/O


def test_field_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(17)
    field = cli.generate_field("channel", 1e6, 40, seed=2)
    noisy = cli.CoefficientField(field.values * np.exp(0.01 * rng.normal(size=field.values.shape)))
    path = tmp_path / "field.txt"
    cli.write_field(noisy, path)
    back = cli.read_field(path)
    assert np.array_equal(back.values, noisy.values)


def test_read_field_rejects_nonpositive(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1.0 1.0\n1.0 -3.0\n")
    with pytest.raises(ValueError, match="row 1, column 1"):
        cli.read_field(path)


def test_read_field_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("banana\n")
    with pytest.raises(ValueError, match="first line"):
        cli.read_field(path)
    path.write_text("2\n1.0 1.0\n")
    with pytest.raises(ValueError, match="file ended"):
        cli.read_field(path)
    path.write_text("2\n1.0 1.0 1.0\n1.0 1.0\n")
    with pytest.raises(ValueError, match="row 0 has 3 values"):
        cli.read_field(path)
    for text, fault in (
        ("-2\n", "cell count must be positive, got -2"),
        ("2\n1.0 abc\n1.0 1.0\n", "non-numeric value 'abc' at row 0, column 1"),
        ("2\n1.0 1.0\nnan 1.0\n", "non-finite value nan at row 1, column 0"),
        ("2\n1.0 inf\n1.0 1.0\n", "non-finite value inf at row 0, column 1"),
        ("2\n1.0 1.0\n1.0 1.0\n2.0 2.0\n2.0 2.0\n", "row 2 follows the 2 data rows of the header"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            cli.read_field(path)
        assert str(info.value) == f"{path}: {fault}"


def test_field_file_grid_mismatch(tmp_path):
    path = tmp_path / "field.txt"
    cli.write_field(cli.CoefficientField(np.ones((24, 24))), path)
    config = ExperimentConfig(nc=5, r=4, field=f"file:{path}", contrast=1.0)
    with pytest.raises(ValueError, match="nf=24"):
        cli.run_experiment(config, verbose=False)


# ---------------------------------------------------------------------------
# geometry helpers and config validation


def test_box_fraction_total_area_any_alignment():
    for nc, r in ((10, 10), (7, 3)):
        grid = mesh.GridHierarchy(nc, r)
        frac = cli.box_fraction(grid, cli.K2_BOX)
        assert frac.sum() * grid.h**2 == pytest.approx(0.01, abs=1e-15)
        assert frac.min() >= 0.0 and frac.max() <= 1.0


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(contrast=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(strategies=["standard", "bulk"])
    with pytest.raises(ValueError):
        ExperimentConfig(k1_box=(0.5, 0.4, 0.0, 1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(k2_box=(0.0, 1.5, 0.0, 1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(goal_scale="average")
    with pytest.raises(ValueError, match="initial_count must be >= 1, got 0"):
        ExperimentConfig(initial_count=0)
    with pytest.raises(ValueError, match="unknown dual norm mode 'cheap'"):
        ExperimentConfig(dual_norm_mode="cheap")


@pytest.mark.parametrize(
    "field, value", [("nc", 5.7), ("r", 4.9), ("initial_count", 1.5), ("seed", 2.5)]
)
def test_experiment_config_rejects_fractional_whole_numbers(field, value):
    with pytest.raises(ValueError) as excinfo:
        ExperimentConfig(**{field: value})
    assert str(excinfo.value) == f"{field} must be an integer, got {value}"


def test_experiment_config_accepts_numpy_integers():
    config = ExperimentConfig(
        nc=np.int64(5), r=np.int32(4), seed=np.int64(3), initial_count=np.int64(2)
    )
    assert (config.nc, config.r, config.seed, config.marking.initial_count) == (5, 4, 3, 2)
    assert type(config.nc) is int


@pytest.mark.parametrize(
    "strategies, message",
    [([], "the strategy list is empty"), (["standard", "goal_h1", "standard"], "'standard' is repeated")],
)
def test_strategy_list_must_be_nonempty_without_repeats(strategies, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(strategies=strategies)


_BOX = "box must be four numbers x0, x1, y0, y1, got"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"dump_indicator_csv": "no"}, "dump_indicator_csv must be True or False, got 'no'"),
        ({"dump_spectra_csv": "false"}, "dump_spectra_csv must be True or False, got 'false'"),
        ({"k1_box": (0.1, 0.2, 0.3)}, f"K1 {_BOX} (0.1, 0.2, 0.3)"),
        ({"k2_box": (0.8, "east", 0.1, 0.2)}, f"K2 {_BOX} (0.8, 'east', 0.1, 0.2)"),
        (
            {"strategies": "standard"},
            "strategies must be a list of names, not the string 'standard'",
        ),
        ({"strategies": None}, "strategies must be a list of names, got None"),
        ({"strategies": 5}, "strategies must be a list of names, got 5"),
        ({"goal_box": ()}, f"goal {_BOX} ()"),
        ({"field": 5}, f"field must be one of {cli.FIELD_KINDS} or file:PATH, got 5"),
        ({"field": "maze"}, f"field must be one of {cli.FIELD_KINDS} or file:PATH, got 'maze'"),
        ({"contrast": "high"}, "contrast must be a real number, got 'high'"),
        ({"contrast": True}, "contrast must be a real number, got True"),
        ({"goal_tol": True}, "goal_tol must be a real number, got True"),
    ],
    ids=[
        "indicator-switch",
        "spectra-switch",
        "short-box",
        "text-box",
        "string",
        "strategies-none",
        "strategies-number",
        "empty-goal",
        "field-number",
        "field-unknown",
        "contrast-text",
        "contrast-bool",
        "goal_tol-bool",
    ],
)
def test_experiment_config_names_the_bad_argument(kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        ExperimentConfig(**kwargs)
    assert str(excinfo.value) == message


def test_experiment_config_accepts_field_files_and_numpy_contrast():
    config = ExperimentConfig(field="file:medium.txt", contrast=np.float32(1e4))
    assert config.field == "file:medium.txt"
    assert type(config.contrast) is float and config.contrast == 1e4


def test_experiment_config_accepts_numpy_switches():
    config = ExperimentConfig(dump_indicator_csv=np.True_, dump_spectra_csv=np.False_)
    assert (config.dump_indicator_csv, config.dump_spectra_csv) == (True, False)
    assert type(config.dump_indicator_csv) is bool


def test_dual_norm_mode_is_handed_to_build_problem(tmp_path, monkeypatch):
    modes = []

    def recorded(*args, **kwargs):
        problem = adapt.build_problem(*args, **kwargs)
        modes.append(problem.dual_norms.mode)
        return problem

    monkeypatch.setattr(cli, "build_problem", recorded)
    for mode in ({}, {"dual_norm_mode": "snapshot"}):
        config = _tiny_config(tmp_path / str(len(modes)), strategies=["standard"], **mode)
        cli.run_experiment(config, verbose=False)
    assert modes == ["exact", "snapshot"]


def test_loop_defaults_are_marking_config_defaults():
    assert ExperimentConfig().marking == MarkingConfig()
    config = ExperimentConfig(rule="binning", max_iterations=3, initial_count=2)
    assert config.marking == MarkingConfig(rule="binning", max_iterations=3, initial_count=2)


# ---------------------------------------------------------------------------
# experiments


def _tiny_config(out_dir, **overrides):
    options = dict(
        nc=5,
        r=4,
        field="inclusions",
        contrast=1.0,
        max_iterations=3,
        dof_cap=500,
        seed=1,
        out_dir=str(out_dir),
    )
    options.update(overrides)
    return ExperimentConfig(**options)


def test_run_experiment_single_strategy_monotone(tmp_path):
    config = _tiny_config(tmp_path, strategies=["standard"])
    traces = cli.run_experiment(config, verbose=False)
    assert set(traces) == {"standard"}
    energy = traces["standard"].column("energy_error")
    assert np.all(np.diff(energy) <= 1e-12 * energy[0])
    assert (tmp_path / "trace_standard.csv").exists()
    assert (tmp_path / "comparison.csv").exists()


def test_run_experiment_is_reproducible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        cli.run_experiment(_tiny_config(out), verbose=False)
    for name in ("trace_standard.csv", "trace_goal_h1.csv", "trace_goal_dwr.csv", "comparison.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_strategies_share_fine_reference(tmp_path):
    # identical initial space + shared reference solve: iteration-0 error
    # columns agree across strategies
    traces = cli.run_experiment(_tiny_config(tmp_path, contrast=100.0), verbose=False)
    first = [tr.rows[0] for tr in traces.values()]
    assert len({row.energy_error for row in first}) == 1
    assert len({row.goal_error for row in first}) == 1
    assert len({row.dofs for row in first}) == 1


def test_comparison_csv_schema(tmp_path):
    cli.run_experiment(_tiny_config(tmp_path), verbose=False)
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0] == (
        "strategy,iteration,dofs,energy_error,goal_error,sum_eta_sq,marked_count,"
        "theta,s,m_enrich,contrast"
    )
    first = lines[1].split(",")
    assert first[0] == "standard"
    assert int(first[1]) == 0
    assert float(first[7]) == 0.5


@pytest.mark.parametrize("m_enrich, strategies", [(0, list(STRATEGIES)), (-1, ["standard"])])
def test_bad_m_enrich_fails_before_any_run(tmp_path, m_enrich, strategies):
    with pytest.raises(ValueError, match=f"m_enrich must be >= 1, got {m_enrich}"):
        cli.run_experiment(
            _tiny_config(tmp_path, m_enrich=m_enrich, strategies=strategies), verbose=False
        )
    assert not list(tmp_path.glob("*.csv"))


def test_run_experiment_optional_dumps(tmp_path):
    config = _tiny_config(
        tmp_path, strategies=["goal_dwr"], dump_indicator_csv=True, dump_spectra_csv=True
    )
    cli.run_experiment(config, verbose=False)
    assert (tmp_path / "indicators_goal_dwr.csv").exists()
    assert (tmp_path / "spectra.csv").exists()


def test_goal_scale_mean_rescales_goal(tmp_path):
    integral = cli.run_experiment(
        _tiny_config(tmp_path / "i", strategies=["standard"]), verbose=False
    )
    mean = cli.run_experiment(
        _tiny_config(tmp_path / "m", strategies=["standard"], goal_scale="mean"), verbose=False
    )
    area = 0.01
    g_int = integral["standard"].rows[0].goal_error
    g_mean = mean["standard"].rows[0].goal_error
    assert g_mean == pytest.approx(g_int / area, rel=1e-9)


def test_main_with_flags_and_config_file(tmp_path, capsys):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "nc = 5\nr = 4\ncontrast = 1.0  # uniform medium\nfield = inclusions\n"
        "max_iters = 2\nstrategies = standard,goal_h1\n"
    )
    out = tmp_path / "out"
    code = cli.main(["--config", str(config_file), "--out", str(out), "--seed", "3"])
    assert code == 0
    assert (out / "trace_goal_h1.csv").exists()
    assert not (out / "trace_goal_dwr.csv").exists()
    summary = capsys.readouterr().out
    assert "dofs to reach goal error" in summary


def test_main_reports_errors(tmp_path, capsys):
    code = cli.main(["--contrast", "0.1", "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_reports_failed_fine_reference_solve(tmp_path, capsys):
    # at contrast 1e15 the fine reference solve cannot meet its 1e-10 contract
    out = tmp_path / "out"
    argv = ["--nc", "5", "--r", "4", "--contrast", "1e15", "--max-iters", "1", "--quiet"]
    code = cli.main([*argv, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Dirichlet solve stalled at relative residual")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_main_reports_failed_offline_stage(cpus, tmp_path, capfd, monkeypatch):
    # a neighborhood whose local mass is indefinite ends the run with one
    # error line, and no forked worker writes to the streams
    solve = ms_space.local_spectral_decomposition

    def failing(i, patch_A, patch_S, snapshots):
        return solve(i, patch_A, -patch_S if i == 3 else patch_S, snapshots)

    monkeypatch.setattr(ms_space, "local_spectral_decomposition", failing)
    out = tmp_path / "out"
    with cpu_affinity(cpus):
        code = cli.main(["--nc", "5", "--r", "4", "--max-iters", "1", "--quiet", "--out", str(out)])
    assert code == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: neighborhood 3: local mass matrix numerically indefinite")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_config_file_switch_values_act_as_flags(tmp_path, capsys):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "nc = 5\nr = 4\nmax-iters = 1\nstrategies = standard\n"
        "dump-indicators = yes\ndump-spectra = off\nquiet = on\n"
    )
    out = tmp_path / "out"
    assert cli.main(["--config", str(config_file), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert (out / "indicators_standard.csv").exists()
    assert not (out / "spectra.csv").exists()


def test_cancelled_source_stops_every_strategy_at_once(tmp_path, capsys):
    # K1 = K2: the source cancels, every indicator is zero and nothing is marked
    out = tmp_path / "out"
    argv = ["--nc", "5", "--r", "4", "--max-iters", "3", "--k1-box", "0.8,0.9,0.1,0.2"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out.count("(all indicators zero)") == len(STRATEGIES)
    for strategy in STRATEGIES:
        assert len((out / f"trace_{strategy}.csv").read_text().splitlines()) == 2


def test_field_file_run_equals_generated_field_run(tmp_path):
    grid = mesh.GridHierarchy(5, 4)
    path = tmp_path / "field.txt"
    cli.write_field(cli.generate_field("channel", 1e3, grid.nf, seed=1), path)
    for name, field in (("generated", "channel"), ("file", f"file:{path}")):
        config = _tiny_config(tmp_path / name, field=field, contrast=1e3)
        cli.run_experiment(config, verbose=False)
    names = sorted(p.name for p in (tmp_path / "generated").glob("*.csv"))
    assert len(names) == 4
    assert names == sorted(p.name for p in (tmp_path / "file").glob("*.csv"))
    for name in names:
        assert (tmp_path / "generated" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_flags_override_config_file_strategies(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("nc = 5\nr = 4\nmax-iters = 1\nstrategies = standard\n")
    out = tmp_path / "out"
    code = cli.main(["--config", str(config_file), "--strategy", "goal_h1", "--out", str(out), "--quiet"])
    assert code == 0
    assert sorted(p.name for p in out.glob("trace_*.csv")) == ["trace_goal_h1.csv"]


@pytest.mark.parametrize(
    "text, key",
    [
        (None, None),  # no such file
        ("nc = abc\n", "nc"),
        ("k1-box = 1,2,3\n", "k1-box"),
        ("dump-spectra = ture\n", "dump-spectra"),
        ("help = 1\n", "help"),
        ("config = other.cfg\n", "config"),
        ("max = 3\n", "max"),  # only a prefix of --max-iters
    ],
)
def test_config_file_faults_exit_with_one_message(tmp_path, capsys, text, key):
    config_file = tmp_path / "run.cfg"
    if text is not None:
        config_file.write_text("nc = 5\n# comment\n" + text)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--config", str(config_file), "--out", str(tmp_path / "out")])
    assert excinfo.value.code != 0
    err = capsys.readouterr().err
    (message,) = [line for line in err.splitlines() if "error:" in line]
    assert str(config_file) in message
    if key is not None:
        assert f"line 3: {key}" in message or f"line 3: unknown key {key!r}" in message
    assert not (tmp_path / "out").exists()


def test_main_rejects_unknown_config_key(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("granularity = 3\n")
    with pytest.raises(SystemExit):
        cli.main(["--config", str(config_file)])
