"""Experiment harness: coefficient fields, configuration, strategy comparisons.

The built-in generators reproduce the qualitative structure of the benchmark
media: a background of 1 with contrast-valued features, either a meandering
high-conductivity band crossing the domain diagonally between the inflow and
outflow boxes plus scattered inclusions ('channel'), or the same inclusions
without the band ('inclusions').  Geometry is seeded-deterministic; exact
rasters can be supplied through the field file format instead.
"""

import argparse
import os
import sys

import numpy as np

from .adapt import (
    MARKING_RULES,
    AdaptFailure,
    MarkingConfig,
    STRATEGIES,
    _check_dual_norm_mode,
    _check_strategy,
    _write_csv,
    adapt_loop,
    build_problem,
    write_trace_csv,
)
from .fine_fem import CoefficientField, SolveFailure
from .indicators import DUAL_NORM_MODES, dump_indicators
from .mesh import GridHierarchy, _check_integer, _check_real
from .ms_space import OfflineFailure, dump_spectra

__all__ = [
    "ExperimentConfig",
    "generate_field",
    "read_field",
    "write_field",
    "box_fraction",
    "run_experiment",
    "main",
]

# Benchmark geometry: inflow box K1, outflow box K2 = goal region.
K1_BOX = (0.1, 0.2, 0.8, 0.9)
K2_BOX = (0.8, 0.9, 0.1, 0.2)

GOAL_SCALES = ("integral", "mean")

MIN_FIELD_NF = 20
FIELD_KINDS = ("channel", "inclusions")


class ExperimentConfig:
    """Validated configuration of one experiment run.

    ``self.marking`` is the MarkingConfig of the keywords in ``loop``, the
    settings of each run (its initial_count, rule, theta, ...), which holds
    their defaults.  ``dual_norm_mode`` is handed to build_problem, whose
    check of it runs here, before any work."""

    def __init__(
        self,
        nc=10,
        r=10,
        field="channel",
        contrast=1e4,
        strategies=STRATEGIES,
        seed=0,
        out_dir="out",
        k1_box=K1_BOX,
        k2_box=K2_BOX,
        goal_box=None,
        goal_scale="integral",
        dump_indicator_csv=False,
        dump_spectra_csv=False,
        dual_norm_mode="exact",
        **loop,
    ):
        self.nc, self.r = _check_integer("nc", nc), _check_integer("r", r)
        self.field = _check_field_name(field)
        self.contrast = float(_check_real("contrast", contrast))
        _check_contrast(self.contrast)
        if isinstance(strategies, str):
            raise ValueError(f"strategies must be a list of names, not the string {strategies!r}")
        self.strategies = list(strategies)
        if not self.strategies:
            raise ValueError(f"the strategy list is empty; expected some of {STRATEGIES}")
        for k, name in enumerate(self.strategies):
            _check_strategy(name)
            if name in self.strategies[:k]:
                raise ValueError(f"strategy {name!r} is repeated in {self.strategies}")
        self.marking = MarkingConfig(**loop)
        self.seed = _check_integer("seed", seed)
        self.out_dir = out_dir
        self.k1_box = _check_box(k1_box, "K1")
        self.k2_box = _check_box(k2_box, "K2")
        self.goal_box = self.k2_box if goal_box is None else _check_box(goal_box, "goal")
        if goal_scale not in GOAL_SCALES:
            raise ValueError(f"goal_scale must be one of {GOAL_SCALES}, got {goal_scale!r}")
        self.goal_scale = goal_scale
        self.dump_indicator_csv = _check_switch("dump_indicator_csv", dump_indicator_csv)
        self.dump_spectra_csv = _check_switch("dump_spectra_csv", dump_spectra_csv)
        _check_dual_norm_mode(dual_norm_mode)
        self.dual_norm_mode = dual_norm_mode


def _check_switch(name, value):
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def _check_box(box, name):
    try:
        x0, x1, y0, y1 = (float(v) for v in box)
    except (TypeError, ValueError):
        raise ValueError(f"{name} box must be four numbers x0, x1, y0, y1, got {box!r}") from None
    if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
        raise ValueError(f"{name} box {box} must be a nonempty rectangle inside (0,1)^2")
    return (x0, x1, y0, y1)


def box_fraction(grid, box):
    """Per-cell overlap fraction of an axis-aligned box, exact for any nf.

    The total of fraction * cell area equals the box area exactly, so loads
    built from it integrate box indicators without alignment error.
    """
    x0, x1, y0, y1 = box
    h = grid.h
    edges = np.arange(grid.nf + 1) * h
    ox = np.clip((np.minimum(x1, edges[1:]) - np.maximum(x0, edges[:-1])) / h, 0.0, 1.0)
    oy = np.clip((np.minimum(y1, edges[1:]) - np.maximum(y0, edges[:-1])) / h, 0.0, 1.0)
    return np.outer(oy, ox)


def _scatter_inclusions(mask, rng):
    """Stamp small high-value rectangles; identical draws for both field kinds."""
    nf = mask.shape[0]
    count = 14
    for _ in range(count):
        w = int(rng.integers(2, max(3, nf // 12) + 1))
        ht = int(rng.integers(2, max(3, nf // 12) + 1))
        x0 = int(rng.integers(0, nf - w))
        y0 = int(rng.integers(0, nf - ht))
        mask[y0 : y0 + ht, x0 : x0 + w] = True


def _diagonal_band(mask, rng):
    """A 4-connected meandering band from the x=0 side to the x=1 side."""
    nf = mask.shape[0]
    width = max(2, nf // 33)
    amplitude = nf / 8.0
    phase = rng.uniform(0.0, 2.0 * np.pi)
    x = np.arange(nf + 1, dtype=float)
    center = x + amplitude * np.sin(2.0 * np.pi * 2.0 * x / nf + phase)
    center = np.clip(center, 1.0, nf - 2.0)
    for cx in range(nf):
        lo = int(np.floor(min(center[cx], center[cx + 1]))) - width // 2
        hi = int(np.ceil(max(center[cx], center[cx + 1]))) + width // 2
        mask[max(lo, 0) : min(hi, nf - 1) + 1, cx] = True


def _check_field_name(field):
    if not (isinstance(field, str) and (field in FIELD_KINDS or field.startswith("file:"))):
        raise ValueError(f"field must be one of {FIELD_KINDS} or file:PATH, got {field!r}")
    return field


def _check_contrast(contrast):
    # written so that nan, which compares false with everything, fails too
    if not (np.isfinite(contrast) and contrast >= 1.0):
        raise ValueError(f"contrast must be finite and >= 1, got {contrast}")


def generate_field(kind, contrast, nf, seed):
    """Seeded synthetic coefficient field: background 1, features at `contrast`."""
    _check_integer("seed", seed)
    if _check_integer("nf", nf) < MIN_FIELD_NF:
        raise ValueError(f"nf={nf} too small to host the generated geometry (need >= {MIN_FIELD_NF})")
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    _check_contrast(contrast)
    rng = np.random.default_rng(seed)
    mask = np.zeros((nf, nf), dtype=bool)
    _scatter_inclusions(mask, rng)
    if kind == "channel":
        _diagonal_band(mask, rng)
    values = np.ones((nf, nf))
    values[mask] = float(contrast)
    return CoefficientField(values)


def write_field(field, path):
    """Write a field as text: first line nf, then nf rows from y=0 upward."""
    with open(path, "w") as fh:
        fh.write(f"{field.nf}\n")
        for row in field.values:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_field(path):
    """Read a field file, rejecting malformed, non-finite or non-positive
    entries and any non-blank line after the nf-th row with a message that
    names the path, the fault and its row and column."""
    with open(path) as fh:
        first = fh.readline().strip()
        try:
            nf = int(first)
        except ValueError:
            raise ValueError(f"{path}: first line must be the cell count, got {first!r}")
        if nf < 1:
            raise ValueError(f"{path}: cell count must be positive, got {nf}")
        values = np.empty((nf, nf))
        for iy in range(nf):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: expected {nf} data rows, file ended at row {iy}")
            parts = line.split()
            if len(parts) != nf:
                raise ValueError(f"{path}: row {iy} has {len(parts)} values, expected {nf}")
            row = values[iy]
            for ix, text in enumerate(parts):
                try:
                    row[ix] = float(text)
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {text!r} at row {iy}, column {ix}"
                    ) from None
            for fault, mask in (("non-finite", ~np.isfinite(row)), ("non-positive", row <= 0.0)):
                bad = np.flatnonzero(mask)
                if bad.size:
                    raise ValueError(
                        f"{path}: {fault} value {row[bad[0]]} at row {iy}, column {bad[0]}"
                    )
        for iy, line in enumerate(fh, nf):
            if line.strip():
                raise ValueError(f"{path}: row {iy} follows the {nf} data rows of the header")
    return CoefficientField(values)


def _load_field(config, grid):
    if config.field.startswith("file:"):
        field = read_field(config.field[len("file:") :])
        if field.nf != grid.nf:
            raise ValueError(
                f"field file has nf={field.nf} but the grid needs nf={grid.nf}"
            )
        return field
    return generate_field(config.field, config.contrast, grid.nf, config.seed)


def _goal_density(config, grid):
    density = box_fraction(grid, config.goal_box)
    if config.goal_scale == "mean":
        x0, x1, y0, y1 = config.goal_box
        density = density / ((x1 - x0) * (y1 - y0))
    return density


def run_experiment(config, verbose=True):
    """Run all requested strategies against one shared fine reference.

    Writes one trace CSV per strategy and a comparison CSV into ``out_dir``,
    prints a dofs-per-goal-error-decade summary, and returns the traces keyed
    by strategy; each holds N values per iteration and keeps no problem alive.
    """
    grid = GridHierarchy(config.nc, config.r)
    field = _load_field(config, grid)
    f_density = box_fraction(grid, config.k1_box) - box_fraction(grid, config.k2_box)
    g_density = _goal_density(config, grid)
    problem = build_problem(grid, field, f_density, g_density, config.dual_norm_mode)

    os.makedirs(config.out_dir, exist_ok=True)
    if config.dump_spectra_csv:
        dump_spectra(problem.space, os.path.join(config.out_dir, "spectra.csv"))

    extra = {
        "theta": config.marking.theta,
        "s": config.marking.s,
        "m_enrich": config.marking.m_enrich,
        "contrast": config.contrast,
    }
    traces = {}
    for strategy in config.strategies:
        trace = adapt_loop(problem, strategy, config.marking)
        traces[strategy] = trace
        write_trace_csv(trace, os.path.join(config.out_dir, f"trace_{strategy}.csv"))
        if config.dump_indicator_csv:
            dump_indicators(
                trace.reports, os.path.join(config.out_dir, f"indicators_{strategy}.csv")
            )
        if verbose:
            last = trace.rows[-1]
            print(
                f"{strategy}: {len(trace.rows)} iterations, {last.dofs} dofs, "
                f"goal error {last.goal_error:.3e}, energy error {last.energy_error:.3e} "
                f"({trace.stop_reason})"
            )

    _write_csv(traces.values(), os.path.join(config.out_dir, "comparison.csv"), extra)
    if verbose:
        _print_summary(traces)
    return traces


def _print_summary(traces):
    """Dofs needed to reach each goal-error decade below the initial error."""
    print("\ndofs to reach goal error <= initial / 10^d")
    print(f"{'strategy':>12} " + " ".join(f"{'d=' + str(d):>8}" for d in range(1, 5)))
    for strategy, trace in traces.items():
        g0 = trace.rows[0].goal_error
        cells = []
        for d in range(1, 5):
            threshold = g0 * 10.0 ** (-d)
            hit = next((row.dofs for row in trace.rows if row.goal_error <= threshold), None)
            cells.append(f"{hit:>8}" if hit is not None else f"{'-':>8}")
        print(f"{strategy:>12} " + " ".join(cells))


def _parse_box(text):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"box must be x0,x1,y0,y1, got {text!r}")
    return tuple(parts)


def build_parser():
    """The option parser, and the action of each config file key.  A dest is
    its ExperimentConfig keyword, and an option not given is absent, so the
    defaults live in ExperimentConfig and MarkingConfig alone."""
    parser = argparse.ArgumentParser(
        prog="gmsfem",
        description="Adaptive multiscale strategy comparison on high-contrast elliptic problems",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", help="key = value configuration file; flags override it")
    keys = {}

    def add(flag, **kwargs):
        keys[flag[2:]] = parser.add_argument(flag, **kwargs)

    add("--nc", type=int, help="coarse cells per side")
    add("--r", type=int, help="fine cells per coarse cell per side")
    add("--field", help="coefficient field: channel, inclusions, or file:PATH")
    add("--contrast", type=float)
    add("--theta", type=float, help="bulk marking fraction")
    add(
        "--strategy",
        action="append",
        dest="strategies",
        choices=STRATEGIES,
        help="strategy to run (repeatable; default: all three)",
    )
    add("--marking", choices=MARKING_RULES, dest="rule")
    add("--s", type=int, help="basis functions added per marked neighborhood")
    add("--m-enrich", type=int, help="extra dual basis width for goal_dwr")
    add("--max-iters", type=int, dest="max_iterations")
    add("--dof-cap", type=int)
    add("--goal-tol", type=float)
    add("--dual-norm", choices=DUAL_NORM_MODES, dest="dual_norm_mode")
    add("--initial-count", type=int)
    add("--seed", type=int)
    add("--out", dest="out_dir", help="output directory for CSV traces")
    add("--k1-box", type=_parse_box)
    add("--k2-box", type=_parse_box)
    add("--goal-box", type=_parse_box)
    add(
        "--goal-scale",
        choices=GOAL_SCALES,
        help="goal functional: plain integral over the goal box, or its mean value",
    )
    add("--dump-indicators", action="store_true", dest="dump_indicator_csv")
    add("--dump-spectra", action="store_true", dest="dump_spectra_csv")
    add("--quiet", action="store_true")
    keys["strategies"] = keys.pop("strategy")
    return parser, keys


_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True}
_SWITCH_VALUES.update({"0": False, "false": False, "no": False, "off": False})


def _read_config_file(parser, keys, path):
    """The options of a config file: each ``key = value`` line goes through
    ``parser`` as the long flag ``--key``, named exactly, not by a prefix
    (README, "Command line").  A fault ends the program with a message that
    names the file, the line and the key.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file {path}: {exc.strerror}")
    parser.exit_on_error = False  # a bad value raises, so its message can name the file
    options = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"config file {path}, line {lineno}"
        key, _, value = (part.strip() for part in line.partition("="))
        action = keys.get(key.replace("_", "-"))
        if action is None:
            parser.error(f"{where}: unknown key {key!r}")
        if action.nargs == 0:
            if value.lower() not in _SWITCH_VALUES:
                parser.error(f"{where}: {key}: expected true or false, got {value!r}")
            options[action.dest] = _SWITCH_VALUES[value.lower()]
            continue
        values = value.split(",") if action.dest == "strategies" else [value]
        flag = action.option_strings[0]
        try:
            options.update(vars(parser.parse_args([f"{flag}={v.strip()}" for v in values])))
        except argparse.ArgumentError as exc:
            parser.error(f"{where}: {key}: {exc.message}")
    return options


def main(argv=None):
    parser, keys = build_parser()
    flags = vars(parser.parse_args(argv))
    options = _read_config_file(parser, keys, flags.pop("config")) if "config" in flags else {}
    options.update(flags)
    verbose = not options.pop("quiet", False)
    try:
        run_experiment(ExperimentConfig(**options), verbose=verbose)
    except (ValueError, OSError, AdaptFailure, OfflineFailure, SolveFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
