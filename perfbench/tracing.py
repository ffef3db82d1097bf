"""Spans and counts around the public functions of each gmsfem module.

The wrappers are installed from here, at the attribute the caller looks up
(``adapt`` calls ``coarse_solve.assemble_coarse`` through the module, ``mark``
as a module global, ``CoarseSystem.solve`` as a method), and removed again
when the traced block ends, so no file under ``src/`` knows about tracing.
Spans stay in memory until the run writes them out.
"""

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute path) of every wrapped callable; the span name is
# "<module>.<attribute path>".
WRAPPED = (
    ("mesh", "all_neighborhoods"),
    ("fine_fem", "assemble_stiffness"),
    ("fine_fem", "patch_stiffness"),
    ("fine_fem", "patch_weighted_mass"),
    ("fine_fem", "solve_dirichlet"),
    ("fine_fem", "energy_norm"),
    ("ms_space", "compute_partition_of_unity"),
    ("ms_space", "compute_spectral_weight"),
    ("ms_space", "compute_snapshots"),
    ("ms_space", "local_spectral_decomposition"),
    ("ms_space", "build_basis"),
    ("ms_space", "enrich"),
    ("coarse_solve", "assemble_coarse"),
    ("coarse_solve", "CoarseSystem.solve"),
    ("indicators", "ResidualNormCache.__init__"),
    ("indicators", "ResidualNormCache.norm"),
    ("indicators", "fine_residual"),
    ("indicators", "eta_standard"),
    ("indicators", "eta_goal_h1"),
    ("indicators", "eta_dwr"),
    ("adapt", "build_problem"),
    ("adapt", "adapt_loop"),
    ("adapt", "mark"),
    ("adapt", "write_trace_csv"),
    ("cli", "generate_field"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in WRAPPED)

# Counts read from return values at the span boundary.
COUNT_NAMES = (
    "coarse_solve.dense_systems",
    "coarse_solve.cg_systems",
    "coarse_solve.assembled_dofs",
    "ms_space.snapshot_columns",
    "ms_space.jittered",
    "ms_space.enrich_dofs_added",
    "ms_space.enrich_slots",
)

# (name, unit, better) of every per-layer metric a traced run reports. The
# enrich_* helper counts above only feed adapt.enrich_yield.
PER_LAYER = (
    tuple(
        (f"{name}.{kind}", unit, "lower")
        for name in SPAN_NAMES
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    )
    + tuple((name, "count", "lower") for name in COUNT_NAMES if not name.startswith("ms_space.enrich_"))
    + (
        ("adapt.iterations", "count", "lower"),
        ("adapt.marked", "count", "lower"),
        ("adapt.dofs_at_goal", "count", "lower"),
        ("adapt.goal_missed", "count", "lower"),
        ("adapt.enrich_yield", "dof/slot", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
    )
)


def _count_coarse(counts, args, kwargs, system):
    counts["coarse_solve.dense_systems" if system.dense else "coarse_solve.cg_systems"] += 1
    counts["coarse_solve.assembled_dofs"] += system.dim


def _count_spectrum(counts, args, kwargs, spectrum):
    counts["ms_space.snapshot_columns"] += spectrum.n_snapshots
    counts["ms_space.jittered"] += int(spectrum.jitter > 0.0)


def _count_enrich(counts, args, kwargs, new_space):
    space, marked = args[0], args[1]
    s = args[2] if len(args) > 2 else kwargs.get("s", 1)
    counts["ms_space.enrich_dofs_added"] += new_space.total_dofs - space.total_dofs
    counts["ms_space.enrich_slots"] += len(marked) * s


ON_RESULT = {
    "coarse_solve.assemble_coarse": _count_coarse,
    "ms_space.local_spectral_decomposition": _count_spectrum,
    "ms_space.enrich": _count_enrich,
}


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, run id)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run_id = ""
        self._stack = []

    def wrap(self, name, fn):
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every callable in WRAPPED inside ``package``; restore on exit."""
        originals = []
        try:
            for module, attr in WRAPPED:
                owner = getattr(package, module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                originals.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(f"{module}.{attr}", original))
            yield self
        finally:
            for owner, leaf, original in reversed(originals):
                setattr(owner, leaf, original)

    def mark(self):
        """Position to pass to ``summary`` for the spans and counts after now."""
        return len(self.spans), Counter(self.counts)

    def summary(self, since):
        """Calls and self time per span name, and counts, since a ``mark``.

        Self time is a span's duration minus the durations of its children;
        children of one span run one after another, so they never overlap.
        """
        first, counts_before = since
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for offset, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[first + offset]
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNT_NAMES:
            out[name] = counts[name]
        out["trace.spans"] = len(spans)
        return out

    def write(self, path):
        """Write every span as one CSV line: name,start,end,parent,run_id."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,run_id\n")
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{index},{name},{start!r},{end!r},{parent},{run_id}\n")
