"""Benchmark of the adaptive GMsFEM solver in ``src/gmsfem``.

    python3 perfbench/run.py --workload sweep_nc10 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55

Run from anywhere; the code under test is ``src/gmsfem`` next to this
directory. One process runs one workload with its BLAS thread count pinned
to 1 before numpy loads. It makes as many passes over the workload as fit in
``--seconds`` at the workload's reference pass time (at least one), then
prints the environment, every metric with its unit, and as the last line one
JSON object. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. ``--workload all`` runs every workload
untraced and traced, each in its own process, and reports the tracing
overhead. See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

# Only the standard library and workloads here: checks, measure and tracing
# import numpy, so they are imported after pin_environment.
from workloads import CRITERION8_FIELD_SEED, TINY, WORKLOADS, run_order

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGEST_RECORD = OUT_DIR / "digests.json"

# Every workload runs with this many BLAS threads: trace digests differ
# between 1 and 2 threads (a known defect), and 2 threads spread too widely.
BLAS_THREADS = 1
# The 95th percentile has ten samples beyond it from this many samples on; it
# is printed, not bounded, because not every workload has that many.
P95_MIN_SAMPLES = 200

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "adapt_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "goal_1pct_s": ("s", "lower"),
    "iter_ms_p50": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, TINY.name, "all"])
    parser.add_argument("--seed", type=int, default=0, help="permutes the order of the fields")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--field-seed",
        type=int,
        default=CRITERION8_FIELD_SEED,
        help="coefficient field generator seed (default: the criterion-8 seed)",
    )
    return parser.parse_args(argv)


def pin_environment():
    """Pin the BLAS pool and numpy's huge-page advice before numpy is imported.

    Whether the kernel grants a huge page depends on the machine's memory
    state, so with numpy's default advice identical runs differed in peak RSS
    by up to 13%.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the run environment was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def import_gmsfem():
    """Import the package from ``src/`` beside the benchmark, never an installed copy."""
    if not (SRC / "gmsfem" / "__init__.py").is_file():
        raise SystemExit(f"error: no gmsfem package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gmsfem

    if Path(gmsfem.__file__).resolve().parent != (SRC / "gmsfem").resolve():
        raise SystemExit(f"error: imported gmsfem from {gmsfem.__file__}, not from {SRC}")
    return gmsfem


def pass_count(workload, seconds):
    """Passes in a run: as many as fit in ``seconds`` at the workload's
    reference pass time, at least one.

    The count does not depend on how fast the machine runs during the run, so
    every run of a workload does the same work. When the count followed the
    measured pass time, a slow first pass left a run with a single pass while
    the others had two, which widened the spread of every timing and of peak
    RSS.
    """
    return max(1, int(seconds // workload.pass_s))


def code_id(workload):
    """Hash of the program's sources and the workload definition."""
    digest = hashlib.sha256(repr(workload).encode())
    for path in sorted((SRC / "gmsfem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.node(),
        "arch": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "seed": args.seed,
        "field_seed": args.field_seed,
    }


def digest_mismatches(passes, key):
    """Per pass, the run labels whose trace CSV differs from the first pass or
    from the digest recorded by an earlier run of the same code and workload."""
    import checks

    record = json.loads(DIGEST_RECORD.read_text()) if DIGEST_RECORD.is_file() else {}
    expected = record.get(key) or passes[0].digests
    mismatched = [checks.check_digests(p.digests, expected) for p in passes]
    if key not in record and passes[0].digests:
        record[key] = passes[0].digests
        tmp = DIGEST_RECORD.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, DIGEST_RECORD)
    return mismatched


def end_to_end_metrics(passes):
    import numpy as np

    samples = np.concatenate([p.samples for p in passes])
    values = {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "adapt_s": statistics.median(p.adapt_s for p in passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "goal_1pct_s": statistics.median(p.goal_s for p in passes),
        "iter_ms_p50": 1e3 * float(np.percentile(samples, 50)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
    return metrics, samples


def per_layer_metrics(passes):
    import tracing

    rows = []
    for p in passes:
        row = {name: p.layers[name] for name in p.layers if not name.startswith("ms_space.enrich_")}
        slots = p.layers["ms_space.enrich_slots"]
        row["adapt.iterations"] = p.iterations
        row["adapt.marked"] = p.marked
        row["adapt.dofs_at_goal"] = p.dofs_at_goal
        row["adapt.goal_missed"] = p.goal_missed
        row["adapt.enrich_yield"] = p.layers["ms_space.enrich_dofs_added"] / slots if slots else 0.0
        row["trace.wall_s"] = p.wall_s
        rows.append(row)
    return {
        name: {"value": statistics.median(r[name] for r in rows), "unit": unit}
        for name, unit, _ in tracing.PER_LAYER
    }


def run_workload(args):
    workload = TINY if args.workload == TINY.name else WORKLOADS[args.workload]
    pin_environment()
    gmsfem = import_gmsfem()
    import measure
    import numpy as np
    import tracing

    env = environment(args)
    out_dir = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    order = run_order(workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None

    passes = []
    with tracer.installed(gmsfem) if tracer else nullcontext():
        for pass_id in range(pass_count(workload, args.seconds)):
            since = tracer.mark() if tracer else None
            pass_result = measure.run_pass(gmsfem, workload, order, args.field_seed, out_dir, tracer, pass_id)
            if tracer:
                pass_result.layers = tracer.summary(since)
            passes.append(pass_result)

    key = f"{code_id(workload)} {workload.name} threads={BLAS_THREADS} field_seed={args.field_seed}"
    mismatched = digest_mismatches(passes, key)
    attempted = sum(p.attempted for p in passes)
    failed = 0
    messages = []
    for p, bad_digests in zip(passes, mismatched):
        labels = {label for label, _ in p.failures} | set(bad_digests)
        failed += len(labels)
        messages += [f"{label}: {text}" for label, text in p.failures]
        messages += [f"{label}: trace CSV digest differs from {key}" for label in bad_digests]

    if not any(p.samples for p in passes):
        print("\n".join(f"FAILED {m}" for m in messages[:20]), file=sys.stderr)
        raise SystemExit(f"error: no run of {workload.name} completed, so there is nothing to measure")
    if args.trace:
        metrics = per_layer_metrics(passes)
        tracer.write(out_dir / "spans.csv")
    else:
        metrics, samples = end_to_end_metrics(passes)

    print(f"workload {workload.name}: {workload.why}")
    for name, value in env.items():
        print(f"  env {name} = {value}")
    print(f"  passes {len(passes)}, trace {args.trace}")
    print("  per pass: wall_s " + " ".join(f"{p.wall_s:.3f}" for p in passes)
          + "; setup_s " + " ".join(f"{p.setup_s:.3f}" for p in passes))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  (iteration samples: {len(samples)})")
        if len(samples) >= P95_MIN_SAMPLES:
            print(f"  iter_ms_p95 = {1e3 * np.percentile(samples, 95):.6g} ms (not bounded)")
        else:
            print(f"  iter_ms_p95 not reported: {len(samples)} < {P95_MIN_SAMPLES} iteration samples")
    print(f"  runs_failed = {failed / attempted:.6g} fraction ({failed} of {attempted} runs)")
    digest_all = hashlib.sha256("".join(f"{k}={v}\n" for k, v in sorted(passes[0].digests.items())).encode())
    print(f"  trace digest {digest_all.hexdigest()[:16]} at {BLAS_THREADS} BLAS thread(s)")
    for message in messages[:20]:
        print(f"  FAILED {message}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload.name, env=env, digests=passes[0].digests, failures=messages,
                  pass_wall_s=[p.wall_s for p in passes], iteration_samples_s=[list(p.samples) for p in passes])
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload untraced then traced, each in a child process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--field-seed", str(args.field_seed)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                raise SystemExit(f"error: {name} --trace {trace} exited with {proc.returncode}")
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        untraced = results[0]["metrics"]["wall_s"]["value"]
        traced = results[1]["metrics"]["trace.wall_s"]["value"]
        print(f"{name}: tracing overhead {traced - untraced:+.3f} s ({(traced / untraced - 1) * 100:+.1f}% of wall_s)\n")
        for trace, res in results.items():
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
        for metric, value in results[0]["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
