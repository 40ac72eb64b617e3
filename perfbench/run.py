"""beamspec benchmark: one workload per process, outputs checked against a
reference, metrics printed by name with their units.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py            # all three workloads, one process each

Workloads (see perfbench/notes.json for why each was chosen):
  shipped     `beamspec verify <cfg> --modes 6` through beamspec.cli.main
  high_modes  uniform M=0, modes 1..40: spectrum.refine + spectrum.eigenpair
  fem_ladder  fem.assemble + fem.solve_generalized, 40..320 elements, 6 configs

A pass runs the workload's fixed operation list once, in an order permuted by
--seed; passes repeat until --seconds would be exceeded (at least one).  Every
pass is graded against its acceptance criterion.  With --trace 0 the last line
of stdout carries the end-to-end metrics of BENCHMARK.json; with --trace 1 the
run makes one untraced pass, installs the tracer of perfbench/tracing.py and
reports the per-layer metrics instead, including the tracing overhead.
Human-readable lines starting with '#' come first.  Run records and spans go
to perfbench/out/.  Exits 1 without a result if the source tree is missing.
"""

import argparse
import ctypes
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("shipped", "high_modes", "fem_ladder")
SETUP_PROBES = 5
# one BLAS thread: the dense eigensolves are then bit-reproducible and do not
# compete with the interpreter thread for the two cores of the target machine
BLAS_THREADS = "1"
ERR_FLOOR = 1e-17   # acc_digits of an exact answer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the monotonic clock and exit")
    return parser.parse_args(argv)


def check_tree():
    src = ROOT / "src" / "beamspec"
    missing = [p for p in (src / "__init__.py", ROOT / "configs",
                           ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        raise SystemExit("error: not a beamspec checkout, missing "
                         + ", ".join(str(p) for p in missing))


def import_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import beamspec
    if Path(beamspec.__file__).resolve().parent != (ROOT / "src" / "beamspec").resolve():
        raise SystemExit(f"error: imported beamspec from {beamspec.__file__}, "
                         f"not from {ROOT / 'src'}")
    import workloads
    return workloads


def setup(name):
    """Everything a run does before its first timed operation."""
    workloads = import_workloads()
    workload = workloads.build(name, ROOT, OUT_DIR)
    workloads.warm_up(ROOT)
    return workload


def measure_setup(name):
    """Median of SETUP_PROBES fresh processes: launch to ready to time."""
    samples = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - launched)
    return statistics.median(samples), samples


def run_pass(workload, order, tracer, pass_no):
    results, latencies, warned = {}, {}, 0
    cpu = time.process_time()
    start = time.perf_counter()
    for op in order:
        if tracer is not None:
            tracer.op, tracer.pass_no = op, pass_no
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    results[op] = workload.run_op(op)
                else:
                    results[op] = tracer.call("bench.op", workload.run_op, op)
            except Exception as exc:  # a raising operation is a failed operation
                results[op] = exc
            latencies[op] = time.perf_counter() - t0
        warned += sum(str(w.message).startswith("near-degenerate") for w in caught)
    wall = time.perf_counter() - start
    return {"wall": wall, "cpu": time.process_time() - cpu,
            "latencies": latencies, "warnings": warned,
            "results": results, "graded": workload.check(results)}


def run_passes(workload, order, seconds, started, tracer=None, first_no=0):
    passes = []
    while True:
        passes.append(run_pass(workload, order, tracer, first_no + len(passes)))
        walls = [p["wall"] for p in passes]
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return passes


def blas_threads():
    """Thread counts reported by the OpenBLAS builds bundled with numpy and
    scipy (the wheel layout: <site-packages>/<package>.libs/)."""
    import numpy
    import scipy
    counts = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "scipy_openblas_get_num_threads64_"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    counts[lib.name] = fn()
                    break
    return counts


def env_stamp():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def grade(passes, known):
    """attempted, failed, unexpected failures, all delivered relative errors."""
    attempted = failed = 0
    unexpected, errors, failures = set(), [], {}
    for p in passes:
        for op, outcome in p["graded"].items():
            attempted += 1
            errors.extend(outcome.rel_errors)
            if not outcome.ok:
                failed += 1
                failures[op] = outcome.detail
                if op not in known:
                    unexpected.add(op)
    return attempted, failed, sorted(unexpected), errors, failures


def hd_median(values):
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the order
    statistics.  Unlike the sample median it does not jump between
    neighbouring values when the samples are few and unevenly spaced."""
    from scipy.special import betainc
    xs = sorted(values)
    half = (len(xs) + 1) / 2.0
    edges = [betainc(half, half, i / len(xs)) for i in range(len(xs) + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], xs))


def end_to_end(passes, setup_s, attempted, failed, errors):
    """Timings from the per-operation medians over the passes, so that a
    stall in one pass does not carry into the result."""
    op_median = [statistics.median(p["latencies"][op] for p in passes)
                 for op in passes[0]["latencies"]]
    worst = max(errors, default=1.0)     # nothing delivered: no correct digit
    return {
        "setup_s": setup_s,
        "wall_s": sum(op_median),
        "op_p50_s": hd_median(op_median),
        "max_rel_err": worst,
        "acc_digits": -math.log10(max(worst, ERR_FLOOR)),
        "fail_frac": failed / attempted,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced_wall, workload):
    from tracing import DETERMINISTIC, layer_metrics
    rows = []
    for p in traced:
        spans = [s for s in tracer.spans if s.pass_no == p["no"]]
        row = layer_metrics(spans)
        row["spectrum.degeneracy_warnings"] = p["warnings"]
        row.update(workload.layer_extras(p["results"]))
        rows.append(row)
    repeat = all(row[k] == rows[0][k] for row in rows for k in DETERMINISTIC)
    metrics = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics, repeat


def run_all(args):
    """Each workload in its own process, one after the other."""
    for name in WORKLOADS:
        sys.stdout.flush()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=False)
        if proc.returncode != 0:
            return proc.returncode
    return 0


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS     # before numpy loads; probes inherit it
    check_tree()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup(args.workload)
        print(time.monotonic())
        return 0

    setup_s, setup_samples = measure_setup(args.workload)
    workload = setup(args.workload)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((HERE / "notes.json").read_text())
    known = {op for d in notes["known_defects"] if d["workload"] == workload.name
             for op in d["ops"]}
    order = list(workload.ops)
    random.Random(args.seed).shuffle(order)
    OUT_DIR.mkdir(exist_ok=True)

    started = time.perf_counter()
    tracer = None
    if args.trace:
        from tracing import Tracer
        untraced = [run_pass(workload, order, None, 0)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, order, args.seconds, started, tracer, 1)
        finally:
            tracer.uninstall()
    else:
        untraced = run_passes(workload, order, args.seconds, started)
        traced = []
    for no, p in enumerate(untraced + traced):
        p["no"] = no

    attempted, failed, unexpected, errors, failures = grade(untraced + traced, known)
    e2e = end_to_end(untraced, setup_s, attempted, failed, errors)
    correct = not unexpected
    if args.trace:
        layers, repeat = per_layer(tracer, traced, untraced[0]["wall"], workload)
        correct = correct and repeat
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = e2e

    stamp = env_stamp()
    print(f"# perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(stamp)}")
    print(f"# passes untraced={len(untraced)} traced={len(traced)} "
          f"ops/pass={len(order)} attempted={attempted} failed={failed}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(max_rel_err="1", fail_frac="1")     # printed, not gated
    for name, value in e2e.items():
        print(f"# {name:<12} {value:.6g} {units[name]}")
    for op, detail in sorted(failures.items()):
        print(f"# failed {op}: {detail}{'' if op in known else ' (UNEXPECTED)'}")
    if args.trace:
        for m in wanted:
            print(f"# {m['name']:<32} {values[m['name']]:.6g} {m['unit']}")
        if not repeat:
            print("# per-pass counters differ between traced passes")

    record = {"args": vars(args), "env": stamp, "setup_samples": setup_samples,
              "walls": [p["wall"] for p in untraced + traced],
              "cpu": [p["cpu"] for p in untraced + traced],
              "op_latency": {op: [p["latencies"][op] for p in untraced + traced]
                             for op in order},
              "end_to_end": e2e, "failures": failures, "unexpected": unexpected,
              "per_layer": values if args.trace else None}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
