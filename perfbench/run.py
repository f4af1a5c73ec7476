"""parres benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload deep|random|oracle --seed N \
        --seconds S --trace 0|1

One process, one caller, operations back to back (a closed loop), all
through the public parres API with the package imported from ./src.  The
run:

1. set-up, three times, each from a fresh import of parres (so no
   module-level cache carries over); `setup_s` is the interpreter start and
   numpy import plus the median of the three;
2. with --trace 0, rounds of the workload's ops until another round would
   end past --seconds (at least one round); with --trace 1, one round with
   every layer entry point wrapped (see layertrace.py), which makes the
   per-layer counts repeat exactly for a seed;
3. the output checks: goldens, the GF(p) oracle, determinism.  A raised
   exception or a failed check counts as a failed op.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The lines before it give every metric
with its unit and sample count, `failed_frac`, and the machine.  A results
file and, when traced, the spans go to .perfbench_out/ under the root.
"""

from __future__ import annotations

import time

_BOOT_CPU_S = time.process_time()   # interpreter start, before any import

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PARRES_MODULES = ("algebra", "_engine", "kernel", "groebner", "complexes",
                  "koszul", "resolutions", "invariants", "oracle", "harness",
                  "cli")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("op_p50_s", "s"),
              ("op_p90_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Api:
    """The parres modules of one import, by short name (`_engine` as engine)."""

    def __init__(self):
        for name in PARRES_MODULES:
            setattr(self, name.lstrip("_"),
                    importlib.import_module(f"parres.{name}"))


def fresh_api():
    for name in [m for m in sys.modules
                 if m == "parres" or m.startswith("parres.")]:
        del sys.modules[name]
    return Api()


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine():
    import numpy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        importlib.import_module("parres._kernel")
        kernel = True
    except ImportError:
        kernel = False
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "compiled_kernel_imports": kernel}


class Tally:
    """Attempted and failed ops; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {label}: {error}", file=sys.stderr)


def run_rounds(workload, seconds, one_round, tally, probe):
    """Timed rounds of the workload's ops, normalized by the speed probe.

    Returns (rounds as (wall, cpu) pairs, op wall times, raw round walls).
    """
    rounds, op_wall, raw = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        round_wall = round_cpu = round_raw = 0.0
        for key, fn in workload.ops:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                output, error = fn(), None
            except Exception:  # an op that raises is a failed op
                output, error = None, traceback.format_exc(limit=3)
            t1, c1 = time.perf_counter(), time.process_time()
            wall = probe.normalize(t0, t1, t1 - t0)
            round_wall += wall
            round_cpu += probe.normalize(t0, t1, c1 - c0)
            round_raw += t1 - t0
            op_wall.append(wall)
            if error is None:
                error = workload.check(key, output)
            tally.record(key, error)
        rounds.append((round_wall, round_cpu))
        raw.append(round_raw)
        elapsed = time.perf_counter() - start
        if one_round or elapsed + round_raw > seconds:
            return rounds, op_wall, raw


def run_checks(label, pairs_fn, tally):
    try:
        pairs = pairs_fn()
    except Exception:  # a check that raises fails the run, not the harness
        pairs = [(label, traceback.format_exc(limit=3))]
    for check_label, error in pairs:
        tally.record(check_label, error)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("deep", "random", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if os.environ.get("PARRES_KERNEL"):
        print("error: PARRES_KERNEL is set; the benchmark measures only the "
              "default reducer", file=sys.stderr)
        return 2
    if not (SRC / "parres" / "__init__.py").is_file():
        print(f"error: no parres sources under {SRC}", file=sys.stderr)
        return 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (first numpy import is part of set-up)
    import layertrace
    import speed
    import workloads
    t1 = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / args.workload
    workload_cls = workloads.WORKLOADS[args.workload]

    with speed.SpeedProbe() as probe:
        boot_s = probe.normalize(t0, t1, _BOOT_CPU_S + t1 - t0)
        tracer = None
        setup_times = []
        region = time.perf_counter()
        if args.trace:
            api = Api()
            tracer = layertrace.Tracer()
            tracer.install(api)
            workload = workload_cls(api, args.seed, workdir)
        else:
            for _ in range(SETUPS):
                workload = None
                gc.collect()
                s0 = time.perf_counter()
                api = fresh_api()
                workload = workload_cls(api, args.seed, workdir)
                s1 = time.perf_counter()
                setup_times.append(probe.normalize(s0, s1, s1 - s0))

        tally = Tally()
        rounds, op_wall, raw_rounds = run_rounds(
            workload, args.seconds, bool(args.trace), tally, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run_checks("checks", workload.checks, tally)
        region_factor = probe.factor(region, time.perf_counter())
        if tracer is not None:
            tracer.uninstall()
        run_checks("sweep", workload.sweep, tally)
        probes = list(probe.durations)

    wall_s = statistics.median(r[0] for r in rounds)
    if args.trace:
        values = tracer.layer_metrics(wall_s, region_factor)
        units = {name: unit for name, unit, _ in layertrace.PER_LAYER}
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(r[1] for r in rounds),
            "op_p50_s": percentile(op_wall, 0.5),
            "op_p90_s": percentile(op_wall, 0.9),
            "setup_s": boot_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": len(rounds), "ops_per_round": len(workload.ops),
        "op_samples": len(op_wall),
        "round_wall_s": [r[0] for r in rounds],
        "raw_round_wall_s": raw_rounds,
        "setup_runs_s": setup_times, "boot_s": boot_s,
        "speed_factor": region_factor,
        "probe_samples": len(probes),
        "probe_median_s": statistics.median(probes),
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "machine": machine(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.json")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)

    m = info["machine"]
    print(f"machine: {m['nproc']} cpus, {m['cpu']}, Python {m['python']}, "
          f"numpy {m['numpy']}, compiled kernel "
          f"{'imports' if m['compiled_kernel_imports'] else 'absent'}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s) of "
          f"{len(workload.ops)} ops, {len(op_wall)} op samples, "
          f"{len(setup_times)} set-ups; times in reference seconds, speed "
          f"factor {region_factor:.3f}, raw round wall "
          f"{statistics.median(raw_rounds):.3f} s")
    for k, v in values.items():
        print(f"  {k:<46} {v:>14.6f} {units[k]}")
    print(f"  {'failed_frac':<46} {info['failed_frac']:>14.6f} ratio "
          f"({tally.failed} of {tally.attempted} ops and checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
