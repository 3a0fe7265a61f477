#!/usr/bin/env python3
"""Benchmark of fdvk: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload relax --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
its `src/` directory.  Prints an environment record and every metric by
name with its unit, then, as the last line, one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured untraced
for --seconds; with --trace 1 they are the per-layer ones, from a fixed
number of ops each run once untraced and once under the tracer, whose
spans go to perfbench/out/.  `--write-spec` regenerates BENCHMARK.json.
See perfbench/README.md.
"""

import os

# One thread for numpy, BLAS and FFT back ends: the host is small and
# shared, and the figures must not depend on what else is running.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import ctypes.util  # noqa: E402

# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# the largest mmap threshold glibc accepts on 64-bit hosts
KEEP_BELOW_BYTES = 32 << 20


def keep_freed_memory():
    """Make glibc malloc reuse freed blocks instead of unmapping them.

    By default each multi-megabyte numpy temporary is a fresh mmap, so
    every call faults its pages in again (about 54,000 minor faults per
    three energy-plus-gradient evaluations at n = 48).  On a shared
    virtual machine the cost of a fault swings with the host's load, and
    it swung relax timings by 20% between runs.  Keeping freed memory
    in the heap leaves the program's own work.  Returns whether glibc
    accepted both settings.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, KEEP_BELOW_BYTES) == 1
            and mallopt(M_TRIM_THRESHOLD, KEEP_BELOW_BYTES) == 1)


MALLOC_KEEP = keep_freed_memory()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("relax", "gauge", "census")
# Never used while the benchmark was tuned; kept for verification runs.
HELDOUT_SEED = 8191
SETUP_REPEATS = 5
# relax needs op 0 (the reference) and at least one seeded op to compare
MIN_OPS = {"relax": 2, "gauge": 1, "census": 1}
# ops of a traced run, each run once untraced and once traced
TRACED_OPS = {
    "full": {"relax": 3, "gauge": 10, "census": 44},
    "smoke": {"relax": 2, "gauge": 1, "census": 2},
}
# a tail percentile is reported only with this many samples beyond it
TAIL_MIN_BEYOND = 10
# Host-speed calibration (see Calibration): a fixed kernel of the
# benchmark's own takes CAL_SHARE of the busy time of an untraced run;
# REFERENCE_UNIT_S is the time of one unit at reference speed, and a
# timing is rescaled by the median of the CAL_WINDOW units nearest to it.
CAL_SHARE = 0.15
REFERENCE_UNIT_S = 0.012
CAL_WINDOW = 20
# How closely each workload's ops follow the kernel: when the kernel
# slows by a factor k, the ops slow by about k ** ELASTICITY.  Chosen
# from two sets of ten runs of the seed code on the reference host
# (README, "Host-speed calibration").
ELASTICITY = {"relax": 0.6, "gauge": 0.9, "census": 0.8}

# Functions whose calls and self time are per-layer metrics, named
# <module>.<function> after the fdvk module that defines them.
TRACED = (
    "flow.grad_energy", "flow.step_ceiling", "flow.relax_step", "flow.minimize",
    "fields.energy", "fields.SphereField", "fields.GroupField", "fields.pullback_area",
    "fields.connection_of", "fields.conjugate_field",
    "lattice.diff", "lattice.slice_flux", "lattice.solve_alpha", "lattice.d", "lattice.codiff",
    "invariants.fluxes", "invariants.hopf_charge", "invariants.degree",
    "invariants.chern_simons", "invariants.homotopy_record",
    "gauge.fix_gauge", "gauge.gauge_transform", "gauge.hodge_parts", "gauge.develop",
    "gauge.plaquette_deviation", "gauge.holonomy",
    "quat.mul", "quat.exp_im", "quat.log_unit", "quat.conjugate_by",
    "ansatz.generate",
    "cli.main", "cli.save_snapshot", "cli.load_snapshot",
)
MODULES = ("quat", "lattice", "fields", "invariants", "gauge", "ansatz", "flow", "cli")


def _per_layer_spec():
    out = []
    for mod in MODULES:
        out.append({"name": f"{mod}.self_s", "unit": "s", "better": "lower"})
    for name in TRACED:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    out += [
        {"name": "flow.line_search.energy_evals", "unit": "count", "better": "lower"},
        {"name": "flow.line_search.accept_ratio", "unit": "ratio", "better": "higher"},
        {"name": "flow.minimize.iters", "unit": "count", "better": "lower"},
        {"name": "flow.minimize.iters_per_s", "unit": "1/s", "better": "higher"},
        {"name": "gauge.fix_gauge.passes", "unit": "count", "better": "lower"},
        {"name": "cli.snapshot.mb", "unit": "MB", "better": "lower"},
        {"name": "trace.peak_rss_mb", "unit": "MB", "better": "lower"},
        {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
    ]
    return out


SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "relax", "why": "n=48 hopfion descends to a grad_norm target: the flow and fields.energy hot path; gauge, cli and quat stay idle"},
        {"name": "gauge", "why": "canonical gauge fixing of flat connections at n=32: gauge and quat do the work, lattice spectral calls inside; flow is idle"},
        {"name": "census", "why": "fdvk init/report classification of seeded ansatz fields: invariants, spectral lattice, ansatz and snapshot I/O"},
    ],
    "end_to_end": [
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": _per_layer_spec(),
}


def import_program():
    """Import numpy and fdvk from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    try:
        import fdvk
        import fdvk.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"cannot import fdvk from {SRC}: {exc}")
    origin = os.path.dirname(os.path.dirname(os.path.abspath(fdvk.__file__)))
    if origin != SRC:
        raise SystemExit(f"fdvk was imported from {origin}, not from {SRC}")


class Timing:
    """Wall time of one timed region, started at `start`, ending now."""

    def __init__(self, start):
        self.end = time.perf_counter()
        self.seconds = self.end - start


def import_times(cal):
    """Timings of a fresh interpreter importing numpy and fdvk, SETUP_REPEATS times.

    A fresh process per repeat, since a second import in this one would
    find the modules cached.
    """
    code = f"import sys; sys.path.insert(0, {SRC!r}); import numpy, fdvk, fdvk.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(Timing(t0))
        cal.keep_up(sum(t.seconds for t in times))
    return times


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc_keep_freed": MALLOC_KEEP,
        "loadavg": list(os.getloadavg()),
        "commit": _git_commit(),
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
    }


def make_workload(name, seed, scale):
    import workloads

    if name == "relax":
        return workloads.Relax(seed, scale)
    if name == "gauge":
        return workloads.Gauge(seed, scale)
    return workloads.Census(seed, scale, OUT)


def set_up(name, seed, scale, cal):
    """Build the workload SETUP_REPEATS times; return it and the build timings."""
    times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        t0 = time.perf_counter()
        wl = make_workload(name, seed, scale)
        times.append(Timing(t0))
        cal.keep_up(sum(t.seconds for t in times))
    return wl, times


class Calibration:
    """Times a fixed kernel of the benchmark's own between the ops.

    The host is a shared virtual machine whose speed changes by 20-45%
    for seconds to minutes at a time, as other tenants come and go; the
    program's ops and this kernel slow down together.  The kernel mixes
    numpy work on arrays of the workloads' size (an FFT and elementwise
    ops on a 24^3 x 4 field) with plain interpreter work, as the program
    does.  It takes no input from the program, so no change to the
    program can move it.  `rescale` brings a timing to reference speed
    with the units run nearest to it in time, to the power `elasticity`:
    the program's ops swing less than the kernel does.
    """

    def __init__(self, elasticity):
        import numpy as np

        self.np = np
        self.elasticity = elasticity
        self.field = np.random.default_rng(0).standard_normal((24, 24, 24, 4))
        self.ends = []
        self.times = []
        self.total = 0.0

    def unit(self):
        np = self.np
        x = self.field
        for _ in range(4):
            spectrum = np.fft.rfftn(x[..., 0])
            y = np.roll(x, 1, axis=0) * x + np.sin(x)
            x = y / np.sqrt(np.sum(y * y, axis=-1, keepdims=True))
            x[..., 0] += 1e-3 * np.fft.irfftn(spectrum, x.shape[:3], axes=(0, 1, 2))
        acc = 0
        for i in range(60000):
            acc += i * i % 7
        return acc

    def keep_up(self, busy_s, minimum=1):
        """Run units until they have taken CAL_SHARE of `busy_s`, and at least `minimum`."""
        done = 0
        while done < minimum or self.total < CAL_SHARE * busy_s:
            t0 = time.perf_counter()
            self.unit()
            timing = Timing(t0)
            self.ends.append(timing.end)
            self.times.append(timing.seconds)
            self.total += timing.seconds
            done += 1

    def speed(self, at=None):
        """REFERENCE_UNIT_S over the median unit time: near `at`, or over the whole run.

        Above 1 on a fast stretch of the host, below 1 on a slow one.
        """
        times = self.times
        if at is not None:
            j = bisect.bisect_left(self.ends, at)
            half = CAL_WINDOW // 2
            times = times[max(0, j - half):j + half]
        return REFERENCE_UNIT_S / statistics.median(times)

    def factor(self, at):
        """What a timing that ended at `at` is multiplied by to bring it to reference speed."""
        return self.speed(at) ** self.elasticity

    def rescale(self, timings):
        """Seconds of each timing at reference host speed."""
        return [t.seconds * self.factor(t.end) for t in timings]


class Tally:
    """Checked outcomes of a run: failures never yield timing samples."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.samples = []
        # when each op's samples were taken, for the calibration
        self.ends = []

    def run_op(self, wl, index, inp, tracer=None):
        """Run, time and check one op; return its wall time, or None if it failed.

        With a tracer, only the op itself is traced, not its check.
        """
        if tracer is not None:
            tracer.op = index
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception as exc:  # a failed op is counted, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        else:
            err = None
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if err is None:
            err = wl.check(index, inp, out)
        self.attempted += 1
        if err is not None:
            self.failures.append((index, err))
            return None
        samples = wl.samples(out, elapsed)
        self.samples.extend(samples)
        self.ends.extend([t0 + elapsed] * len(samples))
        return elapsed


def measure(wl, seconds, min_ops, cal):
    """Untraced run: ops in sequence until `seconds` have passed and a round is complete.

    Calibration units run between the ops, so they see the same stretches
    of host speed as the ops do.
    """
    tally = Tally()
    start = time.perf_counter()
    busy = 0.0
    index = 0
    while (index < min_ops or index % wl.round_ops
           or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        tally.run_op(wl, index, wl.make_input(index))
        busy += time.perf_counter() - t0
        cal.keep_up(busy, minimum=0)
        index += 1
    return tally


def measure_traced(wl, n_ops, tracer):
    """Each op once untraced and once traced, alternating which goes first."""
    tally = Tally()
    wall = {False: 0.0, True: 0.0}
    for index in range(n_ops):
        inp = wl.make_input(index)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            elapsed = tally.run_op(wl, index, inp, tracer if traced else None)
            if elapsed is not None:
                wall[traced] += elapsed
    return tally, wall


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values):
    """(q1, median, q3); zeros when every op failed and nothing was timed."""
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0, 0.0, 0.0)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_seconds(builds, imports):
    """Set-up time: median import plus median build."""
    return statistics.median(imports) + statistics.median(builds)


def per_second(ms):
    return len(ms) / (sum(ms) / 1000.0) if ms else 0.0


def end_to_end_metrics(name, tally, builds, imports, cal, lines):
    """Every time at reference host speed; the times as measured go to `lines`."""
    raw = [1000.0 * s for s in tally.samples]
    raw_setup = setup_seconds([t.seconds for t in builds], [t.seconds for t in imports])
    lines.append(f"host speed = {cal.speed():.4f} over {len(cal.times)} calibration units, "
                 f"elasticity {cal.elasticity}; "
                 f"as measured: op_ms_p50 {quartiles(raw)[1]:.3f} ms, "
                 f"ops_per_s {per_second(raw):.4f} 1/s, setup_s {raw_setup:.4f} s")
    ms = [1000.0 * s * cal.factor(end) for s, end in zip(tally.samples, tally.ends)]
    q1, p50, q3 = quartiles(ms)
    metrics = {
        "op_ms_p50": p50,
        "ops_per_s": per_second(ms),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_seconds(cal.rescale(builds), cal.rescale(imports)),
    }
    lines.append(f"op_ms_p50 = {p50:.3f} ms  (q1 {q1:.3f}, q3 {q3:.3f}, n = {len(ms)})")
    if name == "relax":
        lines.append(f"time_to_target_s = {p50 / 1000.0:.4f} s  (q1 {q1 / 1000.0:.4f}, "
                     f"q3 {q3 / 1000.0:.4f}, n = {len(ms)})")
    if len(ms) >= TAIL_MIN_BEYOND * 10:
        p90 = statistics.quantiles(ms, n=10)[-1]
        beyond = sum(1 for v in ms if v > p90)
        lines.append(f"op_ms_p90 = {p90:.3f} ms  ({beyond} samples beyond, n = {len(ms)})")
    return metrics


def per_layer_metrics(tracer, wall):
    metrics = {}
    module_self = {mod: 0.0 for mod in MODULES}
    for name, secs in tracer.self_s.items():
        mod = name.split(".", 1)[0]
        if mod in module_self:
            module_self[mod] += secs
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = module_self[mod]
    for name in TRACED:
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0)
        metrics[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    counts = tracer.counts
    candidates = counts.get("flow.line_search.candidates", 0)
    minimize_s = tracer.total_s.get("flow.minimize", 0.0)
    iters = counts.get("flow.minimize.iters", 0)
    metrics.update({
        "flow.line_search.energy_evals": int(counts.get("flow.line_search.energy_evals", 0)),
        "flow.line_search.accept_ratio": (
            counts.get("flow.line_search.accepted", 0) / candidates if candidates else 0.0),
        "flow.minimize.iters": int(iters),
        "flow.minimize.iters_per_s": iters / minimize_s if minimize_s else 0.0,
        "gauge.fix_gauge.passes": int(counts.get("gauge.fix_gauge.passes", 0)),
        "cli.snapshot.mb": counts.get("cli.snapshot.bytes", 0) / 1e6,
        "trace.peak_rss_mb": peak_rss_mb(),
        "trace.overhead_ratio": wall[True] / wall[False] if wall[False] else 0.0,
    })
    return metrics


def run(args):
    import_program()
    sys.path.insert(0, HERE)
    os.makedirs(OUT, exist_ok=True)
    print("env " + json.dumps(environment(args.seed)))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  scale {args.scale}")
    cal = Calibration(ELASTICITY[args.workload])
    wl, builds = set_up(args.workload, args.seed, args.scale, cal)
    wl.corrupt = args.corrupt_reference
    lines = []
    try:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tally, wall = measure_traced(wl, TRACED_OPS[args.scale][args.workload], tracer)
            metrics = per_layer_metrics(tracer, wall)
            path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(path)
            lines.append(f"trace: {len(tracer.spans)} spans in {os.path.relpath(path, ROOT)}; "
                         f"traced {wall[True]:.3f} s vs untraced {wall[False]:.3f} s")
        else:
            tally = measure(wl, args.seconds, MIN_OPS[args.workload], cal)
            imports = import_times(cal)
            metrics = end_to_end_metrics(args.workload, tally, builds, imports, cal, lines)
    finally:
        wl.close()
    lines = wl.summary() + lines
    failed = len(tally.failures)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for index, err in tally.failures:
        print(f"FAILED op {index}: {err}")
    print(f"failed_ratio = {failed / tally.attempted:.4f}  ({failed} of {tally.attempted} ops)")
    for line in lines:
        print(line)
    for key, value in metrics.items():
        print(f"{key} = {value} {units[key]}")
    result = {
        "correct": failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(SPEC, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke is the reduced size of the smoke test")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="falsify the reference values, so that the checks must fail")
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    missing = [f"--{k}" for k in ("workload", "seed", "seconds", "trace") if getattr(args, k) is None]
    if missing:
        p.error("missing " + ", ".join(missing))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
