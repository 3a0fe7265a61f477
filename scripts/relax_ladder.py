#!/usr/bin/env python3
"""Relax the unit hopfion on a ladder of resolutions, or tabulate the ansatz on it.

Each rung runs the guarded descent from the same ring ansatz and
reports the final energy, the Hopf charge reading, and the normalized
ratio energy / |Q|^(3/4).  The ratio is the quantity with a continuum
meaning; watching it settle across rungs is the cheap substitute for a
continuum extrapolation.

Coarse rungs read the unit charge well below 1, so the charge guard is
widened in proportion to the observed deficit rather than disabled.
A rung the guard still aborts prints the last row of its partial trace,
marked as aborted, and the script then exits 4, the command line's
class-violation code.

With --ansatz no descent runs.  Three tables read an ansatz against its
continuum target at each size: the equator energy against 8 pi^3,
scaled linearly with the box side, the hopfion charge against 1 and the
ballmap degree against 1.  Each row prints the error and the step ratio
from the row before; second order shows up as ratios near the square of
the size ratio.  Sizes below 18 are dropped with a note.
"""

import argparse
import csv
import math
import sys
import time

from fdvk import AnsatzSpec, ClassViolation, FlowConfig, Grid, degree, energy, generate, hopf_charge, minimize

TWO_PI = 2.0 * math.pi


def run_rung(n, box, iters, out_dir):
    g = Grid(n, box)
    psi0 = generate(AnsatzSpec(kind="hopfion", charge=1), g)
    q0 = hopf_charge(psi0)
    # guard width: twice the starting deficit, floored at the default
    tol = max(0.05, 2.0 * abs(q0 - 1.0))
    cfg = FlowConfig(
        mode="hopf-class",
        max_iters=iters,
        monitor_every=max(1, iters // 20),
        charge_drift_tol=tol,
    )
    t0 = time.perf_counter()
    try:
        trace, abort = minimize(psi0, cfg)[1], None
    except ClassViolation as exc:
        trace, abort = exc.trace, exc
    dt = time.perf_counter() - t0
    if out_dir:
        path = f"{out_dir}/hopfion_n{n}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "energy", "grad_norm", "hopf", "vk_ratio"])
            for r in trace.rows:
                w.writerow([r.iteration, r.total, r.grad_norm,
                            r.hopf_charge, r.vk_ratio])
    return q0, trace, dt, abort


def cell(value, width):
    """value with 4 decimals in a column of width; '-' when it is undefined."""
    return f"{'-':>{width}}" if value is None else f"{value:{width}.4f}"


def ansatz_tables(sizes, box):
    if any(n < 18 for n in sizes):
        # localized probes refuse fewer than 8 cells across the core at
        # the default radius
        sizes = [n for n in sizes if n >= 18] or [18]
        print(f"note: sizes below 18 dropped -> {sizes}", file=sys.stderr)
    probes = (
        ("equator energy vs continuum 8 pi^3 (scaled by box)", AnsatzSpec(kind="equator"),
         lambda f: energy(f).total, 8.0 * math.pi**3 * (box / TWO_PI)),
        ("hopfion charge vs 1", AnsatzSpec(kind="hopfion", charge=1), hopf_charge, 1.0),
        ("ballmap degree vs 1", AnsatzSpec(kind="ballmap", charge=1), degree, 1.0),
    )
    for title, spec, read, exact in probes:
        print(f"\n{title}")
        print(f"  {'n':>4}  {'value':>14}  {'error':>12}  {'ratio':>7}")
        prev = None
        for n in sizes:
            value = read(generate(spec, Grid(n, box)))
            err = abs(value - exact)
            ratio = f"{prev / err:7.3f}" if prev and err else " " * 7
            print(f"  {n:>4}  {value:14.8f}  {err:12.3e}  {ratio}")
            prev = err


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[24, 32, 48])
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--box", type=float, default=TWO_PI)
    p.add_argument("--out-dir", default=None,
                   help="write one trace CSV per rung here")
    p.add_argument("--ansatz", action="store_true",
                   help="tabulate the ansatz readings against their targets; no descent")
    args = p.parse_args(argv)
    if args.ansatz:
        ansatz_tables(sorted(set(args.sizes)), args.box)
        return 0

    print(f"{'n':>4}  {'Q start':>8}  {'Q end':>8}  {'energy':>12}  "
          f"{'E/|Q|^0.75':>12}  {'iters':>6}  {'secs':>7}  stop")
    aborted = False
    for n in sorted(set(args.sizes)):
        q0, trace, dt, abort = run_rung(n, args.box, args.iters, args.out_dir)
        last, stop = trace.rows[-1], trace.stop_reason
        if abort is not None:
            print(f"n = {n}: {abort}", file=sys.stderr)
            aborted, stop = True, f"aborted: {type(abort).__name__}"
        print(f"{n:>4}  {q0:8.4f}  {cell(last.hopf_charge, 8)}  "
              f"{last.total:12.4f}  {cell(last.vk_ratio, 12)}  "
              f"{last.iteration:>6}  {dt:7.1f}  {stop}")
    return 4 if aborted else 0


if __name__ == "__main__":
    sys.exit(main())
