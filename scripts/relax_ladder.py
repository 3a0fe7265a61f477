#!/usr/bin/env python3
"""Relax the unit hopfion on a ladder of resolutions.

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
"""

import argparse
import csv
import sys
import time

from fdvk import AnsatzSpec, ClassViolation, FlowConfig, Grid, generate, hopf_charge, minimize


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


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[24, 32, 48])
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--box", type=float, default=6.283185307179586)
    p.add_argument("--out-dir", default=None,
                   help="write one trace CSV per rung here")
    args = p.parse_args(argv)

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
