#!/usr/bin/env python3
"""Discretization error study across lattice resolutions.

Three probes, each with a known continuum target:

  equator   kinetic energy of the equatorial sweep against its
            continuum value 8 pi^3, scaled linearly with the box side
  hopfion   Hopf charge reading of the unit ring ansatz against 1
  ballmap   degree reading of the unit suspension ansatz against 1

Prints one table per probe with the observed error and the step ratio
between consecutive rows.  Second order shows up as ratios near the
square of the size ratio.
"""

import argparse
import math
import sys

from fdvk import AnsatzSpec, Grid, degree, energy, generate, hopf_charge

TWO_PI = 2.0 * math.pi


def table(title, rows):
    print(f"\n{title}")
    print(f"  {'n':>4}  {'value':>14}  {'error':>12}  {'ratio':>7}")
    prev = None
    for n, value, err in rows:
        ratio = f"{prev / err:7.3f}" if prev and err else " " * 7
        print(f"  {n:>4}  {value:14.8f}  {err:12.3e}  {ratio}")
        prev = err


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[18, 24, 32, 48])
    p.add_argument("--box", type=float, default=TWO_PI, help="side length")
    args = p.parse_args(argv)
    sizes = sorted(set(args.sizes))
    if any(n < 18 for n in sizes):
        # localized probes refuse fewer than 8 cells across the core at
        # the default radius
        sizes = [n for n in sizes if n >= 18] or [18]
        print(f"note: sizes below 18 dropped -> {sizes}", file=sys.stderr)

    rows = []
    for n in sizes:
        g = Grid(n, args.box)
        e = energy(generate(AnsatzSpec(kind="equator"), g))
        exact = 8.0 * math.pi**3 * (args.box / TWO_PI)
        rows.append((n, e.total, abs(e.total - exact)))
    table("equator energy vs continuum 8 pi^3 (scaled by box)", rows)

    rows = []
    for n in sizes:
        g = Grid(n, args.box)
        q = hopf_charge(generate(AnsatzSpec(kind="hopfion", charge=1), g))
        rows.append((n, q, abs(q - 1.0)))
    table("hopfion charge vs 1", rows)

    rows = []
    for n in sizes:
        g = Grid(n, args.box)
        d = degree(generate(AnsatzSpec(kind="ballmap", charge=1), g))
        rows.append((n, d, abs(d - 1.0)))
    table("ballmap degree vs 1", rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
