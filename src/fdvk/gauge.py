"""Holonomy, developing maps, circle gauge moves, canonical gauge.

A flat connection with trivial holonomy is the derivative of a group
field, recovered by develop along a fixed spanning tree.  The circle
subgroup stabilizing a sphere field phi acts on connections without
moving the represented map psi = u phi u*; fix_gauge uses that freedom
to kill the exact part of the longitudinal component <a, phi> and to
push its harmonic coefficients into the fundamental window [0, 1).

Edge data stay component-first: transports exp(h a) are (3, 4, n, n, n),
(direction, quaternion component), built once per call and shared there
by the flatness check, the developing map and the canonical gauge.
Transports, plaquettes and gauge moves sweep lattice._slab_sweep, the
same floats whatever the slab size; _line_walk multiplies one line's
steps in Python floats for holonomy's loops and develop's first axis,
which then runs one walk along a leading axis, _walk, over two views.

Fields are immutable, so a Connection's plaquette deviation is computed
once, by whichever of fix_gauge, develop and plaquette_deviation first
needs it, and kept on the Connection as one float (_deviation); each
call still compares it with its own flat_tol.  The transports are built
again per call, not kept: they would hold a (3, 4, n, n, n) array for
the life of the Connection.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import quat
from .errors import NontrivialHolonomy, NotFlat
from .fields import Connection, GroupField, SphereField, _cf, _edge_logs, _expect, _field
from .lattice import _dot, _half_spectrum, _irfft3, _parseval_norm, _shifted, _slab_sweep, _spectrum, avg_back

HOLONOMY_TOL = 1e-6
PLAQUETTE_TOL = 1e-6
EXACT_PART_TOL = 1e-8
TIE_EPS = 1e-9
MAX_PASSES = 32


@dataclass(frozen=True, eq=False)
class Holonomy:
    """Transport around the three fundamental loops through the origin; compares by identity."""

    loops: np.ndarray  # (3, 4) unit quaternions

    def __post_init__(self):
        v = np.asarray(self.loops, dtype=float)
        if v.shape != (3, 4):
            raise ValueError("Holonomy needs one unit quaternion per loop")
        if not np.all(np.isfinite(v)):
            raise ValueError("holonomy loops must be finite")
        if np.any(np.abs(quat.norm(v) - 1.0) > quat.UNIT_TOL):
            raise ValueError("holonomy loops must be unit quaternions")
        object.__setattr__(self, "loops", v)

    def deviation(self) -> float:
        """Largest distance of any loop value from the identity."""
        return float(np.max(np.abs(self.loops - quat.ONE)))


@dataclass(frozen=True)
class GaugeFixReport:
    """What the canonical gauge move did.

    harmonic_coeffs are the residues of the longitudinal harmonic part
    in winding-normalized units, each in [0, 1) after fixing; windings
    count the integer loop factors applied per direction;
    exact_part_norm is the L2 norm of the d-theta part removed from
    <a, phi>; ties marks coefficients that sat within the rounding
    epsilon of an integer, where the window endpoint 0 was chosen.
    """

    harmonic_coeffs: tuple
    windings: tuple
    exact_part_norm: float
    ties: tuple
    passes: int


def holonomy(a: Connection) -> Holonomy:
    """Ordered product of edge transports around each coordinate loop."""
    g, logs = _expect(Connection, a).grid, _cf(a)
    out = np.empty((3, 4))
    for ax in range(3):
        take = tuple(slice(None) if i == ax else 0 for i in range(3))
        p = _line_walk(quat._exp_im(logs[(ax, slice(None)) + take] * g.h).T)[-1]
        out[ax] = p / quat.norm(p)
    if not np.all(np.isfinite(out)):
        raise NotFlat("holonomy loop transports are not finite")
    return Holonomy(out)


def _transports(a: Connection):
    """Edge transports exp(h a), contiguous."""
    n, logs = a.grid.n, _cf(a)
    t = np.empty((3, 4) + (n,) * 3)
    for lo, hi, v in _slab_sweep(n, (5,)):  # v: h a_mu, then exp_im's scratch
        for mu in range(3):
            np.multiply(logs[mu, :, lo:hi], a.grid.h, out=v[:3])
            quat._exp_im(v[:3], t[mu, :, lo:hi], v[3:])
    return t


def _plaquette_deviation(t):
    """Largest deviation from 1 of the transport around any plaquette of t, slab by slab."""
    worst = 0.0
    for lo, hi, (r, fwd, bwd, p) in _slab_sweep(t.shape[-1], (4, 4)):
        for i, j in ((0, 1), (0, 2), (1, 2)):
            f = quat._hamilton(t[i, :, lo:hi], _shifted(t[j], i + 1, r, lo, hi), fwd, p[0])
            b = quat._hamilton(t[j, :, lo:hi], _shifted(t[i], j + 1, r, lo, hi), bwd, p[0])
            np.negative(b[1:], out=b[1:])
            d = quat._hamilton(f, b, p, r[0])
            d[0] -= 1.0
            # np.maximum, not max: a NaN plaquette must reach the result, not lose to 0.0
            worst = np.maximum(worst, np.max(np.abs(d, out=d)))
    return float(worst)


def _deviation(a: Connection, t=None):
    """The plaquette deviation of a, from its transports t when given; NotFlat when it is
    not finite."""
    if _expect(Connection, a)._plaquette is None:
        dev = _plaquette_deviation(_transports(a) if t is None else t)
        if not np.isfinite(dev):
            raise NotFlat(f"plaquette transport deviation is {dev}: the transports are not finite")
        object.__setattr__(a, "_plaquette", dev)
    return a._plaquette


def _flat_transports(a: Connection, flat_tol):
    """_transports(a), after checking the plaquettes against flat_tol, finite and >= 0."""
    if not 0.0 <= flat_tol < np.inf:
        raise ValueError(f"flat_tol must be finite and non-negative, got {flat_tol!r}")
    t = _transports(_expect(Connection, a))
    dev = _deviation(a, t)
    if dev > flat_tol:
        raise NotFlat(f"plaquette transport deviates from 1 by {dev:.3e}")
    return t


def plaquette_deviation(a: Connection) -> float:
    """Largest deviation from 1 of the transport around any plaquette.

    This is the exact discrete flatness: connections built as edge
    logarithms of a group field telescope to the identity here no
    matter how coarse the grid, while the finite-difference curvature
    of fields.plaquette_curvature only vanishes at O(h^2).
    """
    return _deviation(a)


def _walk(w, t):
    """w[k + 1] = w[k] t[k] along the leading axis from w[0], quaternion components on axis 1."""
    tmp = np.empty(w.shape[2:])
    for k in range(len(w) - 1):
        quat._hamilton(w[k], t[k], w[k + 1], tmp)


def _line_walk(t):
    """The n + 1 products w[k + 1] = w[k] t[k] along one line of (n, 4) values t from w[0] = 1,
    in Python floats: _walk's floats, without 28 ufunc calls per step."""
    return np.array(list(accumulate(t.tolist(), quat._hamilton_floats, initial=quat.ONE.tolist())))


def develop(a: Connection, flat_tol: float = PLAQUETTE_TOL) -> GroupField:
    """Reconstruct u with a = u* du, u(origin) = 1.

    Integration runs along the lexicographic spanning tree: up the
    first axis from the origin, then across the second axis in the
    plane, then along the third everywhere.  Flatness makes the result
    path-independent, so the tree choice only fixes the rounding.  The
    loops are checked with holonomy(a) before the walk.
    """
    t = _flat_transports(a, flat_tol)
    dev = holonomy(a).deviation()
    if dev > HOLONOMY_TOL:
        raise NontrivialHolonomy(f"loop holonomy deviates from (1,1,1) by {dev:.3e}")
    n = a.grid.n
    # walk axis first, w[k] = u(., ., k): each step along it is one contiguous block
    w = np.empty((n, 4, n, n))
    w[0, :, :, 0] = _line_walk(t[0, :, :, 0, 0].T)[:n].T
    _walk(np.moveaxis(w[0], 2, 0), np.moveaxis(t[1, :, :, :, 0], 2, 0))
    _walk(w, np.ascontiguousarray(np.moveaxis(t[2], -1, 0)))
    u = np.moveaxis(w, 0, -1)  # component-first
    return _field(GroupField, a.grid, np.divide(u, quat._norm(u), out=np.empty(u.shape)))


def circle_field(grid, theta) -> GroupField:
    """The S1-valued field exp(i theta) for a real angle field."""
    th = np.asarray(theta, dtype=float)
    zero = np.zeros_like(th)
    return _field(GroupField, grid, np.stack([np.cos(th), np.sin(th), zero, zero]))


def _transformed(grid, t, gval, gbar=None, out=None):
    """Edge logarithms of the transports g* t_mu g(. + e_mu), t and g = gval component-first;
    g* formed into gbar when given."""
    return _edge_logs(grid, gval, "gauge factor rotates an edge by 90 degrees or more; "
                      "the transformed connection has no principal logarithm", t, out, gbar)


def gauge_transform(a: Connection, phi: SphereField, lam: GroupField) -> Connection:
    """Conjugate a by the stabilizer field g = qmap(phi, lam), edge-wise.

    a'_mu(x) = log(g(x)* exp(h a_mu(x)) g(x+e_mu)) / h, which equals
    connection_of(u g) exactly whenever a = connection_of(u); in
    particular the represented map u phi u* does not move at all.
    """
    _expect(Connection, a).grid.same(_expect(SphereField, phi).grid)
    a.grid.same(_expect(GroupField, lam).grid)
    gval = quat._qmap(_cf(phi), _cf(lam))
    return _field(Connection, a.grid, _transformed(a.grid, _transports(a), gval))


def fix_gauge(a: Connection, phi: SphereField, flat_tol: float = PLAQUETTE_TOL):
    """Move a to the canonical gauge for phi.

    Repeatedly removes the exact part of <a, phi> with a stabilizer
    rotation exp(i theta) and shifts each harmonic coefficient into
    [0, 1) with integer loop windings; the discrete gauge shift only
    matches d(theta) to O(h^2), so passes repeat until the codifferential
    of <a, phi> is below 1e-8 in L2 norm and no winding step is left, at
    most MAX_PASSES of them.  The circle factor is pinned to 1 at the
    origin, which keeps develop of the result aligned with develop of
    the input.  Coefficients within 1e-9 of an integer round to the
    window endpoint 0 and are flagged.  The canonical gauge depends on
    the origin at O(h^2): a translated pair keeps the windings, the ties
    and the conjugated field, but its coefficients move at that order.

    The circle group is abelian, so the rotations compose to exp(i angle),
    angle the sum of the pass angles: each pass moves the input
    transports by qmap(phi, exp(i angle)) = cos(angle) + sin(angle) phi;
    only the last pass's edge logarithms are built into a Connection.
    """
    p = _cf(_expect(SphereField, phi))
    a.grid.same(phi.grid)
    t = _flat_transports(a, flat_tol)
    g = a.grid
    x = g._coords()
    # a rotation exp(i theta) shifts the site-averaged longitudinal form
    # by the central-difference symbol i sin(k_j h)/h, not by ik: solving
    # against it cancels every mode at linear order, where the plain
    # Poisson solve stalls the modes near the grid scale
    ks = sum(k * np.sin(k * g.h) / g.h for k in _half_spectrum(g)[0])
    ks = np.where(ks == 0.0, 1.0, ks)

    logs = _cf(a)
    # <a, phi> at sites, contiguous; s takes one direction's two-edge average
    long, s = np.empty((2, 3) + (g.n,) * 3)
    # qmap(phi, exp(i angle)) and its conjugate, written each pass
    gval, gbar = np.empty((2, 4) + (g.n,) * 3)
    moved = None  # the pass logs, once a pass has moved the transports
    angle = 0.0
    windings = np.zeros(3, dtype=int)
    passes = 0
    while True:
        for mu in range(3):
            _dot(avg_back(g, logs[mu], mu + 1, s), p, long[mu], s[0])
        # each mean sums its sites one after another, not pairwise as np.mean would: the order
        # the coefficients have always been read in, so they keep their bits from release to release
        means = [np.cumsum(c.ravel(), out=s[0].ravel())[-1] for c in long]
        coeffs = g.l * (np.array(means) / g.n**3) / (2.0 * np.pi)
        _, div, _, k2, weight = _spectrum(g, long)
        if passes == 0:
            removed = _parseval_norm(g, weight, div / np.sqrt(k2))
        # the canonical condition is on the codifferential, which weighs
        # the exact part by a wavenumber; gate on that, not on its L2 norm
        resid = _parseval_norm(g, weight, div)
        steps = -np.floor(coeffs + TIE_EPS).astype(int)
        if resid <= EXACT_PART_TOL and np.all(steps == 0):
            break
        if passes == MAX_PASSES:
            raise NotFlat(
                "canonical gauge did not converge; longitudinal residual "
                f"{resid:.3e} after {MAX_PASSES} passes"
            )
        passes += 1
        theta = _irfft3(g, 1j * div / ks)
        for k in range(3):
            if steps[k]:
                theta = theta + 2.0 * np.pi * steps[k] * x[k] / g.l
        angle += theta - theta[0, 0, 0]
        # qmap(phi, exp(i angle)) = cos(angle) + sin(angle) phi
        np.cos(angle, out=gval[0])
        np.multiply(np.sin(angle, out=s[0]), p, out=gval[1:])
        logs = moved = _transformed(g, t, gval, gbar, moved)
        windings += steps

    ties = np.abs(coeffs - np.round(coeffs)) <= TIE_EPS
    coeffs[ties] = 0.0
    return a if passes == 0 else _field(Connection, g, logs), GaugeFixReport(
        harmonic_coeffs=tuple(float(v) for v in coeffs),
        windings=tuple(int(w) for w in windings),
        exact_part_norm=float(removed),
        ties=tuple(ties.tolist()),
        passes=passes,
    )
