"""Lattice fields with values on S2 and Sp1, energies, and connections.

A SphereField stores one unit imaginary quaternion per site (a map to
S2), a GroupField one unit quaternion (a map to Sp1), a Connection one
imaginary quaternion per site and lattice direction.

Connection values follow the edge-logarithm convention: a_mu(x) is the
scaled log of the transport from site x to x + e_mu and therefore
samples the continuum 1-form at the edge midpoint x + h/2 e_mu. Code
that needs the value at the site itself averages the two incident
edges (avg_back); holonomy and developing-map reconstruction consume
the raw edge values, for which the round trip is exact.  Edge logs are
component-first, (direction, component, n, n, n); _edge_logs forms them
from the steps g* t_mu g(. + e_mu), for connection_of (t = 1, g = u) and
the gauge moves, and forms g* itself: the one conjugate-edge rule.

Each field class declares its kind once: its per-site value shape,
SHAPE, and whether every site holds a unit vector, UNIT; fields compare
by identity.  A reader handed a field of another kind raises, through
_expect, one TypeError naming the kind it expected.  This module alone
lays out field storage (tests/test_contract.py): a field stores one
C-contiguous, read-only array, SHAPE + (n, n, n), and its values are the
site-last view of it.
_store checks a caller's values and copies them once, unless nothing can
write to them and their component-first view is C-contiguous (_kept);
_field builds every field the package makes, freezing in place the
array it built and the array that one views (_freeze); _cf, a view of
the stored array, is the one way in, and minimize alone copies it.  So
what is computed from a field's values holds as long as the field: a
Connection keeps its plaquette deviation (one float, set by gauge), and
connection_of(u) leaves on u a weak reference to the Connection it
returns, whose edge logarithms _logs_of(u) reads instead of forming
them again while it is alive; u keeps no other array.

Both energies, and the descent's slopes, are one slab sweep, _sweep.  It
takes the undivided differences 2h d_mu psi of lattice._diff_into, adds
4h ab_mu x phi for energy_conn, ab the slab's site averages (_site_logs),
which makes them 2h D_a phi, and reads everything off their Gram matrix
G_mu_nu = d_mu . d_nu in one routine, _assemble: e2 = tr G; by
Lagrange's identity e4 = sum_{mu<nu} G_mu_mu G_nu_nu - G_mu_nu^2; the
largest G_mu_mu of the step ceiling; and the slopes of flow.grad_energy,
P_mu = (c + sum_{nu != mu} G_nu_nu) d_mu - sum_{nu != mu} G_mu_nu d_nu.
No difference is divided by 2h: the Dirichlet weight c is 4h^2, so P_mu
is 8h^3 times half the density's derivative by d_mu psi, and the sums of
the densities 4h^2 e2 and 16h^4 e4 take the quadrature weight h^3 as
h / 4 and 1 / 16h.  The densities are summed once over the whole field,
in memory order, so the energy does not depend on the slab size, and
energy_conn(phi, 0) == energy(phi) bit for bit.  The area form divides
its differences by 2h as lattice.diff does, and keeps diff's floats.
_conjugate rotates a SphereField, or one imaginary triple that stands
for a constant field, which is then never built.
"""

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import quat
from .errors import UnresolvableField
from .lattice import Grid, _aligned, _cross, _diff_into, _dot, _shifted, _site_last, _slab_sweep, avg_back, diff

FOUR_PI = 4.0 * np.pi


def _read_only(v):
    """Whether nothing can write to v: v and every array it views are read-only,
    down to one that owns its memory."""
    while isinstance(v, np.ndarray):
        if v.flags.writeable:
            return False
        v = v.base
    return v is None


def _freeze(v):
    """v made read-only in place, with the array it views, so no copy is made."""
    if isinstance(v.base, np.ndarray):
        v.base.flags.writeable = False
    v.flags.writeable = False
    return v


def _kept(values):
    """Site-last values as a read-only component-first array: their own view when nothing
    can write to them and that view is C-contiguous, else one copy into that layout."""
    v = np.moveaxis(values, (0, 1, 2), (-3, -2, -1))
    return v if _read_only(v) and v.flags.c_contiguous else _freeze(v.copy())


def _field(cls, grid, v):
    """The field of cls storing v, a C-contiguous component-first array the package built."""
    return cls(grid, np.moveaxis(_freeze(v), (-3, -2, -1), (0, 1, 2)))


def _cf(f):
    """The component-first view of a field's values: the array it stores."""
    return np.moveaxis(f.values, (0, 1, 2), (-3, -2, -1))


def _expect(cls, f):
    """f, when it is a cls; else TypeError naming the kind expected."""
    if not isinstance(f, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(f).__name__}")
    return f


def _reduce(field):
    """Pickle and copy a field through its constructor: values read-only again, no memo carried."""
    return type(field), (field.grid, field.values)


def _store(f):
    """The __post_init__ of each field class: stores f's site-last values (_kept).  ValueError
    unless their shape is (n, n, n) + f.SHAPE, they are finite and, for f.UNIT, unit vectors;
    values are not renormalized, which would break the bit-exact snapshot round trip."""
    kind, shape = type(f).__name__, f.SHAPE
    v = np.asarray(f.values, dtype=float)
    if v.shape != (f.grid.n,) * 3 + shape:
        raise ValueError(f"{kind} values must have shape (n, n, n, {', '.join(map(str, shape))})")
    v = _kept(v)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{kind} values must be finite")
    off = np.abs(quat._norm(v) - 1.0) if f.UNIT else 0.0
    if np.any(off > quat.UNIT_TOL):
        raise ValueError(f"{kind} off the unit sphere by {float(np.max(off)):.3e}")
    object.__setattr__(f, "values", np.moveaxis(v, (-3, -2, -1), (0, 1, 2)))


@dataclass(frozen=True, eq=False)
class SphereField:
    """Map from the torus to S2, one unit imaginary quaternion per site; values read-only."""

    grid: Grid
    values: np.ndarray = field(repr=False)
    SHAPE, UNIT = (3,), True
    __post_init__ = _store
    __reduce__ = _reduce


@dataclass(frozen=True, eq=False)
class GroupField:
    """Map from the torus to Sp1, one unit quaternion per site; values read-only."""

    grid: Grid
    values: np.ndarray = field(repr=False)
    SHAPE, UNIT = (4,), True
    _connection = None  # weakref.ref to connection_of(self), set there
    __post_init__ = _store
    __reduce__ = _reduce


@dataclass(frozen=True, eq=False)
class Connection:
    """sp1-valued discrete 1-form in the edge-logarithm convention; values read-only."""

    grid: Grid
    values: np.ndarray = field(repr=False)
    SHAPE, UNIT = (3, 3), False
    _plaquette = None  # plaquette deviation, set by gauge._deviation
    __post_init__ = _store
    __reduce__ = _reduce

    def site_values(self):
        """Edge values moved to sites by the two-edge average, O(h^2)."""
        return np.moveaxis(_site_logs(self.grid, _cf(self)), (0, 1), (3, 4))


def _site_logs(grid, logs, out=None, a=0, b=None):
    """Component-first edge logarithms moved to sites by the two-edge average, at planes
    a .. b - 1 of the first site axis as avg_back reads them; into out when given."""
    out = np.empty(logs[..., a:b, :, :].shape) if out is None else out
    for mu in range(3):
        avg_back(grid, logs[mu], mu + 1, out[mu], a, b)
    return out


class Energy(NamedTuple):
    e2: float
    e4: float
    total: float


def constant_sphere(grid, v=quat.IM_I):
    return _field(SphereField, grid, np.asarray(v, float).repeat(grid.n**3).reshape((-1,) + (grid.n,) * 3))


def constant_group(grid, q=quat.ONE):
    return _field(GroupField, grid, np.asarray(q, float).repeat(grid.n**3).reshape((-1,) + (grid.n,) * 3))


def _conjugate(u, phi):
    """u phi u* site by site, component-first and normalized: a new (3, n, n, n) array, so the
    rotation's (4, n, n, n) result is not kept alive by it.  phi is a SphereField on u's grid,
    or one imaginary triple, the constant field."""
    if isinstance(phi, SphereField):
        u.grid.same(phi.grid)
        phi = _cf(phi)
    psi = quat._rotate(_cf(u), phi)
    return psi / quat._norm(psi)


def conjugate_field(u, phi):
    """psi = u phi u* site by site."""
    return _field(SphereField, _expect(GroupField, u).grid, _conjugate(u, _expect(SphereField, phi)))


def _area(v, di, dj, out=None, s=None):
    """v . (di x dj) / 4 pi of component-first values, one pullback_area slot, summed
    as _dot sums; into out, with s scratch of shape (4,) + out.shape, when given."""
    s = np.empty((4,) + di.shape[1:]) if s is None else s
    out = _dot(v, _cross(di, dj, s[:3], s[3]), out, s[3])
    out /= FOUR_PI
    return out


def _slab_diffs(v, dm, a, b):
    """The three undivided central differences, 2h d_mu v, of component-first v at planes
    a .. b - 1 into dm; halos from v."""
    _diff_into(v, 1, dm[0], a, b)
    _diff_into(v[:, a:b], 2, dm[1])
    _diff_into(v[:, a:b], 3, dm[2])


def _area_form(g, v):
    """pullback_area of component-first v, any view, (3, n, n, n), in one slab sweep."""
    slabs = _slab_sweep(g.n, (4,), (3, 3))
    out = np.empty(v.shape)
    for a, b, s, dm in slabs:
        _slab_diffs(v, dm, a, b)
        dm /= 2.0 * g.h
        for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
            _area(v[:, a:b], dm[i], dm[j], out[k, a:b], s)
    return out


def pullback_area(psi):
    """Pullback of the unit-area 2-form on S2, as a dual-vector 2-form.

    F_k = psi . (d_i psi x d_j psi) / 4 pi for (i, j, k) cyclic; the
    total flux through a slice counts preimages of a regular value.
    Returned site-last, as a view.
    """
    return np.moveaxis(_area_form(_expect(SphereField, psi).grid, _cf(psi)), 0, -1)


# _GRAM[mu][nu] is the slot of G_mu_nu = d_mu . d_nu among the six _assemble forms
_GRAM = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def _assemble(d, e2, e4, s, P=None, g2=None, c=None):
    """The Gram densities e2 and e4 of three component-first differences d, into e2 and e4;
    given P, g2 and c, also the slopes P[mu], and g2[mu] raised to the largest G_mu_mu.

    s is scratch of shape (10,) + e2.shape; its first six slots take the
    Gram matrix (slots _GRAM).
    """
    G, t, tv = s[:6], s[6], s[7:]
    for mu in range(3):
        for nu in range(mu, 3):
            k = _GRAM[mu][nu]
            np.multiply(d[mu], d[nu], out=tv)
            np.add(tv[0], tv[1], out=G[k])
            G[k] += tv[2]
    np.add(G[0], G[1], out=e2)
    e2 += G[2]
    e4[...] = 0.0
    for i, (mu, nu) in enumerate(((0, 1), (0, 2), (1, 2))):
        np.multiply(G[mu], G[nu], out=t)
        e4 += np.subtract(t, np.multiply(G[3 + i], G[3 + i], out=tv[0]), out=t)
    if P is None:
        return
    for mu, nu, lam in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        g2[mu] = np.maximum(g2[mu], np.max(G[mu]))
        np.add(G[nu], c, out=t)
        t += G[lam]
        np.multiply(t, d[mu], out=P[mu])
        P[mu] -= np.multiply(G[_GRAM[mu][nu]], d[nu], out=tv)
        P[mu] -= np.multiply(G[_GRAM[mu][lam]], d[lam], out=tv)


class _Slopes(NamedTuple):
    """The descent's slopes P, (3, 3, n, n, n), and g2[mu], the largest |2h d_(mu+1) v|^2."""

    P: np.ndarray
    g2: np.ndarray


def _sweep(grid, v, keep, logs=None):
    """(Energy, _Slopes) of component-first unit values v with keep, else (Energy, None);
    given logs, a connection's edge logarithms (3, 3, n, n, n), the energy of D_a v."""
    # scratch first: after the whole-field arrays it cost 1.8 MB more peak RSS (relax);
    # each slab's differences dm, then, given logs, its site-averaged connection ab
    slabs = _slab_sweep(grid.n, (10,), (3 if logs is None else 6, 3))
    e2, e4 = _aligned(v.shape[1:]), _aligned(v.shape[1:])
    P, g2 = (_aligned((3,) + v.shape), np.zeros(3)) if keep else (None, None)
    h = grid.h
    for a, b, s, t in slabs:
        dm = t[:3]
        _slab_diffs(v, dm, a, b)
        if logs is not None:
            ab = _site_logs(grid, logs, t[3:], a, b)
            for mu in range(3):
                dm[mu] += np.multiply(4.0 * h, _cross(ab[mu], v[:, a:b], s[:3], s[3]), out=s[:3])
        _assemble(dm, e2[a:b], e4[a:b], s, None if P is None else P[:, :, a:b], g2, 4.0 * h**2)
    e2, e4 = float(np.sum(e2)) * (h / 4.0), float(np.sum(e4)) * (1.0 / (16.0 * h))
    return Energy(e2, e4, e2 + e4), (_Slopes(P, g2) if keep else None)


def energy(psi):
    """Dirichlet plus quartic energy of an S2-valued map.

    e2 integrates |d psi|^2; e4 integrates |d psi ^ d psi|^2, the sum
    of |d psi^a ^ d psi^b|^2 over the three component pairs, which
    collapses to sum_{mu<nu} |d_mu psi x d_nu psi|^2.
    """
    return _sweep(_expect(SphereField, psi).grid, _cf(psi), keep=False)[0]


def _edge_logs(grid, right, refusal, mid=None, out=None, left=None):
    """Edge logarithms log(step_mu) / h, (3, 3, n, n, n), of the unit steps
    right* (mid_mu right(. + e_mu)), all component-first, or right* right(. + e_mu);
    right* is formed into left when given.

    The first step with Re <= 0, directions in order, raises
    UnresolvableField(refusal).
    """
    n = grid.n
    out = np.empty((3, 3) + (n,) * 3) if out is None else out
    left = np.multiply(right, quat._CONJ, out=left)
    slabs = _slab_sweep(n, (3, 4), (2,))
    for mu in range(3):
        for a, b, (r, inner, s), tmp in slabs:
            step = _shifted(right, mu + 1, r, a, b)
            if mid is not None:
                step = quat._hamilton(mid[mu, :, a:b], step, inner, tmp[0])
            step = quat._hamilton(left[:, a:b], step, s, tmp[0])
            if np.any(step[0] <= 0.0):
                raise UnresolvableField(refusal.format(mu=mu + 1))
            quat._log_unit(step, out[mu, :, a:b], tmp)
            out[mu, :, a:b] /= grid.h
    return out


def _logs_of(u):
    """The edge logarithms of connection_of(u), component-first: steps u* u(. + e_mu)."""
    a = u._connection() if _expect(GroupField, u)._connection else None
    if a is not None:
        return _cf(a)
    return _edge_logs(u.grid, _cf(u), "adjacent sites along direction {mu} differ by "
                      "90 degrees or more; refine the grid")


def connection_of(u):
    """a = u* du via edge logarithms.

    a_mu(x) = log(u(x)* u(x + e_mu)) / h. Exactness of the round trip
    through the developing map is the design property; the price is the
    half-edge offset of the edge-logarithm convention.
    """
    a = _field(Connection, u.grid, _logs_of(u))
    object.__setattr__(u, "_connection", weakref.ref(a))
    return a


def _covariant(a, phi):
    """(D, dphi, ab, p) component-first: D_a phi, d_mu phi, the site-averaged connection, phi.

    D[mu] = dphi[mu] + 2 ab[mu] x phi has the shape of ab, (3, 3, n, n, n).
    """
    _expect(Connection, a).grid.same(_expect(SphereField, phi).grid)
    p = _cf(phi)
    ab = _site_logs(phi.grid, _cf(a))
    dphi = [diff(phi.grid, p, mu) for mu in (1, 2, 3)]
    D = np.empty_like(ab)
    for mu in range(3):
        np.add(dphi[mu], 2.0 * _cross(ab[mu], p), out=D[mu])
    return D, dphi, ab, p


def covariant_derivative(a, phi):
    """D_a phi, components d_mu phi + [a_mu, phi] at sites.

    Uses central differences for d and the site-averaged connection for
    the bracket, so the result is collocated with the field values.
    """
    return _site_last(_covariant(a, phi)[0], lead=2)


def energy_conn(phi, a):
    """Energy in the connection picture: d psi replaced by D_a phi."""
    _expect(Connection, a).grid.same(_expect(SphereField, phi).grid)
    return _sweep(phi.grid, _cf(phi), keep=False, logs=_cf(a))[0]


def decompose(a, phi):
    """Split a into the phi-component and the tangential part.

    long_mu = <a_mu, phi>, tang_mu = phi [a_mu, phi] / 2. Reconstruction
    long phi + tang = a is an algebraic identity, exact per site. This
    is pointwise algebra on the stored arrays; no edge averaging.
    """
    _expect(Connection, a).grid.same(_expect(SphereField, phi).grid)
    A, p = _cf(a), _cf(phi)
    long = np.stack([_dot(A[mu], p) for mu in range(3)])
    # phi [a, phi] / 2 = phi x (a x phi), the projection off phi
    tang = np.stack([_cross(p, _cross(A[mu], p)) for mu in range(3)])
    return _site_last(long), _site_last(tang, lead=2)


def plaquette_curvature(a):
    """Forward-difference curvature da + a ^ a on plaquettes.

    Each component is centered at the plaquette midpoint: forward
    differences of the transverse edge values plus the bracket of the
    averaged parallel legs. O(h^2) for developed connections.
    Returns a dual-vector 2-form of imaginary quaternions, slot k for
    the (i, j) plaquette with (i, j, k) cyclic.
    """
    h = _expect(Connection, a).grid.h
    A = _cf(a)
    out, r = np.empty(A.shape), np.empty((2,) + A.shape[1:])
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        ai, aj = A[i], A[j]
        # each leg's far edge: a_i one site up along j, a_j one up along i
        ri, rj = _shifted(ai, j + 1, r[0]), _shifted(aj, i + 1, r[1])
        out[k] = (rj - aj) / h - (ri - ai) / h + 2.0 * _cross(0.5 * (ai + ri), 0.5 * (aj + rj))
    return _site_last(out, lead=2)


def flatness_residuals(a, phi):
    """L2 residuals of the curvature and of its frame decomposition.

    full is the plaquette curvature norm. eq1 and eq2 are the residuals
    of the two equations the flatness condition splits into over the
    frame of phi: the phi-component equation

        d<a, phi> = [phi dphi, [a, phi]]/4 + phi [a, phi]^[a, phi]/4

    and the tangential equation

        d(phi [a, phi]/2) = <a, phi>^D_a phi + (dphi^[a, phi] + [a, phi]^dphi)/4.

    Both are evaluated site-centered through the identities
    [phi dphi, Q]_{mu nu}/4 = d_mu phi . t_nu - d_nu phi . t_mu and
    phi Q^Q /4 = -2 (t_mu x t_nu) . phi with t the tangential part and
    Q = [a, phi]; the transcription is exact pointwise algebra.  The
    squares are summed in site-last order, as the public arrays are.
    """
    g = phi.grid
    D, dphi, ab, p = _covariant(a, phi)
    s = np.stack([_dot(ab[mu], p) for mu in range(3)])
    t = ab - s[:, None] * p

    Fp = plaquette_curvature(a)
    full2 = sum(float(np.sum(Fp[..., k, :] ** 2)) for k in range(3))
    r1_2 = 0.0
    r2_2 = 0.0
    for i, j in ((1, 2), (2, 0), (0, 1)):
        ds = diff(g, s[j], i + 1) - diff(g, s[i], j + 1)
        r1 = ds - _dot(dphi[i], t[j]) + _dot(dphi[j], t[i]) + 2.0 * _dot(_cross(t[i], t[j]), p)
        r1_2 += float(np.sum(r1 * r1))
        dt = diff(g, t[j], i + 1) - diff(g, t[i], j + 1)
        sD = s[i] * D[j] - s[j] * D[i]
        Qi, Qj = 2.0 * _cross(t[i], p), 2.0 * _cross(t[j], p)
        mix = 0.5 * (_cross(dphi[i], Qj) - _cross(dphi[j], Qi))
        r2 = dt - sD - mix
        r2_2 += float(np.sum(_site_last(r2 * r2)))
    h3 = g.h**3
    return float(np.sqrt(full2 * h3)), float(np.sqrt(r1_2 * h3)), float(np.sqrt(r2_2 * h3))
