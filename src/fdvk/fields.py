"""Lattice fields with values on S2 and Sp1, energies, and connections.

A SphereField stores one unit imaginary quaternion per site (a map to
S2), a GroupField one unit quaternion (a map to Sp1), a Connection one
imaginary quaternion per site and lattice direction.

Connection values follow the edge-logarithm convention: a_mu(x) is the
scaled log of the transport from site x to x + e_mu and therefore
samples the continuum 1-form at the edge midpoint x + h/2 e_mu. Code
that needs the value at the site itself averages the two incident
edges (avg_back); holonomy and developing-map reconstruction consume
the raw edge values, for which the round trip is exact.  All math here
is component-first: edge logs are (direction, component, n, n, n), _logs
reads a Connection that way, and a Connection, built only where a public
function returns one, holds a site-last view of them.

Both energies read their densities off the Gram matrix G_mu_nu =
d_mu psi . d_nu psi of the three central differences, or of D_a phi, in
one routine, _assemble: e2 = tr G and, by Lagrange's identity, e4 =
sum_{mu<nu} G_mu_mu G_nu_nu - G_mu_nu^2; the descent's sweep also takes
from G the slopes P_mu of flow.grad_energy.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import quat
from .errors import UnresolvableField
from .lattice import Grid, _comp_first, _cross, _diff_into, _dot, _site_last, _slabs, avg_back, diff

FOUR_PI = 4.0 * np.pi


def _check_values(grid, values, comps, kind):
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n, grid.n, grid.n, comps):
        raise ValueError(f"{kind} values must have shape (n, n, n, {comps})")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{kind} values must be finite")
    v = np.moveaxis(values, -1, 0)  # summed left to right, as np.sum sums the last axis
    n = np.sqrt(_dot(v, v) + v[3] * v[3] if comps == 4 else _dot(v, v))
    if np.any(np.abs(n - 1.0) > quat.UNIT_TOL):
        worst = float(np.max(np.abs(n - 1.0)))
        raise ValueError(f"{kind} off the unit sphere by {worst:.3e}")
    return values


@dataclass(frozen=True)
class SphereField:
    """Map from the torus to S2, one unit imaginary quaternion per site."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _check_values(self.grid, self.values, 3, "SphereField")
        # stored as given: renormalizing here would break the bit-exact
        # snapshot round trip
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class GroupField:
    """Map from the torus to Sp1, one unit quaternion per site."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _check_values(self.grid, self.values, 4, "GroupField")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Connection:
    """sp1-valued discrete 1-form in the edge-logarithm convention."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,) * 3 + (3, 3):
            raise ValueError("Connection values must have shape (n, n, n, 3, 3)")
        if not np.all(np.isfinite(v)):
            raise ValueError("Connection values must be finite")
        object.__setattr__(self, "values", v)

    def site_values(self):
        """Edge values moved to sites by the two-edge average, O(h^2)."""
        return np.moveaxis(_site_logs(self.grid, _logs(self)), (0, 1), (3, 4))


def _logs(a):
    """The edge logarithms of a Connection, component-first: a (3, 3, n, n, n) view."""
    return np.moveaxis(a.values, (3, 4), (0, 1))


def _site_logs(grid, logs):
    """Component-first edge logarithms moved to sites by the two-edge average."""
    out = np.empty(logs.shape)
    for mu in range(3):
        out[mu] = avg_back(grid, logs[mu], mu + 1)
    return out


class Energy(NamedTuple):
    e2: float
    e4: float
    total: float


def constant_sphere(grid, v=quat.IM_I):
    return SphereField(grid, np.broadcast_to(np.asarray(v, float), (grid.n,) * 3 + (3,)).copy())


def constant_group(grid, q=quat.ONE):
    return GroupField(grid, np.broadcast_to(np.asarray(q, float), (grid.n,) * 3 + (4,)).copy())


def _conjugate(u, phi):
    """u phi u* site by site, component-first and normalized."""
    u.grid.same(phi.grid)
    # component-first views, not copies: the rotation reads each value once
    psi = np.stack(quat._rotate(np.moveaxis(u.values, -1, 0), np.moveaxis(phi.values, -1, 0)))
    psi /= np.sqrt(_dot(psi, psi))
    return psi


def conjugate_field(u, phi):
    """psi = u phi u* site by site."""
    return SphereField(u.grid, _site_last(_conjugate(u, phi)))


def _area(v, di, dj):
    """v . (di x dj) / 4 pi of component-first values: one pullback_area slot."""
    return _dot(v, _cross(di, dj)) / FOUR_PI


def _area_form(g, v):
    """pullback_area of component-first v, (3, n, n, n); elementwise, so v may be any view."""
    dv = [diff(g, v, mu) for mu in (1, 2, 3)]
    out = np.empty(v.shape)
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        out[k] = _area(v, dv[i], dv[j])
    return out


def pullback_area(psi):
    """Pullback of the unit-area 2-form on S2, as a dual-vector 2-form.

    F_k = psi . (d_i psi x d_j psi) / 4 pi for (i, j, k) cyclic; the
    total flux through a slice counts preimages of a regular value.
    Returned site-last, as a view of the component-first array built.
    """
    return np.moveaxis(_area_form(psi.grid, np.moveaxis(psi.values, -1, 0)), 0, -1)


# _GRAM[mu][nu] is the slot of G_mu_nu = d_mu . d_nu among the six _assemble forms
_GRAM = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def _assemble(d, e2, e4, s, P=None, g2=None):
    """The Gram densities of three component-first derivatives d, d psi or D_a phi.

    s is scratch of shape (10,) + e2.shape.  Its first six slots take the
    Gram matrix G_mu_nu = d_mu . d_nu (slots _GRAM); e2 gets
    G00 + G11 + G22 and e4 gets sum_{mu<nu} G_mu_mu G_nu_nu - G_mu_nu^2,
    which is |d_mu x d_nu|^2 by Lagrange's identity.  Given P and g2,
    writes P[mu] = (1 + sum_{nu != mu} G_nu_nu) d_mu - sum_{nu != mu}
    G_mu_nu d_nu, half the derivative of e2 + e4 by d_mu, and raises
    g2[mu] to the largest G_mu_mu = |d_mu|^2 over the sites.
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
        np.add(G[nu], 1.0, out=t)
        t += G[lam]
        np.multiply(t, d[mu], out=P[mu])
        P[mu] -= np.multiply(G[_GRAM[mu][nu]], d[nu], out=tv)
        P[mu] -= np.multiply(G[_GRAM[mu][lam]], d[lam], out=tv)


def _energy(grid, e2, e4):
    """Energy of whole-field densities: each summed once, in memory order."""
    h3 = grid.h**3
    e2, e4 = float(np.sum(e2)) * h3, float(np.sum(e4)) * h3
    return Energy(e2, e4, e2 + e4)


class _Slopes(NamedTuple):
    """P[mu] = half the derivative of the energy density by d_(mu+1) v, shape
    (3, 3, n, n, n), and g2[mu], the largest |d_(mu+1) v|^2 over the sites."""

    P: np.ndarray
    g2: np.ndarray


def _sweep(grid, v, keep):
    """Energy of component-first unit values v in one slab sweep.

    Each slab of whole planes along the first site axis takes its three
    central differences into a slab buffer and goes through _assemble;
    the scalar densities land in whole-field arrays that are summed
    once, so the energy does not depend on the slab size.  With keep,
    returns (Energy, _Slopes) for the descent; without, (Energy, None).
    """
    n = grid.n
    slabs = _slabs(n)
    t = slabs[0][1]
    d = np.empty((3, 3, t, n, n))
    s = np.empty((10, t, n, n))
    e2, e4 = np.empty(v.shape[1:]), np.empty(v.shape[1:])
    P, g2 = (np.empty((3,) + v.shape), np.zeros(3)) if keep else (None, None)
    for a, b in slabs:
        dm = d[:, :, :b - a]
        _diff_into(grid, v, 1, dm[0], a, b)
        _diff_into(grid, v[:, a:b], 2, dm[1])
        _diff_into(grid, v[:, a:b], 3, dm[2])
        _assemble(dm, e2[a:b], e4[a:b], s[:, :b - a], None if P is None else P[:, :, a:b], g2)
    return _energy(grid, e2, e4), (_Slopes(P, g2) if keep else None)


def energy(psi):
    """Dirichlet plus quartic energy of an S2-valued map.

    e2 integrates |d psi|^2; e4 integrates |d psi ^ d psi|^2, the sum
    of |d psi^a ^ d psi^b|^2 over the three component pairs, which
    collapses to sum_{mu<nu} |d_mu psi x d_nu psi|^2, read off the Gram
    products as G_mu_mu G_nu_nu - G_mu_nu^2.
    """
    return _sweep(psi.grid, _comp_first(psi.values), keep=False)[0]


def _edge_logs(grid, steps, refusal):
    """Edge logarithms log(step_mu) / h of component-first steps, (3, 3, n, n, n).

    A step with Re <= 0 has no principal logarithm: UnresolvableField(refusal).
    """
    out = np.empty((3, 3) + (grid.n,) * 3)
    for mu, step in enumerate(steps):
        if np.any(step[0] <= 0.0):
            raise UnresolvableField(refusal.format(mu=mu + 1))
        np.divide(quat._log_unit(step), grid.h, out=out[mu])
        del step  # freed before the next step is formed
    return out


def _edge_connection(grid, logs):
    """The Connection of component-first edge logarithms, a site-last view of them."""
    return Connection(grid, np.moveaxis(logs, (0, 1), (3, 4)))


def _logs_of(u):
    """The edge logarithms of connection_of(u), component-first."""
    # one contiguous conjugate of u, from which the shifted copies of u are formed
    ubar = np.multiply(np.moveaxis(u.values, -1, 0), quat._CONJ, order="C")
    steps = (quat._mul(ubar, np.roll(ubar, -1, axis=ax) * quat._CONJ) for ax in (1, 2, 3))
    return _edge_logs(u.grid, steps, "adjacent sites along direction {mu} differ by "
                      "90 degrees or more; refine the grid")


def connection_of(u):
    """a = u* du via edge logarithms.

    a_mu(x) = log(u(x)* u(x + e_mu)) / h. Exactness of the round trip
    through the developing map is the design property; the price is the
    half-edge offset documented on Connection.
    """
    return _edge_connection(u.grid, _logs_of(u))


def _covariant(a, phi):
    """(D, ab, p) component-first: D_a phi, the site-averaged connection, phi.

    D[mu] = d_mu phi + 2 ab[mu] x phi has the shape of ab, (3, 3, n, n, n).
    """
    a.grid.same(phi.grid)
    p = _comp_first(phi.values)
    ab = _site_logs(phi.grid, _logs(a))
    D = np.empty_like(ab)
    for mu in range(3):
        np.add(diff(phi.grid, p, mu + 1), 2.0 * _cross(ab[mu], p), out=D[mu])
    return D, ab, p


def covariant_derivative(a, phi):
    """D_a phi, components d_mu phi + [a_mu, phi] at sites.

    Uses central differences for d and the site-averaged connection for
    the bracket, so the result is collocated with the field values.
    """
    return _site_last(_site_last(_covariant(a, phi)[0]))


def energy_conn(phi, a):
    """Energy in the connection picture: d psi replaced by D_a phi."""
    D = _covariant(a, phi)[0]
    e2, e4 = np.empty(D.shape[2:]), np.empty(D.shape[2:])
    _assemble(D, e2, e4, np.empty((10,) + D.shape[2:]))
    return _energy(phi.grid, e2, e4)


def decompose(a, phi):
    """Split a into the phi-component and the tangential part.

    long_mu = <a_mu, phi>, tang_mu = phi [a_mu, phi] / 2. Reconstruction
    long phi + tang = a is an algebraic identity, exact per site. This
    is pointwise algebra on the stored arrays; no edge averaging.
    """
    a.grid.same(phi.grid)
    A, p = _logs(a), _comp_first(phi.values)
    long = np.stack([_dot(A[mu], p) for mu in range(3)])
    # phi [a, phi] / 2 = phi x (a x phi), the projection off phi
    tang = np.stack([_cross(p, _cross(A[mu], p)) for mu in range(3)])
    return _site_last(long), _site_last(_site_last(tang))


def plaquette_curvature(a):
    """Forward-difference curvature da + a ^ a on plaquettes.

    Each component is centered at the plaquette midpoint: forward
    differences of the transverse edge values plus the bracket of the
    averaged parallel legs. O(h^2) for developed connections.
    Returns a dual-vector 2-form of imaginary quaternions, slot k for
    the (i, j) plaquette with (i, j, k) cyclic.
    """
    h = a.grid.h
    A = _logs(a)
    out = np.empty(A.shape)
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        ai, aj = A[i], A[j]
        # each leg's far edge: a_i one site up along j, a_j one up along i
        ri, rj = np.roll(ai, -1, axis=j + 1), np.roll(aj, -1, axis=i + 1)
        out[k] = (rj - aj) / h - (ri - ai) / h + 2.0 * _cross(0.5 * (ai + ri), 0.5 * (aj + rj))
    return _site_last(_site_last(out))


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
    D, ab, p = _covariant(a, phi)
    dphi = [diff(g, p, mu) for mu in (1, 2, 3)]
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
