"""Independent cross-checks for the topological quantities.

Nothing here shares a formula with the production code: fluxes come from
counting stereographic winding numbers around lattice faces, Hopf charges
from linking numbers of traced preimage curves, and degrees from point
containment in a Kuhn triangulation.  Slow and blunt on purpose; these
routines only ever see plain numpy arrays.

The last two sections are of another kind: site-last reference versions
of the descent gradient, step ceiling, energy, area form and Hopf
helicity, and of the quaternion product, edge-logarithm connection, its
site averages, plaquette transport, holonomy, developing map, Hodge
split, canonical gauge, degree and Chern-Simons number, and of the
connection picture (covariant derivative and its energy, frame split,
plaquette curvature, flatness residuals), in
the arithmetic the component-first production kernels replaced
(np.cross, last-axis sums, full complex FFTs, per-pass gauge moves with
a two-chart square root).  The kernels must agree with them bit for bit
where the arithmetic is the same and within stated tolerances where
only the summation order or the FFT path differs.  The quaternion
rotation u v u* is kept in the same way, as the site-last chain of two
stacked Hamilton products it replaced.

Nothing here copies a production loop: the descent and the canonical
gauge are checked against these formulas and the public readers, and
scripts/identity.py shows whether a change moved their outputs.
"""

import numpy as np


class OracleAmbiguity(RuntimeError):
    """Raised when a counted or traced structure is too marginal to trust."""


# ---------------------------------------------------------------------------
# stereographic face windings


def _frame(v):
    # deterministic orthonormal pair spanning the plane perpendicular to v
    e = np.zeros(3)
    e[np.argmin(np.abs(v))] = 1.0
    b1 = e - np.dot(e, v) * v
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(v, b1)
    return b1, b2


def stereo(values, v):
    """Project unit vectors to C from the antipode of v; v itself maps to 0."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    b1, b2 = _frame(v)
    den = 1.0 + values @ v
    with np.errstate(divide="ignore", invalid="ignore"):
        return (values @ b1 + 1j * (values @ b2)) / den


def face_windings(values, v):
    """Integer winding of stereo() around each lattice face.

    Returns an array of shape (3, n, n, n): entry (mu, x) is the winding
    of the face based at site x with normal +e_mu, corners traversed
    x -> x+e_nu -> x+e_nu+e_ka -> x+e_ka for (mu, nu, ka) cyclic.

    By the argument principle this counts crossings of the preimage of v
    MINUS crossings of the preimage of its antipode, so consumers must
    separate the two curves by corner magnitude before summing.
    """
    z = stereo(values, v)
    w = np.empty((3,) + z.shape)
    for mu in range(3):
        nu, ka = (mu + 1) % 3, (mu + 2) % 3
        c0 = z
        c1 = np.roll(z, -1, axis=nu)
        c2 = np.roll(c1, -1, axis=ka)
        c3 = np.roll(z, -1, axis=ka)
        with np.errstate(invalid="ignore"):
            w[mu] = (
                np.angle(c1 * np.conj(c0))
                + np.angle(c2 * np.conj(c1))
                + np.angle(c3 * np.conj(c2))
                + np.angle(c0 * np.conj(c3))
            ) / (2 * np.pi)
    r = np.rint(w)
    if not np.all(np.abs(w - r) < 1e-6) or not np.all(np.isfinite(w)):
        raise OracleAmbiguity("a face boundary passes through the target value")
    return r.astype(int)


def slice_flux_count(values, v, axis, index):
    """Signed count of crossings of the v-preimage through {x_axis = index}.

    Faces threaded by the antipodal curve carry opposite winding and are
    dropped by the corner-magnitude filter.
    """
    z = stereo(values, v)
    w = face_windings(values, v)
    ws = np.take(w[axis], index, axis=axis)
    total = 0
    for site2 in np.argwhere(ws != 0):
        site = np.insert(site2, axis, index)
        if _is_near(z, axis, site):
            total += int(ws[tuple(site2)])
    return total


# ---------------------------------------------------------------------------
# preimage curve tracing

_EYE = np.eye(3, dtype=int)


def _face_corners(z, mu, site):
    nu, ka = (mu + 1) % 3, (mu + 2) % 3
    n = z.shape[0]
    idx = [site, site + _EYE[nu], site + _EYE[nu] + _EYE[ka], site + _EYE[ka]]
    return [z[tuple(i % n)] for i in idx]


def _crossing(z, mu, site):
    """Continuous (s, t) of the zero of the bilinear interpolant on a face."""
    c0, c1, c2, c3 = _face_corners(z, mu, site)
    s = t = 0.5
    for _ in range(25):
        f = (1 - s) * (1 - t) * c0 + s * (1 - t) * c1 + s * t * c2 + (1 - s) * t * c3
        fs = (1 - t) * (c1 - c0) + t * (c2 - c3)
        ft = (1 - s) * (c3 - c0) + s * (c2 - c1)
        jac = np.array([[fs.real, ft.real], [fs.imag, ft.imag]])
        if abs(np.linalg.det(jac)) < 1e-14:
            break
        ds, dt = np.linalg.solve(jac, [-f.real, -f.imag])
        s, t = s + ds, t + dt
        if abs(ds) + abs(dt) < 1e-12:
            break
    if not (-0.2 <= s <= 1.2 and -0.2 <= t <= 1.2):
        # fall back to a magnitude-weighted centroid of the corners
        wts = 1.0 / (np.abs([c0, c1, c2, c3]) + 1e-30)
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        s, t = (wts[:, None] * pts).sum(axis=0) / wts.sum()
    nu, ka = (mu + 1) % 3, (mu + 2) % 3
    return np.clip(s, 0, 1) * _EYE[nu] + np.clip(t, 0, 1) * _EYE[ka]


def _is_near(z, mu, site):
    mags = np.abs(_face_corners(z, mu, site))
    g = np.exp(np.mean(np.log(mags + 1e-300)))
    if 0.7 < g < 1.4:
        raise OracleAmbiguity("cannot separate target curve from its antipode")
    return g <= 0.7


def trace_preimage(values, v):
    """Trace the preimage curves of v as closed polylines, in lattice units.

    The field must resolve the curve: every cube is crossed by at most one
    strand and the antipodal curve stays clearly separated, else
    OracleAmbiguity.  Curves are oriented along the direction of positive
    face winding.  Coordinates are continuous (unwrapped across the
    periodic boundary); one array of shape (m, 3) per closed component.
    """
    z = stereo(values, v)
    w = face_windings(values, v)
    n = z.shape[0]
    if np.any(np.abs(w) > 1):
        raise OracleAmbiguity("a face is crossed more than once")

    # portals: faces carrying the curve of v itself, not of its antipode
    portals = set()
    for mu in range(3):
        for site in np.argwhere(w[mu] != 0):
            if _is_near(z, mu, site):
                portals.add((mu, tuple(site)))

    def cube_portals(cube):
        out = []
        for mu in range(3):
            for shift in (0, 1):
                site = tuple((np.array(cube) + shift * _EYE[mu]) % n)
                if (mu, site) in portals:
                    # crossing direction +mu iff winding +1; leaving the cube
                    # through the far (+) face needs +mu, near face -mu
                    leaving = w[mu][site] == (1 if shift else -1)
                    out.append((mu, site, shift, leaving))
        return out

    curves = []
    todo = set(portals)
    while todo:
        start = next(iter(todo))
        mu0, site0 = start
        # the curve crosses the start face along +mu0 iff winding is +1;
        # follow it into the cube on that side
        cube = np.array(site0, dtype=int)
        base = np.array(site0, dtype=float)
        if w[mu0][site0] < 0:
            cube = (cube - _EYE[mu0]) % n
            base -= _EYE[mu0]
        pts = [np.array(site0, dtype=float) + _crossing(z, mu0, np.array(site0))]
        face = start
        while True:
            todo.discard(face)
            here = cube_portals(tuple(cube))
            if len(here) != 2:
                raise OracleAmbiguity("cube crossed by more than one strand")
            nxt = [p for p in here if (p[0], p[1]) != face]
            if len(nxt) != 1 or not nxt[0][3]:
                raise OracleAmbiguity("inconsistent crossing directions")
            mu, site, shift, _ = nxt[0]
            if (mu, site) == start:
                break  # closed back onto the first crossing
            fpos = base + shift * _EYE[mu]
            pts.append(fpos + _crossing(z, mu, np.array(site)))
            step = _EYE[mu] if shift else -_EYE[mu]
            cube = (cube + step) % n
            base = base + step
            face = (mu, site)
        curves.append(np.array(pts))
    return curves


# ---------------------------------------------------------------------------
# linking number of polylines


def _solid_angle(a, b, c):
    la = np.linalg.norm(a, axis=-1)
    lb = np.linalg.norm(b, axis=-1)
    lc = np.linalg.norm(c, axis=-1)
    num = np.einsum("...i,...i->...", a, np.cross(b, c))
    den = (
        la * lb * lc
        + np.einsum("...i,...i->...", a, b) * lc
        + np.einsum("...i,...i->...", b, c) * la
        + np.einsum("...i,...i->...", c, a) * lb
    )
    return 2 * np.arctan2(num, den)


def linking_number(curve_a, curve_b):
    """Gauss linking number of two disjoint closed polylines."""
    a0 = np.asarray(curve_a, dtype=float)
    a1 = np.roll(a0, -1, axis=0)
    b0 = np.asarray(curve_b, dtype=float)
    b1 = np.roll(b0, -1, axis=0)
    total = 0.0
    for i in range(len(a0)):
        p1 = b0 - a0[i]
        p2 = b0 - a1[i]
        p3 = b1 - a1[i]
        p4 = b1 - a0[i]
        total += np.sum(_solid_angle(p1, p2, p3) + _solid_angle(p1, p3, p4))
    lk = total / (4 * np.pi)
    r = np.rint(lk)
    if abs(lk - r) > 1e-6:
        raise OracleAmbiguity(f"linking sum {lk} is not an integer")
    return int(r)


# ---------------------------------------------------------------------------
# mapping degree by Kuhn-simplex containment

_PERMS = [
    ((0, 1, 2), 1),
    ((0, 2, 1), -1),
    ((1, 0, 2), -1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((2, 1, 0), -1),
]

_GENERIC_POINT = np.array([0.22, 0.41, -0.55, 0.69])
_GENERIC_POINT /= np.linalg.norm(_GENERIC_POINT)


def kuhn_degree(values, point=None):
    """Signed count of preimages of a generic point on the 3-sphere.

    Each lattice cube splits into six tetrahedra along permutation paths;
    a tetrahedron of field values q0..q3 contributes sign(perm) times
    sign(det[q0 q1 q2 q3]) whenever the target lies in its spherical hull.
    """
    if point is None:
        point = _GENERIC_POINT
    point = np.asarray(point, dtype=float)
    point = point / np.linalg.norm(point)
    total = 0
    for perm, psign in _PERMS:
        q0 = values
        q1 = np.roll(q0, -1, axis=perm[0])
        q2 = np.roll(q1, -1, axis=perm[1])
        q3 = np.roll(q2, -1, axis=perm[2])
        m = np.stack([q0, q1, q2, q3], axis=-1)  # columns are vertices
        m = m.reshape(-1, 4, 4)
        dets = np.linalg.det(m)
        ok = np.abs(dets) > 1e-12
        rhs = np.broadcast_to(point[:, None], (int(ok.sum()), 4, 1))
        lam = np.linalg.solve(m[ok], rhs)[..., 0]
        inside = np.all(lam > 0, axis=-1)
        margin = np.min(np.abs(lam), axis=-1)
        if np.any(inside & (margin < 1e-9)):
            raise OracleAmbiguity("target point sits on a simplex boundary")
        total += int(np.sum(np.sign(dets[ok]) * inside) * psign)
    return total


# ---------------------------------------------------------------------------
# circle-valued winding


def line_winding(zvals):
    """Winding count of a closed loop of nonzero complex numbers."""
    z = np.asarray(zvals)
    inc = np.angle(np.roll(z, -1) * np.conj(z))
    w = np.sum(inc) / (2 * np.pi)
    r = np.rint(w)
    if abs(w - r) > 1e-6:
        raise OracleAmbiguity("loop winding is not an integer")
    return int(r)


# ---------------------------------------------------------------------------
# site-last references for the descent kernel and the helicity


def _ref_diff(f, ax, h):
    return (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) / (2.0 * h)


def ref_energy(values, h):
    """(e2, e4, total) of sphere values (n, n, n, 3) on spacing h."""
    d = [_ref_diff(values, ax, h) for ax in range(3)]
    e2 = float(np.sum(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])) * h**3
    c = [np.cross(d[0], d[1]), np.cross(d[1], d[2]), np.cross(d[2], d[0])]
    e4 = float(np.sum(np.sum(c[0] * c[0] + c[1] * c[1] + c[2] * c[2], axis=-1))) * h**3
    return e2, e4, e2 + e4


def ref_grad_energy(values, h):
    """Tangent gradient of the discrete energy, site-last."""
    dv = [_ref_diff(values, ax, h) for ax in range(3)]
    grad = np.zeros_like(values)
    for mu in range(3):
        grad -= 2.0 * _ref_diff(dv[mu], mu, h)
    for mu in range(3):
        for nu in range(mu + 1, 3):
            w = np.cross(dv[mu], dv[nu])
            grad -= 2.0 * _ref_diff(np.cross(dv[nu], w), mu, h)
            grad -= 2.0 * _ref_diff(np.cross(w, dv[mu]), nu, h)
    grad -= np.sum(grad * values, axis=-1, keepdims=True) * values
    return grad


def ref_step_ceiling(values, h):
    g2 = 0.0
    for ax in range(3):
        dv = _ref_diff(values, ax, h)
        g2 = max(g2, float(np.max(np.sum(dv * dv, axis=-1))))
    return h**2 / (3.0 * (1.0 + 4.0 * g2))


def ref_pullback_area(values, h):
    """Dual-vector area form psi . (d_i psi x d_j psi) / 4 pi."""
    dv = [_ref_diff(values, ax, h) for ax in range(3)]
    out = np.empty(values.shape)
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        out[..., k] = np.sum(values * np.cross(dv[i], dv[j]), axis=-1) / (4.0 * np.pi)
    return out


def _ref_partial(f, ax, k):
    shape = [1, 1, 1]
    shape[ax] = len(k)
    return np.fft.ifftn(1j * k.reshape(shape) * np.fft.fftn(f)).real


def ref_d(w, deg, l):
    """Exterior derivative of a site-last form, one full complex FFT pair
    per partial; the Nyquist wavenumber of even n is dropped."""
    n = w.shape[0]
    k = 2.0 * np.pi / l * (n * np.fft.fftfreq(n))
    if n % 2 == 0:
        k[n // 2] = 0.0
    if deg == 0:
        return np.stack([_ref_partial(w, ax, k) for ax in range(3)], axis=-1)
    if deg == 1:
        a = [w[..., c] for c in range(3)]
        return np.stack(
            [
                _ref_partial(a[2], 1, k) - _ref_partial(a[1], 2, k),
                _ref_partial(a[0], 2, k) - _ref_partial(a[2], 0, k),
                _ref_partial(a[1], 0, k) - _ref_partial(a[0], 1, k),
            ],
            axis=-1,
        )
    return sum(_ref_partial(w[..., ax], ax, k) for ax in range(3))


def ref_codiff(w, deg, l):
    """L2 adjoint of ref_d: minus the divergence, the curl, minus the gradient."""
    return ref_d(w, 1, l) if deg == 2 else -ref_d(w, 3 - deg, l)


def ref_helicity(F, l):
    """Integral of alpha ^ d(alpha) for an exact dual-vector 2-form F.

    alpha is the coexact potential, built on the full spectrum with one
    inverse FFT per component; d(alpha) takes six spectral partials.
    The Nyquist wavenumber of even n is dropped, as for any first
    derivative of a real field.
    """
    n = F.shape[0]
    k = 2.0 * np.pi / l * (n * np.fft.fftfreq(n))
    if n % 2 == 0:
        k[n // 2] = 0.0
    kx, ky, kz = np.meshgrid(k, k, k, indexing="ij")
    k2 = kx**2 + ky**2 + kz**2
    Fh = np.fft.fftn(F, axes=(0, 1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        Gh = Fh / k2[..., None]
    Gh[k2 == 0] = 0.0
    Ah = 1j * np.cross(np.stack([kx, ky, kz], axis=-1), Gh)
    alpha = np.fft.ifftn(Ah, axes=(0, 1, 2)).real
    a = [alpha[..., c] for c in range(3)]
    curl = np.stack(
        [
            _ref_partial(a[2], 1, k) - _ref_partial(a[1], 2, k),
            _ref_partial(a[0], 2, k) - _ref_partial(a[2], 0, k),
            _ref_partial(a[1], 0, k) - _ref_partial(a[0], 1, k),
        ],
        axis=-1,
    )
    return float(np.sum(np.einsum("...k,...k->...", alpha, curl))) * (l / n) ** 3


# ---------------------------------------------------------------------------
# site-last references for the gauge layer


class RefUnresolvable(RuntimeError):
    """An edge of the reference gauge move turned by 90 degrees or more."""


_ONE = np.array([1.0, 0.0, 0.0, 0.0])
_I = np.array([0.0, 1.0, 0.0, 0.0])
_J = np.array([0.0, 0.0, 1.0, 0.0])
_IM_I = np.array([1.0, 0.0, 0.0])
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def ref_mul(p, q):
    """Hamilton product on the last axis, stacked site-last."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def _ref_norm(q):
    return np.sqrt(np.sum(q * q, axis=-1))


def _ref_exp_im(v):
    theta = np.sqrt(np.sum(v * v, axis=-1))
    small = theta < 1e-12
    factor = np.where(small, 1.0 - theta * theta / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
    return np.concatenate([np.cos(theta)[..., None], v * factor[..., None]], axis=-1)


def _ref_log_unit(q):
    w = q[..., 0]
    v = q[..., 1:]
    s = np.sqrt(np.sum(v * v, axis=-1))
    theta = np.arctan2(s, w)
    small = s < 1e-12
    factor = np.where(small, 1.0 / np.where(np.abs(w) > 1e-12, w, 1.0), theta / np.where(small, 1.0, s))
    return v * factor[..., None]


def _ref_embed(v):
    return np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)


def ref_conjugate_by(u, v):
    """u v u* as two stacked site-last products: embed v, multiply, conjugate, take im."""
    return ref_mul(ref_mul(u, _ref_embed(v)), u * _CONJ)[..., 1:]


def ref_conjugate_field(uvals, phivals):
    """conjugate_field's values: ref_conjugate_by renormalized by its last-axis norm."""
    psi = ref_conjugate_by(uvals, phivals)
    return psi / np.sqrt(np.sum(psi * psi, axis=-1))[..., None]


def _ref_sqrt_chart(z):
    q = _ONE - ref_mul(_ref_embed(z), _I)
    return q / _ref_norm(q)[..., None]


def ref_qmap(z, lam):
    """q lam q* with q a two-chart square root of z = q i q*."""
    use_b = z[..., 0] <= -0.5
    qa = _ref_sqrt_chart(np.where(use_b[..., None], _IM_I, z))
    jbar = np.broadcast_to(_J * _CONJ, z.shape[:-1] + (4,))
    zb = ref_mul(ref_mul(jbar, _ref_embed(z)), jbar * _CONJ)[..., 1:]
    qb = ref_mul(_J, _ref_sqrt_chart(np.where(use_b[..., None], zb, _IM_I)))
    q = np.where(use_b[..., None], qb, qa)
    return ref_mul(ref_mul(q, lam), q * _CONJ)


def ref_plaquette_deviation(avals, h):
    t = _ref_exp_im(avals * h)
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            ti, tj = t[..., i, :], t[..., j, :]
            fwd = ref_mul(ti, np.roll(tj, -1, axis=i))
            bwd = ref_mul(tj, np.roll(ti, -1, axis=j))
            p = ref_mul(fwd, bwd * _CONJ)
            worst = max(worst, float(np.max(np.abs(p - _ONE))))
    return worst


def ref_holonomy(avals, h):
    out = np.empty((3, 4))
    for ax in range(3):
        take = tuple(slice(None) if i == ax else 0 for i in range(3))
        p = _ONE
        for s in _ref_exp_im(avals[take + (ax,)] * h):
            p = ref_mul(p, s)
        out[ax] = p / _ref_norm(p)
    return out


def ref_develop(avals, h):
    """Group values with u(origin) = 1 along the lexicographic tree."""
    n = avals.shape[0]
    t = _ref_exp_im(avals * h)
    u = np.empty((n, n, n, 4))
    u[0, 0, 0] = _ONE
    for i in range(n - 1):
        u[i + 1, 0, 0] = ref_mul(u[i, 0, 0], t[i, 0, 0, 0])
    for j in range(n - 1):
        u[:, j + 1, 0] = ref_mul(u[:, j, 0], t[:, j, 0, 1])
    for k in range(n - 1):
        u[:, :, k + 1] = ref_mul(u[:, :, k], t[:, :, k, 2])
    return u / _ref_norm(u)[..., None]


def _ref_kgrids(n, l):
    k = 2.0 * np.pi / l * (n * np.fft.fftfreq(n))
    if n % 2 == 0:
        k[n // 2] = 0.0
    return np.meshgrid(k, k, k, indexing="ij")


def ref_hodge_parts(w, l):
    """(exact, coexact, coefficients) of a real site-last 1-form, full spectrum."""
    n = w.shape[0]
    mean = w.mean(axis=(0, 1, 2))
    rest = w - mean
    kx, ky, kz = _ref_kgrids(n, l)
    kvec = np.stack([kx, ky, kz], axis=-1)
    k2 = kx**2 + ky**2 + kz**2
    k2 = np.where(k2 == 0.0, 1.0, k2)
    proj = np.einsum("...k,...k->...", kvec, np.fft.fftn(rest, axes=(0, 1, 2))) / k2
    exact = np.fft.ifftn(kvec * proj[..., None], axes=(0, 1, 2)).real
    return exact, rest - exact, tuple(float(l * m) for m in mean)


def _ref_codiff_norm(w, l):
    n = w.shape[0]
    k = _ref_kgrids(n, l)
    div = sum(np.fft.ifftn(1j * k[ax] * np.fft.fftn(w[..., ax])).real for ax in range(3))
    return float(np.sqrt(np.sum(div**2) * (l / n) ** 3))


def _ref_cancelling_angle(w, l):
    n = w.shape[0]
    w = w - np.mean(w, axis=(0, 1, 2))
    kx, ky, kz = _ref_kgrids(n, l)
    kvec = np.stack([kx, ky, kz], axis=-1)
    h = l / n
    ks = np.einsum("...k,...k->...", kvec, np.sin(kvec * h) / h)
    ks = np.where(ks == 0.0, 1.0, ks)
    wh = np.fft.fftn(w, axes=(0, 1, 2))
    return np.fft.ifftn(1j * np.einsum("...k,...k->...", kvec, wh) / ks, axes=(0, 1, 2)).real


def ref_site_values(avals):
    """Site-last edge values averaged with their backward neighbours, per direction."""
    sv = np.empty(avals.shape)
    for mu in range(3):
        sv[..., mu, :] = 0.5 * (avals[..., mu, :] + np.roll(avals[..., mu, :], 1, axis=mu))
    return sv


def ref_covariant_derivative(avals, phivals, h):
    """D_a phi at sites: central differences plus 2 (site-averaged a) x phi, site-last."""
    ab = ref_site_values(avals)
    out = np.empty(avals.shape)
    for mu in range(3):
        out[..., mu, :] = _ref_diff(phivals, mu, h) + 2.0 * np.cross(ab[..., mu, :], phivals)
    return out


def ref_energy_conn(avals, phivals, h):
    """(e2, e4, total) with d psi replaced by D_a phi, summed site-last."""
    D = ref_covariant_derivative(avals, phivals, h)
    d = [D[..., mu, :] for mu in range(3)]
    e2 = float(np.sum(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])) * h**3
    c = [np.cross(d[0], d[1]), np.cross(d[1], d[2]), np.cross(d[2], d[0])]
    e4 = float(np.sum(np.sum(c[0] * c[0] + c[1] * c[1] + c[2] * c[2], axis=-1))) * h**3
    return e2, e4, e2 + e4


def ref_decompose(avals, phivals):
    """(<a_mu, phi>, phi x (a_mu x phi)) by last-axis sums and np.cross."""
    p = phivals[..., None, :]
    return np.sum(avals * p, axis=-1), np.cross(p, np.cross(avals, p))


def ref_plaquette_curvature(avals, h):
    """Forward differences of the transverse legs plus the bracket of the averaged legs."""
    out = np.empty(avals.shape)
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        ai, aj = avals[..., i, :], avals[..., j, :]
        dj_ai = (np.roll(ai, -1, axis=j) - ai) / h
        di_aj = (np.roll(aj, -1, axis=i) - aj) / h
        ai_avg = 0.5 * (ai + np.roll(ai, -1, axis=j))
        aj_avg = 0.5 * (aj + np.roll(aj, -1, axis=i))
        out[..., k, :] = di_aj - dj_ai + 2.0 * np.cross(ai_avg, aj_avg)
    return out


def ref_flatness_residuals(avals, phivals, h):
    """(full, eq1, eq2) L2 residuals of the curvature and its frame split, site-last."""
    ab = ref_site_values(avals)
    p = phivals
    dphi = [_ref_diff(p, mu, h) for mu in range(3)]
    s = np.sum(ab * p[..., None, :], axis=-1)
    t = ab - s[..., None] * p[..., None, :]
    D = ref_covariant_derivative(avals, phivals, h)
    full2 = r1_2 = r2_2 = 0.0
    Fp = ref_plaquette_curvature(avals, h)
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        full2 += float(np.sum(Fp[..., k, :] ** 2))
        si, sj = s[..., i], s[..., j]
        ti, tj = t[..., i, :], t[..., j, :]
        ds = _ref_diff(sj, i, h) - _ref_diff(si, j, h)
        r1 = (
            ds
            - np.sum(dphi[i] * tj, axis=-1)
            + np.sum(dphi[j] * ti, axis=-1)
            + 2.0 * np.sum(np.cross(ti, tj) * p, axis=-1)
        )
        r1_2 += float(np.sum(r1 * r1))
        dt = _ref_diff(tj, i, h) - _ref_diff(ti, j, h)
        sD = si[..., None] * D[..., j, :] - sj[..., None] * D[..., i, :]
        Qi, Qj = 2.0 * np.cross(ti, p), 2.0 * np.cross(tj, p)
        mix = 0.5 * (np.cross(dphi[i], Qj) - np.cross(dphi[j], Qi))
        r2 = dt - sD - mix
        r2_2 += float(np.sum(r2 * r2))
    h3 = h**3
    return float(np.sqrt(full2 * h3)), float(np.sqrt(r1_2 * h3)), float(np.sqrt(r2_2 * h3))


def ref_connection_of(uvals, h):
    """Edge logarithms log(u(x)* u(x + e_mu)) / h of site-last group values."""
    out = np.empty(uvals.shape[:3] + (3, 3))
    for mu in range(3):
        step = ref_mul(uvals * _CONJ, np.roll(uvals, -1, axis=mu))
        if np.any(step[..., 0] <= 0.0):
            raise RefUnresolvable("adjacent sites differ by 90 degrees or more")
        out[..., mu, :] = _ref_log_unit(step) / h
    return out


def ref_degree(uvals, l):
    """Degree from the einsum triple product of the site-averaged connection."""
    h = l / uvals.shape[0]
    sv = ref_site_values(ref_connection_of(uvals, h))
    det = np.einsum("...i,...i->...", sv[..., 0, :], np.cross(sv[..., 1, :], sv[..., 2, :]))
    return float(np.sum(det)) * h**3 / (2 * np.pi**2)


def _ref_longitudinal(avals, phivals):
    return np.einsum("...mk,...k->...m", ref_site_values(avals), phivals)


def _ref_move(avals, gval, h):
    """Edge logarithms of the transports gval* exp(h a_mu) gval(. + e_mu), site-last."""
    out = np.empty(avals.shape)
    for mu in range(3):
        step = _ref_exp_im(avals[..., mu, :] * h)
        combined = ref_mul(gval * _CONJ, ref_mul(step, np.roll(gval, -1, axis=mu)))
        if np.any(combined[..., 0] <= 0.0):
            raise RefUnresolvable("gauge factor rotates an edge by 90 degrees or more")
        out[..., mu, :] = _ref_log_unit(combined) / h
    return out


def _ref_gauge_transform(avals, phivals, theta, h):
    th = np.asarray(theta)
    zero = np.zeros_like(th)
    lam = np.stack([np.cos(th), np.sin(th), zero, zero], axis=-1)
    return _ref_move(avals, ref_qmap(phivals, lam), h)


def ref_fix_gauge(avals, phivals, l, tol=1e-8, tie_eps=1e-9, max_passes=16):
    """Canonical gauge by one gauge move per pass, as a dict of results.

    Each pass takes the longitudinal form of the current connection,
    reads its harmonic coefficients, the codifferential residual and the
    cancelling angle on the full complex spectrum, and moves the current
    connection by the circle field of that angle.
    """
    n = avals.shape[0]
    h = l / n
    axes = np.meshgrid(*(np.arange(n) * h,) * 3, indexing="ij")
    removed = float(np.sqrt(np.sum(ref_hodge_parts(_ref_longitudinal(avals, phivals), l)[0] ** 2) * h**3))
    current = avals
    windings = np.zeros(3, dtype=int)
    passes = 0
    while passes < max_passes:
        long = _ref_longitudinal(current, phivals)
        coeffs = np.array(ref_hodge_parts(long, l)[2])
        resid = _ref_codiff_norm(long, l)
        steps = -np.floor(coeffs / (2.0 * np.pi) + tie_eps).astype(int)
        if resid <= tol and np.all(steps == 0):
            break
        passes += 1
        theta = _ref_cancelling_angle(long, l)
        for k in range(3):
            if steps[k]:
                theta = theta + 2.0 * np.pi * steps[k] * axes[k] / l
        current = _ref_gauge_transform(current, phivals, theta - theta[0, 0, 0], h)
        windings += steps
    else:
        raise RuntimeError(f"reference gauge did not converge in {max_passes} passes")
    final = coeffs / (2.0 * np.pi)
    ties = np.abs(final - np.round(final)) <= tie_eps
    final[ties] = 0.0
    return {
        "values": current,
        "harmonic_coeffs": tuple(float(v) for v in final),
        "windings": tuple(int(w) for w in windings),
        "exact_part_norm": removed,
        "ties": tuple(bool(t) for t in ties),
        "passes": passes,
    }


def ref_chern_simons(avals, l):
    """Chern-Simons number with d(a) taken by spectral partials."""
    n = avals.shape[0]
    k = 2.0 * np.pi / l * (n * np.fft.fftfreq(n))
    if n % 2 == 0:
        k[n // 2] = 0.0
    sv = ref_site_values(avals)
    ada = 0.0
    for i in range(3):
        a = [sv[..., m, i] for m in range(3)]
        curl = (
            _ref_partial(a[2], 1, k) - _ref_partial(a[1], 2, k),
            _ref_partial(a[0], 2, k) - _ref_partial(a[2], 0, k),
            _ref_partial(a[1], 0, k) - _ref_partial(a[0], 1, k),
        )
        ada = ada - sum(a[m] * curl[m] for m in range(3))
    det = np.einsum("...i,...i->...", sv[..., 0, :], np.cross(sv[..., 1, :], sv[..., 2, :]))
    return float(np.sum(ada - 4.0 * det)) * (l / n) ** 3 / (4 * np.pi**2)
