"""Quaternion algebra on numpy arrays.

Quaternions are arrays with last axis 4, components (w, x, y, z) along
(1, i, j, k). Imaginary quaternions drop the real slot: last axis 3.
All functions broadcast over leading axes, so a field of quaternions is
just an (n, n, n, 4) array.  Each formula is written once, component-first
(index 0 over components): _hamilton, _rotate, _qmap, _exp_im, _log_unit.

The inner product <p, q> = (p* q + q* p) / 2 is the Euclidean 4-dot.
For imaginary p, q the useful identities are
    p q = -<p, q> + cross(p, q)         (as a quaternion)
    [p, q] = 2 cross(p, q)
    Re(p q r) = -det[p, q, r]
"""

import numpy as np

from .lattice import _site_last

UNIT_TOL = 1e-9

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])

IM_I = np.array([1.0, 0.0, 0.0])
IM_J = np.array([0.0, 1.0, 0.0])
IM_K = np.array([0.0, 0.0, 1.0])

# conj as a factor on component-first fields (3-D, index 0 over components)
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])[:, None, None, None]


def _hamilton(p, q):
    """The four components of the Hamilton product, p and q component-first."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return [
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ]


def _mul(p, q):
    """Hamilton product of component-first quaternions, index 0 over components."""
    return np.stack(_hamilton(p, q))


def mul(p, q):
    """Hamilton product, broadcasting over leading axes."""
    return np.stack(_hamilton(np.moveaxis(p, -1, 0), np.moveaxis(q, -1, 0)), axis=-1)


def conj(q):
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def norm(q):
    return np.sqrt(np.sum(q * q, axis=-1))


def normalize(q, tol=UNIT_TOL):
    """Rescale to unit length; reject drift beyond tol.

    Accumulated float error up to tol is silently repaired. Anything
    larger is a bug or bad data and raises.
    """
    n = norm(q)
    if np.any(np.abs(n - 1.0) > tol):
        worst = float(np.max(np.abs(n - 1.0)))
        raise ValueError(f"unit constraint violated by {worst:.3e} (tol {tol:.1e})")
    return q / n[..., None]


def embed(v):
    """Imaginary 3-vector -> quaternion with zero real part."""
    return np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)


def im(q):
    return q[..., 1:]


def _exp_im(v):
    """exp_im of component-first imaginary quaternions, index 0 over components."""
    vx, vy, vz = v
    theta = np.sqrt(vx * vx + vy * vy + vz * vz)
    small = theta < 1e-12
    # sin(t)/t with a series fallback so t = 0 is exact
    factor = np.where(small, 1.0 - theta * theta / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
    return np.concatenate([np.cos(theta)[None], v * factor])


def exp_im(v):
    """exp of an imaginary quaternion: cos|v| + sin|v| v/|v|."""
    return _site_last(_exp_im(np.moveaxis(v, -1, 0)))


def _log_unit(q):
    """log_unit of component-first quaternions, index 0 over components."""
    w, vx, vy, vz = q
    s = np.sqrt(vx * vx + vy * vy + vz * vz)
    theta = np.arctan2(s, w)
    small = s < 1e-12
    factor = np.where(small, 1.0 / np.where(np.abs(w) > 1e-12, w, 1.0), theta / np.where(small, 1.0, s))
    return q[1:] * factor


def log_unit(q):
    """Imaginary part of the principal log of a unit quaternion.

    Valid for Re q > 0 (rotation angle below pi); callers enforce that
    via the adjacent-site dot check.
    """
    return _site_last(_log_unit(np.moveaxis(q, -1, 0)))


def _rotate(u, v):
    """The three components of u v u*, u a component-first quaternion, v an imaginary one."""
    uw, ux, uy, uz = u
    return _hamilton(_hamilton(u, (0.0, *v)), (uw, -ux, -uy, -uz))[1:]


def conjugate_by(u, v):
    """u v u* for unit u and imaginary v; a rotation of v."""
    return np.stack(_rotate(np.moveaxis(u, -1, 0), np.moveaxis(v, -1, 0)), axis=-1)


def hopf(q):
    """h(q) = q i q*, the Hopf fibration Sp1 -> S2."""
    return conjugate_by(q, np.broadcast_to(IM_I, q.shape[:-1] + (3,)))


def qmap(z, lam, tol=UNIT_TOL):
    """The gauge map: qmap(z, lam) = q lam q* where z = q i q*.

    z is unit imaginary, lam lies in the circle subgroup spanned by 1
    and i. Since q lam q* = lam_w |q|^2 + lam_x q i q*, the result is
    lam_w + lam_x z for every unit square root q.
    """
    z, lam = (np.moveaxis(np.asarray(x, dtype=float), -1, 0) for x in (z, lam))
    return _site_last(_qmap(z, lam, tol))


def _qmap(z, lam, tol=UNIT_TOL):
    """qmap of component-first z and lam, component-first: lam_w + lam_x z."""
    if np.any(np.abs(lam[2:]) > tol):
        raise ValueError("qmap: lam must lie in the span of 1 and i")
    lx = lam[1]
    return np.stack(np.broadcast_arrays(lam[0], lx * z[0], lx * z[1], lx * z[2]))
