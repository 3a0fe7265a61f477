"""Quaternion algebra on numpy arrays.

Quaternions have components (w, x, y, z) along (1, i, j, k); imaginary
quaternions drop the real slot.  Each formula is written once,
component-first (index 0 over components), as the package uses it:
_hamilton, _rotate, _qmap, _exp_im, _log_unit, _norm; the slab sweeps hand
_hamilton, _exp_im and _log_unit out buffers, the same floats either
way.  _hamilton_floats runs _hamilton's table on one pair of
quaternions given as Python floats, for walks along a line, the same
floats again.  _quotient, the division of _exp_im and _log_unit,
divides in place and takes its small-angle fallback at the sites with
a vanishing denominator alone (the identity edges of a ball map, most
of them), with the floats of the np.where form over every site.  The
public mul, conj, norm, normalize, embed, exp_im and qmap take
the site-last layout (last axis 4 or 3) and broadcast over leading
axes, for the acceptance gate, the benchmark workloads and the tests.

The inner product <p, q> = (p* q + q* p) / 2 is the Euclidean 4-dot.
For imaginary p, q the useful identities are
    p q = -<p, q> + cross(p, q)         (as a quaternion)
    [p, q] = 2 cross(p, q)
    Re(p q r) = -det[p, q, r]
"""

import operator

import numpy as np

from .lattice import _dot, _site_last

UNIT_TOL = 1e-9

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])

IM_I = np.array([1.0, 0.0, 0.0])
IM_K = np.array([0.0, 0.0, 1.0])

# conj as a factor on component-first fields (3-D, index 0 over components)
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])[:, None, None, None]


# component c of p q is pw q_c, then each p_i q_j added or subtracted in
# this order, as in pw qw - px qx - py qy - pz qz
_TERMS = (
    ((np.subtract, 1, 1), (np.subtract, 2, 2), (np.subtract, 3, 3)),
    ((np.add, 1, 0), (np.add, 2, 3), (np.subtract, 3, 2)),
    ((np.subtract, 1, 3), (np.add, 2, 0), (np.add, 3, 1)),
    ((np.add, 1, 2), (np.subtract, 2, 1), (np.add, 3, 0)),
)


def _hamilton(p, q, out=None, tmp=None):
    """Hamilton product p q of component-first quaternions, index 0 over components;
    into out, (4,) + sites, apart from p and q, with tmp a buffer for one product, when given."""
    p, q = tuple(p), tuple(q)
    if out is None:
        out = np.empty((4,) + np.broadcast_shapes(*map(np.shape, p + q)), np.result_type(*p, *q))
    tmp = np.empty(out.shape[1:], out.dtype) if tmp is None else tmp
    for c, terms in enumerate(_TERMS):
        np.multiply(p[0], q[c], out=out[c, ...])
        for op, i, j in terms:
            op(out[c, ...], np.multiply(p[i], q[j], out=tmp), out=out[c, ...])
    return out


# the float operator of each _TERMS ufunc: IEEE operations, so the same roundings
_FLOAT_OP = {np.add: operator.add, np.subtract: operator.sub}


def _hamilton_floats(p, q):
    """_hamilton of two quaternions of four Python floats each, as a list of four floats."""
    out = []
    for c, terms in enumerate(_TERMS):
        s = p[0] * q[c]
        for op, i, j in terms:
            s = _FLOAT_OP[op](s, p[i] * q[j])
        out.append(s)
    return out


def mul(p, q):
    """Hamilton product, broadcasting over leading axes."""
    return _site_last(_hamilton(np.moveaxis(p, -1, 0), np.moveaxis(q, -1, 0)))


def conj(q):
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def norm(q):
    return np.sqrt(np.sum(q * q, axis=-1))


def _norm(q):
    """norm of component-first quaternions or imaginary quaternions, summed as norm sums."""
    return np.sqrt(_dot(q, q) + q[3] * q[3] if len(q) == 4 else _dot(q, q))


def normalize(q):
    """Rescale to unit length; reject drift beyond UNIT_TOL.

    Accumulated float error up to UNIT_TOL is silently repaired. Anything
    larger is a bug or bad data and raises.
    """
    n = norm(q)
    if np.any(np.abs(n - 1.0) > UNIT_TOL):
        worst = float(np.max(np.abs(n - 1.0)))
        raise ValueError(f"unit constraint violated by {worst:.3e} (tol {UNIT_TOL:.1e})")
    return q / n[..., None]


def embed(v):
    """Imaginary 3-vector -> quaternion with zero real part."""
    return np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)


def _quotient(num, den, fallback):
    """num / den, and fallback(small) at the sites of small = den < 1e-12, into num: the
    floats of np.where(small, fallback, num / np.where(small, 1.0, den)).  fallback takes
    the mask and returns its values at those sites alone; when no den is small neither it
    nor the masked denominator is formed."""
    small = den < 1e-12
    if not small.any():
        return np.divide(num, den, out=num)
    np.divide(num, np.where(small, 1.0, den), out=num)
    num[small] = fallback(small)
    return num


def _exp_im(v, out=None, tmp=None):
    """exp_im of component-first imaginary quaternions, index 0 over components;
    into out, (4,) + sites, with scratch tmp, (2,) + sites, when given."""
    out = np.empty((4,) + np.shape(v[0])) if out is None else out
    tmp = np.empty((2,) + np.shape(v[0])) if tmp is None else tmp
    theta = np.sqrt(_dot(v, v, tmp[0, ...], tmp[1, ...]), out=tmp[0, ...])
    np.cos(theta, out=out[0, ...])
    # sin(t)/t with a series fallback so t = 0 is exact
    factor = _quotient(np.sin(theta, out=tmp[1, ...]), theta, lambda m: 1.0 - theta[m] * theta[m] / 6.0)
    np.multiply(v, factor, out=out[1:])
    return out


def exp_im(v):
    """exp of an imaginary quaternion: cos|v| + sin|v| v/|v|."""
    return _site_last(_exp_im(np.moveaxis(v, -1, 0)))


def _log_unit(q, out=None, tmp=None):
    """Imaginary part of the principal log of component-first unit quaternions.

    Valid for Re q > 0 (rotation angle below pi); callers enforce that via the
    adjacent-site dot check.  Into out, (3,) + sites, with scratch tmp, when given.
    """
    w = q[0]
    out = np.empty((3,) + np.shape(w)) if out is None else out
    tmp = np.empty((2,) + np.shape(w)) if tmp is None else tmp  # (2,) + sites
    s = np.sqrt(_dot(q[1:], q[1:], tmp[0, ...], tmp[1, ...]), out=tmp[0, ...])
    theta = np.arctan2(s, w, out=tmp[1, ...])
    factor = _quotient(theta, s, lambda m: 1.0 / np.where(np.abs(w[m]) > 1e-12, w[m], 1.0))
    return np.multiply(q[1:], factor, out=out)


def _rotate(u, v):
    """The three components of u v u*, u a component-first quaternion, v an imaginary one."""
    uw, ux, uy, uz = u
    return _hamilton(_hamilton(u, (0.0, *v)), (uw, -ux, -uy, -uz))[1:]


def qmap(z, lam):
    """The gauge map: qmap(z, lam) = q lam q* where z = q i q*.

    z is unit imaginary, lam lies in the circle subgroup spanned by 1
    and i. Since q lam q* = lam_w |q|^2 + lam_x q i q*, the result is
    lam_w + lam_x z for every unit square root q.
    """
    z, lam = (np.moveaxis(np.asarray(x, dtype=float), -1, 0) for x in (z, lam))
    return _site_last(_qmap(z, lam))


def _qmap(z, lam):
    """qmap of component-first z and lam, component-first: lam_w + lam_x z."""
    if np.any(np.abs(lam[2:]) > UNIT_TOL):
        raise ValueError("qmap: lam must lie in the span of 1 and i")
    lx = lam[1]
    return np.stack(np.broadcast_arrays(lam[0], lx * z[0], lx * z[1], lx * z[2]))
