"""Periodic cubic grid on the flat 3-torus and its discrete calculus.

Scalar fields are (n, n, n) arrays; a value with extra per-site
components (quaternions, form components) appends trailing axes. Site
(x, y, z) holds the sample at physical point (x h, y h, z h).

Forms are realized componentwise:
    0-form  (n, n, n)
    1-form  (n, n, n, 3)      component mu along dx^mu
    2-form  (n, n, n, 3)      dual-vector: slot k holds the (i, j)
                              coefficient for (i, j, k) cyclic
    3-form  (n, n, n)         coefficient of dx^1 dx^2 dx^3

That site-last layout is only what public functions take and return;
nothing in the package calls d or codiff, which acceptance criteria 1
and 8 read.
Inside the package, field containers included, arrays are component-first,
the site axes the last three: (3, n, n, n), or (3, 3, n, n, n) for edge
logs, so stencils and products stream through contiguous components.
diff and avg_back act on the last three axes, _cross and _dot on the
first; _site_last(q, lead) copies a result out to the public layout in
one copy, its lead leading component axes moved last (lead = 2 for edge
logs and for 2-forms of vectors).

The descent and the gauge layer sweep that layout in slabs of whole
planes along the first site axis, SLAB_SITES sites per slab, so a slab's
temporaries stay in cache.  _slab_sweep is the one slab plan; no other
module cuts slabs (tests/test_contract.py).  _shifted is the one
periodic neighbour read, beside the stencil _diff_into: a slab reads its
halo planes from the whole field through them, so no result depends on
the slab size, and whole-field reads (avg_back, the far edges of
fields.plaquette_curvature) use it too; no module rolls an array.  The
descent's buffers start on a 64-byte cache line (_aligned): every slab
scratch, the ring buffers that hold the energy sweep's slopes past their
slab, its whole-field densities, the gradient, the line-search candidate
and minimize's working copy.
numpy's SIMD loops (AVX-512 on the benchmark host) ran a multiply up to
2.2x slower off a cache line, and malloc's 16-byte placement shifts with
everything allocated before, which moved the relax workload 7% between
builds; alignment changes no float.

One central stencil, _diff_into, serves energies, gradients and fluxes;
it subtracts shifted slices straight into a given buffer, periodic within
the array it is handed, and keeps the discrete energy an explicit smooth
function of site values, so its gradient is exact.  It leaves the
difference undivided: diff, the area form and the raw fluxes divide by
2h, and the descent folds the powers of 2h into its constants.  One
half-spectrum path (_rfft3, _irfft3, _half_spectrum) serves d and
codiff, the Hodge split, the potential and the Parseval sums; only this
module calls np.fft.  _rfft3 runs rfftn's own three passes, rfft along
the last axis and then fft along the middle and first axes in place in
its result, the floats of np.fft.rfftn without its two extra copies.
Its multiplier iK makes d compose to zero and the codifferential an
exact adjoint, and _parseval is its one quadrature.
The two agree to O(h^2) on smooth data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonExactForm


@dataclass(frozen=True)
class Grid:
    """Cubic periodic lattice: n sites per axis, physical period l."""

    n: int
    l: float = 2.0 * np.pi

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 4):
            raise ValueError("grid needs an integer count of at least 4 sites per axis")
        if not (np.isfinite(self.l) and self.l > 0):
            raise ValueError("period must be finite and positive")
        # for unit fields each undivided difference is at most 2, so the step ceiling is at
        # least h^4 / 3(h^2 + 4) and the gradient at most (6h^2 + 24) / h^4; both, and the
        # gradient's scale 2 / 16h^4, which past the top edge is subnormal and then 0, must be
        # normal floats: about 2.3e-77 <= h <= 4.9e76
        h = np.float64(self.l) / self.n
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            worst = (h**4 / (3.0 * (h**2 + 4.0)), (6.0 * h**2 + 24.0) / h**4, 2.0 / (16.0 * h**4))
        if not (np.all(np.isfinite(worst)) and min(worst) >= np.finfo(float).tiny):
            raise ValueError(f"period {self.l!r} over {self.n} sites gives a spacing h = {float(h)!r} outside "
                             "about 2.3e-77 <= h <= 4.9e76, where the descent's ceiling and gradient stay normal")

    @property
    def h(self):
        return self.l / self.n

    def _coords(self):
        """The coordinates (x, y, z), shaped (n, 1, 1), (1, n, 1) and (1, 1, n) to broadcast
        along their own site axes."""
        c = np.arange(self.n) * self.h
        return np.meshgrid(c, c, c, indexing="ij", sparse=True)

    def axes(self):
        """Coordinate arrays (x, y, z) broadcast to grid shape."""
        shape = (self.n,) * 3
        return tuple(np.broadcast_to(c, shape).copy() for c in self._coords())

    def same(self, other):
        if self.n != other.n or self.l != other.l:
            raise GridMismatch(f"{self} vs {other}")


def check_direction(mu):
    """ValueError unless mu is the integer 1, 2 or 3: a Python or numpy int, not a bool."""
    if isinstance(mu, bool) or not isinstance(mu, (int, np.integer)) or mu not in (1, 2, 3):
        raise ValueError(f"direction must be the integer 1, 2 or 3, got {mu!r}")


def diff(grid, f, mu):
    """Central difference along direction mu, periodic, over the last three axes of f."""
    check_direction(mu)
    f = np.asarray(f)
    out = _diff_into(f, f.ndim - 4 + mu, np.empty(f.shape, np.result_type(f, 1.0)))
    out /= 2.0 * grid.h
    return out


def _run_axes(a):
    """How many trailing axes of a merge into one run of equal strides (at least the last)."""
    k = 1
    while k < a.ndim and a.strides[-k - 1] == a.strides[-k] * a.shape[-k]:
        k += 1
    return k


def _diff_into(f, ax, out, lo=0, hi=None):
    """out, holding the undivided central difference f[i + 1] - f[i - 1] along axis ax
    for i = lo .. hi - 1.

    f is periodic along ax; out holds hi - lo entries there, so a slab
    lo .. hi - 1 of a whole field reads its halo planes lo - 1 and hi
    from f, wrapping only at the ends of the axis.  Along the last axis
    the rows are subtracted as one run over the trailing axes that f and
    out both merge, across the row ends, whose wrong values the two wrap
    columns then overwrite: the same floats as row by row.
    """
    m = f.shape[ax]
    hi = m if hi is None else hi

    def at(a, b):
        return (slice(None),) * ax + (slice(a, b),)

    if ax == f.ndim - 1 and hi - lo == m:
        k = min(_run_axes(f), _run_axes(out))
        fr, rr = f.reshape(f.shape[:-k] + (-1,)), out.reshape(out.shape[:-k] + (-1,))
        np.subtract(fr[..., 2:], fr[..., :-2], out=rr[..., 1:-1])
    else:
        i0, i1 = max(lo, 1), min(hi, m - 1)
        if i0 < i1:
            np.subtract(f[at(i0 + 1, i1 + 1)], f[at(i0 - 1, i1 - 1)], out=out[at(i0 - lo, i1 - lo)])
    if lo == 0:
        np.subtract(f[at(1, 2)], f[at(m - 1, m)], out=out[at(0, 1)])
    if hi == m:
        np.subtract(f[at(0, 1)], f[at(m - 2, m - 1)], out=out[at(m - 1 - lo, m - lo)])
    return out


# sites per slab of the descent sweep, so that a slab's temporaries stay
# in L2; budgets of 8192-16384 timed best at n = 32-64 with a 4 MiB L2
SLAB_SITES = 16384


def _slabs(n):
    """(start, stop) plane ranges of the slab sweep along the first site axis."""
    t = min(n, max(1, SLAB_SITES // n**2))
    return [(a, min(a + t, n)) for a in range(0, n, t)]


def _aligned(shape):
    """np.empty(shape) starting on a 64-byte cache line."""
    raw = np.empty(int(np.prod(shape)) + 8)
    k = -raw.__array_interface__["data"][0] % 64 // 8
    return raw[k:k + raw.size - 8].reshape(shape)


def _slab_sweep(n, *leads, ring=()):
    """(a, b, *s, *r) for each slab a .. b - 1 of _slabs(n), listed: s one scratch buffer per
    shape in leads, lead + (planes, n, n), allocated here, once, and cut to the slab.

    Given ring, pairs (lead, halo), r holds one buffer per pair for values
    that outlive their slab, lead + (planes + 2 halo, n, n), cut to the
    slab and halo planes on either side.  The first slab's r are its own,
    kept to the end of the sweep; the later slabs take two other sets in
    turn, so slab k's r are intact until slab k + 2 takes them.
    """
    slabs = _slabs(n)
    t = slabs[0][1]
    bufs = [_aligned(lead + (t, n, n)) for lead in leads]
    sets = [[_aligned(lead + (t + 2 * halo, n, n)) for lead, halo in ring] for _ in range(min(len(slabs), 3))]
    out = []
    for k, (a, b) in enumerate(slabs):
        held = sets[0] if k == 0 else sets[1 + (k - 1) % 2]
        out.append((a, b, *(s[..., :b - a, :, :] for s in bufs),
                    *(r[..., :b - a + 2 * halo, :, :] for r, (_, halo) in zip(held, ring))))
    return out


def _shifted(f, mu, out, a=0, b=None, step=1):
    """out, holding f(x + step e_mu), step = +-1, at planes a .. b - 1 of the first site
    axis; the site axes are the last three of f, periodic."""
    ax = f.ndim - 4 + mu
    if mu != 1:
        f, a, b = f[..., a:b, :, :], 0, None
    n = f.shape[ax]
    b = n if b is None else b

    def at(lo, hi):
        return (slice(None),) * ax + (slice(lo, hi),)

    lo, hi = max(a + step, 0), min(b + step, n)
    out[at(lo - step - a, hi - step - a)] = f[at(lo, hi)]
    if a + step < 0:
        out[at(0, 1)] = f[at(n - 1, n)]
    if b + step > n:
        out[at(b - a - 1, b - a)] = f[at(0, 1)]
    return out


def _site_last(q, lead=1):
    """Component-first values as one contiguous copy, their lead component axes moved last in order."""
    return np.ascontiguousarray(np.moveaxis(q, range(lead), range(-lead, 0)))


def _dot(a, b, out=None, tmp=None):
    """a . b of component-first vectors, summed left to right as np.sum sums a last axis;
    into out, with tmp a buffer for one product (it may be a[0]), when given."""
    out = np.multiply(a[0], b[0], out=out)
    out += np.multiply(a[1], b[1], out=tmp)
    out += np.multiply(a[2], b[2], out=tmp)
    return out


def _cross(a, b, out=None, tmp=None):
    """a x b of component-first vectors, index 0 running over components.

    Written out as np.cross computes it, a_i b_j - a_j b_i, so the two
    agree bit for bit; a and b may be arrays or triples that broadcast.
    Given out and tmp, a buffer for one product, it allocates nothing.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))
        out = np.empty((3,) + shape, dtype=np.result_type(a[0], b[0]))
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[i], b[j], out=out[k])
        out[k] -= np.multiply(a[j], b[i], out=tmp)
    return out


def avg_back(grid, f, mu, out=None, a=0, b=None):
    """Average of a value with its backward neighbor along mu, over the last three axes of f.

    Moves an edge-held value (sample at x + h/2 e_mu) to the site x at
    second order.  At planes a .. b - 1 of the first site axis, as
    _shifted reads them; into out, of f's shape cut to those planes, when given.
    """
    check_direction(mu)
    f = np.asarray(f)
    if out is None:
        out = np.empty(f[..., a:b, :, :].shape, np.result_type(f, 1.0))
    out = _shifted(f, mu, out, a, b, step=-1)
    return np.multiply(np.add(f[..., a:b, :, :], out, out=out), 0.5, out=out)


def d(grid, w, deg):
    """Spectral exterior derivative of a degree-'deg' form: iK on one rfftn."""
    if deg not in (0, 1, 2):
        raise ValueError("d is defined for degrees 0, 1, 2")
    wh = _rfft3(np.moveaxis(w, -1, 0) if deg else w)
    K, _ = _half_spectrum(grid)
    if deg == 0:
        return np.moveaxis(_irfft3(grid, np.stack([1j * k * wh for k in K])), 0, -1)
    if deg == 1:
        return np.moveaxis(_irfft3(grid, 1j * _cross(K, wh)), 0, -1)
    return _irfft3(grid, 1j * _dot(K, wh))


def codiff(grid, w, deg):
    """Spectral codifferential, the L2 adjoint of d: -d2, d1, -d0 on degrees 1, 2, 3."""
    if deg not in (1, 2, 3):
        raise ValueError("codiff is defined for degrees 1, 2, 3")
    return d(grid, w, 1) if deg == 2 else -d(grid, w, 3 - deg)


def integrate(grid, w):
    """Quadrature sum times h^3."""
    return float(np.sum(w)) * grid.h**3


def form_norm(grid, w):
    """L2 norm of a form given by component arrays.

    Only where the plain sum of squares overflows (values past about
    1e154) is it taken again on w / max|w|, so every norm that sum
    reads finite is kept to the bit.
    """
    w = np.asarray(w)
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(w**2) * grid.h**3))
    if norm == np.inf:
        top = float(np.max(np.abs(w)))
        if top < np.inf:
            norm = top * float(np.sqrt(np.sum((w / top) ** 2) * grid.h**3))
    return norm


def _half_spectrum(grid):
    """Wavevector triple on the rfftn half spectrum and Parseval weights.

    The weight is 2 where a stored mode stands for itself and its
    conjugate partner, 1 on the planes kz = 0 and (even n) kz = Nyquist,
    which rfftn stores whole.
    """
    # integer frequencies scaled to wavenumbers; the Nyquist mode of a
    # real field carries no usable sign for a first derivative, drop it
    k = 2.0 * np.pi / grid.l * (grid.n * np.fft.fftfreq(grid.n))
    m = grid.n // 2 + 1
    weight = np.full(m, 2.0)
    weight[0] = 1.0
    if grid.n % 2 == 0:
        k[grid.n // 2] = 0.0
        weight[-1] = 1.0
    return (k[:, None, None], k[None, :, None], k[None, None, :m]), weight


def _rfft3(w):
    """rfftn over the three site axes, the last three of w: its own three passes, rfft along
    the last axis, then fft along the middle and the first, those two in place."""
    wh = np.fft.rfft(w, axis=-1)
    np.fft.fft(wh, axis=-2, out=wh)
    return np.fft.fft(wh, axis=-3, out=wh)


def _irfft3(grid, wh):
    """The real field whose _rfft3 transform is wh; s fixes odd n."""
    return np.fft.irfftn(wh, s=(grid.n,) * 3, axes=(-3, -2, -1))


def _spectrum(grid, w):
    """(w_hat, K . w_hat, K, k2, weight) from one rfftn of component-first w.

    K and weight are from _half_spectrum, k2 = |K|^2 is set to 1 where K
    vanishes; i K . w_hat transforms d of a 2-form, -codiff of a 1-form.
    """
    wh = _rfft3(w)
    K, weight = _half_spectrum(grid)
    k2 = K[0] ** 2 + K[1] ** 2 + K[2] ** 2
    return wh, _dot(K, wh), K, np.where(k2 == 0.0, 1.0, k2), weight


def _parseval(grid, weight, x):
    """h^3 / n^3 sum weight x: the integral of a product of real fields from its half-spectrum terms x."""
    return float(np.sum(weight * x)) * grid.h**3 / grid.n**3


def _parseval_norm(grid, weight, fh):
    """form_norm of the real field whose rfftn transform is fh."""
    return float(np.sqrt(_parseval(grid, weight, np.abs(fh) ** 2)))


# ||dF|| / ((2 pi / l) ||F||) above this is not discretization residue
# of a smooth closed form: _potential refuses F as not closed
CLOSED_TOL = 0.5


def _potential(grid, F):
    """(F_hat, K, k2, weight) of _spectrum, once F has a coexact potential alpha.

    alpha, with delta alpha = 0, d alpha = F and no harmonic part, exists
    only for F closed and with vanishing fluxes, else NonExactForm; its
    transform is i K x F_hat / k2, zero where K is.
    """
    # F's norm first, so its squares are gone before F's transform exists
    norm = form_norm(grid, F)
    Fh, div, K, k2, weight = _spectrum(grid, F)
    # the zero mode sums F over all sites: n^3 / l^2 times the slice flux
    # averaged over the parallel slices
    flux = Fh[:, 0, 0, 0].real * grid.l**2 / grid.n**3
    if np.any(np.abs(flux) > 0.5):
        raise NonExactForm(f"fluxes {flux.round(3).tolist()} obstruct a global potential")
    ndF = _parseval_norm(grid, weight, div)
    if ndF > CLOSED_TOL * (2.0 * np.pi / grid.l) * norm + 1e-12:
        raise NonExactForm("2-form is not closed")
    return Fh, K, k2, weight
