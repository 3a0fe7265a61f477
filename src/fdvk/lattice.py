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

That site-last layout is kept only by the field containers and by what
public functions return. Inside the package arrays are component-first,
the site axes the last three: (3, n, n, n), or (3, 3, n, n, n) for edge
logs, so stencils and products stream through contiguous components.
diff and avg_back act on the last three axes, _cross and _dot on the
first; _comp_first and _site_last convert between the two layouts.

The descent sweeps that layout in slabs of whole planes along the first
site axis (_slabs, SLAB_SITES sites per slab), so a slab's temporaries
stay in cache. Along the first axis a slab reads its two neighbouring
planes, the halo, from the whole field.

One central stencil, _diff_into, serves energies, gradients and fluxes;
it subtracts shifted slices straight into a given buffer, periodic within
the array it is handed, and keeps the discrete energy an explicit smooth
function of site values, so its gradient is exact. One half-spectrum
path (_rfft3, _irfft3, _half_spectrum) serves d and codiff, the Hodge
split, the potential and the Parseval sums: its multiplier iK makes d
compose to zero and the codifferential an exact adjoint. The two agree
to O(h^2) on smooth data.
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
        # quadrature weights h^3 and the quartic density's scale h^-4
        # must both be normal nonzero floats, or energies read inf or NaN
        h = np.float64(self.l) / self.n
        with np.errstate(over="ignore", under="ignore"):
            scales = (h**3, h**-4)
        if not all(np.isfinite(s) and s > 0 for s in scales):
            raise ValueError(
                f"period {self.l!r} over {self.n} sites gives a spacing whose cube "
                "or inverse fourth power leaves the floating-point range"
            )

    @property
    def h(self):
        return self.l / self.n

    def axes(self):
        """Coordinate arrays (x, y, z) broadcast to grid shape."""
        c = np.arange(self.n) * self.h
        return np.meshgrid(c, c, c, indexing="ij")

    def same(self, other):
        if self.n != other.n or self.l != other.l:
            raise GridMismatch(f"{self} vs {other}")


def check_direction(mu):
    if mu not in (1, 2, 3):
        raise ValueError("direction must be 1, 2 or 3")


def diff(grid, f, mu):
    """Central difference along direction mu, periodic.

    The site axes are the last three of f, so a scalar field and a
    component-first one are differenced alike.
    """
    check_direction(mu)
    f = np.asarray(f)
    return _diff_into(grid, f, f.ndim - 4 + mu, np.empty(f.shape, np.result_type(f, 1.0)))


def _diff_into(grid, f, ax, out, lo=0, hi=None):
    """(f[i + 1] - f[i - 1]) / 2h along axis ax for i = lo .. hi - 1, into out.

    f is periodic along ax; out holds hi - lo entries there, so a slab
    lo .. hi - 1 of a whole field reads its halo planes lo - 1 and hi
    from f, wrapping only at the ends of the axis.
    """
    m = f.shape[ax]
    hi = m if hi is None else hi

    def at(a, b):
        return (slice(None),) * ax + (slice(a, b),)

    i0, i1 = max(lo, 1), min(hi, m - 1)
    if i0 < i1:
        np.subtract(f[at(i0 + 1, i1 + 1)], f[at(i0 - 1, i1 - 1)], out=out[at(i0 - lo, i1 - lo)])
    if lo == 0:
        np.subtract(f[at(1, 2)], f[at(m - 1, m)], out=out[at(0, 1)])
    if hi == m:
        np.subtract(f[at(0, 1)], f[at(m - 2, m - 1)], out=out[at(m - 1 - lo, m - lo)])
    out /= 2.0 * grid.h
    return out


# sites per slab of the descent sweep, so that a slab's temporaries stay
# in L2; budgets of 8192-16384 timed best at n = 32-64 with a 4 MiB L2
SLAB_SITES = 16384


def _slabs(n):
    """(start, stop) plane ranges of the slab sweep along the first site axis."""
    t = min(n, max(1, SLAB_SITES // n**2))
    return [(a, min(a + t, n)) for a in range(0, n, t)]


def _comp_first(values):
    """Values with a trailing component axis as a contiguous array with it first."""
    return np.ascontiguousarray(np.moveaxis(values, -1, 0))


def _site_last(q):
    """Component-first values as a contiguous array, component axis last (twice for edge logs)."""
    return np.ascontiguousarray(np.moveaxis(q, 0, -1))


def _dot(a, b):
    """a . b of component-first vectors, summed left to right as np.sum sums a last axis."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b, out=None):
    """a x b of component-first vectors, index 0 running over components.

    Written out as np.cross computes it, a_i b_j - a_j b_i, so the two
    agree bit for bit; a and b may be arrays or triples that broadcast.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))
        out = np.empty((3,) + shape, dtype=np.result_type(a[0], b[0]))
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[i], b[j], out=out[k])
        out[k] -= a[j] * b[i]
    return out


def avg_back(grid, f, mu):
    """Average of a value with its backward neighbor along mu.

    Moves an edge-held value (sample at x + h/2 e_mu) to the site x at
    second order; the workhorse for consuming edge-logarithm
    connections in site-centered formulas.  The site axes are the last
    three of f, as for diff.
    """
    check_direction(mu)
    return 0.5 * (f + np.roll(f, 1, axis=np.ndim(f) - 4 + mu))


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
    """L2 norm of a form given by component arrays."""
    return float(np.sqrt(np.sum(np.asarray(w) ** 2) * grid.h**3))


def slice_flux(grid, F, axis, index):
    """Pairing of a 2-form with the coordinate 2-torus at slice 'index'.

    The slice is transverse to 'axis'; for a closed form the result is
    independent of index up to O(h^2).
    """
    check_direction(axis)
    if not 0 <= index < grid.n:
        raise ValueError("slice index out of range")
    comp = np.take(F[..., axis - 1], index, axis=axis - 1)
    return float(np.sum(comp)) * grid.h**2


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
    """rfftn over the three site axes, the last three of w."""
    return np.fft.rfftn(w, axes=(-3, -2, -1))


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


def _parseval_norm(grid, weight, fh):
    """form_norm of the real field whose rfftn transform is fh."""
    return float(np.sqrt(np.sum(weight * np.abs(fh) ** 2) * grid.h**3 / grid.n**3))


# ||dF|| / ((2 pi / l) ||F||) above this is not discretization residue
# of a smooth closed form: _potential refuses F as not closed
CLOSED_TOL = 0.5


def _potential(grid, F):
    """Half-spectrum transform of the coexact potential of component-first F.

    alpha, with delta alpha = 0, d alpha = F and no harmonic part, exists
    only for F closed and with vanishing fluxes; otherwise NonExactForm.
    Returns (alpha_hat, K, weight) with K and weight from _half_spectrum,
    after the flux and closedness guards, which read F's one rfftn.
    """
    Fh, div, K, k2, weight = _spectrum(grid, F)
    # the zero mode sums F over all sites: n^3 / l^2 times the slice flux
    # averaged over the parallel slices
    flux = Fh[:, 0, 0, 0].real * grid.l**2 / grid.n**3
    if np.any(np.abs(flux) > 0.5):
        raise NonExactForm(f"fluxes {flux.round(3).tolist()} obstruct a global potential")
    ndF = _parseval_norm(grid, weight, div)
    if ndF > CLOSED_TOL * (2.0 * np.pi / grid.l) * form_norm(grid, F) + 1e-12:
        raise NonExactForm("2-form is not closed")
    # alpha = curl of the componentwise Poisson preimage; div-free by
    # construction (the cross product vanishes where K does)
    return 1j * _cross(K, Fh) * (1.0 / k2), K, weight
