"""Topological invariants of lattice fields.

The primary obstruction is read off as fluxes of the pulled-back area
form through the three coordinate 2-tori.  When the fluxes vanish the
Hopf charge is the helicity of the coexact potential of that form
(Whitehead's integral formula); group fields additionally carry a
degree, computed from the cubic integral of their flattening connection,
and any connection has a Chern--Simons number.

_classify reads component-first values (3, n, n, n) where they live:
the descent's iterate, or the array a SphereField stores (fields._cf).
_read adds the values read and a framing's degree; a group field alone
frames the constant field.
Both decide, without raising, which readings a field or framed pair has
and why the others are missing, and return one record, _Reading, from
which fluxes, hopf_charge and homotopy_record raise.
Each integral has one home: w ^ d(w), the Hopf charge and the a ^ da of
chern_simons, is the Parseval sum (lattice._parseval) of _twist; the
cubic integral of degree and chern_simons is _volume, one slab sweep
(lattice._slab_sweep) of the site averages (fields._site_logs) and their
determinant (_det3) into one whole-field array, summed once.
"""

from dataclasses import dataclass
from math import frexp, gcd, ldexp
from typing import NamedTuple, Optional

import numpy as np

from . import quat
from .errors import NonExactForm, NonIntegralFlux
from .fields import (
    Connection,
    GroupField,
    SphereField,
    _area,
    _area_form,
    _cf,
    _conjugate,
    _expect,
    _logs_of,
    _site_logs,
)
from .lattice import Grid, _cross, _dot, _half_spectrum, _parseval, _potential, _rfft3, _slab_sweep, diff, integrate

FLUX_ROUND_TOL = 0.1


class _Reading(NamedTuple):
    """Class readings of a sphere field, or of a framed pair (phi, u); None where undefined."""

    raw: tuple  # slice fluxes through the tori {x_k = l/2}
    rounded: tuple
    flux_error: Optional[str]  # why rounded is no class: a reading off its integer
    m: Optional[int]  # modulus of the rounded fluxes
    hopf_sector: bool
    hopf: Optional[float]
    hopf_error: Optional[str]  # why a Hopf-sector charge has no potential (NonExactForm)
    v: Optional[np.ndarray] = None  # from _read: u phi u*, or a view of phi, component-first
    degree: Optional[float] = None
    degree_class: Optional[int] = None  # the degree mod 2m
    degree_error: Optional[str] = None  # why a framed pair's degree has no class

    @property
    def hopf_reason(self):
        """Why hopf is None, or None when it is read."""
        if self.flux_error is not None:
            return "fluxes not classifiable"
        if not self.hopf_sector:
            return "nonzero fluxes"
        return self.hopf_error


def _twist(K, wh):
    """K . (x x y) of component-first wh = x + i y, Re(conj(wh) . i K x wh) / 2: twice its
    Parseval sum is the integral of w ^ d(w), w the real 1-form of transform wh."""
    return _dot(K, _cross(wh.real, wh.imag))


def _helicity(grid, F):
    """Integral of alpha ^ d(alpha) for the coexact potential alpha of component-first F.

    By Parseval on F's guarded spectrum F_hat: alpha's transform
    A = i K x F_hat / k2 is orthogonal to K, so Re(conj(A) . i K x A)
    is Re(conj(A) . F_hat) = 2 _twist(K, F_hat) / k2, and A is never formed.
    """
    Fh, K, k2, weight = _potential(grid, F)
    return 2.0 * _parseval(grid, weight, _twist(K, Fh) / k2)


def _raw_fluxes(g, v):
    """Fluxes of the area form of component-first v through the tori {x_k = l/2}, O(n^2).

    Slot k of pullback_area on the plane x_k = n/2 needs only that
    plane's two in-plane differences, so each flux is the plane's area
    density, through the same arithmetic, summed by np.sum and scaled by h^2.
    """
    mid = slice(g.n // 2, g.n // 2 + 1)
    raw = []
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        # a basic index: a view of v, whatever its strides, never a copy
        p = v[(slice(None),) * (k + 1) + (mid,)]
        di, dj = (diff(g, p, m + 1) for m in (i, j))
        raw.append(float(np.sum(_area(p, di, dj))) * g.h**2)
    return tuple(raw)


def _classify(g, v, charge=True) -> _Reading:
    """Fluxes of the sphere field of component-first values v and, in the Hopf sector, its charge.

    The Hopf sector is the one rule for when the charge exists: every
    raw flux within FLUX_ROUND_TOL of an integer, all of them 0.  The
    whole area form is built only for the charge.
    """
    # rescaled by a power of two, exactly, to a spacing in [0.5, 1): fluxes and the charge are
    # scale-free, and there no square in a norm overflows and no helicity term underflows
    g = Grid(g.n, ldexp(g.l, -frexp(g.h)[1]))
    raw = _raw_fluxes(g, v)
    rounded = tuple(int(x) for x in np.rint(raw))
    off = [k for k in range(3) if abs(raw[k] - rounded[k]) > FLUX_ROUND_TOL]
    flux_error = None
    if off:
        flux_error = (
            f"flux {raw[off[0]]:.4f} along direction {off[0] + 1} is not within "
            f"{FLUX_ROUND_TOL} of an integer; field is under-resolved"
        )
    m = None if off else modulus(rounded)
    sector = not off and rounded == (0, 0, 0)
    hopf = hopf_error = None
    if charge and sector:
        try:
            hopf = _helicity(g, _area_form(g, v))
        except NonExactForm as exc:
            hopf_error = str(exc)
    return _Reading(raw, rounded, flux_error, m, sector, hopf, hopf_error)


def fluxes(psi: SphereField):
    """Integer fluxes of the pulled-back area form, with their raw values.

    Component k is the flux through the 2-torus {x_k = l/2}.  Raising
    NonIntegralFlux beyond the 0.1 rounding window is deliberate: a flux
    that far from an integer means the field is too coarse to classify,
    and guessing would silently misfile the homotopy class.
    """
    c = _classify(_expect(SphereField, psi).grid, _cf(psi), charge=False)
    if c.flux_error is not None:
        raise NonIntegralFlux(c.flux_error)
    return c.rounded, c.raw


def hopf_charge(psi: SphereField) -> float:
    """Helicity integral of the area pullback; defined in the Hopf sector.

    With F = pullback_area(psi) exact and alpha its coexact potential
    (delta alpha = 0, d alpha = F, no harmonic part), the charge is the
    integral of alpha wedge d(alpha).  Outside the Hopf sector of
    _classify, or when the potential solve refuses F, it raises
    NonExactForm, which is the honest answer: the invariant does not
    exist there.
    """
    c = _classify(_expect(SphereField, psi).grid, _cf(psi))
    if c.hopf is None:
        raise NonExactForm(f"no Hopf charge: {c.hopf_reason}")
    return c.hopf


def _det3(a, out=None, s=None):
    """det[a_0 a_1 a_2] = a_0 . (a_1 x a_2) of component-first vectors; into out, with
    s scratch of shape (4,) + out.shape, when given."""
    s = (None, None) if s is None else (s[:3], s[3])
    return _dot(a[0], _cross(a[1], a[2], *s), out, s[1])


def _volume(g, logs):
    """Integral of det[ab_1 ab_2 ab_3], ab the two-edge site averages of component-first
    edge logarithms logs, slab by slab into one whole-field array summed once."""
    det = np.empty(logs.shape[2:])
    for a, b, ab, s in _slab_sweep(g.n, (3, 3), (4,)):
        _det3(_site_logs(g, logs, ab, a, b), det[a:b], s)
    return integrate(g, det)


def degree(u: GroupField) -> float:
    """Mapping degree of a group field via its flattening connection.

    Realizes -(1/12 pi^2) times the integral of Re(a^a^a).  The volume
    coefficient of Re(a^a^a) is 6 Re(a_1 a_2 a_3) = -6 det[a_1 a_2 a_3]
    (one term per permutation of three distinct directions); the cross
    check against a signed preimage count lives in the test suite.
    """
    return _volume(u.grid, _logs_of(u)) / (2 * np.pi**2)


def chern_simons(a: Connection) -> float:
    """Chern--Simons number (1/4 pi^2) integral of Re(a^da + 2/3 a^a^a).

    Re(a ^ da) sums -alpha_c ^ d(alpha_c) over the real 1-forms alpha_c =
    (ab_1, ab_2, ab_3)_c, ab the two-edge site averages, one quaternion
    component c at a time; its spectral differential keeps the flat identity
    cs(a) = degree at second order on developable connections.  The cubic
    term is degree's _volume.
    """
    g, logs = _expect(Connection, a).grid, _cf(a)
    K, weight = _half_spectrum(g)
    ada = -sum(2.0 * _parseval(g, weight, _twist(K, _rfft3(_site_logs(g, logs[:, c])))) for c in range(3))
    return (ada - 4.0 * _volume(g, logs)) / (4 * np.pi**2)


def modulus(p) -> int:
    """gcd of the absolute fluxes; zero when all fluxes vanish."""
    p1, p2, p3 = (abs(int(v)) for v in p)
    return gcd(p1, gcd(p2, p3))


@dataclass(frozen=True)
class HomotopyRecord:
    """Complete homotopy data of a pair (reference field, framing map)."""

    fluxes: tuple
    raw_fluxes: tuple
    m: int
    degree: float
    degree_class: int
    hopf_charge: Optional[float] = None

    def __post_init__(self):
        if self.m > 0 and not 0 <= self.degree_class < 2 * self.m:
            raise ValueError("degree class must be reduced mod 2m")


def _read(phi, u: Optional[GroupField] = None) -> _Reading:
    """Every class reading of phi, of the pair (phi, u), or of a group field phi
    framing the constant field, without raising.

    The degree of u counts only mod 2m, so it has no class when it is off
    its integer or when the fluxes, and with them m, are unclassifiable.
    """
    if isinstance(phi, GroupField):
        phi, u = quat.IM_I, phi
    if u is None:
        g, v, deg = phi.grid, _cf(phi), None
    else:
        # the degree first, so its temporaries and the conjugate never coexist
        g, deg = u.grid, degree(u)
        v = _conjugate(u, phi)
    r = _classify(g, v)._replace(v=v)
    if deg is None:
        return r
    cls = int(np.rint(deg))
    err = None
    if abs(deg - cls) > FLUX_ROUND_TOL:
        cls, err = None, f"degree {deg:.4f} is not within {FLUX_ROUND_TOL} of an integer"
    elif r.m is None:
        cls, err = None, "fluxes not classifiable"
    elif r.m > 0:
        cls %= 2 * r.m
    return r._replace(degree=deg, degree_class=cls, degree_error=err)


def homotopy_record(phi: SphereField, u: GroupField) -> HomotopyRecord:
    """Classify the pair (phi, u) up to homotopy.

    Fluxes are read from the conjugated field u phi u* (they agree with
    phi's own), the degree of u is reduced mod 2 gcd(fluxes), and the
    Hopf charge of the conjugated field is attached whenever the fluxes
    vanish (elsewhere it is undefined).
    """
    r = _read(_expect(SphereField, phi), _expect(GroupField, u))
    if r.flux_error is not None:
        raise NonIntegralFlux(r.flux_error)
    if r.degree_error is not None:
        raise NonIntegralFlux(r.degree_error)
    if r.hopf_error is not None:
        raise NonExactForm(r.hopf_error)
    return HomotopyRecord(r.rounded, r.raw, r.m, r.degree, r.degree_class, r.hopf)
