"""Topological invariants of lattice fields.

The primary obstruction is read off as fluxes of the pulled-back area
form through the three coordinate 2-tori.  When the fluxes vanish the
Hopf charge is the helicity of the vector potential of that form; group
fields additionally carry a degree, computed from the cubic integral of
their flattening connection, and any connection has a Chern--Simons
number.  _read decides, without raising, which of these readings a
field or framed pair has and why the others are missing; fluxes,
hopf_charge and homotopy_record raise from it.
_classify reads component-first values (3, n, n, n) where they live:
the descent's iterate, or a SphereField's view np.moveaxis(values, -1, 0).
"""

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Optional

import numpy as np

from .errors import NonExactForm, NonIntegralFlux
from .fields import (
    Connection,
    GroupField,
    SphereField,
    _area,
    _area_form,
    _conjugate,
    _logs,
    _logs_of,
    _site_logs,
)
from .lattice import _cross, _dot, _half_spectrum, _potential, _rfft3, diff, integrate

FLUX_ROUND_TOL = 0.1


class _SphereClass(NamedTuple):
    raw: tuple  # slice fluxes through the tori {x_k = l/2}
    rounded: tuple
    flux_error: Optional[str]  # why rounded is no class: a reading off its integer
    hopf_sector: bool
    hopf: Optional[float]
    hopf_error: Optional[str]  # why a Hopf-sector charge has no potential (NonExactForm)

    @property
    def hopf_reason(self):
        """Why hopf is None, or None when it is read."""
        if self.flux_error is not None:
            return "fluxes not classifiable"
        if not self.hopf_sector:
            return "nonzero fluxes"
        return self.hopf_error


class _Reading(NamedTuple):
    """Class readings of phi or of a framed pair (phi, u); None where undefined."""

    v: np.ndarray  # u phi u* component-first, or a component-first view of phi when unframed
    c: _SphereClass  # the class of v
    m: Optional[int]  # modulus of the rounded fluxes
    degree: Optional[float]
    degree_class: Optional[int]  # the degree mod 2m
    degree_error: Optional[str]  # why a framed pair's degree has no class


def _wedge_d(grid, Ah, K, weight):
    """Integral of alpha ^ d(alpha) by Parseval from alpha's component-first rfftn Ah.

    d(alpha) has the transform i K x Ah; Re(conj(Ah) . dAh), the volume
    coefficient of alpha ^ d(alpha), is summed over the half spectrum
    with lattice._half_spectrum's K and weights.
    """
    dAh = 1j * _cross(K, Ah)
    dot = np.sum((Ah.conj() * dAh).real, axis=0)
    return float(np.sum(weight * dot)) * grid.h**3 / grid.n**3


def _helicity(grid, F):
    """Integral of alpha ^ d(alpha) for the coexact potential alpha of component-first F."""
    return _wedge_d(grid, *_potential(grid, F))


def _raw_fluxes(g, v):
    """Fluxes of the area form of component-first v through the tori {x_k = l/2}, O(n^2).

    Slot k of pullback_area on the plane x_k = n/2 needs only that
    plane's two in-plane differences, so each flux is the plane's area
    density, through the same arithmetic, summed as slice_flux sums it;
    the plane is read as a slab one site thick, as diff reads a field.
    """
    mid = slice(g.n // 2, g.n // 2 + 1)
    raw = []
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        # a basic index: a view of v, whatever its strides, never a copy
        p = v[(slice(None),) * (k + 1) + (mid,)]
        di, dj = (diff(g, p, m + 1) for m in (i, j))
        raw.append(float(np.sum(_area(p, di, dj))) * g.h**2)
    return tuple(raw)


def _classify(g, v, charge=True) -> _SphereClass:
    """Fluxes of the sphere field of component-first values v and, in the Hopf sector, its charge.

    The Hopf sector is the one rule for when the charge exists: every
    raw flux within FLUX_ROUND_TOL of an integer, all of them 0.  The
    whole area form is built only for the charge.
    """
    raw = _raw_fluxes(g, v)
    rounded = tuple(int(x) for x in np.rint(raw))
    off = [k for k in range(3) if abs(raw[k] - rounded[k]) > FLUX_ROUND_TOL]
    flux_error = None
    if off:
        flux_error = (
            f"flux {raw[off[0]]:.4f} along direction {off[0] + 1} is not within "
            f"{FLUX_ROUND_TOL} of an integer; field is under-resolved"
        )
    sector = not off and rounded == (0, 0, 0)
    hopf = hopf_error = None
    if charge and sector:
        try:
            hopf = _helicity(g, _area_form(g, v))
        except NonExactForm as exc:
            hopf_error = str(exc)
    return _SphereClass(raw, rounded, flux_error, sector, hopf, hopf_error)


def fluxes(psi: SphereField):
    """Integer fluxes of the pulled-back area form, with their raw values.

    Component k is the flux through the 2-torus {x_k = l/2}.  Raising
    NonIntegralFlux beyond the 0.1 rounding window is deliberate: a flux
    that far from an integer means the field is too coarse to classify,
    and guessing would silently misfile the homotopy class.
    """
    c = _classify(psi.grid, np.moveaxis(psi.values, -1, 0), charge=False)
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
    c = _classify(psi.grid, np.moveaxis(psi.values, -1, 0))
    if c.hopf is None:
        raise NonExactForm(f"no Hopf charge: {c.hopf_reason}")
    return c.hopf


def _det3(a):
    return _dot(a[0], _cross(a[1], a[2]))


def degree(u: GroupField) -> float:
    """Mapping degree of a group field via its flattening connection.

    Realizes -(1/12 pi^2) times the integral of Re(a^a^a).  The volume
    coefficient of Re(a^a^a) is 6 Re(a_1 a_2 a_3) = -6 det[a_1 a_2 a_3]
    (one term per permutation of three distinct directions); the cross
    check against a signed preimage count lives in the test suite.
    """
    det = _det3(_site_logs(u.grid, _logs_of(u)))
    return float(integrate(u.grid, det) / (2 * np.pi**2))


def chern_simons(a: Connection) -> float:
    """Chern--Simons number (1/4 pi^2) integral of Re(a^da + 2/3 a^a^a).

    The derivative term uses the spectral differential so that the flat
    identity cs(a) = degree holds at second order on developable
    connections.
    """
    ab = _site_logs(a.grid, _logs(a))
    # Re(a ^ da) sums -alpha_c ^ d(alpha_c) over the real 1-forms
    # alpha_c = (a_1, a_2, a_3)_c of the three quaternion components c
    K, weight = _half_spectrum(a.grid)
    ada = -sum(_wedge_d(a.grid, _rfft3(ab[:, c]), K, weight) for c in range(3))
    det = _det3(ab)
    return float((ada - 4.0 * integrate(a.grid, det)) / (4 * np.pi**2))


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


def _read(phi: SphereField, u: Optional[GroupField] = None) -> _Reading:
    """Every class reading of phi, or of the pair (phi, u), without raising.

    The degree of u counts only mod 2m, so it has no class when it is off
    its integer or when the fluxes, and with them m, are unclassifiable.
    """
    if u is None:
        v, deg = np.moveaxis(phi.values, -1, 0), None
    else:
        # the degree first, so its temporaries and the conjugate never coexist
        deg = degree(u)
        v = _conjugate(u, phi)
    c = _classify(phi.grid, v)
    m = None if c.flux_error is not None else modulus(c.rounded)
    if deg is None:
        return _Reading(v, c, m, None, None, None)
    cls = int(np.rint(deg))
    err = None
    if abs(deg - cls) > FLUX_ROUND_TOL:
        cls, err = None, f"degree {deg:.4f} is not within {FLUX_ROUND_TOL} of an integer"
    elif m is None:
        cls, err = None, "fluxes not classifiable"
    elif m > 0:
        cls %= 2 * m
    return _Reading(v, c, m, deg, cls, err)


def homotopy_record(phi: SphereField, u: GroupField) -> HomotopyRecord:
    """Classify the pair (phi, u) up to homotopy.

    Fluxes are read from the conjugated field u phi u* (they agree with
    phi's own), the degree of u is reduced mod 2 gcd(fluxes), and the
    Hopf charge of the conjugated field is attached whenever the fluxes
    vanish (elsewhere it is undefined).
    """
    r = _read(phi, u)
    if r.c.flux_error is not None:
        raise NonIntegralFlux(r.c.flux_error)
    if r.degree_error is not None:
        raise NonIntegralFlux(r.degree_error)
    if r.c.hopf_error is not None:
        raise NonExactForm(r.c.hopf_error)
    return HomotopyRecord(r.c.rounded, r.c.raw, r.m, r.degree, r.degree_class, r.c.hopf)
