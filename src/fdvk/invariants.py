"""Topological invariants of lattice fields.

The primary obstruction is read off as fluxes of the pulled-back area
form through the three coordinate 2-tori.  When the fluxes vanish the
Hopf charge is the helicity of the vector potential of that form; group
fields additionally carry a degree, computed from the cubic integral of
their flattening connection, and any connection has a Chern--Simons
number.  homotopy_record bundles the complete classification data.
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
    _logs,
    _logs_of,
    _site_logs,
    conjugate_field,
    pullback_area,
)
from .lattice import _comp_first, _cross, _dot, _half_spectrum, _potential, _rfft3, diff, integrate

FLUX_ROUND_TOL = 0.1


class _SphereClass(NamedTuple):
    raw: tuple  # slice fluxes through the tori {x_k = l/2}
    rounded: tuple
    flux_error: Optional[str]  # why rounded is no class: a reading off its integer
    hopf_sector: bool
    hopf: Optional[float]
    hopf_error: Optional[str]  # why a Hopf-sector charge has no potential (NonExactForm)


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
    """Integral of alpha ^ d(alpha) for the coexact potential alpha of F."""
    return _wedge_d(grid, *_potential(grid, F))


def _raw_fluxes(psi: SphereField):
    """Fluxes of the area form through the tori {x_k = l/2}, O(n^2) work.

    Slot k of pullback_area on the plane x_k = n/2 needs only that
    plane's two in-plane differences, so each flux is the plane's area
    density, through the same arithmetic, summed as slice_flux sums it;
    the plane is read as a slab one site thick, as diff reads a field.
    """
    g = psi.grid
    mid = slice(g.n // 2, g.n // 2 + 1)
    raw = []
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        # a basic index, so a strided psi.values (as loaded) is not copied whole
        p = _comp_first(psi.values[(slice(None),) * k + (mid,)])
        di, dj = (diff(g, p, m + 1) for m in (i, j))
        raw.append(float(np.sum(_area(p, di, dj))) * g.h**2)
    return tuple(raw)


def _classify(psi: SphereField, charge=True) -> _SphereClass:
    """Fluxes of psi and, in the Hopf sector, its charge.

    The Hopf sector is the one rule for when the charge exists: every
    raw flux within FLUX_ROUND_TOL of an integer, all of them 0.  The
    whole area form is built only for the charge.
    """
    raw = _raw_fluxes(psi)
    rounded = tuple(int(v) for v in np.rint(raw))
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
            hopf = _helicity(psi.grid, pullback_area(psi))
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
    c = _classify(psi, charge=False)
    if c.flux_error is not None:
        raise NonIntegralFlux(c.flux_error)
    return c.rounded, c.raw


def hopf_charge(psi: SphereField) -> float:
    """Helicity integral of the area pullback; defined when fluxes vanish.

    With F = pullback_area(psi) exact and alpha its coexact potential
    (delta alpha = 0, d alpha = F, no harmonic part), the charge is the
    integral of alpha wedge d(alpha). Nonzero fluxes make F non-exact
    and the potential solve raises NonExactForm, which is the honest
    answer: the invariant does not exist there.
    """
    return _helicity(psi.grid, pullback_area(psi))


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


def homotopy_record(phi: SphereField, u: GroupField) -> HomotopyRecord:
    """Classify the pair (phi, u) up to homotopy.

    Fluxes are read from the conjugated field u phi u* (they agree with
    phi's own), the degree of u is reduced mod 2 gcd(fluxes), and the
    Hopf charge of the conjugated field is attached whenever the fluxes
    vanish (elsewhere it is undefined).
    """
    phi.grid.same(u.grid)
    c = _classify(conjugate_field(u, phi))
    if c.flux_error is not None:
        raise NonIntegralFlux(c.flux_error)
    m = modulus(c.rounded)
    deg = degree(u)
    cls = int(np.rint(deg))
    if abs(deg - cls) > FLUX_ROUND_TOL:
        raise NonIntegralFlux(
            f"degree {deg:.4f} is not within {FLUX_ROUND_TOL} of an integer"
        )
    if m > 0:
        cls %= 2 * m
    if c.hopf_error is not None:
        raise NonExactForm(c.hopf_error)
    return HomotopyRecord(c.rounded, c.raw, m, deg, cls, c.hopf)
