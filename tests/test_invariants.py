"""Topological invariants: fluxes, Hopf charge, degree, Chern-Simons."""

import numpy as np
import pytest

from fdvk import quat
from fdvk.ansatz import AnsatzSpec, _ball_lift, generate, s1_winding
from fdvk.errors import NonExactForm, NonIntegralFlux
from fdvk.fields import (
    GroupField,
    SphereField,
    conjugate_field,
    connection_of,
    constant_group,
    constant_sphere,
    pullback_area,
)
from fdvk.invariants import (
    HomotopyRecord,
    _classify,
    _read,
    chern_simons,
    degree,
    fluxes,
    homotopy_record,
    hopf_charge,
    modulus,
)
from fdvk.lattice import Grid
from oracles import ref_slice_fluxes

TWO_PI = 2.0 * np.pi


def comps(psi):
    """The component-first view of a sphere field's values that _classify reads."""
    return np.moveaxis(psi.values, -1, 0)


def decayed_tube(g):
    """Tube blended toward a constant: its flux reads about 0.70."""
    tube = generate(AnsatzSpec(kind="tube", charge=1), g)
    v = 0.52 * tube.values + 0.48 * np.array([0.0, 0.0, 1.0])
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return SphereField(g, v)


def test_trivial_field_invariants():
    g = Grid(8, TWO_PI)
    p, raw = fluxes(constant_sphere(g))
    assert p == (0, 0, 0) and raw == (0.0, 0.0, 0.0)
    assert hopf_charge(constant_sphere(g)) == 0.0
    assert degree(constant_group(g)) == 0.0


def test_tube_fluxes_follow_axis_not_twist():
    g = Grid(24, TWO_PI)
    # the charge-2 tube at odd n too: its twist broadcasts along each axis in turn
    for charge, n in ((1, 24), (2, 33)):
        for axis in (1, 2, 3):
            p, raw = fluxes(generate(AnsatzSpec(kind="tube", charge=charge, axis=axis), Grid(n, TWO_PI)))
            assert p == tuple(int(k == axis) for k in (1, 2, 3))
    # the twist count changes the framing class, never the fluxes
    for t in (0, 2, -1):
        p, raw = fluxes(generate(AnsatzSpec(kind="tube", charge=t), g))
        assert p == (1, 0, 0)
        assert abs(raw[1]) <= 1e-12 and abs(raw[2]) <= 1e-12


def test_nonintegral_flux_raises():
    with pytest.raises(NonIntegralFlux):
        fluxes(decayed_tube(Grid(24, TWO_PI)))


def test_classifier_matches_public_readings():
    g = Grid(24, TWO_PI)
    tube = generate(AnsatzSpec(kind="tube", charge=1), g)
    c = _classify(tube.grid, comps(tube))
    assert (c.rounded, c.raw) == fluxes(tube)
    assert c.flux_error is None and not c.hopf_sector
    assert c.hopf is None and c.hopf_error is None

    hopfion = generate(AnsatzSpec(kind="hopfion", charge=1), g)
    ball = generate(AnsatzSpec(kind="ballmap", charge=1), g)
    for psi in (hopfion, conjugate_field(ball, constant_sphere(g))):
        c = _classify(psi.grid, comps(psi))
        assert (c.rounded, c.raw) == fluxes(psi)
        assert c.hopf_sector and c.flux_error is None
        assert c.hopf == hopf_charge(psi)  # bit-equal: one area form, one solve
        assert _classify(psi.grid, comps(psi), charge=False).hopf is None

    blend = decayed_tube(g)
    c = _classify(blend.grid, comps(blend))
    with pytest.raises(NonIntegralFlux) as err:
        fluxes(blend)
    assert c.flux_error == str(err.value)
    F = pullback_area(blend)
    assert c.raw == ref_slice_fluxes(F, g.h)
    assert c.raw[0] == pytest.approx(0.70, abs=0.01)
    assert not c.hopf_sector and c.hopf is None


def test_hopf_needs_vanishing_fluxes():
    g = Grid(24, TWO_PI)
    with pytest.raises(NonExactForm):
        hopf_charge(generate(AnsatzSpec(kind="tube", charge=1), g))


def n18_ballmap(charge):
    """n = 18 ballmaps the grid cannot hold: charge 2 reads degree 1.894,
    charge 3 conjugates the constant field to a raw flux of 0.4294.
    Built from the ball lift, since generate refuses both."""
    return _ball_lift(AnsatzSpec(kind="ballmap", charge=charge), Grid(18, TWO_PI), azimuth_sign=-1)


def test_hopf_charge_follows_the_one_sector_rule():
    g = Grid(18, TWO_PI)
    psi = conjugate_field(n18_ballmap(3), constant_sphere(g))
    assert _classify(psi.grid, comps(psi)).flux_error is not None
    with pytest.raises(NonExactForm, match="fluxes not classifiable"):
        hopf_charge(psi)
    hop = generate(AnsatzSpec(kind="hopfion", charge=1), g)
    assert hopf_charge(hop) == _classify(hop.grid, comps(hop)).hopf


@pytest.mark.parametrize("charge, match", [(2, "degree 1.8940"), (3, "flux 0.4294")])
def test_homotopy_record_refuses_unclassifiable_ballmaps(charge, match):
    u = n18_ballmap(charge)
    with pytest.raises(NonIntegralFlux, match=match):
        homotopy_record(constant_sphere(u.grid), u)


def test_a_refused_potential_leaves_no_charge(refuse_charge):
    g = Grid(18, TWO_PI)
    hop = generate(AnsatzSpec(kind="hopfion", charge=1), g)  # before arming: its readback solves a charge
    refuse_charge(1)
    with pytest.raises(NonExactForm, match="no Hopf charge: 2-form is not closed"):
        hopf_charge(hop)
    refuse_charge(1)
    with pytest.raises(NonExactForm, match="^2-form is not closed$"):
        homotopy_record(hop, constant_group(g))


def test_homotopy_record_needs_a_reduced_degree_class():
    assert HomotopyRecord((0, 0, 1), (0.0, 0.0, 1.0), 1, -1.0, 1).degree_class == 1
    for bad in (-1, 2):
        with pytest.raises(ValueError, match="degree class must be reduced mod 2m"):
            HomotopyRecord((0, 0, 1), (0.0, 0.0, 1.0), 1, 1.0, bad)


def test_degree_has_no_class_without_the_flux_modulus():
    # an integral degree still has no class mod 2m when m is unreadable
    g = Grid(24, TWO_PI)
    r = _read(decayed_tube(g), constant_group(g))
    assert r.flux_error is not None and r.m is None
    assert r.degree == 0.0 and r.degree_class is None
    assert r.degree_error == "fluxes not classifiable"


def test_hopfion_charge_readings():
    q24 = hopf_charge(generate(AnsatzSpec(kind="hopfion", charge=1), Grid(24, TWO_PI)))
    assert q24 == pytest.approx(0.8526, abs=5e-3)
    q32 = hopf_charge(generate(AnsatzSpec(kind="hopfion", charge=1), Grid(32, TWO_PI)))
    assert q32 == pytest.approx(0.9140, abs=5e-3)
    qm = hopf_charge(generate(AnsatzSpec(kind="hopfion", charge=-1), Grid(24, TWO_PI)))
    assert qm == pytest.approx(-q24, abs=1e-9)


def test_class_reading_is_the_same_at_every_period():
    # fluxes and the charge are scale-free: the n = 24 hopfion's values read Q = 0.8526 at each
    # period Grid accepts, also where, on the spacing l / 24, the closedness norm's squares
    # overflow (l <= 1e-50) and the helicity's terms underflow (l >= 1e65)
    psi = generate(AnsatzSpec(kind="hopfion", charge=1), Grid(24, TWO_PI))
    q, raw = hopf_charge(psi), fluxes(psi)[1]
    for l in (5.52e-76, 1e-60, 1e-50, 1e-40, 1.0, 1e60, 1e65, 1e70, 1e78):
        p = SphereField(Grid(24, l), psi.values)
        assert fluxes(p)[0] == (0, 0, 0) and fluxes(p)[1] == pytest.approx(raw, abs=1e-12)
        assert hopf_charge(p) == pytest.approx(q, rel=1e-15)
    # so generate's readback keeps the hopfion at both ends of the range
    for l in (5.52e-76, 1e78):
        assert round(hopf_charge(generate(AnsatzSpec(kind="hopfion", charge=1), Grid(24, l)))) == 1


def test_ballmap_degree_reading():
    g = Grid(32, TWO_PI)
    d1 = degree(generate(AnsatzSpec(kind="ballmap", charge=1), g))
    assert d1 == pytest.approx(0.9896, abs=5e-3)
    dm = degree(generate(AnsatzSpec(kind="ballmap", charge=-1), g))
    assert dm == pytest.approx(-d1, abs=1e-9)


def test_conjugated_hopf_charge_is_minus_degree():
    g = Grid(32, TWO_PI)
    u = generate(AnsatzSpec(kind="ballmap", charge=1), g)
    psi = conjugate_field(u, constant_sphere(g))
    q = hopf_charge(psi)
    assert round(q) == -round(degree(u)) == -1
    assert q == pytest.approx(-0.9140, abs=5e-3)


def test_chern_simons_frozen_value_and_zero():
    g = Grid(20, TWO_PI)
    a = connection_of(generate(AnsatzSpec(kind="ballmap", charge=1), g))
    assert chern_simons(a) == pytest.approx(0.99802456, abs=1e-5)
    from fdvk.fields import Connection

    assert chern_simons(Connection(g, np.zeros((20, 20, 20, 3, 3)))) == 0.0


def test_modulus():
    assert modulus((0, 0, 0)) == 0
    assert modulus((1, 0, 0)) == 1
    assert modulus((2, 4, 6)) == 2
    assert modulus((0, 3, 0)) == 3
    assert modulus((-2, 4, 0)) == 2


def test_homotopy_record_hopf_sector():
    g = Grid(24, TWO_PI)
    phi = generate(AnsatzSpec(kind="hopfion", charge=1), g)
    rec = homotopy_record(phi, constant_group(g))
    assert rec.fluxes == (0, 0, 0)
    assert rec.m == 0
    assert rec.hopf_charge == pytest.approx(0.8526, abs=5e-3)
    assert rec.degree == 0.0 and rec.degree_class == 0


def test_homotopy_record_reduces_degree_mod_2m():
    g = Grid(24, TWO_PI)
    phi = generate(AnsatzSpec(kind="tube", charge=1), g)
    rec0 = homotopy_record(phi, constant_group(g))
    assert rec0.fluxes == (1, 0, 0) and rec0.m == 1
    assert rec0.hopf_charge is None
    assert rec0.degree_class == 0

    # moving the framing along a unit winding shifts the degree by 2,
    # which the mod-2m class cannot see
    lam = s1_winding(g, (1, 0, 0))
    moved = GroupField(g, quat.qmap(phi.values, lam.values))
    rec1 = homotopy_record(phi, moved)
    assert rec1.fluxes == (1, 0, 0)
    assert rec1.degree == pytest.approx(2.0, abs=0.1)
    assert rec1.degree_class == rec0.degree_class == 0

    # the paper's class is the degree mod 2m, not mod m: with m = 1 an odd
    # degree keeps class 1 (at n = 32 the tube's raw flux reads 0.8734 next
    # to degree -1 and is refused, so n = 48)
    g = Grid(48)
    tube = generate(AnsatzSpec(kind="tube"), g)
    for d, cls in ((1, 1), (-1, 1), (2, 0)):
        rec = homotopy_record(tube, generate(AnsatzSpec(kind="ballmap", charge=d), g))
        assert (rec.m, rec.degree_class) == (1, cls), d
