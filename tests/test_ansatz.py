"""Generated field families and their advertised structure."""

import numpy as np
import pytest

from fdvk.ansatz import KINDS, MIN_CELLS, AnsatzSpec, generate, s1_winding
from fdvk.errors import UnderResolved
from fdvk.invariants import fluxes
from fdvk.lattice import Grid
from oracles import kuhn_degree, line_winding, slice_flux_count

TWO_PI = 2.0 * np.pi


def test_spec_validation():
    with pytest.raises(ValueError):
        AnsatzSpec(kind="vortex")
    with pytest.raises(ValueError):
        AnsatzSpec(kind="hopfion", profile="gauss")
    with pytest.raises(ValueError):
        AnsatzSpec(kind="tube", radius=0.6)
    with pytest.raises(ValueError):
        AnsatzSpec(kind="tube", radius=0.0)
    with pytest.raises(ValueError):
        AnsatzSpec(kind="tube", axis=4)
    # a direction is an integer, as generate indexes with it: no float, bool or complex equal to one
    for bad in (2.0, np.float64(3.0), True, np.True_, 1 + 0j):
        with pytest.raises(ValueError, match="direction must be the integer 1, 2 or 3"):
            AnsatzSpec(kind="tube", axis=bad)
    assert AnsatzSpec(kind="tube", axis=np.int64(2)).axis == 2
    # int() raises OverflowError on inf and numpy's own ValueError text on NaN
    for bad in (1.5, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="charge must be an integer"):
            AnsatzSpec(kind="ballmap", charge=bad)


def test_under_resolved_support():
    # 0.45 * 17 < 8 cells but 0.45 * 18 >= 8
    for kind in ("tube", "hopfion", "ballmap"):
        with pytest.raises(UnderResolved):
            generate(AnsatzSpec(kind=kind), Grid(17, TWO_PI))
        generate(AnsatzSpec(kind=kind), Grid(18, TWO_PI))
    assert MIN_CELLS == 8


def test_readback_refuses_a_misread_class():
    # the reading rounds, it is not held to a drift tolerance: Q = 0.853 and
    # 1.588 at n = 24 stand for charges 1 and 2
    for charge in (1, 2):
        generate(AnsatzSpec(kind="hopfion", charge=charge), Grid(24, TWO_PI))
    cases = [
        ("hopfion", 2, 18, r"Hopf charge 1\.33"),
        ("hopfion", 3, 32, "Hopf charge None"),
        ("ballmap", 3, 18, r"raw fluxes \(0\.4294"),
    ]
    for kind, charge, n, match in cases:
        with pytest.raises(UnderResolved, match=match):
            generate(AnsatzSpec(kind=kind, charge=charge), Grid(n, TWO_PI))


def test_constant_and_equator():
    g = Grid(16, TWO_PI)
    c = generate(AnsatzSpec(kind="constant"), g)
    assert np.all(c.values == c.values[0, 0, 0])
    eq = generate(AnsatzSpec(kind="equator"), g)
    assert np.allclose(np.linalg.norm(eq.values, axis=-1), 1.0, atol=1e-12)
    z = eq.values[:, 0, 0, 0] + 1j * eq.values[:, 0, 0, 1]
    assert line_winding(z) == 1
    assert np.allclose(eq.values[..., 2], 0.0)


def test_tube_boundary_is_vacuum():
    g = Grid(24, TWO_PI)
    tube = generate(AnsatzSpec(kind="tube", charge=1), g)
    vac = generate(AnsatzSpec(kind="constant"), g).values[0, 0, 0]
    # the support is a cylinder of radius 0.45 l around the axis; the
    # far corner of the cross-section lies outside it
    assert np.allclose(tube.values[0, 0, 0], vac, atol=1e-12)
    assert np.allclose(np.linalg.norm(tube.values, axis=-1), 1.0, atol=1e-12)


def test_tube_crossing_count_is_unit_for_any_twist():
    # the twist count turns the disk frame along the axis; the flux
    # through a transverse slice stays one crossing regardless
    g = Grid(24, TWO_PI)
    v = np.array([0.0, 0.0, 1.0])
    vals = {}
    for t in (0, 1, 2):
        tube = generate(AnsatzSpec(kind="tube", charge=t), g)
        assert slice_flux_count(tube.values, v, 0, 12) == 1
        vals[t] = tube.values
    assert not np.allclose(vals[0], vals[1])
    assert not np.allclose(vals[1], vals[2])


def test_hopfion_boundary_and_fluxes():
    g = Grid(24, TWO_PI)
    hop = generate(AnsatzSpec(kind="hopfion", charge=1), g)
    vac = generate(AnsatzSpec(kind="constant"), g).values[0, 0, 0]
    assert np.allclose(hop.values[0, 0, 0], vac, atol=1e-12)
    p, raw = fluxes(hop)
    assert p == (0, 0, 0)
    assert max(abs(r) for r in raw) <= 0.05


def test_ballmap_degree_oracle():
    g = Grid(24, TWO_PI)
    for q in (1, 2):
        u = generate(AnsatzSpec(kind="ballmap", charge=q), g)
        assert kuhn_degree(u.values) == q


def test_profiles_all_generate_clean_fields():
    g = Grid(24, TWO_PI)
    for profile in ("poly9", "cubic", "cosine"):
        hop = generate(AnsatzSpec(kind="hopfion", charge=1, profile=profile), g)
        assert np.allclose(np.linalg.norm(hop.values, axis=-1), 1.0, atol=1e-12)
        p, raw = fluxes(hop)
        assert p == (0, 0, 0)


def test_s1_winding_counts():
    g = Grid(16, TWO_PI)
    lam = s1_winding(g, (2, -1, 0))
    assert np.allclose(lam.values[..., 2:], 0.0)
    z1 = lam.values[:, 0, 0, 0] + 1j * lam.values[:, 0, 0, 1]
    z2 = lam.values[0, :, 0, 0] + 1j * lam.values[0, :, 0, 1]
    z3 = lam.values[0, 0, :, 0] + 1j * lam.values[0, 0, :, 1]
    assert line_winding(z1) == 2
    assert line_winding(z2) == -1
    assert line_winding(z3) == 0


def test_s1_winding_refuses_non_integer_windings():
    g = Grid(8, TWO_PI)
    for bad in (1.5, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="windings must be integers"):
            s1_winding(g, (bad, 0, 0))
    assert np.array_equal(s1_winding(g, (np.int64(2), 0, 0)).values, s1_winding(g, (2, 0, 0)).values)


def test_s1_winding_values_are_the_written_out_formula():
    g = Grid(15, 4.0)
    x, y, z = g.axes()
    th = 2 * np.pi * (2 * x - 1 * y + 3 * z) / g.l
    want = np.stack([np.cos(th), np.sin(th), np.zeros_like(th), np.zeros_like(th)], axis=-1)
    assert np.array_equal(s1_winding(g, (2, -1, 3)).values, want)


def test_kind_roster_is_frozen():
    assert KINDS == ("constant", "equator", "tube", "hopfion", "ballmap")
