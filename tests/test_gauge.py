"""Holonomy, developing map, canonical gauge."""

import numpy as np
import pytest

from fdvk import gauge, quat
from fdvk.errors import NotFlat, UnresolvableField
from fdvk.fields import Connection, GroupField, connection_of, constant_group, constant_sphere
from fdvk.gauge import (
    circle_field,
    develop,
    fix_gauge,
    gauge_transform,
    holonomy,
    plaquette_deviation,
)
from fdvk.lattice import Grid, codiff, form_norm
from fieldgen import benchmark_workloads, smooth_group_field, smooth_sphere_field

TWO_PI = 2.0 * np.pi


def test_holonomy_of_developed_connection_is_trivial():
    g = Grid(12, TWO_PI)
    a = connection_of(smooth_group_field(g, 1))
    hol = holonomy(a)
    assert hol.deviation() <= 1e-10
    assert plaquette_deviation(a) <= 0.5  # curvature is O(h), transport O(h^2)


def test_holonomy_of_constant_connection():
    g = Grid(12, TWO_PI)
    c = 0.31
    vals = np.zeros((12, 12, 12, 3, 3))
    vals[..., 0, 0] = c
    hol = holonomy(Connection(g, vals))
    expect = quat.exp_im(np.array([c * g.l, 0.0, 0.0]))
    assert np.allclose(hol.loops[0], expect, atol=1e-10)
    assert hol.deviation() == pytest.approx(float(np.max(np.abs(expect - quat.ONE))), abs=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_holonomy_refuses_non_finite_loops(bad):
    # NaN never compares above the unit tolerance, so only a finiteness check refuses it
    loops = np.tile(quat.ONE, (3, 1))
    loops[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        gauge.Holonomy(loops)
    with pytest.raises(ValueError, match="finite"):
        gauge.Holonomy(np.full((3, 4), bad))


def test_holonomy_refuses_malformed_loops():
    with pytest.raises(ValueError, match="one unit quaternion per loop"):
        gauge.Holonomy(np.tile(quat.ONE, (2, 1)))
    with pytest.raises(ValueError, match="one unit quaternion per loop"):
        gauge.Holonomy(np.ones((3, 3)))
    with pytest.raises(ValueError, match="must be unit quaternions"):
        gauge.Holonomy(np.tile(1.01 * quat.ONE, (3, 1)))


def test_develop_rejects_curved_input():
    g = Grid(8, TWO_PI)
    rng = np.random.default_rng(2)
    with pytest.raises(NotFlat):
        develop(Connection(g, 0.5 * rng.standard_normal((8, 8, 8, 3, 3))))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_flat_tol_must_be_finite_and_non_negative(bad, monkeypatch):
    # a curved connection: a NaN or infinite tolerance would pass it, -1 would refuse every one
    g = Grid(8, TWO_PI)
    a = Connection(g, connection_of(smooth_group_field(g, 1)).values + 0.05)
    assert plaquette_deviation(a) > 1e-2
    monkeypatch.setattr(gauge, "_transports", None)  # checked before any transport is built
    with pytest.raises(ValueError, match="flat_tol"):
        develop(a, flat_tol=bad)
    with pytest.raises(ValueError, match="flat_tol"):
        fix_gauge(a, constant_sphere(g), flat_tol=bad)


def test_non_finite_transports_are_not_flat():
    # |h a|^2 overflows on every edge, so all 6144 transport entries are NaN, and so is the
    # plaquette deviation: refused, never kept or read as flat
    g = Grid(8, TWO_PI)
    a = Connection(g, np.full((8, 8, 8, 3, 3), 1e160))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(gauge._transports(a)).all()
        for call in (plaquette_deviation, develop, holonomy, lambda a: fix_gauge(a, constant_sphere(g))):
            with pytest.raises(NotFlat, match="transports are not finite"):
                call(a)
    assert a._plaquette is None  # nothing kept


def test_develop_reproduces_circle_fields():
    g = Grid(16, TWO_PI)
    x1 = g.axes()[0]
    th = TWO_PI * x1 / g.l + 0.3 * np.sin(TWO_PI * x1 / g.l)
    u = circle_field(g, th)
    v = develop(connection_of(u))
    left = quat.mul(u.values[0, 0, 0], quat.conj(v.values[0, 0, 0]))
    assert np.max(np.abs(u.values - quat.mul(left, v.values))) <= 1e-10


def test_circle_field_lands_in_the_i_circle():
    g = Grid(8, TWO_PI)
    th = 0.7 * np.ones((8, 8, 8))
    u = circle_field(g, th)
    assert np.allclose(u.values[..., 2:], 0.0)
    assert np.allclose(u.values[..., 0], np.cos(0.7))
    assert np.allclose(quat.norm(u.values), 1.0)


def test_gauge_transform_preserves_flatness_and_holonomy_class():
    g = Grid(16, TWO_PI)
    u = smooth_group_field(g, 3)
    a = connection_of(u)
    phi = smooth_sphere_field(g, 4)
    th = 0.4 * np.sin(TWO_PI * g.axes()[1] / g.l)
    lam = circle_field(g, th)
    b = gauge_transform(a, phi, lam)
    assert plaquette_deviation(b) <= plaquette_deviation(a) + 1e-8
    assert holonomy(b).deviation() <= 1e-8


def test_fix_gauge_requires_flat_input():
    g = Grid(8, TWO_PI)
    rng = np.random.default_rng(6)
    noisy = Connection(g, 0.5 * rng.standard_normal((8, 8, 8, 3, 3)))
    with pytest.raises(NotFlat):
        fix_gauge(noisy, constant_sphere(g))


def test_fix_gauge_window_and_idempotence():
    g = Grid(12, TWO_PI)
    a = connection_of(smooth_group_field(g, 7))
    phi = smooth_sphere_field(g, 8)
    fixed, rep = fix_gauge(a, phi)
    assert all(0.0 <= c < 1.0 for c in rep.harmonic_coeffs)
    long = np.einsum("...mk,...k->...m", fixed.site_values(), phi.values)
    assert form_norm(g, codiff(g, long, 1)) <= 1e-8
    again, rep2 = fix_gauge(fixed, phi)
    # exactly idempotent: the second fix reads the last pass's residual on the same logs
    assert again is fixed and rep2.passes == 0
    assert rep2.windings == (0, 0, 0)
    assert rep2.exact_part_norm <= 1e-8


def test_fix_gauge_checks_the_result_of_its_last_pass(monkeypatch):
    # this pair converges in 16 passes; with the cap at exactly that many,
    # the connection the last pass makes is checked and returned, not
    # refused unseen
    g = Grid(10, TWO_PI)
    a = connection_of(smooth_group_field(g, 15))
    phi = smooth_sphere_field(g, 115, amp=0.4)
    monkeypatch.setattr(gauge, "MAX_PASSES", 16)
    fixed, rep = fix_gauge(a, phi)
    assert rep.passes == gauge.MAX_PASSES
    long = np.einsum("...mk,...k->...m", fixed.site_values(), phi.values)
    assert form_norm(g, codiff(g, long, 1)) <= 1e-8
    monkeypatch.setattr(gauge, "MAX_PASSES", gauge.MAX_PASSES - 1)
    with pytest.raises(NotFlat, match="did not converge"):
        fix_gauge(a, phi)


def test_fix_gauge_slow_steady_convergence_is_not_refused():
    # gauge workload seed 976, op 30 (n = 32): the codifferential residual
    # falls by a steady factor of about 0.31 per pass and crosses the
    # 1e-8 gate on pass 18, past the old cap of 16 passes
    wl = benchmark_workloads()
    u, phi, _ = wl.gauge_input(Grid(32), wl._rng(976, 30))
    fixed, rep = fix_gauge(connection_of(u), phi)
    assert rep.passes == 18
    assert all(0.0 <= c < 1.0 for c in rep.harmonic_coeffs)
    long = np.einsum("...mk,...k->...m", fixed.site_values(), phi.values)
    assert form_norm(u.grid, codiff(u.grid, long, 1)) <= 1e-8


def test_fix_gauge_integer_coefficient_is_a_tie():
    # a pure unit-winding circle connection against the constant section:
    # the harmonic coefficient sits exactly on an integer and must land
    # on the window endpoint 0, flagged as a tie
    g = Grid(12, TWO_PI)
    th = TWO_PI * g.axes()[0] / g.l
    a = connection_of(circle_field(g, th))
    phi = constant_sphere(g)
    fixed, rep = fix_gauge(a, phi)
    assert rep.harmonic_coeffs[0] == 0.0
    # windings record the loop factor applied, which is minus the
    # integer removed from the coefficient
    assert rep.windings[0] == -1
    # the other two coefficients sit on the integer 0: all three are ties
    assert rep.ties == (True, True, True)
    assert all(0.0 <= c < 1.0 for c in rep.harmonic_coeffs)


def test_connection_of_refuses_a_right_angle_edge():
    # u(x)* u(x + e_1) = j at one edge: Re = 0, no principal logarithm
    g = Grid(8, TWO_PI)
    vals = constant_group(g).values.copy()  # field values are read-only
    vals[3, 2, 5] = quat.J
    with pytest.raises(UnresolvableField, match="direction 1"):
        connection_of(GroupField(g, vals))


def test_gauge_transform_refuses_an_edge_turned_past_a_right_angle():
    # against a constant section the moved edge is exp(i (theta(x + e) -
    # theta(x))): a jump of 0.6 pi turns it past 90 degrees
    g = Grid(8, TWO_PI)
    a = Connection(g, np.zeros((8, 8, 8, 3, 3)))
    th = np.zeros((8, 8, 8))
    th[4, 4, 4] = 0.6 * np.pi
    with pytest.raises(UnresolvableField, match="gauge factor rotates"):
        gauge_transform(a, constant_sphere(g), circle_field(g, th))
    th[4, 4, 4] = 0.4 * np.pi
    assert np.all(np.isfinite(gauge_transform(a, constant_sphere(g), circle_field(g, th)).values))


def test_fix_gauge_refuses_a_cumulative_angle_past_a_right_angle():
    # a coarse grid and a rough section: connection_of and the flatness
    # check pass, but the angle the passes accumulate turns an edge of
    # the moved connection by 90 degrees or more
    g = Grid(8, TWO_PI)
    a = connection_of(smooth_group_field(g, 0))
    phi = smooth_sphere_field(g, 100, amp=0.5)
    with pytest.raises(UnresolvableField, match="gauge factor rotates"):
        fix_gauge(a, phi)
