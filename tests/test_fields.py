"""Field containers, energies, pullbacks, connections."""

import numpy as np
import pytest

from fdvk import quat
from fdvk.ansatz import AnsatzSpec, generate
from fdvk.errors import GridMismatch
from fdvk.fields import (
    Connection,
    GroupField,
    SphereField,
    conjugate_field,
    connection_of,
    constant_group,
    constant_sphere,
    covariant_derivative,
    decompose,
    energy,
    energy_conn,
    flatness_residuals,
    plaquette_curvature,
    pullback_area,
)
from fdvk.invariants import homotopy_record
from fdvk.lattice import Grid, form_norm
from fieldgen import smooth_group_field, smooth_sphere_field

TWO_PI = 2.0 * np.pi


def test_constructor_validation():
    g = Grid(8, TWO_PI)
    bad = np.full((8, 8, 8, 3), 0.9)
    with pytest.raises(ValueError):
        SphereField(g, bad)
    with pytest.raises(ValueError):
        GroupField(g, np.zeros((8, 8, 8, 4)))
    with pytest.raises(ValueError):
        Connection(g, np.zeros((8, 8, 8, 3)))
    with pytest.raises(ValueError):
        SphereField(g, np.zeros((4, 4, 4, 3)))
    # NaN is never off the unit sphere by more than the tolerance, and a
    # Connection has no unit rule: the finiteness check refuses them
    for kind, site in ((SphereField, quat.IM_I), (GroupField, quat.ONE), (Connection, np.zeros((3, 3)))):
        for bad in (np.nan, np.inf, -np.inf):
            vals = np.tile(site, (8, 8, 8) + (1,) * np.ndim(site))
            vals[(1, 2, 3) + (0,) * np.ndim(site)] = bad
            with pytest.raises(ValueError, match=f"{kind.__name__} values must be finite"):
                kind(g, vals)


def test_values_stored_verbatim():
    # unit within tolerance but not bitwise normalized; snapshots rely on this
    g = Grid(4, TWO_PI)
    v = np.zeros((4, 4, 4, 3))
    v[..., 0] = 1.0 + 5e-10
    psi = SphereField(g, v)
    assert psi.values[0, 0, 0, 0] == 1.0 + 5e-10


def test_constant_fields_have_zero_everything():
    g = Grid(8, TWO_PI)
    psi = constant_sphere(g)
    assert energy(psi) == (0.0, 0.0, 0.0)
    assert np.all(pullback_area(psi) == 0.0)
    u = constant_group(g)
    assert np.all(connection_of(u).values == 0.0)


def test_energy_closed_form_on_equator():
    g = Grid(16, TWO_PI)
    e = energy(generate(AnsatzSpec(kind="equator"), g))
    # central differences see sin(h)/h of each unit gradient, e4 stays 0
    expect = 8.0 * np.pi**3 * (np.sin(g.h) / g.h) ** 2
    assert e.e4 == 0.0
    assert e.e2 == pytest.approx(expect, rel=1e-12)
    assert e.total == pytest.approx(e.e2 + e.e4)


def test_grid_mismatch_rejected():
    u = smooth_group_field(Grid(8, TWO_PI), 1)
    # equal site counts index alike, so only the period check stands between Grid(8, 2) and a silent result
    for other in (Grid(12, TWO_PI), Grid(8, 2.0)):
        phi = smooth_sphere_field(other, 1)
        with pytest.raises(GridMismatch):
            conjugate_field(u, phi)
        with pytest.raises(GridMismatch):
            homotopy_record(phi, u)
        with pytest.raises(GridMismatch):
            energy_conn(phi, connection_of(u))


def test_conjugation_round_trip():
    g = Grid(12, TWO_PI)
    u = smooth_group_field(g, 2)
    phi = smooth_sphere_field(g, 3)
    psi = conjugate_field(u, phi)
    assert np.allclose(np.linalg.norm(psi.values, axis=-1), 1.0, atol=1e-12)
    ustar = GroupField(g, quat.conj(u.values))
    back = conjugate_field(ustar, psi)
    assert np.max(np.abs(back.values - phi.values)) <= 1e-12


def test_energy_conn_reduces_to_energy_at_zero_connection():
    # one sweep for both pictures: D_0 phi is d phi to the bit, and so are e2, e4 and total
    for n in (12, 15, 24, 33):
        g = Grid(n, TWO_PI)
        phi = smooth_sphere_field(g, 4)
        zero = Connection(g, np.zeros((n, n, n, 3, 3)))
        assert energy_conn(phi, zero) == energy(phi), n


def test_frame_equivalence_spot():
    # the two evaluation routes differ by discretization only; the gap
    # shrinks with resolution (6.0% at n=16, 2.9% at n=24, 1.7% at n=32)
    g = Grid(24, TWO_PI)
    phi = smooth_sphere_field(g, 5)
    u = smooth_group_field(g, 6)
    e1 = energy(conjugate_field(u, phi)).total
    e2 = energy_conn(phi, connection_of(u)).total
    assert e1 == pytest.approx(e2, rel=0.05)


def test_decompose_reconstructs_exactly():
    g = Grid(10, TWO_PI)
    a = connection_of(smooth_group_field(g, 7))
    phi = smooth_sphere_field(g, 8)
    long, tang = decompose(a, phi)
    rebuilt = long[..., None] * phi.values[..., None, :] + tang
    assert np.max(np.abs(rebuilt - a.values)) <= 1e-13
    # tangential part is orthogonal to phi per site and direction
    proj = np.sum(tang * phi.values[..., None, :], axis=-1)
    assert np.max(np.abs(proj)) <= 1e-13


def test_covariant_derivative_of_stabilized_frame_vanishes():
    g = Grid(8, TWO_PI)
    seed = np.array([1.0, 2.0, -0.5, 0.3])
    u = constant_group(g, seed / np.linalg.norm(seed))
    a = connection_of(u)
    phi = SphereField(g, np.broadcast_to(quat._rotate(u.values[0, 0, 0], quat.IM_I), (8, 8, 8, 3)).copy())
    D = covariant_derivative(a, phi)
    assert np.max(np.abs(D)) <= 1e-12


def test_curvature_of_developed_connection_shrinks():
    norms = {}
    for n in (16, 32):
        g = Grid(n, TWO_PI)
        a = connection_of(smooth_group_field(g, 9))
        norms[n] = form_norm(g, plaquette_curvature(a))
    assert norms[32] < norms[16]
    assert 2.5 <= norms[16] / norms[32] <= 6.0


def test_flatness_residuals_split():
    g = Grid(16, TWO_PI)
    a = connection_of(smooth_group_field(g, 10))
    phi = smooth_sphere_field(g, 11)
    full, eq1, eq2 = flatness_residuals(a, phi)
    assert full < 1.0 and eq1 < 1.0 and eq2 < 1.0
    zero = Connection(g, np.zeros((16, 16, 16, 3, 3)))
    fz, e1z, e2z = flatness_residuals(zero, constant_sphere(g))
    assert fz == 0.0 and e1z == 0.0 and e2z == 0.0


def test_site_values_average_edges():
    g = Grid(8, TWO_PI)
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((8, 8, 8, 3, 3))
    a = Connection(g, vals)
    sv = a.site_values()
    manual = 0.5 * (vals[..., 0, :] + np.roll(vals[..., 0, :], 1, axis=0))
    assert np.allclose(sv[..., 0, :], manual)
