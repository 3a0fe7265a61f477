"""The oracles get their own tests: frozen hand-checked values only.

Every expected number here was fixed against an independent source (dense
Gauss quadrature, closed-form maps) before any production invariant was
written, so these tests must never be edited to match production output.
"""

import numpy as np
import pytest

from fdvk.lattice import Grid
from fdvk import quat

from oracles import (
    OracleAmbiguity,
    face_windings,
    kuhn_degree,
    line_winding,
    linking_number,
    slice_flux_count,
    trace_preimage,
)


def ball_group_values(n, flip=False):
    # radial suspension: 1 outside the ball, -1 at the centre
    g = Grid(n, 2 * np.pi)
    x, y, z = g.axes()
    c = g.l / 2
    R = 0.35 * g.l
    d = np.stack([x - c, y - c, z - c], axis=-1)
    r = np.linalg.norm(d, axis=-1)
    dhat = np.where(
        r[..., None] > 1e-12, d / np.maximum(r, 1e-12)[..., None], np.array([1.0, 0, 0])
    )
    if flip:
        dhat = -dhat
    t = np.clip(r / R, 0, 1)
    f = np.pi * (1 - t * t * (3 - 2 * t))
    return np.concatenate([np.cos(f)[..., None], np.sin(f)[..., None] * dhat], axis=-1)


def tube_values(n, orient):
    # constant along x, wraps the (y, z) plane once around the sphere
    g = Grid(n, 2 * np.pi)
    x, y, z = g.axes()
    c = g.l / 2
    R = 0.35 * g.l
    dy, dz = y - c, z - c
    rho = np.hypot(dy, dz)
    chi = np.arctan2(dz, dy)
    t = np.clip(rho / R, 0, 1)
    gg = np.pi * (1 - t * t * (3 - 2 * t))
    th = orient * chi
    return np.stack(
        [np.cos(gg), np.sin(gg) * np.cos(th), np.sin(gg) * np.sin(th)], axis=-1
    )


V1 = np.array([0.2, -0.3, 0.93]) / np.linalg.norm([0.2, -0.3, 0.93])
V2 = np.array([-0.5, 0.8, 0.34]) / np.linalg.norm([-0.5, 0.8, 0.34])


# ---------------------------------------------------------------------------
# linking


def hopf_link(m, radius_offset=1.0):
    s = np.linspace(0, 2 * np.pi, m, endpoint=False)
    c1 = np.stack([np.cos(s), np.sin(s), 0 * s], axis=-1)
    c2 = np.stack([radius_offset + np.cos(s), 0 * s, np.sin(s)], axis=-1)
    return c1, c2


def test_linking_matches_gauss_quadrature_on_hopf_link():
    # dense quadrature of the Gauss integral, trapezoid in both parameters
    m = 600
    s = np.linspace(0, 2 * np.pi, m, endpoint=False)
    r1 = np.stack([np.cos(s), np.sin(s), 0 * s], axis=-1)
    dr1 = np.stack([-np.sin(s), np.cos(s), 0 * s], axis=-1) * (2 * np.pi / m)
    r2 = np.stack([1 + np.cos(s), 0 * s, np.sin(s)], axis=-1)
    dr2 = np.stack([-np.sin(s), 0 * s, np.cos(s)], axis=-1) * (2 * np.pi / m)
    diff = r1[:, None, :] - r2[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    cr = np.cross(dr1[:, None, :], np.broadcast_to(dr2[None, :, :], (m, m, 3)))
    gauss = np.sum(np.einsum("ijk,ijk->ij", cr, diff) / dist**3) / (4 * np.pi)
    assert abs(gauss - (-1.0)) < 1e-3

    c1, c2 = hopf_link(48)
    assert linking_number(c1, c2) == -1


def test_linking_symmetries():
    c1, c2 = hopf_link(40)
    assert linking_number(c2, c1) == -1
    assert linking_number(c1[::-1], c2) == 1
    assert linking_number(c1[::-1], c2[::-1]) == -1


def test_unlinked_circles():
    c1, c2 = hopf_link(40, radius_offset=5.0)
    assert linking_number(c1, c2) == 0


# ---------------------------------------------------------------------------
# Kuhn-simplex degree


def test_kuhn_degree_constant_is_zero():
    vals = np.broadcast_to(np.array([1.0, 0, 0, 0]), (12, 12, 12, 4)).copy()
    assert kuhn_degree(vals) == 0


def test_kuhn_degree_ball_map():
    assert kuhn_degree(ball_group_values(16)) == -1
    assert kuhn_degree(ball_group_values(16, flip=True)) == 1


def test_kuhn_degree_stable_under_refinement_and_shift():
    assert kuhn_degree(ball_group_values(24)) == -1
    rolled = np.roll(ball_group_values(16), 5, axis=1)
    assert kuhn_degree(rolled) == -1


# ---------------------------------------------------------------------------
# face windings and slice fluxes


def test_slice_flux_constant_field():
    vals = np.broadcast_to(np.array([1.0, 0, 0]), (12, 12, 12, 3)).copy()
    for ax in range(3):
        assert slice_flux_count(vals, V1, ax, 6) == 0


def test_slice_flux_tube():
    vals = tube_values(32, -1)
    assert [slice_flux_count(vals, V1, ax, 16) for ax in range(3)] == [1, 0, 0]
    assert [slice_flux_count(vals, V2, ax, 16) for ax in range(3)] == [1, 0, 0]
    flipped = tube_values(32, 1)
    assert slice_flux_count(flipped, V1, 0, 16) == -1


def test_slice_flux_every_slice_agrees():
    vals = tube_values(32, -1)
    counts = {slice_flux_count(vals, V1, 0, i) for i in range(0, 32, 7)}
    assert counts == {1}


def test_face_windings_reject_near_pole_value():
    vals = tube_values(32, -1)
    # the north pole is hit on an open set; windings there are degenerate
    with pytest.raises(OracleAmbiguity):
        face_windings(vals, np.array([1.0, 0, 0]))


# ---------------------------------------------------------------------------
# preimage tracing and the traced Hopf link


def hopf_field_values(n):
    u = ball_group_values(n)
    return quat.mul(quat.mul(u, quat.I), quat.conj(u))[..., 1:]


def test_trace_gives_single_closed_curves():
    psi = hopf_field_values(32)
    curves1 = trace_preimage(psi, V1)
    curves2 = trace_preimage(psi, V2)
    assert len(curves1) == 1 and len(curves2) == 1
    assert len(curves1[0]) > 10 and len(curves2[0]) > 10
    # consecutive crossing points sit in adjacent cubes
    steps = np.linalg.norm(np.diff(curves1[0], axis=0), axis=-1)
    assert steps.max() < 2.0


def test_traced_preimages_of_ball_hopf_field_link_once():
    psi = hopf_field_values(32)
    a = trace_preimage(psi, V1)[0]
    b = trace_preimage(psi, V2)[0]
    assert linking_number(a, b) == 1


def test_trace_constant_field_has_no_curves():
    vals = np.broadcast_to(np.array([1.0, 0, 0]), (12, 12, 12, 3)).copy()
    assert trace_preimage(vals, V1) == []


# ---------------------------------------------------------------------------
# loop winding


def test_line_winding_explicit():
    t = np.linspace(0, 2 * np.pi, 60, endpoint=False)
    assert line_winding(np.exp(1j * t)) == 1
    assert line_winding(np.exp(-3j * t)) == -3
    assert line_winding(np.full(60, 1.0 + 0j)) == 0


def test_line_winding_ignores_amplitude_wobble():
    t = np.linspace(0, 2 * np.pi, 80, endpoint=False)
    z = (1 + 0.4 * np.cos(5 * t)) * np.exp(2j * t)
    assert line_winding(z) == 2
