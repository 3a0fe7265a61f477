"""The component-first connection picture against its site-last references.

covariant_derivative, decompose, plaquette_curvature, flatness_residuals
and Connection.site_values use the same arithmetic as the references in
tests/oracles.py (np.cross, last-axis sums, site-last np.roll) and must
agree bit for bit, on smooth pairs and on the zero connection; the
flatness residuals sum their squares in the same order and agree with
==.  energy_conn runs the descent's energy sweep on undivided differences
and sums its Gram densities, so it agrees to 1e-14 relative.
Odd n exercise the periodic wrap of the differences on both parities.
"""

import numpy as np
import pytest

from fdvk.fields import (
    Connection,
    connection_of,
    constant_sphere,
    covariant_derivative,
    decompose,
    energy_conn,
    flatness_residuals,
    plaquette_curvature,
)
from fdvk.lattice import Grid
from fieldgen import smooth_group_field, smooth_sphere_field
from oracles import (
    ref_covariant_derivative,
    ref_decompose,
    ref_energy_conn,
    ref_flatness_residuals,
    ref_plaquette_curvature,
    ref_site_values,
)


def _smooth(g):
    return connection_of(smooth_group_field(g, 10)), smooth_sphere_field(g, 11)


def _zero(g):
    return Connection(g, np.zeros((g.n,) * 3 + (3, 3))), smooth_sphere_field(g, 4)


def _zero_constant(g):
    return Connection(g, np.zeros((g.n,) * 3 + (3, 3))), constant_sphere(g)


KINDS = {"smooth": _smooth, "zero": _zero, "zero-constant": _zero_constant}
CASES = [(kind, n) for kind in KINDS for n in (12, 15, 16, 24)]


@pytest.fixture(scope="module", params=CASES, ids=[f"{k}-{n}" for k, n in CASES])
def pair(request):
    kind, n = request.param
    return KINDS[kind](Grid(n))


def test_covariant_derivative_bit_identical(pair):
    a, phi = pair
    got = covariant_derivative(a, phi)
    assert got.flags.c_contiguous
    assert np.array_equal(got, ref_covariant_derivative(a.values, phi.values, a.grid.h))


def test_decompose_bit_identical(pair):
    a, phi = pair
    long, tang = decompose(a, phi)
    want_long, want_tang = ref_decompose(a.values, phi.values)
    assert long.flags.c_contiguous and tang.flags.c_contiguous
    assert np.array_equal(long, want_long)
    assert np.array_equal(tang, want_tang)


def test_plaquette_curvature_and_site_values_bit_identical(pair):
    a, _ = pair
    got = plaquette_curvature(a)
    assert got.flags.c_contiguous
    assert np.array_equal(got, ref_plaquette_curvature(a.values, a.grid.h))
    assert np.array_equal(a.site_values(), ref_site_values(a.values))


def test_flatness_residuals_equal(pair):
    a, phi = pair
    assert flatness_residuals(a, phi) == ref_flatness_residuals(a.values, phi.values, a.grid.h)


def test_energy_conn_within_summation_order(pair):
    a, phi = pair
    got = energy_conn(phi, a)
    want = ref_energy_conn(a.values, phi.values, a.grid.h)
    for x, y in zip(got, want):
        assert abs(x - y) <= 1e-14 * abs(y)
