"""Grid and discrete calculus contracts."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdvk import lattice
from fdvk.errors import GridMismatch, NonExactForm
from fdvk.fields import SphereField, energy
from fdvk.flow import grad_energy, step_ceiling
from fdvk.lattice import (
    Grid,
    _cross,
    _irfft3,
    _potential,
    avg_back,
    codiff,
    d,
    diff,
    form_norm,
    integrate,
)
from fieldgen import smooth_sphere_field
from oracles import ref_codiff, ref_d

TWO_PI = 2.0 * np.pi


def test_grid_basics():
    g = Grid(8, TWO_PI)
    assert g.h == pytest.approx(TWO_PI / 8)
    x1, x2, x3 = g.axes()
    assert x1.shape == x2.shape == x3.shape == (8, 8, 8)
    assert x1[1, 0, 0] == pytest.approx(g.h)
    assert x3[0, 0, 5] == pytest.approx(5 * g.h)
    with pytest.raises(GridMismatch):
        g.same(Grid(16, TWO_PI))
    g.same(Grid(8, TWO_PI))


def test_grid_validation():
    for bad in (1, 8.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Grid(bad, TWO_PI)
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Grid(8, bad)


# the accepted periods at n = 6 end between these neighbouring floats: below
# where the worst step ceiling of a unit field, h^4 / 3(h^2 + 4), is no longer
# a normal float, above where the descent gradient's 2 / 16h^4 is not
PERIOD_EDGES = [(1.363900440820473e-76, 1.3639004408204728e-76), (2.9210745826319223e77, 2.921074582631923e77)]


@pytest.mark.parametrize("inside, outside", PERIOD_EDGES, ids=["low", "high"])
def test_grid_period_edges(inside, outside):
    with pytest.raises(ValueError, match="period"):
        Grid(6, outside)
    # a smooth field, and a rough one whose undivided differences reach 2 in norm,
    # the worst a unit field has: there the gradient peaks and the ceiling bottoms out
    g = Grid(6, inside)
    v = np.random.default_rng(0).standard_normal((6, 6, 6, 3))
    for psi in (smooth_sphere_field(g, 3), SphereField(g, v / np.linalg.norm(v, axis=-1, keepdims=True))):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = (*energy(psi), step_ceiling(psi), np.max(np.abs(grad_energy(psi))))
        assert all(np.isfinite(x) and x >= np.finfo(float).tiny for x in values)


def _central(f, ax):
    """The undivided central difference along axis ax, written with np.roll."""
    return np.roll(f, -1, ax) - np.roll(f, 1, ax)


def test_diff_is_central():
    for n in (12, 13):
        g = Grid(n, TWO_PI)
        rng = np.random.default_rng(n)
        f = rng.standard_normal((3, n, n, n))
        for mu in (1, 2, 3):
            assert np.array_equal(diff(g, f, mu), _central(f, mu) / (2 * g.h))
            assert np.array_equal(diff(g, f[0], mu), _central(f[0], mu - 1) / (2 * g.h))
        # slabs along the first site axis read their halo planes from the whole
        # field: a short last slab, and one-site-thick slabs at both wraps
        want = _central(f, 1)
        for lo, hi in [(0, 5), (5, 10), (10, n), (0, 1), (4, 5), (n - 1, n)]:
            out = lattice._diff_into(f, 1, np.empty((3, hi - lo, n, n)), lo, hi)
            assert np.array_equal(out, want[:, lo:hi])
        # a field one site thick along one axis, differenced in plane
        for k in (0, n - 1):
            for thin, axes in ((f[:, k:k + 1], (2, 3)), (f[:, :, k:k + 1], (1, 3)), (f[..., k:k + 1], (1, 2))):
                for ax in axes:
                    assert np.array_equal(lattice._diff_into(thin, ax, np.empty(thin.shape)), _central(thin, ax))
        # views whose trailing axes do not merge into one run, read or written
        wide = rng.standard_normal((3, n, n, n + 2))
        for view in (wide[..., :n], np.swapaxes(f, -1, -2), f[:, ::-1]):
            for ax in (1, 2, 3):
                assert np.array_equal(lattice._diff_into(view, ax, np.empty(view.shape)), _central(view, ax))
        out = np.empty((3, n, n, n + 2))[..., :n]
        assert np.array_equal(lattice._diff_into(f, 3, out), _central(f, 3))
    with pytest.raises(ValueError):
        diff(g, f, 0)


@pytest.mark.parametrize("mu", [0, 4, 2.0, np.float64(1.0), True, np.True_, 3 + 0j, "2", None])
def test_direction_is_the_integer_1_2_or_3(mu):
    # an integral float or a bool indexes no axis in _diff_into: refused before any work
    g = Grid(8, TWO_PI)
    f = np.zeros((8, 8, 8))
    for call in (lambda: diff(g, f, mu), lambda: avg_back(g, f, mu)):
        with pytest.raises(ValueError, match="direction must be the integer 1, 2 or 3"):
            call()


def test_numpy_integer_directions_are_directions():
    g = Grid(8, TWO_PI)
    f = np.random.default_rng(2).standard_normal((8, 8, 8))
    for mu in (1, 2, 3):
        assert np.array_equal(diff(g, f, np.int64(mu)), diff(g, f, mu))
        assert np.array_equal(avg_back(g, f, np.int32(mu)), avg_back(g, f, mu))


def test_avg_back_two_point_rule():
    g = Grid(12, TWO_PI)
    rng = np.random.default_rng(1)
    f = rng.standard_normal((12, 12, 12))
    assert np.allclose(avg_back(g, f, 3), 0.5 * (f + np.roll(f, 1, axis=2)))
    c = np.full((12, 12, 12), 4.2)
    assert np.allclose(avg_back(g, c, 1), c)


@pytest.mark.parametrize("shape", [(3, 12, 12, 12), (3, 3, 12, 12, 12), (3, 1, 12, 12), (3, 12, 12, 1)])
def test_diff_and_avg_back_act_on_the_last_three_axes(shape):
    # a component-first array is differenced and averaged as each of its
    # scalar components is; a slab one site thick along one axis keeps
    # its in-plane directions
    g = Grid(12, TWO_PI)
    f = np.random.default_rng(len(shape)).standard_normal(shape)
    for op in (diff, avg_back):
        for mu in (1, 2, 3):
            if shape[len(shape) - 4 + mu] == 1:
                continue
            want = np.empty(shape)
            for idx in np.ndindex(shape[:-3]):
                want[idx] = op(g, f[idx], mu)
            assert np.array_equal(op(g, f, mu), want)


def test_spectral_derivative_exact_on_low_modes():
    g = Grid(16, TWO_PI)
    x1 = g.axes()[0] + np.zeros((16, 16, 16))
    w = d(g, np.sin(3 * x1), 0)
    assert np.allclose(w[..., 0], 3 * np.cos(3 * x1), atol=1e-12)
    assert np.allclose(w[..., 1:], 0.0, atol=1e-12)


@settings(max_examples=25)
@given(st.integers(0, 10**6))
def test_dd_zero_and_adjointness(seed):
    g = Grid(8, TWO_PI)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((8, 8, 8))
    al = rng.standard_normal((8, 8, 8, 3))
    be = rng.standard_normal((8, 8, 8, 3))
    vol = rng.standard_normal((8, 8, 8))
    assert form_norm(g, d(g, d(g, f, 0), 1)) <= 1e-10 * form_norm(g, f)
    assert form_norm(g, d(g, d(g, al, 1), 2)) <= 1e-10 * form_norm(g, al)
    pairs = [(f, al, 0), (al, be, 1), (be, vol, 2)]
    for a, b, k in pairs:
        lhs = float(np.sum(d(g, a, k) * b)) * g.h**3
        rhs = float(np.sum(a * codiff(g, b, k + 1))) * g.h**3
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_degree_errors():
    g = Grid(8, TWO_PI)
    w = np.zeros((8, 8, 8))
    with pytest.raises(ValueError):
        d(g, w, 3)
    with pytest.raises(ValueError):
        codiff(g, w, 0)


def test_integrate_and_norm():
    g = Grid(10, TWO_PI)
    ones = np.ones((10, 10, 10))
    assert integrate(g, ones) == pytest.approx(g.l**3)
    assert form_norm(g, 2.0 * ones) == pytest.approx(2.0 * g.l**1.5)
    # squares past the float range: the norm is taken on the rescaled values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = 1e300 * ones
        assert form_norm(g, big) == pytest.approx(1e300 * g.l**1.5, rel=1e-15)
        big[0, 0, 0] = np.inf
        assert form_norm(g, big) == np.inf
        big[0, 0, 0] = np.nan
        assert np.isnan(form_norm(g, big))


def test_potential_inverts_d_on_exact_forms():
    rng = np.random.default_rng(7)
    for n in (15, 16):
        g = Grid(n, TWO_PI)
        al = rng.standard_normal((n, n, n, 3))
        F = d(g, al, 1)
        Fh, K, k2, _ = _potential(g, np.moveaxis(F, -1, 0))
        # the coexact potential's transform, i K x F_hat / k2, from the guarded spectrum
        sol = np.moveaxis(_irfft3(g, 1j * _cross(K, Fh) / k2), 0, -1)
        assert sol.shape == (n, n, n, 3)
        assert form_norm(g, d(g, sol, 1) - F) <= 1e-9 * form_norm(g, F)
        assert form_norm(g, codiff(g, sol, 1)) <= 1e-9 * form_norm(g, sol)
        assert np.allclose(sol.mean(axis=(0, 1, 2)), 0.0, atol=1e-12)


def test_potential_rejects_flux_and_nonclosed(monkeypatch):
    g = Grid(8, TWO_PI)
    for ax in range(3):
        for sign in (1.0, -1.0):
            F = np.zeros((3, 8, 8, 8))
            F[ax] = sign / g.l**2  # unit flux through every slice
            with pytest.raises(NonExactForm, match="obstruct"):
                _potential(g, F)
    rng = np.random.default_rng(9)
    for n in (8, 9):
        g = Grid(n, TWO_PI)
        F = rng.standard_normal((n, n, n, 3))
        F -= F.mean(axis=(0, 1, 2))  # no flux: only closedness can refuse it
        # the closedness norm read from the spectrum is the real-space one
        ndF = form_norm(g, d(g, F, 2))
        ratio = ndF / ((2.0 * np.pi / g.l) * form_norm(g, F))
        assert ratio > lattice.CLOSED_TOL
        F = np.moveaxis(F, -1, 0)  # _potential reads component-first forms
        with pytest.raises(NonExactForm, match="not closed"):
            _potential(g, F)
        with monkeypatch.context() as m:
            m.setattr(lattice, "CLOSED_TOL", 1.001 * ratio)
            _potential(g, F)
            m.setattr(lattice, "CLOSED_TOL", 0.999 * ratio)
            with pytest.raises(NonExactForm, match="not closed"):
                _potential(g, F)


@pytest.mark.parametrize("n", [8, 9, 15, 16])
def test_d_and_codiff_match_full_spectrum(n):
    """One rfftn and one inverse against a full complex FFT pair per partial."""
    g = Grid(n, TWO_PI)
    rng = np.random.default_rng(n)
    for op, ref, degrees in ((d, ref_d, (0, 1, 2)), (codiff, ref_codiff, (1, 2, 3))):
        for deg in degrees:
            scalar = deg in (0, 3)
            w = rng.standard_normal((n, n, n) if scalar else (n, n, n, 3))
            want = ref(w, deg, g.l)
            got = op(g, w, deg)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(5,), (3, 7, 9, 9), (10, 7, 48, 48), (3, 3, 33, 33, 33)])
def test_aligned_buffers_start_on_a_cache_line(shape):
    # the descent's whole-field buffers and every slab scratch start on a 64-byte line
    for _ in range(4):
        v = lattice._aligned(shape)
        assert v.shape == shape and v.dtype == float and v.flags.c_contiguous and v.flags.writeable
        assert v.__array_interface__["data"][0] % 64 == 0
    for n in (8, 33, 48):
        for _, _, *bufs in lattice._slab_sweep(n, (10,), (3, 3)):
            assert all(b.__array_interface__["data"][0] % 64 == 0 for b in bufs)
