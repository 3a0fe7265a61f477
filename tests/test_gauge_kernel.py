"""The component-first gauge kernels against their site-last references.

connection_of, Connection.site_values, develop, plaquette_deviation,
holonomy, quat.mul, quat._rotate, quat.hopf and conjugate_field use the
same arithmetic as the references in
tests/oracles.py and must agree bit for bit.  fix_gauge keeps its edge
logarithms component-first through the passes and moves the input
transports by one cumulative angle.  Against the full-spectrum
reference that moves the current connection once per pass it has the
same passes, windings and ties, the connection and the harmonic
coefficients within 1e-12 absolute, the removed exact part within
1e-12 relative (to the longitudinal form, where the exact part itself
is rounding residue).
degree sums its triple product in another order than the einsum
reference (1e-12 absolute); chern_simons sums a ^ da by Parseval (1e-12
absolute), hodge_parts projects on the half spectrum (1e-12 absolute).
Odd n exercise the half-spectrum weights.

The gauge layer sweeps slabs of planes (lattice._slabs): at n = 19, 21
and 33 with lattice.SLAB_SITES lowered to two planes per slab, so that
every sweep has several slabs, a short last one and a wrapped shifted
read, each output is bit-identical to the one-slab sweep and agrees
with the oracles as above, and a right-angle edge found only in the
last slab is refused for the same direction as by the whole-field
check.  quat._hamilton, _exp_im and _log_unit give the same floats into
out buffers as allocated.
"""

import numpy as np
import pytest

from fdvk import gauge, lattice, quat
from fdvk.errors import NontrivialHolonomy, UnresolvableField
from fdvk.ansatz import AnsatzSpec, generate, s1_winding
from fdvk.fields import Connection, GroupField, SphereField, conjugate_field, connection_of, constant_sphere
from fdvk.gauge import (
    circle_field, develop, fix_gauge, gauge_transform, hodge_parts, holonomy, plaquette_deviation,
)
from fdvk.invariants import chern_simons, degree
from fdvk.lattice import Grid, form_norm
from fieldgen import smooth_group_field, smooth_sphere_field
from oracles import (
    RefUnresolvable,
    ref_chern_simons,
    ref_conjugate_by,
    ref_conjugate_field,
    ref_connection_of,
    ref_degree,
    ref_develop,
    ref_fix_gauge,
    ref_hodge_parts,
    ref_holonomy,
    ref_mul,
    ref_plaquette_deviation,
    ref_site_values,
)

TOL = 1e-12


def _smooth(g):
    return smooth_group_field(g, 7), smooth_sphere_field(g, 8)


def _tie(g):
    # one unit winding against the constant section: the coefficient
    # sits on the integer
    return circle_field(g, 2 * np.pi * g.axes()[0] / g.l), constant_sphere(g)


def _seam(g):
    # phi turns once around a great circle through -i, so it crosses the
    # region z.i <= -1/2 where the old square root switched charts
    x1, x2, _ = g.axes()
    b = 2 * np.pi * x1 / g.l + 0.3 * np.sin(2 * np.pi * x2 / g.l)
    phi = np.stack([np.cos(b), np.sin(b) * np.cos(0.4), np.sin(b) * np.sin(0.4)], axis=-1)
    return smooth_group_field(g, 3), SphereField(g, phi)


KINDS = {"smooth": _smooth, "tie": _tie, "seam": _seam}
CASES = [(kind, n) for kind in KINDS for n in (12, 15, 16, 24)]


@pytest.fixture(scope="module", params=CASES, ids=[f"{k}-{n}" for k, n in CASES])
def case(request):
    kind, n = request.param
    g = Grid(n)
    u, phi = KINDS[kind](g)
    if kind == "seam":
        assert np.min(phi.values[..., 0]) <= -0.5
    a = connection_of(u)
    fixed, report = fix_gauge(a, phi)
    return a, phi, fixed, report, u


def test_connection_of_site_values_and_degree_match_site_last(case):
    a, _, fixed, _, u = case
    g = a.grid
    assert np.array_equal(a.values, ref_connection_of(u.values, g.h))
    for b in (a, fixed):
        assert np.array_equal(b.site_values(), ref_site_values(b.values))
    assert abs(degree(u) - ref_degree(u.values, g.l)) <= TOL


def test_develop_plaquettes_holonomy_bit_identical(case):
    a, _, fixed, _, _ = case
    h = a.grid.h
    assert np.array_equal(develop(a).values, ref_develop(a.values, h))
    for b in (a, fixed):
        assert plaquette_deviation(b) == ref_plaquette_deviation(b.values, h)
        assert np.array_equal(holonomy(b).loops, ref_holonomy(b.values, h))


@pytest.fixture
def checked_holonomies(monkeypatch):
    """The Holonomy values develop builds for its loop check, in call order."""
    seen = []

    class Recorded(gauge.Holonomy):
        def __post_init__(self):
            super().__post_init__()
            seen.append(self)

    monkeypatch.setattr(gauge, "Holonomy", Recorded)
    return seen


def test_develop_reads_the_loop_check_off_its_walk(case, checked_holonomies):
    a, _, fixed, _, _ = case
    for b in (a, fixed):
        develop(b)
        got, want = checked_holonomies.pop(), holonomy(b)
        assert np.array_equal(got.loops, want.loops)
        assert got.deviation() == want.deviation()


def test_develop_refuses_constant_holonomy(checked_holonomies):
    g = Grid(12)
    vals = np.zeros((12, 12, 12, 3, 3))
    vals[..., 0, 0] = 0.37 * 2 * np.pi / g.l  # the loop along x turns by 0.37 * 2 pi
    a = Connection(g, vals)
    with pytest.raises(NontrivialHolonomy):
        develop(a)
    assert checked_holonomies[0].deviation() == holonomy(a).deviation() > gauge.HOLONOMY_TOL


def _matches_per_pass_reference(g, avals, phivals, fixed, report):
    ref = ref_fix_gauge(avals, phivals, g.l)
    assert report.passes == ref["passes"]
    assert report.windings == ref["windings"]
    assert report.ties == ref["ties"]
    assert np.max(np.abs(fixed - ref["values"])) <= TOL
    assert np.max(np.abs(np.subtract(report.harmonic_coeffs, ref["harmonic_coeffs"]))) <= TOL
    # relative to the longitudinal form the part is taken from: where that
    # form is a pure winding, the exact part itself is rounding residue
    long = np.einsum("...mk,...k->...m", ref_site_values(avals), phivals)
    scale = max(ref["exact_part_norm"], form_norm(g, long))
    assert abs(report.exact_part_norm - ref["exact_part_norm"]) <= TOL * scale


def test_fix_gauge_matches_per_pass_reference(case):
    a, phi, fixed, report, _ = case
    _matches_per_pass_reference(a.grid, a.values, phi.values, fixed.values, report)


def test_chern_simons_and_hodge_parts_match_full_spectrum(case):
    a, phi, fixed, _, _ = case
    g = a.grid
    for b in (a, fixed):
        assert abs(chern_simons(b) - ref_chern_simons(b.values, g.l)) <= TOL
    long = np.einsum("...mk,...k->...m", a.site_values(), phi.values)
    got, want = hodge_parts(g, long), ref_hodge_parts(long, g.l)
    for x, y in zip(got[:2], want[:2]):
        assert np.max(np.abs(x - y)) <= TOL
    assert got[2] == want[2]


def test_mul_bit_identical_to_stacked_product():
    rng = np.random.default_rng(4)
    for shape in [(4,), (7, 4), (5, 6, 7, 4), (5, 5, 5, 3, 4)]:
        p, q = rng.standard_normal(shape), rng.standard_normal(shape)
        assert np.array_equal(quat.mul(p, q), ref_mul(p, q))
    p = rng.standard_normal((9, 4))
    assert np.array_equal(quat.mul(quat.J, p), ref_mul(quat.J, p))
    assert np.array_equal(quat.mul(p, quat.K), ref_mul(p, quat.K))


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_rotate_bit_identical_to_stacked_products():
    rng = np.random.default_rng(5)

    def rotate(u, v):
        return np.stack(quat._rotate(np.moveaxis(u, -1, 0), np.moveaxis(v, -1, 0)), axis=-1)

    for lead in [(), (7,), (5, 6, 7)]:
        u = rng.standard_normal(lead + (4,))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        v = rng.standard_normal(lead + (3,))
        assert _same_bits(rotate(u, v), ref_conjugate_by(u, v))
    # broadcasting over leading axes, and exact zeros in both factors
    u = rng.standard_normal((9, 4))
    for v in (quat.IM_I, np.zeros(3), -quat.IM_K):
        assert _same_bits(rotate(u, v), ref_conjugate_by(u, v))
    assert _same_bits(quat.hopf(quat.K), ref_conjugate_by(quat.K, quat.IM_I))
    assert _same_bits(quat.hopf(u), ref_conjugate_by(u, quat.IM_I))


@pytest.mark.parametrize("n", [18, 24, 33])
def test_conjugate_field_bit_identical_to_site_last_rotation(n):
    g = Grid(n)
    phi = smooth_sphere_field(g, 9)
    for u in (smooth_group_field(g, 6), generate(AnsatzSpec(kind="ballmap", charge=-1), g)):
        for p in (phi, constant_sphere(g)):
            assert _same_bits(conjugate_field(u, p).values, ref_conjugate_field(u.values, p.values))


def _framed_pair(g):
    # a degree-one ballmap times a smooth group field and a circle winding
    ball = generate(AnsatzSpec(kind="ballmap", charge=1), g).values
    u = quat.mul(quat.mul(ball, smooth_group_field(g, 7).values), s1_winding(g, (1, 0, -1)).values)
    return GroupField(g, u / quat.norm(u)[..., None]), smooth_sphere_field(g, 8)


def _gauge_outputs(u, phi):
    a = connection_of(u)
    fixed, report = fix_gauge(a, phi)
    lam = circle_field(u.grid, 0.4 * np.sin(u.grid.axes()[1]))
    return {
        "a": a.values, "fixed": fixed.values, "report": report, "degree": degree(u),
        "develop": develop(a).values, "develop_fixed": develop(fixed).values,
        "plaquettes": (plaquette_deviation(a), plaquette_deviation(fixed)),
        "moved": gauge_transform(a, phi, lam).values,
    }


@pytest.mark.parametrize("n", [19, 21, 33])
def test_slab_swept_gauge_kernels_independent_of_slab_size(n, monkeypatch):
    g = Grid(n)
    u, phi = _framed_pair(g)
    monkeypatch.setattr(lattice, "SLAB_SITES", n**3)
    assert lattice._slabs(n) == [(0, n)]
    whole = _gauge_outputs(u, phi)
    monkeypatch.setattr(lattice, "SLAB_SITES", 2 * n * n)
    slabs = lattice._slabs(n)
    assert len(slabs) > 2 and slabs[-1][1] - slabs[-1][0] == 1
    got = _gauge_outputs(u, phi)
    for key, want in whole.items():
        assert np.array_equal(got[key], want) if isinstance(want, np.ndarray) else got[key] == want, key
    h = g.h
    assert np.array_equal(got["a"], ref_connection_of(u.values, h))
    assert abs(got["degree"] - ref_degree(u.values, g.l)) <= TOL
    assert np.array_equal(got["develop"], ref_develop(got["a"], h))
    assert np.array_equal(got["develop_fixed"], ref_develop(got["fixed"], h))
    assert got["plaquettes"] == tuple(ref_plaquette_deviation(got[k], h) for k in ("a", "fixed"))
    report = got["report"]
    assert report.passes > 0 and report.windings != (0, 0, 0)
    _matches_per_pass_reference(g, got["a"], phi.values, got["fixed"], report)


@pytest.mark.parametrize("planes", [2, 19])
def test_right_angle_edge_in_the_last_slab_is_refused_for_its_direction(planes, monkeypatch):
    # steps along x are exp(i 0.6 pi / 18) except on the wrapped edge
    # x = 18 -> 0, exp(-i 0.6 pi) with real part below 0, in the last slab
    # only; steps along y do the same at y = 18 -> 0 in every slab, the
    # first included.  The whole-field check refuses direction 1, the
    # first that fails.
    n = 19
    g = Grid(n)
    monkeypatch.setattr(lattice, "SLAB_SITES", planes * n * n)
    x, y, _ = g.axes()
    alpha, beta = 0.6 * np.pi * x / (g.l - g.h), 0.6 * np.pi * y / (g.l - g.h)
    zero = np.zeros_like(x)
    ex = np.stack([np.cos(alpha), np.sin(alpha), zero, zero], axis=-1)
    ey = np.stack([np.cos(beta), zero, np.sin(beta), zero], axis=-1)
    u = GroupField(g, quat.mul(ex, ey))
    with pytest.raises(RefUnresolvable):
        ref_connection_of(u.values, g.h)
    with pytest.raises(UnresolvableField, match="along direction 1 "):
        connection_of(u)
    with pytest.raises(UnresolvableField, match="along direction 1 "):
        degree(u)


def test_quaternion_formulas_write_out_buffers_bit_for_bit():
    rng = np.random.default_rng(11)
    p, q = rng.standard_normal((2, 4, 5, 6, 7))
    q[:, 0, 0, 0] = 0.0  # a zero quaternion takes the small-angle fallbacks below
    out, tmp = np.empty((4, 5, 6, 7)), np.empty((2, 5, 6, 7))
    want = quat._hamilton(p, q)
    assert _same_bits(quat._hamilton(p, q, out, tmp[0]), want)
    assert _same_bits(np.moveaxis(want, 0, -1), ref_mul(np.moveaxis(p, 0, -1), np.moveaxis(q, 0, -1)))
    # a strided out, and the allocating form's own scratch
    strided = np.empty((5, 4, 6, 7)).swapaxes(0, 1)
    assert _same_bits(quat._hamilton(p, q, strided), want)
    v = 0.3 * q[1:]
    assert _same_bits(quat._exp_im(v, out, tmp), quat._exp_im(v))
    unit = quat._exp_im(v)
    assert _same_bits(quat._log_unit(unit, out[:3], tmp), quat._log_unit(unit))
