"""Lattice symmetries on random smooth fields.

TrigPoly fields at odd and slab-misaligned n, with lattice.SLAB_SITES
lowered so that every sweep runs several slabs, a short last one and
both wrapped halos.  A lattice translation rolls grad_energy bit for bit,
since each site takes its stencil terms in one fixed order, and keeps
the energy to 1e-14 relative.  An axis permutation permutes the raw
fluxes, negated by an odd one; a reflection negates the Hopf charge and
the two fluxes through planes it mirrors.  Permutations and reflections
reach the class reader as strided views of one array, so its flux
planes and its area form read non-contiguous values.  Permutations and
reflections keep the energy to 1e-14 relative.  A target rotation R in
SO(3) keeps the energy (1e-13 relative) and the Hopf charge (1e-12),
and the gradient rotates with R (1e-13 of its largest component): the
Gram products d_mu psi . d_nu psi the kernel is built on are invariant
under R, up to rounding.  A reflection negates the degree of a ballmap
times a random smooth group field (1e-12).  fix_gauge of a translated
pair keeps the windings and the ties, and its conjugated field u phi u*
is the translated one turned by develop's pin rotation (1e-12); the
harmonic coefficients move at O(h^2), since the canonical gauge depends
on the origin at that order.  On the same random fields the
class reading's kernels meet their oracles: the Parseval helicity is
within 1e-12 of tests/oracles.py::ref_helicity, and the slab-swept area
form is bit-identical to the one-slab sweep and to ref_pullback_area.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fdvk import lattice, quat
from fdvk.ansatz import AnsatzSpec, generate
from fdvk.fields import (GroupField, SphereField, _area_form, conjugate_field, connection_of, constant_group,
                         energy, pullback_area)
from fdvk.flow import grad_energy
from fdvk.gauge import develop, fix_gauge
from fdvk.invariants import _classify, _helicity, _raw_fluxes, degree
from fdvk.lattice import Grid
from fieldgen import TrigPoly, smooth_group_field, smooth_sphere_field
from oracles import ref_helicity, ref_pullback_area

SIZES = [19, 21, 33]
# raw fluxes are O(1) sums over a plane: only their summation order differs
FLUX_TOL = 1e-14
seeds = st.integers(0, 10**6)


def _unit(values):
    return values / np.linalg.norm(values, axis=-1, keepdims=True)


def _random_field(g, seed):
    raw = TrigPoly(seed, 3, amp=0.8).sample(g)
    raw[..., 0] += 1.0
    return SphereField(g, _unit(raw))


def _broken_hopfion(g, seed):
    """A unit hopfion with its symmetries broken by a random smooth field, site-last."""
    return _unit(generate(AnsatzSpec(kind="hopfion"), g).values + TrigPoly(seed, 3, amp=0.15).sample(g))


def _few_planes(m, n):
    # two planes per slab: several slabs, and a short last one at odd n
    m.setattr(lattice, "SLAB_SITES", 2 * n * n)
    assert len(lattice._slabs(n)) > 2


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=8, deadline=None)
@given(seed=seeds, shift=st.tuples(*[st.integers(-40, 40)] * 3))
def test_translation_rolls_the_gradient_bit_for_bit(n, seed, shift):
    g = Grid(n)
    psi = _random_field(g, seed)
    moved = SphereField(g, np.roll(psi.values, shift, axis=(0, 1, 2)))
    with pytest.MonkeyPatch.context() as m:
        _few_planes(m, n)
        want = np.roll(grad_energy(psi), shift, axis=(0, 1, 2))
        got = grad_energy(moved)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        e, e_moved = energy(psi).total, energy(moved).total
    assert abs(e_moved - e) <= 1e-14 * e


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=6, deadline=None)
@given(seed=seeds)
def test_axis_permutation_permutes_the_raw_fluxes(n, seed):
    g = Grid(n)
    v = np.moveaxis(_random_field(g, seed).values, -1, 0)
    raw = _raw_fluxes(g, v)
    assert max(abs(f) for f in raw) > 1e-3  # a reading, not rounding noise
    for p in itertools.permutations(range(3)):
        # site axis k of the view is axis p[k] of v
        sign = np.linalg.det(np.eye(3)[list(p)])
        got = _raw_fluxes(g, v.transpose(0, *(1 + np.array(p))))
        for k in range(3):
            assert abs(got[k] - sign * raw[p[k]]) <= FLUX_TOL


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=3, deadline=None)
@given(seed=seeds)
def test_reflection_negates_the_hopf_charge(n, seed):
    # a unit hopfion with its symmetries broken by a random smooth field
    g = Grid(n)
    vals = generate(AnsatzSpec(kind="hopfion"), g).values + TrigPoly(seed, 3, amp=0.15).sample(g)
    v = np.moveaxis(_unit(vals), -1, 0)
    c = _classify(g, v)
    # the perturbation can push a flux reading past the rounding window at
    # these n; the charge is compared where it exists
    assume(c.hopf is not None)
    assert abs(c.hopf) > 0.5
    for ax in (1, 2, 3):
        # x_a -> n - 1 - x_a maps the plane x_a = n // 2 of odd n to itself
        r = _classify(g, v[(slice(None),) * ax + (slice(None, None, -1),)])
        assert abs(r.hopf + c.hopf) <= 1e-12
        for k in range(3):
            want = c.raw[k] if k == ax - 1 else -c.raw[k]
            assert abs(r.raw[k] - want) <= FLUX_TOL


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=3, deadline=None)
@given(seed=seeds)
def test_permutations_and_reflections_keep_the_energy(n, seed):
    g = Grid(n)
    vals = _random_field(g, seed).values
    with pytest.MonkeyPatch.context() as m:
        _few_planes(m, n)
        e = energy(SphereField(g, vals))
        moved = [vals.transpose(*p, 3) for p in itertools.permutations(range(3))]
        moved += [vals[(slice(None),) * ax + (slice(None, None, -1),)] for ax in range(3)]
        for w in moved:
            got = energy(SphereField(g, np.ascontiguousarray(w)))
            for a, b in zip(got, e):
                assert abs(a - b) <= 1e-14 * abs(b)


def _rotation(seed):
    """A random R in SO(3): the QR factor of a Gaussian matrix, signs fixed."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=3, deadline=None)
@given(seed=seeds)
def test_target_rotation_keeps_energy_and_charge_and_rotates_the_gradient(n, seed):
    g = Grid(n)
    vals = _broken_hopfion(g, seed)
    R = _rotation(seed)
    psi, turned = SphereField(g, vals), SphereField(g, vals @ R.T)
    with pytest.MonkeyPatch.context() as m:
        _few_planes(m, n)
        e, e_turned = energy(psi), energy(turned)
        grad, grad_turned = grad_energy(psi), grad_energy(turned)
    for a, b in zip(e_turned, e):
        assert abs(a - b) <= 1e-13 * abs(b)
    assert np.max(np.abs(grad_turned - grad @ R.T)) <= 1e-13 * np.max(np.abs(grad))
    c = _classify(g, np.moveaxis(vals, -1, 0))
    # the perturbation can push a flux reading past the rounding window at
    # these n; the charge is compared where it exists
    assume(c.hopf is not None)
    q_turned = _classify(g, np.moveaxis(turned.values, -1, 0)).hopf
    assert abs(c.hopf) > 0.5 and abs(q_turned - c.hopf) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=3, deadline=None)
@given(seed=seeds)
def test_reflection_negates_the_degree(n, seed):
    g = Grid(n)
    ball = generate(AnsatzSpec(kind="ballmap"), g).values
    vals = quat.mul(ball, quat.exp_im(TrigPoly(seed, 3, amp=0.3).sample(g)))
    deg = degree(GroupField(g, vals))
    assert abs(deg) > 0.5
    for ax in range(3):
        mirrored = np.ascontiguousarray(vals[(slice(None),) * ax + (slice(None, None, -1),)])
        assert abs(degree(GroupField(g, mirrored)) + deg) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=3, deadline=None)
@given(seed=seeds)
def test_helicity_matches_the_oracle(n, seed):
    g = Grid(n)
    vals = _broken_hopfion(g, seed)
    assume(_classify(g, np.moveaxis(vals, -1, 0), charge=False).hopf_sector)
    F = pullback_area(SphereField(g, vals))
    assert abs(_helicity(g, np.moveaxis(F, -1, 0)) - ref_helicity(F, g.l)) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=3, deadline=None)
@given(seed=seeds)
def test_area_form_independent_of_slab_size(n, seed):
    g = Grid(n)
    v = np.moveaxis(_random_field(g, seed).values, -1, 0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lattice, "SLAB_SITES", n**3)
        whole = _area_form(g, v)
        _few_planes(m, n)
        assert np.array_equal(_area_form(g, v), whole)
    assert np.array_equal(np.moveaxis(whole, 0, -1), ref_pullback_area(np.moveaxis(v, 0, -1), g.h))


@pytest.mark.parametrize("shift", [(5, 0, 0), (3, 7, 11)])
def test_fix_gauge_of_a_translated_pair(shift):
    g = Grid(24)
    u, phi = smooth_group_field(g, 7), smooth_sphere_field(g, 107)

    def moved(f):
        return type(f)(g, np.roll(f.values, shift, axis=(0, 1, 2)))

    a = connection_of(u)
    fixed, rep = fix_gauge(a, phi)
    fixed_s, rep_s = fix_gauge(connection_of(moved(u)), moved(phi))
    assert rep.windings == rep_s.windings == (1, 1, 1)
    assert rep.ties == rep_s.ties
    # develop pins u(origin) = 1, so the translated pair develops to
    # q* u(. - shift), q = u at the site the shift brings to the origin
    q = develop(a).values[tuple(-np.array(shift) % g.n)]
    want = conjugate_field(constant_group(g, quat.conj(q)), moved(conjugate_field(develop(fixed), phi)))
    assert np.max(np.abs(conjugate_field(develop(fixed_s), moved(phi)).values - want.values)) <= 1e-12
    # the canonical gauge depends on the origin at O(h^2): the coefficients
    # differ by up to 1.9e-5 here, and the pass counts by one
    assert np.max(np.abs(np.subtract(rep.harmonic_coeffs, rep_s.harmonic_coeffs))) <= 1e-3
