"""Lattice symmetries on random smooth fields.

TrigPoly fields at odd and slab-misaligned n, with lattice.SLAB_SITES
lowered so that every sweep runs several slabs, a short last one and
both wrapped halos.  A lattice translation rolls grad_energy bit for bit,
since each site takes its stencil terms in one fixed order, and keeps
the energy to 1e-14 relative.  An axis permutation permutes the raw
fluxes, negated by an odd one; a reflection negates the Hopf charge and
the two fluxes through planes it mirrors.  Permutations and reflections
reach the class reader as strided views of one array, so its flux
planes and its area form read non-contiguous values.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdvk import lattice
from fdvk.ansatz import AnsatzSpec, generate
from fdvk.fields import SphereField, energy
from fdvk.flow import grad_energy
from fdvk.invariants import _classify, _raw_fluxes
from fdvk.lattice import Grid
from fieldgen import TrigPoly

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


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=8, deadline=None)
@given(seed=seeds, shift=st.tuples(*[st.integers(-40, 40)] * 3))
def test_translation_rolls_the_gradient_bit_for_bit(n, seed, shift):
    g = Grid(n)
    psi = _random_field(g, seed)
    moved = SphereField(g, np.roll(psi.values, shift, axis=(0, 1, 2)))
    with pytest.MonkeyPatch.context() as m:
        # two planes per slab: several slabs, and a short last one at odd n
        m.setattr(lattice, "SLAB_SITES", 2 * n * n)
        assert len(lattice._slabs(n)) > 2
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
    assert c.hopf_sector and abs(c.hopf) > 0.5
    for ax in (1, 2, 3):
        # x_a -> n - 1 - x_a maps the plane x_a = n // 2 of odd n to itself
        r = _classify(g, v[(slice(None),) * ax + (slice(None, None, -1),)])
        assert abs(r.hopf + c.hopf) <= 1e-12
        for k in range(3):
            want = c.raw[k] if k == ax - 1 else -c.raw[k]
            assert abs(r.raw[k] - want) <= FLUX_TOL
