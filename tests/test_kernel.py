"""The component-first descent kernel against its site-last references.

Step ceilings, area forms and the raw fluxes use the same arithmetic as
the references in tests/oracles.py and must agree bit for bit.  The
energy and the gradient come from the Gram products d_mu psi . d_nu psi
instead of the reference's cross products: energies agree to 1e-14
relative, gradients to 1e-14 of the largest reference component
(GRAD_TOL).  The helicity is summed by Parseval on the half spectrum
instead of after three inverse FFTs (1e-12 absolute).  The slab sweep
must not depend on the slab size: energies, gradients and ceilings are
bit-identical to a sweep in one slab, the whole field.
"""

import numpy as np
import pytest

from fdvk import lattice
from fdvk.ansatz import AnsatzSpec, generate
from fdvk.errors import NonExactForm
from fdvk.fields import energy, pullback_area
from fdvk.flow import grad_energy, step_ceiling
from fdvk.invariants import _classify, _helicity
from fdvk.lattice import Grid, slice_flux
from oracles import (
    ref_energy,
    ref_grad_energy,
    ref_helicity,
    ref_pullback_area,
    ref_step_ceiling,
)

# the Gram-form gradient against the cross-product reference, relative to max|ref|
GRAD_TOL = 1e-14
CASES = [(kind, n) for kind in ("hopfion", "tube", "equator") for n in (19, 24, 48)]
CASES.append(("hopfion", 64))


@pytest.fixture(scope="module", params=CASES, ids=[f"{k}-{n}" for k, n in CASES])
def case(request):
    kind, n = request.param
    return kind, generate(AnsatzSpec(kind=kind), Grid(n))


def _grad_close(got, want):
    return np.max(np.abs(got - want)) <= GRAD_TOL * np.max(np.abs(want))


def test_gradient_and_ceiling_bit_identical(case):
    _, psi = case
    h = psi.grid.h
    assert _grad_close(grad_energy(psi), ref_grad_energy(psi.values, h))
    assert step_ceiling(psi) == ref_step_ceiling(psi.values, h)


def test_pullback_area_bit_identical(case):
    _, psi = case
    assert np.array_equal(pullback_area(psi), ref_pullback_area(psi.values, psi.grid.h))


def test_energy_within_summation_order(case):
    _, psi = case
    got = energy(psi)
    want = ref_energy(psi.values, psi.grid.h)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-14 * abs(b)


def test_helicity_matches_three_ifft_path(case):
    kind, psi = case
    F = pullback_area(psi)
    Fc = np.moveaxis(F, -1, 0)  # _helicity reads component-first forms
    if kind == "tube":
        # unit flux: no potential, on either path the charge is undefined
        with pytest.raises(NonExactForm, match="obstruct"):
            _helicity(psi.grid, Fc)
        return
    assert abs(_helicity(psi.grid, Fc) - ref_helicity(F, psi.grid.l)) <= 1e-12


def test_raw_fluxes_from_planes_bit_identical(case):
    _, psi = case
    F = pullback_area(psi)
    want = tuple(slice_flux(psi.grid, F, k, psi.grid.n // 2) for k in (1, 2, 3))
    assert _classify(psi.grid, np.moveaxis(psi.values, -1, 0), charge=False).raw == want


@pytest.mark.parametrize("kind", ["hopfion", "tube", "equator"])
@pytest.mark.parametrize("planes", [1, 4])
def test_slab_sweep_independent_of_slab_size(monkeypatch, kind, planes):
    n = 19
    psi = generate(AnsatzSpec(kind=kind), Grid(n))
    monkeypatch.setattr(lattice, "SLAB_SITES", n**3)
    assert lattice._slabs(n) == [(0, n)]
    whole = energy(psi)
    whole_grad = grad_energy(psi)
    monkeypatch.setattr(lattice, "SLAB_SITES", planes * n**2)
    slabs = lattice._slabs(n)
    # several slabs, a short last one, and both wrapped halos
    assert len(slabs) > 2 and slabs[0][0] == 0 and slabs[-1][1] == n
    assert planes == 1 or slabs[-1][1] - slabs[-1][0] < planes
    assert tuple(energy(psi)) == tuple(whole)
    h = psi.grid.h
    grad = grad_energy(psi)
    assert np.array_equal(grad, whole_grad) and np.array_equal(np.signbit(grad), np.signbit(whole_grad))
    assert _grad_close(grad, ref_grad_energy(psi.values, h))
    assert step_ceiling(psi) == ref_step_ceiling(psi.values, h)
