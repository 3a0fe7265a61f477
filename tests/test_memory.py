"""A field budget for the public kernels: the traced peak of one call at n = 48.

Each row is (kernel, input, bound in fields), a field being one
(3, n, n, n) array of doubles, 2.53 MiB at n = 48.  The peak is the
tracemalloc peak of one call after a warm call, so first-call caches
are out of the count; it counts what the call allocates, not its input.
Inputs: the unit hopfion ansatz (psi), and the gauge workload's seed 1,
op 0 (u, phi, a = connection_of(u)).  `minimize` runs 3 iterations of
the relax workload's config.  A bound sits between the peak before and
after the change that last lowered it, or a little above a peak no
change has moved; a change that raises a peak raises its row and says
why in CHANGES.md.
"""

import dataclasses
import tracemalloc

import pytest

import fdvk
from fdvk import flow
from fieldgen import benchmark_workloads

N = 48
FIELD = 3 * 8 * N**3

# kernel: (call on the inputs, bound in fields)
BUDGET = {
    "energy": (lambda x: fdvk.energy(x.psi), 1.8),
    # no whole-field slopes: 4.60 -> 3.60, and the ceiling assembles none, 4.60 -> 1.60
    "grad_energy": (lambda x: fdvk.grad_energy(x.psi), 4.0),
    "step_ceiling": (lambda x: flow.step_ceiling(x.psi), 2.0),
    # F's norm before its transform: 3.56 -> 3.11
    "hopf_charge": (lambda x: fdvk.hopf_charge(x.psi), 3.3),
    "fluxes": (lambda x: fdvk.fluxes(x.psi), 0.25),
    "pullback_area": (lambda x: fdvk.pullback_area(x.psi), 1.8),
    # the descent's gradient streamed through its sweep: 7.60 -> 5.60
    "minimize": (lambda x: fdvk.minimize(x.psi, x.relax), 6.0),
    # its charge readback: 5.90 -> 5.44
    "generate": (lambda x: fdvk.generate(fdvk.AnsatzSpec(kind="hopfion", charge=1), x.psi.grid), 5.7),
    "degree": (lambda x: fdvk.degree(x.u), 1.1),
    "connection_of": (lambda x: fdvk.connection_of(x.u), 5.5),
    "homotopy_record": (lambda x: fdvk.homotopy_record(x.phi, x.u), 5.5),
    "conjugate_field": (lambda x: fdvk.conjugate_field(x.u, x.phi), 4.3),
    "develop": (lambda x: fdvk.develop(x.a), 7.8),
    "holonomy": (lambda x: fdvk.holonomy(x.a), 0.05),
    "chern_simons": (lambda x: fdvk.chern_simons(x.a), 2.3),
    "energy_conn": (lambda x: fdvk.energy_conn(x.phi, x.a), 2.3),
    "covariant_derivative": (lambda x: fdvk.covariant_derivative(x.a, x.phi), 11.0),
    "plaquette_curvature": (lambda x: fdvk.plaquette_curvature(x.a), 10.0),
    "decompose": (lambda x: fdvk.decompose(x.a, x.phi), 8.5),
    "flatness_residuals": (lambda x: fdvk.flatness_residuals(x.a, x.phi), 26.0),
    "fix_gauge": (lambda x: fdvk.fix_gauge(x.a, x.phi), 16.0),
}


@dataclasses.dataclass
class Inputs:
    psi: fdvk.SphereField
    relax: fdvk.FlowConfig
    u: fdvk.GroupField
    phi: fdvk.SphereField
    a: fdvk.Connection


@pytest.fixture(scope="module")
def inputs():
    wl = benchmark_workloads()
    work = wl.Relax(1, "full")
    assert work.grid.n == N
    u, phi, _ = wl.gauge_input(work.grid, wl._rng(1, 0))
    return Inputs(work.psi0, dataclasses.replace(work.cfg, max_iters=3), u, phi, fdvk.connection_of(u))


def _peak(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", list(BUDGET))
def test_kernel_peak_within_its_budget(kernel, inputs):
    call, bound = BUDGET[kernel]
    call(inputs)
    peak = _peak(lambda: call(inputs))
    assert peak <= bound * FIELD, f"{kernel} peaked at {peak / FIELD:.2f} fields, budget {bound}"
