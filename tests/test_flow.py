"""Constrained descent: gradient, line search, guards, monitors.

minimize must show what the loop it replaced (tests/oracles.py,
ref_minimize) showed, bit for bit: rows, stop reason, final field,
on_row calls and the partial trace of a guard abort.
"""

import numpy as np
import pytest

from fdvk import flow
from fdvk.ansatz import AnsatzSpec, generate
from fdvk.errors import ChargeDrift, FluxChange, NonExactForm
from fdvk.fields import SphereField, constant_sphere, energy
from fdvk.flow import (
    MODES,
    FlowConfig,
    grad_energy,
    minimize,
    relax_step,
    step_ceiling,
)
from fdvk.lattice import Grid
from fieldgen import smooth_sphere_field
from oracles import ref_minimize

TWO_PI = 2.0 * np.pi


def test_config_validation():
    FlowConfig()
    with pytest.raises(ValueError):
        FlowConfig(mode="downhill")
    with pytest.raises(ValueError):
        FlowConfig(max_iters=-1)
    with pytest.raises(ValueError):
        FlowConfig(step0=0.0)
    with pytest.raises(ValueError):
        FlowConfig(backtrack=1.0)
    with pytest.raises(ValueError):
        FlowConfig(monitor_every=0)
    for name in ("max_iters", "grad_tol", "step0", "backtrack", "monitor_every",
                 "charge_drift_tol"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                FlowConfig(**{name: bad})
    assert MODES == ("map-class", "hopf-class", "flux-only")


def test_gradient_is_tangent():
    g = Grid(8, TWO_PI)
    psi = smooth_sphere_field(g, 1)
    grad = grad_energy(psi)
    assert np.max(np.abs(np.sum(grad * psi.values, axis=-1))) <= 1e-12


def test_gradient_matches_finite_differences():
    g = Grid(8, TWO_PI)
    for s in (2, 3, 4):
        psi = smooth_sphere_field(g, s)
        rng = np.random.default_rng(100 + s)
        eta = rng.standard_normal(psi.values.shape)
        eta -= np.sum(eta * psi.values, axis=-1, keepdims=True) * psi.values
        lhs = float(np.sum(grad_energy(psi) * eta)) * g.h**3

        def at(t):
            v = psi.values + t * eta
            v = v / np.linalg.norm(v, axis=-1, keepdims=True)
            return energy(SphereField(g, v)).total

        fd = (at(1e-6) - at(-1e-6)) / 2e-6
        assert abs(lhs - fd) <= 1e-6 * max(abs(lhs), abs(fd))


def test_step_ceiling_scaling():
    g = Grid(16, TWO_PI)
    flat = constant_sphere(g)
    assert step_ceiling(flat) == pytest.approx(g.h**2 / 3.0)
    eq = generate(AnsatzSpec(kind="equator"), g)
    assert 0.0 < step_ceiling(eq) < step_ceiling(flat)


def test_relax_step_contract():
    g = Grid(12, TWO_PI)
    psi = smooth_sphere_field(g, 5)
    cfg = FlowConfig()
    with pytest.raises(ValueError):
        relax_step(psi, cfg, 0.0)
    e0 = energy(psi).total
    out, used, ok = relax_step(psi, cfg, 1e-3)
    assert ok and used <= 1e-3
    assert energy(out).total <= e0
    # an absurd step backtracks instead of blowing up
    out, used, ok = relax_step(psi, cfg, 50.0)
    assert ok and used < 50.0
    assert energy(out).total <= e0


def test_relax_step_fixed_point_at_critical_field():
    g = Grid(8, TWO_PI)
    flat = constant_sphere(g)
    out, used, ok = relax_step(flat, FlowConfig(), 0.01)
    assert ok
    assert np.array_equal(out.values, flat.values)


def test_minimize_constant_stops_immediately():
    g = Grid(8, TWO_PI)
    psi, trace = minimize(constant_sphere(g), FlowConfig(max_iters=50))
    assert len(trace.rows) == 1
    row = trace.rows[0]
    assert row.iteration == 0 and row.total == 0.0 and row.grad_norm == 0.0
    assert row.raw_fluxes == (0.0, 0.0, 0.0)
    assert row.hopf_charge == 0.0
    assert row.vk_ratio is None  # charge rounds to zero, no quotient
    assert trace.stop_reason == "grad_tol"


def test_tilted_equator_flows_to_constant():
    g = Grid(16, TWO_PI)
    eq = generate(AnsatzSpec(kind="equator"), g)
    v = eq.values + 0.05 * np.array([0.0, 0.0, 1.0])
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    psi, trace = minimize(
        SphereField(g, v), FlowConfig(mode="flux-only", max_iters=400, grad_tol=1e-6)
    )
    assert trace.rows[0].total == pytest.approx(234.97, abs=0.5)
    assert trace.last().total <= 1e-10
    assert trace.last().grad_norm <= 1e-6
    for row in trace.rows:
        assert tuple(round(f) for f in row.raw_fluxes) == (0, 0, 0)


def test_monitor_cadence_and_monotonicity():
    g = Grid(20, TWO_PI)
    psi0 = generate(AnsatzSpec(kind="hopfion", charge=1), g)
    seen = []
    # n = 20 reads the unit charge as 0.80; widen the drift guard so the
    # cadence itself is what this test exercises
    psi, trace = minimize(
        psi0,
        FlowConfig(max_iters=30, monitor_every=10, charge_drift_tol=0.3),
        on_row=seen.append,
    )
    assert [r.iteration for r in trace.rows] == [0, 10, 20, 30]
    assert trace.stop_reason == "max_iters"
    assert seen == trace.rows
    totals = [r.total for r in trace.rows]
    assert all(b <= a for a, b in zip(totals, totals[1:]))
    assert totals[-1] < totals[0]


def test_hopf_class_rejects_flux_sector():
    g = Grid(24, TWO_PI)
    tube = generate(AnsatzSpec(kind="tube", charge=1), g)
    with pytest.raises(NonExactForm):
        minimize(tube, FlowConfig(mode="hopf-class", max_iters=5))


def test_charge_drift_guard_fires_on_coarse_hopfion():
    # at n = 24 the charge reads 0.85: rounds to 1 but sits beyond the
    # 0.05 drift tolerance, so the guard trips on the first monitor row
    g = Grid(24, TWO_PI)
    psi0 = generate(AnsatzSpec(kind="hopfion", charge=1), g)
    with pytest.raises(ChargeDrift) as err:
        minimize(psi0, FlowConfig(mode="hopf-class", max_iters=50))
    assert err.value.trace.last().iteration == 0

    # widening the tolerance lets the same run proceed
    psi, trace = minimize(
        psi0, FlowConfig(mode="hopf-class", max_iters=20, charge_drift_tol=0.2)
    )
    assert trace.last().iteration == 20


def test_flux_change_guard_fires_on_decaying_tube():
    g = Grid(24, TWO_PI)
    tube = generate(AnsatzSpec(kind="tube", charge=1), g)
    v = 0.52 * tube.values + 0.48 * np.array([0.0, 0.0, 1.0])
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    blend = SphereField(g, v)
    with pytest.raises(FluxChange) as err:
        minimize(blend, FlowConfig(mode="flux-only", max_iters=60, monitor_every=5))
    assert err.value.trace.last().iteration == 20
    rounded = tuple(round(f) for f in err.value.trace.last().raw_fluxes)
    assert rounded == (0, 0, 0)  # decayed away from the initial (1, 0, 0)


def test_vk_ratio_present_in_unit_charge_sector():
    g = Grid(20, TWO_PI)
    psi0 = generate(AnsatzSpec(kind="hopfion", charge=1), g)
    psi, trace = minimize(
        psi0, FlowConfig(max_iters=10, charge_drift_tol=0.3)
    )
    for row in trace.rows:
        assert row.hopf_charge is not None
        assert row.vk_ratio is not None and row.vk_ratio > 0
        assert row.vk_ratio == pytest.approx(
            row.total / abs(row.hopf_charge) ** 0.75, rel=1e-12
        )


def test_refused_charge_mid_flow_is_charge_drift(refuse_charge):
    # n = 20 reads the unit charge as 0.80; the guard width keeps the
    # drift test quiet so only the refusal can stop the run
    g = Grid(20, TWO_PI)
    psi0 = generate(AnsatzSpec(kind="hopfion", charge=1), g)
    cfg = FlowConfig(mode="hopf-class", max_iters=10, monitor_every=5, charge_drift_tol=0.3)
    refuse_charge(2)
    with pytest.raises(ChargeDrift, match="undefined") as err:
        minimize(psi0, cfg)
    rows = err.value.trace.rows
    assert [r.iteration for r in rows] == [0, 5]
    assert rows[0].hopf_charge is not None
    assert rows[1].hopf_charge is None and rows[1].vk_ratio is None
    assert rows[1].raw_fluxes == pytest.approx((0.0, 0.0, 0.0), abs=0.1)


def test_stalled_line_search_is_reported(nan_candidates):
    g = Grid(12, TWO_PI)
    psi0 = smooth_sphere_field(g, 5)
    calls = nan_candidates()
    psi, trace = minimize(psi0, FlowConfig(mode="flux-only", max_iters=20))
    assert trace.stop_reason == "line_search_stalled"
    assert [r.iteration for r in trace.rows] == [0]
    assert len(calls) > 2  # the search backtracked before giving up
    assert psi is psi0


def test_nonfinite_candidate_is_never_accepted(monkeypatch, nan_candidates):
    g = Grid(12, TWO_PI)
    psi = smooth_sphere_field(g, 5)
    e0 = energy(psi).total
    real = flow._kernel
    seen = []

    def kernel(grid, v):
        seen.append(np.max(np.abs(np.sum(v * v, axis=0) - 1.0)))
        return real(grid, v)

    monkeypatch.setattr(flow, "_kernel", kernel)
    # a step this long overflows psi - step * grad, and its squared norm
    # overflows before that: such candidates are dropped unevaluated
    # until backtracking brings the step into range
    out, used, ok = relax_step(psi, FlowConfig(), 1e308)
    tried = round(np.log2(1e308) - np.log2(used)) + 1
    assert ok and used < 1e154
    assert len(seen) - 1 < tried / 2  # psi itself, then evaluated candidates
    assert all(dev <= 1e-14 for dev in seen)
    assert np.all(np.isfinite(out.values))
    assert energy(out).total <= e0
    # a NaN energy alone never passes the test either
    monkeypatch.undo()
    nan_candidates()
    out, _, ok = relax_step(psi, FlowConfig(), 1e-3)
    assert not ok and out is psi


def _hopfion20():
    return generate(AnsatzSpec(kind="hopfion", charge=1), Grid(20))


def _decaying_tube():
    g = Grid(24, TWO_PI)
    v = 0.52 * generate(AnsatzSpec(kind="tube", charge=1), g).values + 0.48 * np.array([0.0, 0.0, 1.0])
    return SphereField(g, v / np.linalg.norm(v, axis=-1, keepdims=True))


# name: (field, FlowConfig keywords, kernels before NaN candidates or None,
#        how the run ends, its row iterations); n = 20 reads the unit
# charge as 0.7955 at the start, 0.7944 at iteration 25
AGREEMENT = {
    "grad_tol-at-start": (lambda: constant_sphere(Grid(8)), dict(mode="flux-only"), None, "grad_tol", [0]),
    # grad_tol and max_iters at once: grad_tol wins
    "grad_tol-off-cadence": (
        _hopfion20, dict(max_iters=16, grad_tol=45.0, monitor_every=7, charge_drift_tol=0.3),
        None, "grad_tol", [0, 7, 14, 16],
    ),
    "max_iters-hopf-class": (
        _hopfion20, dict(mode="hopf-class", max_iters=12, monitor_every=5, charge_drift_tol=0.3),
        None, "max_iters", [0, 5, 10, 12],
    ),
    "max_iters-flux-only": (
        _hopfion20, dict(mode="flux-only", max_iters=12, monitor_every=5), None, "max_iters", [0, 5, 10, 12],
    ),
    "stalled-at-start": (
        _hopfion20, dict(max_iters=20, charge_drift_tol=0.3), 1, "line_search_stalled", [0],
    ),
    "stalled-on-cadence": (
        _hopfion20, dict(mode="hopf-class", max_iters=20, monitor_every=5, charge_drift_tol=0.3),
        6, "line_search_stalled", [0, 5],
    ),
    "stalled-off-cadence": (
        _hopfion20, dict(mode="hopf-class", max_iters=20, monitor_every=5, charge_drift_tol=0.3),
        8, "line_search_stalled", [0, 5, 7],
    ),
    "charge-drift": (
        _hopfion20, dict(max_iters=40, monitor_every=5, charge_drift_tol=0.205),
        None, "ChargeDrift: Hopf charge 0.7944", [0, 5, 10, 15, 20, 25],
    ),
    # a guard firing on the last row leaves no stop reason
    "charge-drift-on-last-row": (
        _hopfion20, dict(mode="hopf-class", max_iters=25, monitor_every=5, charge_drift_tol=0.205),
        None, "ChargeDrift: Hopf charge 0.7944", [0, 5, 10, 15, 20, 25],
    ),
    "flux-change-flux-only": (
        _decaying_tube, dict(mode="flux-only", max_iters=60, monitor_every=5),
        None, "FluxChange", [0, 5, 10, 15, 20],
    ),
    "flux-change-map-class": (
        _decaying_tube, dict(max_iters=60, monitor_every=5), None, "FluxChange", [0, 5, 10, 15, 20],
    ),
}


def _outcome(descend, psi0, cfg):
    """(row iterations, how it ended, rows, on_row calls, final field bytes) of one descent."""
    seen = []
    try:
        psi, trace = descend(psi0, cfg, on_row=seen.append)
        end, final = trace.stop_reason, psi.values.tobytes()
    except (ChargeDrift, FluxChange) as exc:
        trace, end, final = exc.trace, f"{type(exc).__name__}: {exc}", None
        assert trace.stop_reason is None
    # repr tells -0.0 from 0.0, so equal reprs are equal bits
    return [r.iteration for r in trace.rows], end, repr(trace.rows), repr(seen), final


@pytest.mark.parametrize("name", list(AGREEMENT))
def test_minimize_matches_the_reference_loop(name, monkeypatch, nan_candidates):
    build, kw, after, ending, iterations = AGREEMENT[name]
    psi0, cfg = build(), FlowConfig(**kw)
    outcomes = []
    for descend in (minimize, ref_minimize):
        if after is not None:
            nan_candidates(after)
        outcomes.append(_outcome(descend, psi0, cfg))
        monkeypatch.undo()
    got, want = outcomes
    assert got == want
    assert got[0] == iterations
    assert got[1].startswith(ending)
    assert got[2] == got[3]


def test_refused_charge_mid_flow_matches_the_reference_loop(monkeypatch, refuse_charge):
    cfg = FlowConfig(mode="hopf-class", max_iters=10, monitor_every=5, charge_drift_tol=0.3)
    outcomes = []
    for descend in (minimize, ref_minimize):
        refuse_charge(2)
        outcomes.append(_outcome(descend, _hopfion20(), cfg))
        monkeypatch.undo()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == ([0, 5], "ChargeDrift: Hopf charge became undefined at iteration 5")
