"""Constrained descent: gradient, line search, guards, monitors.

Each ending of minimize (AGREEMENT) has its row iterations, how the run
ends, and rows equal to the on_row calls; the first row reads what the
public readers (energy, the norm of grad_energy, the slice fluxes of
pullback_area, hopf_charge) read on the input, and the last row what
they read on the returned field, bit for bit.  scripts/identity.py records the same endings, so
a change that moves their rows or fields shows in its --compare.
"""

import warnings

import numpy as np
import pytest

from fdvk import flow
from fdvk.ansatz import AnsatzSpec, generate
from fdvk.errors import ChargeDrift, FluxChange, NonExactForm, NonIntegralFlux
from fdvk.fields import SphereField, constant_sphere, energy, pullback_area
from fdvk.flow import (
    MODES,
    FlowConfig,
    grad_energy,
    minimize,
    relax_step,
    step_ceiling,
)
from fdvk.invariants import fluxes, hopf_charge
from fdvk.lattice import Grid, form_norm, slice_flux
from fieldgen import smooth_sphere_field

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
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError, match="charge_drift_tol must be positive"):
            FlowConfig(charge_drift_tol=bad)
    for name in ("max_iters", "grad_tol", "step0", "backtrack", "monitor_every",
                 "charge_drift_tol"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                FlowConfig(**{name: bad})
    assert MODES == ("map-class", "hopf-class", "flux-only")


@pytest.mark.parametrize("name", ["max_iters", "monitor_every"])
def test_config_counts_are_integers(name):
    # minimize stops on it == max_iters: 2.5 would never be met
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=name):
            FlowConfig(**{name: bad})
    assert getattr(FlowConfig(**{name: np.int64(3)}), name) == 3


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


@pytest.mark.parametrize("step", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3])
def test_relax_step_refuses_a_step_not_finite_and_positive(step, monkeypatch):
    # refused before any work: an infinite step never shrinks, a NaN one returns NaN
    psi = smooth_sphere_field(Grid(8, TWO_PI), 5)
    monkeypatch.setattr(flow, "_kernel", None)
    with pytest.raises(ValueError, match="step must be finite and positive"):
        relax_step(psi, FlowConfig(), step)


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


def test_grad_norm_stays_finite_at_the_low_grid_edge():
    # a rough field's gradient peaks at 6.0e306 here: its squares overflow, its norm does not
    g = Grid(6, 1.363900440820473e-76)
    v = np.random.default_rng(0).standard_normal((6, 6, 6, 3))
    psi = SphereField(g, v / np.linalg.norm(v, axis=-1, keepdims=True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = minimize(psi, FlowConfig(mode="flux-only", max_iters=2))
    assert [r.iteration for r in trace.rows] == [0, 2] and trace.stop_reason == "max_iters"
    assert all(np.isfinite(r.grad_norm) and r.grad_norm > 1e192 for r in trace.rows)


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


def test_minimize_builds_one_sphere_field_per_run(monkeypatch):
    built = []
    real = flow.SphereField

    def counted(*args):
        built.append(None)
        return real(*args)

    monkeypatch.setattr(flow, "SphereField", counted)
    psi0 = _hopfion20()
    cfg = FlowConfig(mode="hopf-class", max_iters=12, monitor_every=5, charge_drift_tol=0.3)
    psi, trace = minimize(psi0, cfg)
    assert [r.iteration for r in trace.rows] == [0, 5, 10, 12]
    assert len(built) == 1 and isinstance(psi, real)
    # no step accepted: psi0 itself comes back and nothing is built
    psi, trace = minimize(psi0, FlowConfig(max_iters=0, charge_drift_tol=0.3))
    assert psi is psi0 and len(built) == 1


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


def _outcome(psi0, cfg):
    """(row iterations, how it ended, rows, on_row calls, final field or None) of one descent."""
    seen = []
    try:
        psi, trace = minimize(psi0, cfg, on_row=seen.append)
        end = trace.stop_reason
    except (ChargeDrift, FluxChange) as exc:
        trace, end, psi = exc.trace, f"{type(exc).__name__}: {exc}", None
        assert trace.stop_reason is None
    return [r.iteration for r in trace.rows], end, trace.rows, seen, psi


def _reads(row, psi):
    """row reads what the public readers read on psi, bit for bit (repr tells -0.0 from 0.0).

    The raw fluxes are the slice fluxes of the area form through the
    tori {x_k = l/2}, which fluxes returns unless it refuses to round them.
    """
    g, en = psi.grid, energy(psi)
    raw = tuple(slice_flux(g, pullback_area(psi), k, g.n // 2) for k in (1, 2, 3))
    try:
        assert fluxes(psi)[1] == raw
        charge = hopf_charge(psi)
    except (NonIntegralFlux, NonExactForm):
        charge = None
    want = (en.e2, en.e4, en.total, form_norm(g, grad_energy(psi)), raw, charge)
    assert repr((row.e2, row.e4, row.total, row.grad_norm, row.raw_fluxes, row.hopf_charge)) == repr(want)


@pytest.mark.parametrize("name", list(AGREEMENT))
def test_minimize_matches_the_reference_loop(name, monkeypatch, nan_candidates):
    build, kw, after, ending, iterations = AGREEMENT[name]
    psi0 = build()
    if after is not None:
        nan_candidates(after)
    got, end, rows, seen, psi = _outcome(psi0, FlowConfig(**kw))
    monkeypatch.undo()
    assert got == iterations
    assert end.startswith(ending)
    assert repr(rows) == repr(seen)
    _reads(rows[0], psi0)
    if psi is not None:  # the returned field stores the iterate the last row classified
        _reads(rows[-1], psi)


def test_refused_charge_mid_flow_matches_the_reference_loop(monkeypatch, refuse_charge):
    cfg = FlowConfig(mode="hopf-class", max_iters=10, monitor_every=5, charge_drift_tol=0.3)
    psi0 = _hopfion20()  # before arming: generate's readback solves a charge too
    refuse_charge(2)
    got, end, rows, seen, psi = _outcome(psi0, cfg)
    monkeypatch.undo()
    assert (got, end) == ([0, 5], "ChargeDrift: Hopf charge became undefined at iteration 5")
    assert repr(rows) == repr(seen) and psi is None
    _reads(rows[0], psi0)
