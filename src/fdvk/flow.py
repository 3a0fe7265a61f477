"""Constrained energy descent.

Plain projected gradient flow on sphere-valued maps: the exact
gradient of the discrete energy, a pointwise tangent projection, and a
backtracking line search that never accepts an energy increase.  The
homotopy class is not projected onto; it is monitored, and the flow
aborts with ChargeDrift or FluxChange the moment the recorded
invariants leave their starting values.

minimize is one loop: each pass clips the step at the ceiling, takes
the gradient, decides whether to stop, observes the field on the monitor
cadence or when stopping, then searches.  _observe, the one observation
point, classifies the component-first iterate in place and builds,
records, streams and guards (_guard) every trace row; a run builds one
SphereField, the one minimize returns.

The kernel, _kernel, is fields._sweep: the energy, the slopes P_mu and
the largest squared difference in one slab sweep.  _gradient takes
-2 sum_mu A_mu P_mu, three stencils, then the tangent projection, on the
undivided differences of lattice._diff_into: its stencils are 2h A_mu on
the slopes 8h^3 P_mu, so the -2 becomes -2 / 16h^4.  Each site's terms
are taken in one fixed order, so energies, gradients and step ceilings
do not depend on the slab size, and a lattice translation rolls them
bit for bit.  The line search's accepted candidate carries its energy
and slopes into the next iteration.
"""

from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional

import numpy as np

from .errors import ChargeDrift, FluxChange, NonExactForm
from .fields import SphereField, _cf, _expect, _field, _sweep
from .invariants import _classify
from .lattice import _aligned, _diff_into, _dot, _slab_sweep, form_norm

# what each mode guards: (the rounded fluxes, the Hopf charge)
_GUARDED = {"map-class": (True, True), "hopf-class": (False, True), "flux-only": (True, False)}
MODES = tuple(_GUARDED)


@dataclass(frozen=True)
class FlowConfig:
    """Knobs of the descent loop.

    mode picks the monitored class: map-class guards both the fluxes
    and the Hopf charge, hopf-class guards the charge (fluxes must
    vanish at the start), flux-only guards just the rounded fluxes.
    grad_tol is compared against the L2 norm of the projected
    gradient; step0 seeds the line search and the accepted step is
    carried between iterations; backtrack is the shrink factor;
    monitor_every sets the cadence of trace rows and guard checks;
    charge_drift_tol bounds |Q - round(Q_start)|.
    """

    mode: str = "map-class"
    max_iters: int = 500
    grad_tol: float = 1e-4
    step0: float = 0.05
    backtrack: float = 0.5
    monitor_every: int = 10
    charge_drift_tol: float = 0.05

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown flow mode {self.mode!r}")
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type is int and (isinstance(v, bool) or not isinstance(v, (int, np.integer))):
                raise ValueError(f"{f.name} must be an integer, got {v!r}")
            if f.type is float and not np.isfinite(v):
                raise ValueError(f"{f.name} must be finite")
        if self.max_iters < 0 or self.grad_tol <= 0 or self.step0 <= 0:
            raise ValueError("max_iters, grad_tol and step0 must be positive")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack must lie in (0, 1)")
        if self.monitor_every <= 0:
            raise ValueError("monitor_every must be positive")
        if self.charge_drift_tol <= 0:
            raise ValueError("charge_drift_tol must be positive")


@dataclass(frozen=True)
class FlowRow:
    """One monitor record.

    hopf_charge is present only in the Hopf sector (every raw flux
    within FLUX_ROUND_TOL of 0) and when its area form has a coexact
    potential (lattice._potential does not raise NonExactForm);
    vk_ratio = total / |Q|^(3/4) is present only when the charge also
    rounds to a nonzero integer, since the ratio against a near-zero
    charge is noise, not a bound.
    """

    iteration: int
    e2: float
    e4: float
    total: float
    grad_norm: float
    raw_fluxes: tuple
    hopf_charge: Optional[float]
    vk_ratio: Optional[float]


@dataclass
class FlowTrace:
    """Monitor rows of one descent, and why it stopped.

    stop_reason is "grad_tol" when the gradient norm reached the target,
    "max_iters" when the iterations ran out first, and
    "line_search_stalled" when no step short of double-precision noise
    lowered the energy; it stays None on a trace cut short by a guard.
    """

    rows: List[FlowRow] = field(default_factory=list)
    stop_reason: Optional[str] = None

    def last(self) -> FlowRow:
        return self.rows[-1]


def _kernel(grid, v):
    """(Energy, _Slopes) of component-first values, which the gradient and the step ceiling share."""
    return _sweep(grid, v, keep=True)


def _gradient(grid, v, slopes):
    """grad_energy on the component-first layout, from _kernel's slopes; A_1 reads P_0's
    two neighbouring planes from the whole field."""
    P = slopes.P
    grad = _aligned(v.shape)
    scale = -2.0 / (16.0 * grid.h**4)
    for a, b, term in _slab_sweep(grid.n, (3,)):
        g = grad[:, a:b]
        _diff_into(P[0], 1, g, a, b)
        g += _diff_into(P[1][:, a:b], 2, term)
        g += _diff_into(P[2][:, a:b], 3, term)
        g *= scale
        vs = v[:, a:b]
        np.multiply(_dot(g, vs), vs, out=term)
        g -= term
    return grad


def _ceiling(grid, dv):
    """step_ceiling from _kernel's slopes, whose g2 is 4h^2 times |d_mu psi|^2."""
    g2 = max(float(x) for x in dv.g2) / (4.0 * grid.h**2)
    return grid.h**2 / (3.0 * (1.0 + 4.0 * g2))


def _search(grid, v, e0, grad, step, backtrack):
    """Backtracking line search from component-first v with energy e0.

    Returns (step, (candidate, *_kernel output)) for the first
    normalized candidate whose energy does not exceed e0, or
    (step, None) once the step cannot change the field at double
    precision.

    Candidates are unit vectors by construction and are not revalidated.
    The one way construction fails is a squared norm that is not finite:
    an overflowed one would scale its site to the zero vector, so such a
    candidate is rejected unevaluated.  Any other non-finite candidate
    has a NaN energy, which the <= test rejects.
    """
    # slab by slab, in the whole-field order; a NaN anywhere still ends the search
    gmax = float(np.max([np.max(np.abs(grad[:, a:b], out=tmp)) for a, b, tmp in _slab_sweep(grid.n, (3,))]))
    cand = _aligned(v.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        while step * gmax > 1e-16:
            if _candidate(grid, v, grad, step, cand):
                found = _kernel(grid, cand)
                if found[0].total <= e0:
                    return step, (cand, *found)
            step *= backtrack
    return step, None


def _candidate(grid, v, grad, step, cand):
    """Fill cand with v - step grad normalized, slab by slab, its scratch freed on return
    before the energy is taken; False at the first slab with a squared norm not finite."""
    for a, b, tmp in _slab_sweep(grid.n, (3,)):
        c = cand[:, a:b]
        np.subtract(v[:, a:b], np.multiply(step, grad[:, a:b], out=tmp), out=c)
        n2 = _dot(c, c, tmp[0], tmp[1])
        if not np.isfinite(np.max(n2)):
            return False
        c /= np.sqrt(n2, out=n2)
    return True


def grad_energy(psi: SphereField) -> np.ndarray:
    """Exact gradient of the discrete energy, tangent to the sphere.

    With A_mu the central difference, the density depends on psi only
    through d_mu = A_mu psi, and A_mu is its own adjoint up to sign, so
    the gradient is -2 sum_mu A_mu P_mu with P_mu half the density's
    derivative by d_mu: the Dirichlet part d_mu plus the quartic part
    sum_{nu != mu} d_nu x (d_mu x d_nu), that is

        P_mu = (1 + sum_{nu != mu} |d_nu|^2) d_mu - sum_{nu != mu} (d_mu . d_nu) d_nu.

    The pointwise projection g - (g.psi)psi makes it the gradient of the
    constrained functional.  Returned site-last, as a view of the
    component-first array computed.
    """
    v = _cf(_expect(SphereField, psi))
    return np.moveaxis(_gradient(psi.grid, v, _kernel(psi.grid, v)[1]), 0, -1)


def step_ceiling(psi: SphereField) -> float:
    """Largest explicitly stable descent step for the current field.

    Linearizing the flow at a site with squared gradient G2, a mode
    with symbol s_mu = sin(k_mu h)/h feels stiffness at most
    6 s_max^2 (1 + 4 G2), the Dirichlet part plus the quartic term's
    gradient-dependent piece.  Euler steps beyond 2/stiffness amplify
    those modes.  The danger is not hypothetical: the energy reads
    each lattice parity class separately, so a growing mode that
    anti-aligns the classes is invisible to the line search until the
    field is ruined.
    """
    return _ceiling(_expect(SphereField, psi).grid, _kernel(psi.grid, _cf(psi))[1])


def relax_step(psi: SphereField, cfg: FlowConfig, step: float):
    """One backtracking descent step.

    Renormalizes psi - step*grad pointwise and shrinks the step by
    cfg.backtrack until the energy does not increase.  When the step
    has shrunk so far that it cannot change the field at double
    precision, gives up with accepted = False.
    """
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be finite and positive, got {step!r}")
    g = _expect(SphereField, psi).grid
    v = _cf(psi)
    en, dv = _kernel(g, v)
    grad = _gradient(g, v, dv)
    del dv
    if not np.any(grad):
        return psi, step, True
    step, found = _search(g, v, en.total, grad, step, cfg.backtrack)
    if found is None:
        return psi, step, False
    return _field(SphereField, g, found[0]), step, True


def _guard(cfg, ref, row, c, trace):
    """Raise FluxChange or ChargeDrift when row, of class c, has left ref.

    ref is the class of iteration 0; the charge is guarded only when
    ref has one, against its rounded value.
    """
    fluxes, charge = _GUARDED[cfg.mode]
    if fluxes and c.rounded != ref.rounded:
        raise FluxChange(
            f"rounded fluxes moved from {ref.rounded} to {c.rounded} "
            f"at iteration {row.iteration}",
            trace=trace,
        )
    if not charge or ref.hopf is None:
        return
    if row.hopf_charge is None:
        raise ChargeDrift(f"Hopf charge became undefined at iteration {row.iteration}", trace=trace)
    if abs(row.hopf_charge - round(ref.hopf)) > cfg.charge_drift_tol:
        raise ChargeDrift(
            f"Hopf charge {row.hopf_charge:.4f} drifted from "
            f"{round(ref.hopf)} at iteration {row.iteration}",
            trace=trace,
        )


def _observe(cfg, trace, on_row, ref, g, v, it, gnorm, en):
    """Record, stream and guard the row of iteration it; returns the reference class, which
    iteration 0 supplies after its row is streamed and the hopf-class entry is checked."""
    c = _classify(g, v)
    # a refused charge is bad input at the start; later it is an undefined
    # charge, which the drift guard reports with the partial trace
    if c.hopf_error is not None and it == 0:
        raise NonExactForm(c.hopf_error)
    vk = None
    if c.hopf is not None and round(c.hopf) != 0:
        vk = en.total / abs(c.hopf) ** 0.75
    row = FlowRow(it, en.e2, en.e4, en.total, gnorm, c.raw, c.hopf, vk)
    trace.rows.append(row)
    if on_row is not None:
        on_row(row)
    if it == 0:
        ref = c
        if cfg.mode == "hopf-class" and not c.hopf_sector:
            raise NonExactForm(f"hopf-class flow needs vanishing fluxes, got {c.raw}")
    _guard(cfg, ref, row, c, trace)
    return ref


def minimize(
    psi0: SphereField,
    cfg: FlowConfig,
    on_row: Optional[Callable[[FlowRow], None]] = None,
):
    """Descend from psi0 until the gradient is small or iterations run out.

    Emits a trace row at iteration 0, every cfg.monitor_every accepted
    iterations, and at the end; on_row sees each row as it is recorded,
    which is how the CLI streams a CSV even when a guard aborts the
    run.  Guard failures raise ChargeDrift or FluxChange with the
    partial trace attached.  Returns (final field, trace); the final
    field is psi0 itself when no step was accepted.

    Every iteration clips the step at step_ceiling of the current field,
    cfg.step0 included, and carries the accepted step over cfg.backtrack
    to the next; the line search alone cannot enforce stability (see
    step_ceiling).
    """
    trace = FlowTrace()
    g = _expect(SphereField, psi0).grid
    # a working copy on a cache line, as the kernel's buffers are: psi0's array lies where the heap put it
    v = _aligned(_cf(psi0).shape)
    v[...] = _cf(psi0)
    en, dv = _kernel(g, v)
    step, it, ref, stop = cfg.step0, 0, None, None
    while True:
        step = min(step, _ceiling(g, dv))
        grad = _gradient(g, v, dv)
        del dv
        gnorm = form_norm(g, grad)
        if gnorm <= cfg.grad_tol:
            stop = "grad_tol"
        elif it == cfg.max_iters:
            stop = "max_iters"
        # rows are taken before the search, so no candidate's arrays are alive
        if it % cfg.monitor_every == 0 or stop:
            ref = _observe(cfg, trace, on_row, ref, g, v, it, gnorm, en)
        if stop:
            break
        step, found = _search(g, v, en.total, grad, step, cfg.backtrack)
        if found is None:
            stop = "line_search_stalled"
            if trace.last().iteration != it:
                _observe(cfg, trace, on_row, ref, g, v, it, gnorm, en)
            break
        # the accepted candidate's energy and slopes carry forward; the
        # old gradient goes first to keep the peak low
        v, en, dv = found
        del found, grad
        step /= cfg.backtrack
        it += 1
    trace.stop_reason = stop
    return (_field(SphereField, g, v) if it else psi0), trace
