"""Constrained energy descent.

Plain projected gradient flow on sphere-valued maps: the exact
gradient of the discrete energy, a pointwise tangent projection, and a
backtracking line search that never accepts an energy increase.  The
homotopy class is not projected onto; it is monitored, and the flow
aborts with ChargeDrift or FluxChange the moment the recorded
invariants leave their starting values.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import ChargeDrift, FluxChange, NonExactForm
from .fields import SphereField, energy
from .invariants import _classify
from .lattice import diff, form_norm

MODES = ("map-class", "hopf-class", "flux-only")


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
        for name in ("max_iters", "grad_tol", "step0", "backtrack",
                     "monitor_every", "charge_drift_tol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
    within FLUX_ROUND_TOL of 0) and when solve_alpha accepts the form;
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
    rows: List[FlowRow] = field(default_factory=list)

    def last(self) -> FlowRow:
        return self.rows[-1]


def grad_energy(psi: SphereField) -> np.ndarray:
    """Exact gradient of the discrete energy, tangent to the sphere.

    With A_mu the central difference, the Dirichlet part contributes
    -2 sum_mu A_mu^2 psi (central differences are antisymmetric, so the
    stencil is its own adjoint up to sign) and the quartic part
    contributes -2 sum_{mu<nu} [A_mu(A_nu psi x w) + A_nu(w x A_mu psi)]
    with w = A_mu psi x A_nu psi.  The pointwise projection g - (g.psi)psi
    makes it the gradient of the constrained functional.
    """
    g = psi.grid
    v = psi.values
    dv = [diff(g, v, mu) for mu in (1, 2, 3)]
    grad = np.zeros_like(v)
    for mu in range(3):
        grad -= 2.0 * diff(g, dv[mu], mu + 1)
    for mu in range(3):
        for nu in range(mu + 1, 3):
            w = np.cross(dv[mu], dv[nu])
            grad -= 2.0 * diff(g, np.cross(dv[nu], w), mu + 1)
            grad -= 2.0 * diff(g, np.cross(w, dv[mu]), nu + 1)
    grad -= np.sum(grad * v, axis=-1, keepdims=True) * v
    return grad


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
    g = psi.grid
    g2 = 0.0
    for mu in (1, 2, 3):
        dv = diff(g, psi.values, mu)
        g2 = max(g2, float(np.max(np.sum(dv * dv, axis=-1))))
    return g.h ** 2 / (3.0 * (1.0 + 4.0 * g2))


def relax_step(psi: SphereField, cfg: FlowConfig, step: float, _grad=None):
    """One backtracking descent step.

    Renormalizes psi - step*grad pointwise and shrinks the step by
    cfg.backtrack until the energy does not increase.  When the step
    has shrunk so far that it cannot change the field at double
    precision, gives up with accepted = False.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    grad = grad_energy(psi) if _grad is None else _grad
    e0 = energy(psi).total
    gmax = float(np.max(np.abs(grad)))
    if gmax == 0.0:
        return psi, step, True
    while step * gmax > 1e-16:
        cand = psi.values - step * grad
        norms = np.sqrt(np.sum(cand * cand, axis=-1, keepdims=True))
        cand = SphereField(psi.grid, cand / norms)
        if energy(cand).total <= e0:
            return cand, step, True
        step *= cfg.backtrack
    return psi, step, False


def _monitor(psi, iteration, gnorm):
    en = energy(psi)
    c = _classify(psi)
    # a refused charge is bad input at the start; later it is an undefined
    # charge, which the drift guard reports with the partial trace
    if c.hopf_error is not None and iteration == 0:
        raise NonExactForm(c.hopf_error)
    vk = None
    if c.hopf is not None and round(c.hopf) != 0:
        vk = en.total / abs(c.hopf) ** 0.75
    return FlowRow(
        iteration=iteration,
        e2=en.e2,
        e4=en.e4,
        total=en.total,
        grad_norm=gnorm,
        raw_fluxes=c.raw,
        hopf_charge=c.hopf,
        vk_ratio=vk,
    ), c


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
    partial trace attached.

    The step schedule is capped at step_ceiling(psi), recomputed as
    the field evolves.  The line search alone cannot enforce
    stability: the stencil decouples the two lattice parity classes,
    so above the ceiling there are growing modes the energy does not
    see until the field is checkerboarded beyond repair.  cfg.step0
    above the ceiling is clipped on entry.
    """
    trace = FlowTrace()

    def record(row):
        trace.rows.append(row)
        if on_row is not None:
            on_row(row)

    psi = psi0
    grad = grad_energy(psi)
    gnorm = form_norm(psi.grid, grad)
    row, start = _monitor(psi, 0, gnorm)
    record(row)
    flux_ref = start.rounded

    if cfg.mode == "hopf-class" and not start.hopf_sector:
        raise NonExactForm(f"hopf-class flow needs vanishing fluxes, got {start.raw}")
    charge_ref = None
    if row.hopf_charge is not None:
        charge_ref = round(row.hopf_charge)

    def check_guards(row, c):
        if cfg.mode in ("flux-only", "map-class") and c.rounded != flux_ref:
            raise FluxChange(
                f"rounded fluxes moved from {flux_ref} to {c.rounded} "
                f"at iteration {row.iteration}",
                trace=trace,
            )
        if cfg.mode in ("hopf-class", "map-class") and charge_ref is not None:
            if row.hopf_charge is None:
                raise ChargeDrift(
                    f"Hopf charge became undefined at iteration {row.iteration}",
                    trace=trace,
                )
            if abs(row.hopf_charge - charge_ref) > cfg.charge_drift_tol:
                raise ChargeDrift(
                    f"Hopf charge {row.hopf_charge:.4f} drifted from "
                    f"{charge_ref} at iteration {row.iteration}",
                    trace=trace,
                )

    check_guards(row, start)

    step = min(cfg.step0, step_ceiling(psi))
    it = 0
    while it < cfg.max_iters and gnorm > cfg.grad_tol:
        psi_next, used, accepted = relax_step(psi, cfg, step, _grad=grad)
        if not accepted:
            break
        psi = psi_next
        step = min(used / cfg.backtrack, step_ceiling(psi))
        it += 1
        grad = grad_energy(psi)
        gnorm = form_norm(psi.grid, grad)
        if it % cfg.monitor_every == 0 or it == cfg.max_iters or gnorm <= cfg.grad_tol:
            row, c = _monitor(psi, it, gnorm)
            record(row)
            check_guards(row, c)
    if trace.last().iteration != it:
        row, c = _monitor(psi, it, gnorm)
        record(row)
        check_guards(row, c)
    return psi, trace
