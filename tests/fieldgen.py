"""Deterministic smooth test fields, and the benchmark's own input generators.

Convergence checks need the same continuum field sampled at several
resolutions, so generators are trig polynomials with frozen random
coefficients: evaluate at any grid, refine at will.
"""

import importlib.util
from pathlib import Path

import numpy as np

from fdvk.fields import GroupField, SphereField


class TrigPoly:
    """Real trig polynomial R^3 -> R^C with modes |m|_inf <= mmax."""

    def __init__(self, seed, comps, mmax=2, amp=1.0):
        rng = np.random.default_rng(seed)
        modes = []
        for mx in range(-mmax, mmax + 1):
            for my in range(-mmax, mmax + 1):
                for mz in range(-mmax, mmax + 1):
                    if (mx, my, mz) == (0, 0, 0):
                        continue
                    modes.append((mx, my, mz))
        modes = np.array(modes)
        weight = np.sum(modes**2, axis=1) ** -1.5
        # scale so each output component has pointwise std == amp
        weight *= amp / np.sqrt(0.5 * np.sum(weight**2))
        coeff = rng.normal(size=(len(modes), comps)) * weight[:, None]
        phase = rng.uniform(0, 2 * np.pi, size=(len(modes), comps))
        # complex amplitudes c e^{ip} on the full mode cube, zero at the origin
        side = 2 * mmax + 1
        self.cube = np.zeros((side, side, side, comps), dtype=complex)
        mx, my, mz = (modes + mmax).T
        self.cube[mx, my, mz] = coeff * np.exp(1j * phase)
        self.mmax = mmax

    def sample(self, grid):
        # c cos(k.x + p) = Re(c e^{ip} e^{i kx x} e^{i ky y} e^{i kz z}):
        # contract the mode cube one axis at a time, so no temporary holds
        # one grid-sized array per mode
        m = np.arange(-self.mmax, self.mmax + 1)
        c = np.arange(grid.n) * grid.h
        wave = np.exp(2j * np.pi / grid.l * np.outer(m, c))
        t = np.einsum("cz,abcq->abzq", wave, self.cube)
        t = np.einsum("by,abzq->ayzq", wave, t)
        return np.einsum("ax,ayzq->xyzq", wave, t).real.copy()


def smooth_sphere_field(grid, seed, amp=0.25):
    """Unit imaginary field biased toward i so normalization is safe."""
    raw = TrigPoly(seed, 3, amp=amp).sample(grid)
    raw[..., 0] += 1.0
    return SphereField(grid, raw / np.linalg.norm(raw, axis=-1, keepdims=True))


def smooth_group_field(grid, seed, amp=0.25):
    """Unit quaternion field biased toward 1."""
    raw = TrigPoly(seed, 4, amp=amp).sample(grid)
    raw[..., 0] += 1.0
    return GroupField(grid, raw / np.linalg.norm(raw, axis=-1, keepdims=True))


def benchmark_workloads():
    """perfbench/workloads.py, loaded read-only from its file, for the benchmark's inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
