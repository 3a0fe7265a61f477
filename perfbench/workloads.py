"""The three benchmark workloads: relax, gauge and census.

Each workload turns the benchmark seed into inputs, runs one operation
on an input through the public fdvk API, and checks the outcome.  The
runner in run.py times `run` only; `make_input` and `check` stay
outside the timed region.  An operation either returns its output or
raises; `check(index, inp, out)` returns None for a correct output and
a one-line reason otherwise.  `samples(out, elapsed)` gives the latency
samples of one op: the op's wall time, or one time per CLI command.

Inputs depend only on (seed, op index), so a seed always gives the
same inputs, and the program sees nothing but those inputs.
"""

import contextlib
import io
import json
import shutil
import tempfile
import time

import numpy as np

import fdvk
import fdvk.cli
from fdvk import quat

# Sizes per scale.  "full" is what the benchmark measures; "smoke" is the
# reduced size the smoke test uses to exercise every code path quickly.
SCALES = {
    "full": {
        "relax_n": 48, "relax_target": 100.0,
        "gauge_n": 32,
        "census_n": 32, "census_big_n": 48,
        "warm_n": 20,
    },
    "smoke": {
        "relax_n": 24, "relax_target": 70.0,
        "gauge_n": 24,
        "census_n": 24, "census_big_n": 24,
        "warm_n": 20,
    },
}

RELAX_MAX_ITERS = 400
RELAX_ENERGY_RTOL = 1e-9
GAUGE_DRIFT_TOL = 1e-8
GAUGE_CS_TOL = 0.1
# resolution bound on the gauge workload's sphere fields, in degrees
PHI_MAX_SITE_ANGLE = 30.0
# input index of the gauge warm-up op, outside the range a run reaches
WARM_INDEX = 10**6


def _rng(seed, index):
    return np.random.default_rng([int(seed), int(index)])


def random_rotation(rng):
    """Uniform random matrix in SO(3) from the QR factorization."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class Workload:
    # a timed run stops only after a whole round of ops, so every run
    # sees the same mix of inputs
    round_ops = 1
    # set by --corrupt-reference: falsifies the reference values the
    # checks compare against, so that the gates are seen to bite
    corrupt = False

    def samples(self, out, elapsed):
        return [elapsed]

    def summary(self):
        """Lines about the run's reference values, for the report."""
        return []

    def close(self):
        pass


class Relax(Workload):
    """Guarded descent of the unit hopfion to a fixed grad_norm target.

    Op 0 relaxes the ansatz itself and becomes the run's reference.
    Every later op relaxes the same field rotated by a random global
    SO(3) matrix and shifted by a random periodic lattice translation.
    Both are exact symmetries of the discrete energy, so each op must
    take the reference's iteration count and end on its energy.
    """

    def __init__(self, seed, scale):
        self.seed = seed
        n = SCALES[scale]["relax_n"]
        self.target = SCALES[scale]["relax_target"]
        self.grid = fdvk.Grid(n)
        self.psi0 = fdvk.generate(fdvk.AnsatzSpec(kind="hopfion", charge=1), self.grid)
        q0 = fdvk.hopf_charge(self.psi0)
        # guard width of scripts/relax_ladder.py: twice the starting deficit
        self.cfg = fdvk.FlowConfig(
            mode="hopf-class",
            max_iters=RELAX_MAX_ITERS,
            grad_tol=self.target,
            charge_drift_tol=max(0.05, 2.0 * abs(q0 - 1.0)),
        )
        # warm-up: touch the flow kernels once
        fdvk.energy(self.psi0)
        fdvk.grad_energy(self.psi0)
        self.reference = None

    def summary(self):
        if self.reference is None:
            return ["reference: none, op 0 failed"]
        iters, total = self.reference
        return [f"reference: {iters} iterations to grad_norm <= {self.target}, "
                f"final energy {total!r}"]

    def make_input(self, index):
        if index == 0:
            return self.psi0
        rng = _rng(self.seed, index)
        rot = random_rotation(rng)
        shift = tuple(int(s) for s in rng.integers(0, self.grid.n, 3))
        values = np.roll(self.psi0.values @ rot.T, shift, axis=(0, 1, 2))
        return fdvk.SphereField(self.grid, values)

    def run(self, psi):
        _, trace = fdvk.minimize(psi, self.cfg)
        return trace

    def check(self, index, psi, trace):
        rows = trace.rows
        last = rows[-1]
        if last.grad_norm > self.target:
            return f"stalled at grad_norm {last.grad_norm:.4g} after {last.iteration} iterations"
        for a, b in zip(rows, rows[1:]):
            if b.total > a.total:
                return f"energy rose from {a.total!r} to {b.total!r} at iteration {b.iteration}"
        if index == 0 and self.reference is None:
            self.reference = (last.iteration + int(self.corrupt), last.total)
            return None
        if self.reference is None:
            return "no reference: op 0 failed"
        iters, total = self.reference
        if last.iteration != iters:
            return f"took {last.iteration} iterations, reference {iters}"
        if abs(last.total - total) > RELAX_ENERGY_RTOL * abs(total):
            return f"final energy {last.total!r}, reference {total!r}"
        return None


def smooth_group(grid, rng, amp=0.35):
    """exp of a smooth imaginary field: a degree-0 group field."""
    k = 2.0 * np.pi / grid.l
    x1, x2, x3 = grid.axes()
    v = np.zeros((grid.n,) * 3 + (3,))
    for _ in range(4):
        c = rng.standard_normal(3)
        ph = rng.uniform(0.0, 2.0 * np.pi, 3)
        w = rng.integers(1, 3, 3)
        bump = (np.cos(w[0] * k * x1 + ph[0])
                * np.cos(w[1] * k * x2 + ph[1])
                * np.cos(w[2] * k * x3 + ph[2]))
        v += amp * c * bump[..., None]
    return quat.exp_im(v)


def max_site_angle(values):
    """Largest angle, in degrees, between unit vectors at adjacent sites."""
    cos = min(float(np.min(np.sum(values * np.roll(values, -1, axis=ax), axis=-1)))
              for ax in range(3))
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def smooth_sphere(grid, rng):
    """A resolved smooth sphere field: a random direction plus smooth bumps.

    Where the bumps nearly cancel the offset, normalizing turns the
    field within a few sites; such draws are not resolved on the grid
    and are drawn again, so every field turns by at most
    PHI_MAX_SITE_ANGLE degrees between adjacent sites.
    """
    k = 2.0 * np.pi / grid.l
    x1, x2, x3 = grid.axes()
    while True:
        v = np.zeros((grid.n,) * 3 + (3,))
        for _ in range(3):
            c = rng.standard_normal(3)
            ph = rng.uniform(0.0, 2.0 * np.pi, 3)
            bump = np.cos(k * x1 + ph[0]) * np.cos(k * x2 + ph[1]) * np.cos(k * x3 + ph[2])
            v += 0.5 * c * bump[..., None]
        d = rng.standard_normal(3)
        v += 1.4 * d / np.linalg.norm(d)
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        if max_site_angle(v) <= PHI_MAX_SITE_ANGLE:
            return fdvk.SphereField(grid, v)


def gauge_input(grid, rng):
    """(u, phi, degree): u = ballmap(+-1) * smooth group field * circle winding."""
    deg = int(rng.choice([-1, 1]))
    ball = fdvk.generate(fdvk.AnsatzSpec(kind="ballmap", charge=deg), grid).values
    winding = fdvk.s1_winding(grid, rng.integers(-1, 2, 3)).values
    u = quat.mul(quat.mul(ball, smooth_group(grid, rng)), winding)
    u = fdvk.GroupField(grid, u / quat.norm(u)[..., None])
    return u, smooth_sphere(grid, rng), deg


class Gauge(Workload):
    """Canonical gauge fixing of flat connections, one field per op.

    Per field: connection_of(u), fix_gauge(a, phi), develop of the
    input and of the fixed connection, degree(u), chern_simons of the
    fixed connection.
    """

    def __init__(self, seed, scale):
        self.seed = seed
        self.grid = fdvk.Grid(SCALES[scale]["gauge_n"])
        # warm-up on a fixed small input, the same for every seed
        warm = fdvk.Grid(SCALES[scale]["warm_n"])
        self.run(gauge_input(warm, _rng(0, WARM_INDEX)))

    def make_input(self, index):
        return gauge_input(self.grid, _rng(self.seed, index))

    def run(self, inp):
        u, phi, _ = inp
        a = fdvk.connection_of(u)
        fixed, report = fdvk.fix_gauge(a, phi)
        return (fdvk.develop(a), fdvk.develop(fixed), report,
                fdvk.degree(u), fdvk.chern_simons(fixed))

    def check(self, index, inp, out):
        u, phi, deg = inp
        u_a, u_fixed, report, degree, cs = out
        # develop pins u(origin) = 1, so compare against u(0)* u
        expect = quat.mul(quat.conj(u.values[0, 0, 0]), u.values)
        rebuild = float(np.max(np.abs(u_a.values - expect)))
        if rebuild > GAUGE_DRIFT_TOL:
            return f"develop(connection_of(u)) misses u by {rebuild:.3e}"
        before = fdvk.conjugate_field(u_a, phi).values
        after = fdvk.conjugate_field(u_fixed, phi).values
        drift = float(np.max(np.abs(before - after)))
        if drift > GAUGE_DRIFT_TOL:
            return f"gauge fix moved the conjugated field by {drift:.3e}"
        if not all(0.0 <= c < 1.0 for c in report.harmonic_coeffs):
            return f"harmonic coefficients {report.harmonic_coeffs} outside [0, 1)"
        want = -deg if self.corrupt else deg
        if round(degree) != want:
            return f"degree {degree:.4f}, ballmap degree {want}"
        if abs(cs - degree) > GAUGE_CS_TOL:
            return f"Chern-Simons {cs:.4f} vs degree {degree:.4f}"
        return None


# One census round, before seeded choices: (kind, size key, axis).
# Tubes carry flux along their axis and no Hopf charge; hopfions and
# ballmaps sit in the zero-flux class.  A share of the fields is at the
# larger size, so the tail latency is set by the big-grid classification.
_ROUND = (
    ("constant", "census_n", 1),
    ("equator", "census_n", 1),
    ("tube", "census_n", 1),
    ("tube", "census_n", 2),
    ("tube", "census_n", 3),
    ("hopfion", "census_n", 1),
    ("hopfion", "census_n", 1),
    ("ballmap", "census_n", 1),
    ("tube", "census_big_n", 0),
    ("hopfion", "census_big_n", 1),
    ("ballmap", "census_big_n", 1),
)


def expected_record(kind, charge, axis):
    """The invariants each ansatz advertises: fluxes, Hopf charge, degree."""
    if kind == "tube":
        flux = [0, 0, 0]
        flux[axis - 1] = 1
        return {"fluxes": flux, "hopf": None, "degree": None}
    if kind == "hopfion":
        return {"fluxes": [0, 0, 0], "hopf": charge, "degree": None}
    if kind == "ballmap":
        # conjugating the constant field by a degree-d map gives Hopf charge -d
        return {"fluxes": [0, 0, 0], "hopf": -charge, "degree": charge}
    return {"fluxes": [0, 0, 0], "hopf": 0, "degree": None}


def _record_error(rec, want):
    if rec.get("fluxes") != want["fluxes"]:
        return f"fluxes {rec.get('fluxes')}, expected {want['fluxes']}"
    for key in ("hopf", "degree"):
        got = rec.get(key)
        if want[key] is None:
            if got is not None:
                return f"{key} {got}, expected none"
        elif got is None or round(got) != want[key]:
            return f"{key} {got}, expected {want[key]}"
    return None


class Census(Workload):
    """Classification through the command line: `fdvk init` then `fdvk report`.

    Each op is one field: an in-process `fdvk.cli.main(["init", ...])`
    writing a snapshot to a scratch directory, then `main(["report",
    path])` reading it back.  Each command is one latency sample.
    """

    round_ops = len(_ROUND)

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.sizes = SCALES[scale]
        self.dir = tempfile.mkdtemp(prefix="census-", dir=workdir)
        warm = ("hopfion", 1, 1, self.sizes["warm_n"])
        self.run(warm)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def make_input(self, index):
        rnd, pos = divmod(index, len(_ROUND))
        order = _rng(self.seed, rnd).permutation(len(_ROUND))
        kind, size, axis = _ROUND[order[pos]]
        rng = _rng(self.seed, (rnd + 1) * 1000 + pos)
        if kind == "tube":
            charge = int(rng.integers(-2, 3))
            if axis == 0:
                axis = int(rng.integers(1, 4))
        elif kind == "hopfion":
            charge = int(rng.choice([-2, -1, 1, 2]))
        elif kind == "ballmap":
            charge = int(rng.choice([-1, 1]))
        else:
            charge = 1
        return kind, charge, axis, self.sizes[size]

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = fdvk.cli.main(argv)
        lines = out.getvalue().strip().splitlines()
        return code, (json.loads(lines[-1]) if lines else None)

    def run(self, inp):
        """Returns ((init code, record), (report code, record), command times)."""
        kind, charge, axis, n = inp
        path = f"{self.dir}/{kind}.fdvk"
        times = []
        results = []
        for argv in (
            ["init", "--ansatz", kind, "--charge", str(charge),
             "--axis", str(axis), "--n", str(n), "-o", path],
            ["report", path],
        ):
            t0 = time.perf_counter()
            results.append(self._main(argv))
            times.append(time.perf_counter() - t0)
        return results[0], results[1], times

    def samples(self, out, elapsed):
        return out[2]

    def check(self, index, inp, out):
        kind, charge, axis, _ = inp
        want = expected_record(kind, charge, axis)
        if self.corrupt:
            want["fluxes"] = [f + 1 for f in want["fluxes"]]
        for label, (code, rec) in zip(("init", "report"), out[:2]):
            if code != 0 or rec is None:
                return f"{label} {kind} exited {code}"
            err = _record_error(rec, want)
            if err:
                return f"{label} {kind} charge {charge}: {err}"
        return None
