#!/usr/bin/env python3
"""Identity check: sha256 digests of what fdvk outputs on a fixed set of inputs.

Run it on two trees on one host, then compare:

    PYTHONPATH=src python scripts/identity.py -o parent.json          # on the parent tree
    PYTHONPATH=src python scripts/identity.py -o change.json --compare parent.json

Each entry is one output: an exit code, a command's stdout or stderr, a
snapshot's bytes, a float, an array.  Digests depend on the host: numpy
picks its SIMD loops for sin, exp and the like by CPU, so both files
must come from one machine, and neither is a golden file.  --compare
lists every entry that differs or exists on one side only, with the
largest difference relative to the largest parent magnitude for numbers
(arrays, and the numbers in a differing JSON line).  Numbers of up to
INLINE values are kept in the JSON; larger arrays go to an .npz archive
beside it, with the same stem.  The exit code is 1 when an entry
differs, else 0.

The full set (about 10 s and 260 MB of arrays on a 2-core x86-64 machine):
  - census: `fdvk init` exit code, stdout, stderr and snapshot, then
    `fdvk report` of it, for constant, equator, and tube, hopfion and
    ballmap of charge -2..2, at n = 18, 24, 33 and 48; n = 18 refuses
    some (exit 2, no snapshot);
  - minimize: the n = 24 hopf-class `fdvk minimize` run of CI (drift
    tolerance 0.2, 40 iterations, a row every 5): summary, snapshot and
    trace CSV; and each ending of `minimize` in ENDINGS (grad_tol,
    max_iters, a charge drift, a flux change): rows, then the stop
    reason and final field, or the abort message with its partial trace;
  - relax: perfbench relax ops 0-2 (n = 48, seed 1): rows, stop reason
    and final field;
  - descent: grad_energy and step_ceiling of the n = 24 and n = 48
    hopfion, and relax_step's field, step and verdict when it accepts at
    once (the n = 24 hopfion from step 1e-3), after rejected candidates
    (from step 50, so each rejection's restore sweep is in the field) and
    when it stalls (the n = 18 equator, a critical point whose gradient is
    rounding noise, from step 0.03);
  - gauge: every public gauge, invariant and connection-picture output,
    energy_conn included, on the gauge-workload inputs of seeds 1 and 3,
    ops 0-5 (n = 32), and seed 5, ops 0-1 (n = 33);
  - snapshots: bytes, reload, re-save and deepcopy of a sphere, a group
    and a connection.
--reduced runs a small subset of each in seconds, one abort among the
endings and relax_step after rejected candidates, for the test suite.
"""

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import importlib.util
import io
import json
import platform
import re
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

import fdvk
from fdvk import cli, flow

ROOT = Path(__file__).resolve().parents[1]
INLINE = 64
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _workloads():
    """perfbench/workloads.py, for the benchmark's own inputs and flow settings."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Recorder:
    """Entries by key: a sha256 digest each, with inline text or numbers, or an array in the archive."""

    def __init__(self, archive):
        self.entries = {}
        self.archive = archive

    def __call__(self, key, value):
        if key in self.entries:
            raise KeyError(f"entry {key} recorded twice")
        if dataclasses.is_dataclass(value) and hasattr(value, "grid"):  # a field: its kind, grid and values
            value = {"kind": type(value).__name__, "grid": (value.grid.n, value.grid.l), "values": value.values}
        elif dataclasses.is_dataclass(value):
            value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        if isinstance(value, dict):
            for k, v in value.items():
                self(f"{key}/{k}", v)
        elif isinstance(value, (tuple, list)) and not all(_scalar(x) for x in value):
            for i, v in enumerate(value):
                self(f"{key}/{i}", v)
        elif value is None or isinstance(value, (str, bytes)):
            data = str(value).encode() if not isinstance(value, bytes) else value
            entry = {"sha256": hashlib.sha256(data).hexdigest()}
            if isinstance(value, str) and len(value) <= 4096:
                entry["text"] = value
            self.entries[key] = entry
        else:
            a = np.ascontiguousarray(value, dtype=float)
            entry = {"sha256": hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()}
            if a.size <= INLINE:
                entry["values"] = a.ravel().tolist()
            else:
                entry["array"] = True
                with self.archive.open(key.replace("/", ":") + ".npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, a)
            self.entries[key] = entry

    def outcome(self, key, fn, *args):
        """Record fn(*args), or the exception it raised; return the result or None."""
        try:
            out = fn(*args)
        except Exception as exc:  # the refusal is an output too
            self(key, f"raised {type(exc).__name__}: {exc}")
            return None
        self(key, out)
        return out


def _scalar(x):
    return isinstance(x, (int, float, np.number)) and not isinstance(x, bool)


def _cli(argv, tmp):
    """Exit code, stdout and stderr of fdvk's main in-process, the scratch directory masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue().replace(str(tmp), "<tmp>"),
            "stderr": err.getvalue().replace(str(tmp), "<tmp>")}


def census(rec, tmp, reduced):
    # at n = 18 the charge-2 hopfion reads Q = 1.331: refused, no file
    sizes, charges = ((18,), (1, 2)) if reduced else ((18, 24, 33, 48), (-2, -1, 0, 1, 2))
    fields = [("constant", None), ("equator", None)]
    fields += [(kind, q) for kind in ("tube", "hopfion", "ballmap") for q in charges]
    for n in sizes:
        for kind, q in fields:
            key, path = f"census/n{n}/{kind}/{q}", tmp / "census.fdvk"
            argv = ["init", "--ansatz", kind, "--n", str(n), "-o", str(path)]
            rec(f"{key}/init", _cli(argv + ([] if q is None else ["--charge", str(q)]), tmp))
            if path.exists():
                rec(f"{key}/snapshot", path.read_bytes())
                rec(f"{key}/report", _cli(["report", str(path)], tmp))
                path.unlink()


def ci_minimize(rec, tmp, reduced):
    iters, every = (8, 4) if reduced else (40, 5)
    cfg = tmp / "min.cfg"
    cfg.write_text("\n".join([
        "grid.n = 24", "init.kind = hopfion", "flow.mode = hopf-class", f"flow.max_iters = {iters}",
        f"flow.monitor_every = {every}", "flow.charge_drift_tol = 0.2",
        f"out.field = {tmp / 'min.fdvk'}", f"out.trace = {tmp / 'min.csv'}", ""]))
    rec("minimize/run", _cli(["minimize", "--config", str(cfg)], tmp))
    for name in ("min.fdvk", "min.csv"):
        rec(f"minimize/{name}", (tmp / name).read_bytes())


def _decaying_tube():
    """A charge-1 tube pulled toward the constant field, at n = 24: its flux decays under the flow."""
    g = fdvk.Grid(24)
    v = 0.52 * fdvk.generate(fdvk.AnsatzSpec(kind="tube", charge=1), g).values + 0.48 * np.array([0.0, 0.0, 1.0])
    return fdvk.SphereField(g, v / np.linalg.norm(v, axis=-1, keepdims=True))


def _hopfion20():
    return fdvk.generate(fdvk.AnsatzSpec(kind="hopfion", charge=1), fdvk.Grid(20))


# name: (start field, FlowConfig keywords); the endings of tests/test_flow.py's
# AGREEMENT that need no patched kernel.  n = 20 reads the unit charge as 0.7955
ENDINGS = {
    "grad_tol-at-start": (lambda: fdvk.constant_sphere(fdvk.Grid(8)), dict(mode="flux-only")),
    "grad_tol-off-cadence": (_hopfion20, dict(max_iters=16, grad_tol=45.0, monitor_every=7, charge_drift_tol=0.3)),
    "max_iters-hopf-class": (
        _hopfion20, dict(mode="hopf-class", max_iters=12, monitor_every=5, charge_drift_tol=0.3)),
    "max_iters-flux-only": (_hopfion20, dict(mode="flux-only", max_iters=12, monitor_every=5)),
    "charge-drift": (_hopfion20, dict(max_iters=40, monitor_every=5, charge_drift_tol=0.205)),
    "charge-drift-on-last-row": (
        _hopfion20, dict(mode="hopf-class", max_iters=25, monitor_every=5, charge_drift_tol=0.205)),
    "flux-change-flux-only": (_decaying_tube, dict(mode="flux-only", max_iters=60, monitor_every=5)),
    "flux-change-map-class": (_decaying_tube, dict(max_iters=60, monitor_every=5)),
}


def endings(rec, reduced):
    for name, (start, kw) in ENDINGS.items():
        if reduced and name != "flux-change-flux-only":
            continue
        try:
            psi, trace = fdvk.minimize(start(), fdvk.FlowConfig(**kw))
            out = {"stop_reason": trace.stop_reason, "field": psi}
        except fdvk.ClassViolation as exc:
            trace, out = exc.trace, {"raised": f"{type(exc).__name__}: {exc}"}
        rec(f"minimize/{name}", {"rows": trace.rows, **out})


def relax(rec, wl, reduced):
    if reduced:
        return
    work = wl.Relax(1, "full")
    for op in range(3):
        psi, trace = fdvk.minimize(work.make_input(op), work.cfg)
        rec(f"relax/op{op}", {"rows": trace.rows, "stop_reason": trace.stop_reason, "field": psi})


def descent(rec, reduced):
    hopfion = {n: fdvk.generate(fdvk.AnsatzSpec(kind="hopfion", charge=1), fdvk.Grid(n))
               for n in ((24,) if reduced else (24, 48))}
    steps = {"after-rejections": (hopfion[24], 50.0)}
    if not reduced:
        for n, psi in hopfion.items():
            rec(f"descent/n{n}/grad_energy", fdvk.grad_energy(psi))
            rec(f"descent/n{n}/step_ceiling", flow.step_ceiling(psi))
        steps["at-once"] = (hopfion[24], 1e-3)
        steps["stalled"] = (fdvk.generate(fdvk.AnsatzSpec(kind="equator"), fdvk.Grid(18)), 0.03)
    for name, (psi, step) in steps.items():
        out, used, accepted = fdvk.relax_step(psi, fdvk.FlowConfig(), step)
        rec(f"descent/relax_step/{name}", {"field": out, "step": used, "accepted": accepted})


def gauge(rec, wl, reduced):
    cases = [(20, 1, 0)] if reduced else [(32, s, op) for s in (1, 3) for op in range(6)] + [(33, 5, 0), (33, 5, 1)]
    for n, seed, op in cases:
        g = fdvk.Grid(n)
        u, phi, _ = wl.gauge_input(g, wl._rng(seed, op))
        key = f"gauge/n{n}/s{seed}/op{op}"
        a = rec.outcome(f"{key}/connection_of", fdvk.connection_of, u)
        fixed, _ = rec.outcome(f"{key}/fix_gauge", fdvk.fix_gauge, a, phi)
        lam = fdvk.circle_field(g, 2.0 * np.pi * g.axes()[0] / g.l)
        for name, fn, args in [
            ("develop", fdvk.develop, (a,)), ("develop_fixed", fdvk.develop, (fixed,)),
            ("holonomy", fdvk.holonomy, (a,)), ("holonomy_fixed", fdvk.holonomy, (fixed,)),
            ("gauge_transform", fdvk.gauge_transform, (a, phi, lam)),
            ("degree", fdvk.degree, (u,)), ("chern_simons", fdvk.chern_simons, (a,)),
            ("chern_simons_fixed", fdvk.chern_simons, (fixed,)),
            ("fluxes", fdvk.fluxes, (phi,)), ("hopf_charge", fdvk.hopf_charge, (phi,)),
            ("homotopy_record", fdvk.homotopy_record, (phi, u)),
            ("conjugate_field", fdvk.conjugate_field, (u, phi)),
            ("energy_conn", fdvk.energy_conn, (phi, a)), ("energy_conn_fixed", fdvk.energy_conn, (phi, fixed)),
            ("covariant_derivative", fdvk.covariant_derivative, (a, phi)),
            ("decompose", fdvk.decompose, (a, phi)),
            ("plaquette_curvature", fdvk.plaquette_curvature, (a,)),
            ("flatness_residuals", fdvk.flatness_residuals, (a, phi)),
        ]:
            rec.outcome(f"{key}/{name}", fn, *args)


def snapshots(rec, tmp, wl):
    g = fdvk.Grid(12)
    rng = wl._rng(0, 0)
    u = fdvk.GroupField(g, wl.smooth_group(g, rng))
    for kind, obj in (("sphere", wl.smooth_sphere(g, rng)), ("group", u), ("connection", fdvk.connection_of(u))):
        path, again = tmp / f"{kind}.fdvk", tmp / f"{kind}-again.fdvk"
        cli.save_snapshot(path, obj)
        back = cli.load_snapshot(path)
        cli.save_snapshot(again, back)
        rec(f"snapshot/{kind}", {"bytes": path.read_bytes(), "reload": back, "resave": again.read_bytes(),
                                 "deepcopy": copy.deepcopy(back)})


def host():
    """What decides the SIMD loops numpy runs: CPU model, Python and numpy versions."""
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    return {"machine": platform.machine(), "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__}


def run(out, reduced=False):
    """Write the entries of the set to out (JSON) and its archive; return the JSON record."""
    out = Path(out)
    wl = _workloads()
    with zipfile.ZipFile(out.with_suffix(".npz"), "w") as archive, tempfile.TemporaryDirectory() as tmp:
        rec, tmp = Recorder(archive), Path(tmp)
        census(rec, tmp, reduced)
        ci_minimize(rec, tmp, reduced)
        endings(rec, reduced)
        relax(rec, wl, reduced)
        descent(rec, reduced)
        gauge(rec, wl, reduced)
        snapshots(rec, tmp, wl)
    record = {"host": host(), "reduced": reduced, "entries": rec.entries}
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    return record


def _values(path, key, entry):
    """The numbers of an entry: inline, in the archive beside path, or those of its text; None for bytes."""
    if "values" in entry:
        return np.array(entry["values"])
    if "text" in entry:
        return np.array([float(x) for x in NUMBER.findall(entry["text"])])
    if entry.get("array"):
        with np.load(Path(path).with_suffix(".npz")) as archive:
            return archive[key.replace("/", ":")].ravel()
    return None


def compare(parent_path, change_path):
    """Lines naming each entry that differs, with its largest relative difference where numbers allow."""
    parent, change = (json.loads(Path(p).read_text()) for p in (parent_path, change_path))
    lines = []
    if parent["host"] != change["host"]:
        lines.append(f"warning: hosts differ, {parent['host']} vs {change['host']}")
    old, new = parent["entries"], change["entries"]
    for key in sorted(old.keys() | new.keys()):
        if key not in new or key not in old:
            lines.append(f"{key}: only in {'parent' if key in old else 'change'}")
        elif old[key]["sha256"] != new[key]["sha256"]:
            a, b = _values(change_path, key, new[key]), _values(parent_path, key, old[key])
            same_text = NUMBER.sub("#", old[key].get("text", "")) == NUMBER.sub("#", new[key].get("text", ""))
            if a is not None and b is not None and a.shape == b.shape and a.size and same_text:
                scale = np.max(np.abs(b)) or 1.0
                lines.append(f"{key}: max relative difference {np.max(np.abs(a - b)) / scale:.3e}")
            else:
                lines.append(f"{key}: differs")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("-o", "--out", required=True, help="JSON file to write; arrays go beside it as .npz")
    p.add_argument("--compare", metavar="PARENT_JSON", help="list the entries that differ from this file")
    p.add_argument("--reduced", action="store_true", help="the small subset of the test suite")
    args = p.parse_args(argv)
    record = run(args.out, args.reduced)
    print(f"{len(record['entries'])} entries written to {args.out}")
    if args.compare is None:
        return 0
    lines = compare(args.compare, args.out)
    differ = [line for line in lines if not line.startswith("warning:")]
    print("\n".join(lines + [f"{len(differ)} of {len(record['entries'])} entries differ from {args.compare}"]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
