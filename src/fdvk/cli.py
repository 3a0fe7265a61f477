"""Command-line front end.

Three subcommands: `init` generates an ansatz and writes it as a
snapshot, `report` prints the invariants of a snapshot, `minimize`
runs the descent described by a config file.  JSON goes to standard
output, human-readable messages to standard error.  Exit codes: 0
success, 2 usage or parse failure, 3 I/O failure, 4 homotopy-class
violation during flow.
"""

import argparse
import errno
import json
import os
import secrets
import struct
import sys

import numpy as np

from .ansatz import KINDS, AnsatzSpec, _generate, generate
from .errors import ChargeDrift, ConfigError, FdvkError, FluxChange, NonExactForm, SnapshotError
from .fields import Connection, GroupField, SphereField, _sweep, constant_sphere, plaquette_curvature
from .flow import FlowConfig, minimize
from .invariants import _read, chern_simons
from .lattice import Grid, form_norm

MAGIC = b"FDVK1"
# kind byte of the snapshot header
KIND_SPHERE, KIND_GROUP, KIND_CONNECTION = 0, 1, 2
# per kind byte: the field class, its name in a report, its per-site value shape
_KINDS = {
    KIND_SPHERE: (SphereField, "sphere", (3,)),
    KIND_GROUP: (GroupField, "group", (4,)),
    KIND_CONNECTION: (Connection, "connection", (3, 3)),
}
_COMPS = {kind: int(np.prod(shape)) for kind, (_, _, shape) in _KINDS.items()}

CSV_HEADER = "iter,e2,e4,energy,grad_norm,flux1,flux2,flux3,hopf,vk_ratio"

# float64 arrays of n^3 x 3 values budgeted per run when refusing grids
# that cannot fit: minimize and init/report of every ansatz peak at about
# 13 (tracemalloc, n = 32), numpy temporaries included
WORKING_FIELDS = 24


def _kind_of(obj):
    for kind, (cls, _, _) in _KINDS.items():
        if isinstance(obj, cls):
            return kind
    raise TypeError(f"cannot snapshot {type(obj).__name__}")


def save_snapshot(path, obj):
    """Write a field to the fixed binary layout.

    Header: the 5 magic bytes, one kind byte, n as little-endian
    uint32, l as little-endian float64.  Payload: little-endian
    float64, sites ordered x-fastest, components contiguous per site
    (connections store the three direction vectors in order).
    """
    kind = _kind_of(obj)
    g = obj.grid
    v = np.asarray(obj.values, dtype=float).reshape(g.n, g.n, g.n, _COMPS[kind])
    payload = np.ascontiguousarray(v.transpose(2, 1, 0, 3), dtype="<f8")
    # written beside the target and renamed over it, so a failed write
    # never leaves a truncated snapshot under the target's name
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<B", kind))
            fh.write(struct.pack("<I", g.n))
            fh.write(struct.pack("<d", g.l))
            fh.write(payload.tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_snapshot(path):
    """Read a snapshot back into the matching field type.

    The constructors re-validate the unit constraints, so a corrupted
    payload fails here rather than downstream.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 18 or blob[:5] != MAGIC:
        raise SnapshotError(f"{path}: not a field snapshot")
    kind = blob[5]
    if kind not in _COMPS:
        raise SnapshotError(f"{path}: unknown kind byte {kind}")
    (n,) = struct.unpack("<I", blob[6:10])
    (l,) = struct.unpack("<d", blob[10:18])
    if n == 0 or not np.isfinite(l) or l <= 0:
        raise SnapshotError(f"{path}: bad header (n = {n}, l = {l})")
    comps = _COMPS[kind]
    expect = 18 + n**3 * comps * 8
    if len(blob) != expect:
        raise SnapshotError(
            f"{path}: payload is {len(blob) - 18} bytes, expected {expect - 18}"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=18)
    v = flat.reshape(n, n, n, comps).transpose(2, 1, 0, 3)
    grid = Grid(n, l)
    cls, _, shape = _KINDS[kind]
    try:
        return cls(grid, v.reshape((n, n, n) + shape))
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc


# RunConfig keys and their conversions; a key sets the field of its
# section's Grid, AnsatzSpec or FlowConfig, and an absent key leaves
# that field's default
_CONFIG_KEYS = {
    "grid.n": int, "grid.l": float,
    "init.kind": str, "init.charge": int, "init.axis": int, "init.radius": float,
    "flow.mode": str, "flow.max_iters": int, "flow.grad_tol": float, "flow.step0": float,
    "flow.backtrack": float, "flow.monitor_every": int, "flow.charge_drift_tol": float,
    "out.field": str, "out.trace": str,
}
_REQUIRED = ("grid.n", "init.kind", "out.field", "out.trace")


def parse_run_config(text):
    """Parse `key = value` lines into (Grid, AnsatzSpec, FlowConfig, out paths).

    `#` starts a comment; unknown and duplicate keys are errors, as are
    missing grid.n, init.kind, out.field or out.trace.
    """
    sections = {"grid": {}, "init": {}, "flow": {}, "out": {}}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        section, name = key.split(".")
        try:
            sections[section][name] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
    for key in _REQUIRED:
        if key not in seen:
            raise ConfigError(f"missing required key {key!r}")
    out = sections["out"]
    return (
        Grid(**sections["grid"]),
        AnsatzSpec(**sections["init"]),
        FlowConfig(**sections["flow"]),
        out["field"],
        out["trace"],
    )


def _json_line(obj):
    # NaN and Infinity are not JSON: a record holding them raises ValueError
    print(json.dumps(obj, allow_nan=False), flush=True)


def _require_finite(path, report):
    """Refuse a report whose invariants overflowed: the snapshot is out of range."""
    for key, val in report.items():
        for x in val if isinstance(val, list) else [val]:
            if isinstance(x, float) and not np.isfinite(x):
                raise SnapshotError(f"{path}: {key} evaluates to {x!r}, not a finite number")


def _reading(obj):
    """The invariants reading of a sphere field, or of the constant field framed by a group field."""
    if isinstance(obj, GroupField):
        return _read(constant_sphere(obj.grid), obj)
    return _read(obj)


def _class_block(r):
    """Fluxes, charge and degree of an invariants reading, None where undefined.

    A charge the potential solve refuses is bad input, not a missing reading.
    """
    c = r.c
    if c.hopf_error is not None:
        raise NonExactForm(c.hopf_error)
    return {
        "fluxes": None if c.flux_error is not None else list(c.rounded),
        "raw_fluxes": list(c.raw),
        "m": r.m,
        "degree": r.degree,
        "degree_class": r.degree_class,
        "hopf": c.hopf,
    }


def _check_grid_fits(n):
    """Refuse, before anything is allocated, a grid too large for memory."""
    need = WORKING_FIELDS * 3 * 8 * n**3
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ConfigError(
            f"a grid of n = {n} needs about {need / 2**30:.3g} GiB of field arrays, "
            f"more than the {have / 2**30:.3g} GiB of memory here"
        )


def _check_writable(path):
    """Fail with an I/O error now, not after the work, if path cannot be written."""
    head = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(head):
        raise FileNotFoundError(errno.ENOENT, "output directory does not exist", head)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)


def _given(**kwargs):
    """The options set on the command line, so the rest keep their defaults."""
    return {k: v for k, v in kwargs.items() if v is not None}


def cmd_init(args):
    spec = AnsatzSpec(
        kind=args.ansatz, **_given(charge=args.charge, axis=args.axis, radius=args.radius)
    )
    grid = Grid(args.n, **_given(l=args.l))
    _check_grid_fits(grid.n)
    _check_writable(args.out)
    # generate's readback (a constant or equator field is read here), formatted
    # before the write, so a refused field or record leaves no snapshot
    field, r = _generate(spec, grid)
    line = json.dumps(_class_block(_reading(field) if r is None else r), allow_nan=False)
    save_snapshot(args.out, field)
    print(line, flush=True)
    print(f"wrote {args.ansatz} snapshot to {args.out}", file=sys.stderr)
    return 0


def cmd_report(args):
    obj = load_snapshot(args.field)
    report = {"kind": _KINDS[_kind_of(obj)][1]}
    report.update(dict.fromkeys(
        ("e2", "e4", "energy", "fluxes", "raw_fluxes", "hopf", "degree", "cs", "flatness")
    ))
    if isinstance(obj, Connection):
        report["cs"] = chern_simons(obj)
        report["flatness"] = form_norm(obj.grid, plaquette_curvature(obj))
        report["reason"] = "map invariants undefined for a bare connection"
    else:
        r = _reading(obj)
        if r.degree is None:
            report["degree_reason"] = "no framing map in a sphere snapshot"
        en = _sweep(obj.grid, r.v, keep=False)[0]
        report["e2"], report["e4"], report["energy"] = en.e2, en.e4, en.total
        block = _class_block(r)
        for key in ("fluxes", "raw_fluxes", "hopf", "degree"):
            report[key] = block[key]
        if r.c.flux_error is not None:
            report["fluxes_reason"] = r.c.flux_error
        if r.c.hopf is None:
            report["hopf_reason"] = r.c.hopf_reason
        report["cs_reason"] = "not a connection snapshot"
        report["flatness_reason"] = "not a connection snapshot"
    _require_finite(args.field, report)
    _json_line(report)
    return 0


def _csv_line(row):
    """A trace row as one CSV line: its values in CSV_HEADER order, None as an empty cell."""
    it, *values = (row.iteration, row.e2, row.e4, row.total, row.grad_norm,
                   *row.raw_fluxes, row.hopf_charge, row.vk_ratio)
    return ",".join([str(it)] + ["" if v is None else repr(float(v)) for v in values]) + "\n"


def cmd_minimize(args):
    with open(args.config, "r") as fh:
        text = fh.read()
    grid, spec, cfg, out_field, out_trace = parse_run_config(text)
    _check_grid_fits(grid.n)
    _check_writable(out_field)
    psi0 = generate(spec, grid)
    if not isinstance(psi0, SphereField):
        raise ConfigError(f"init.kind {spec.kind!r} does not generate a sphere field")
    abort = None
    with open(out_trace, "w") as trace_fh:
        trace_fh.write(CSV_HEADER + "\n")
        try:
            psi, trace = minimize(psi0, cfg, on_row=lambda row: trace_fh.write(_csv_line(row)))
        except (ChargeDrift, FluxChange) as exc:
            abort = exc
    if abort is not None:
        # a guard trips only after its row is recorded: the trace has one
        last = abort.trace.last()
        _json_line({"abort": type(abort).__name__, "message": str(abort),
                    "iterations": last.iteration, "energy": last.total})
        print(f"aborted: {abort}", file=sys.stderr)
        return 4
    save_snapshot(out_field, psi)
    last = trace.last()
    _json_line({"abort": None, "stop_reason": trace.stop_reason, "iterations": last.iteration,
                "energy": last.total, "grad_norm": last.grad_norm})
    print(
        f"minimized {spec.kind} for {last.iteration} iterations "
        f"(stopped on {trace.stop_reason}), "
        f"energy {last.total:.6f}, field in {out_field}, trace in {out_trace}",
        file=sys.stderr,
    )
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fdvk",
        description="Lattice laboratory for sphere-valued maps on the 3-torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="generate an ansatz snapshot")
    p_init.add_argument("--ansatz", required=True, choices=KINDS)
    p_init.add_argument("--charge", type=int)
    p_init.add_argument("--axis", type=int, choices=(1, 2, 3))
    p_init.add_argument("--radius", type=float)
    p_init.add_argument("--n", type=int, required=True)
    p_init.add_argument("--l", type=float)
    p_init.add_argument("-o", "--out", required=True)
    p_init.set_defaults(func=cmd_init)

    p_report = sub.add_parser("report", help="print invariants of a snapshot")
    p_report.add_argument("field")
    p_report.set_defaults(func=cmd_report)

    p_min = sub.add_parser("minimize", help="run the descent of a config file")
    p_min.add_argument("--config", required=True)
    p_min.set_defaults(func=cmd_minimize)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChargeDrift, FluxChange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FdvkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
