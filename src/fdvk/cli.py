"""Command-line front end.

Three subcommands: `init` generates an ansatz and writes it as a
snapshot, `report` prints the invariants of a snapshot, `minimize`
runs the descent described by a config file.  JSON goes to standard
output, human-readable messages to standard error.  Exit codes: 0
success, 2 usage or parse failure, 3 I/O failure, 4 homotopy-class
violation during flow.

A snapshot is one little-endian header struct, _HEADER (magic, kind
byte, n, l), the only code that packs or unpacks it, then the field's
float64 values; the kind byte names the field class, and the class's
SHAPE sizes and shapes the payload.  Loading moves the x-fastest payload
once into the C-contiguous component-first array the field stores, so
validation, classification and the report's energy read contiguous
memory and no second copy is made.
"""

import argparse
import contextlib
import errno
import functools
import json
import os
import struct
import sys

import numpy as np

from .ansatz import KINDS, AnsatzSpec, _generate, generate
from .errors import ChargeDrift, ConfigError, FdvkError, FluxChange, NonExactForm, SnapshotError
from .fields import Connection, GroupField, SphereField, _cf, _field, _sweep, plaquette_curvature
from .flow import FlowConfig, minimize
from .invariants import _read, chern_simons
from .lattice import Grid, form_norm

MAGIC = b"FDVK1"
# the snapshot header: magic, kind byte, n, l; little-endian, 18 bytes
_HEADER = struct.Struct("<5sBId")
# kind byte of the snapshot header
KIND_SPHERE, KIND_GROUP, KIND_CONNECTION = 0, 1, 2
# per kind byte: the field class, which declares its per-site SHAPE, and its name in a report
_KINDS = {
    KIND_SPHERE: (SphereField, "sphere"),
    KIND_GROUP: (GroupField, "group"),
    KIND_CONNECTION: (Connection, "connection"),
}

CSV_HEADER = "iter,e2,e4,energy,grad_norm,flux1,flux2,flux3,hopf,vk_ratio"

# float64 arrays of n^3 x 3 values budgeted per run when refusing grids
# that cannot fit: minimize and init/report of every ansatz peak at about
# 13 (tracemalloc, n = 32), numpy temporaries included
WORKING_FIELDS = 24


def _kind_of(obj):
    for kind, (cls, _) in _KINDS.items():
        if isinstance(obj, cls):
            return kind
    raise TypeError(f"cannot snapshot {type(obj).__name__}")


@contextlib.contextmanager
def _replacing(path, mode):
    """A new file .<name>.<hex>.tmp beside path, opened with mode ("x" or "xb"), renamed over
    path when the block ends and removed when it raises, so a failed or interrupted write
    leaves whatever was at path as it was."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, mode)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_snapshot(path, obj):
    """Write a field to the fixed binary layout: _HEADER, then little-endian float64 values,
    sites ordered x-fastest, each site's SHAPE values contiguous (connections store the
    three direction vectors in order); through _replacing."""
    kind = _kind_of(obj)
    g = obj.grid
    v = _cf(obj).reshape(-1, g.n, g.n, g.n)
    payload = np.ascontiguousarray(v.transpose(3, 2, 1, 0), dtype="<f8")
    with _replacing(path, "xb") as fh:
        fh.write(_HEADER.pack(MAGIC, kind, g.n, g.l))
        fh.write(payload)


def load_snapshot(path):
    """Read a snapshot back into the matching field type.

    SnapshotError for a header or payload that breaks the layout, and for
    values the field constructor refuses, so a corrupted payload fails
    here rather than downstream.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, kind, n, l = _HEADER.unpack_from(blob) if len(blob) >= _HEADER.size else (None,) * 4
    if magic != MAGIC:
        raise SnapshotError(f"{path}: not a field snapshot")
    if kind not in _KINDS:
        raise SnapshotError(f"{path}: unknown kind byte {kind}")
    cls = _KINDS[kind][0]
    expect = n**3 * int(np.prod(cls.SHAPE)) * 8
    if len(blob) - _HEADER.size != expect:
        raise SnapshotError(f"{path}: payload is {len(blob) - _HEADER.size} bytes, expected {expect}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    v = np.ascontiguousarray(np.moveaxis(flat.reshape((n, n, n) + cls.SHAPE), (0, 1, 2), (-1, -2, -3)))
    try:
        # Grid's own rules refuse the header: n below 4, l not finite and positive, or out of range
        return _field(cls, Grid(n, l), v)
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


def _class_block(r):
    """Fluxes, charge and degree of an invariants reading, None where undefined.

    A charge the potential solve refuses is bad input, not a missing reading.
    """
    if r.hopf_error is not None:
        raise NonExactForm(r.hopf_error)
    return {
        "fluxes": None if r.flux_error is not None else list(r.rounded),
        "raw_fluxes": list(r.raw),
        "m": r.m,
        "degree": r.degree,
        "degree_class": r.degree_class,
        "hopf": r.hopf,
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
    # generate's readback, formatted before the write, so a refused field or
    # record leaves no snapshot
    field, r = _generate(spec, grid)
    line = json.dumps(_class_block(r), allow_nan=False)
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
        r = _read(obj)
        if r.degree is None:
            report["degree_reason"] = "no framing map in a sphere snapshot"
        en = _sweep(obj.grid, r.v, keep=False)[0]
        report["e2"], report["e4"], report["energy"] = en.e2, en.e4, en.total
        block = _class_block(r)
        for key in ("fluxes", "raw_fluxes", "hopf", "degree"):
            report[key] = block[key]
        if r.flux_error is not None:
            report["fluxes_reason"] = r.flux_error
        if r.hopf is None:
            report["hopf_reason"] = r.hopf_reason
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
    _check_writable(out_trace)
    psi0 = generate(spec, grid)
    if not isinstance(psi0, SphereField):
        raise ConfigError(f"init.kind {spec.kind!r} does not generate a sphere field")
    abort = None
    # the trace replaces out_trace once the descent ends or a guard aborts, not before; a
    # finished descent's field is renamed first, so a failed write leaves both old files
    with _replacing(out_trace, "x") as trace_fh:
        trace_fh.write(CSV_HEADER + "\n")
        try:
            psi, trace = minimize(psi0, cfg, on_row=lambda row: trace_fh.write(_csv_line(row)))
        except (ChargeDrift, FluxChange) as exc:
            abort = exc
        else:
            save_snapshot(out_field, psi)
    if abort is not None:
        # a guard trips only after its row is recorded: the trace has one
        last = abort.trace.last()
        _json_line({"abort": type(abort).__name__, "message": str(abort),
                    "iterations": last.iteration, "energy": last.total})
        print(f"aborted: {abort}", file=sys.stderr)
        return 4
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


@functools.cache  # built once per process
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

    p_report = sub.add_parser("report", help="print invariants of a snapshot")
    p_report.add_argument("field")

    p_min = sub.add_parser("minimize", help="run the descent of a config file")
    p_min.add_argument("--config", required=True)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # looked up per call, so a replaced cmd_<name> is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FdvkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
