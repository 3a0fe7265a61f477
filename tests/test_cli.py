"""Snapshot format, run configs, subcommands, exit codes."""

import hashlib
import io
import json
import re
import struct

import numpy as np
import pytest

from fdvk import cli, fields, invariants
from fdvk.ansatz import AnsatzSpec, _ball_lift, generate
from fdvk.cli import (
    CSV_HEADER,
    MAGIC,
    load_snapshot,
    main,
    parse_run_config,
    save_snapshot,
)
from fdvk.errors import ConfigError, SnapshotError
from fdvk.fields import SphereField, conjugate_field, connection_of, constant_sphere
from fdvk.flow import FlowConfig
from fdvk.lattice import Grid

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trips_bitwise(tmp_path):
    g = Grid(20, TWO_PI)
    sphere = generate(AnsatzSpec(kind="hopfion", charge=1), g)
    group = generate(AnsatzSpec(kind="ballmap", charge=1), g)
    conn = connection_of(group)
    for i, obj in enumerate((sphere, group, conn)):
        path = tmp_path / f"f{i}.fdk"
        save_snapshot(path, obj)
        back = load_snapshot(path)
        assert type(back) is type(obj)
        assert back.grid == obj.grid
        assert np.array_equal(back.values, obj.values)
        # the payload moved into the stored component-first array, not a strided view of it
        v = fields._cf(back)
        assert v.flags.c_contiguous and fields._read_only(v)


def test_snapshot_bytes_are_the_header_and_the_payload_tobytes(tmp_path):
    # the contiguous payload array is written as it lies in memory: the file is
    # the header followed by payload.tobytes(), for each kind
    g = Grid(20, TWO_PI)
    group = generate(AnsatzSpec(kind="ballmap", charge=1), g)
    sphere = generate(AnsatzSpec(kind="hopfion", charge=1), g)
    for kind, obj in ((cli.KIND_SPHERE, sphere), (cli.KIND_GROUP, group), (cli.KIND_CONNECTION, connection_of(group))):
        v = np.asarray(obj.values, dtype=float).reshape(g.n, g.n, g.n, -1)
        payload = np.ascontiguousarray(v.transpose(2, 1, 0, 3), dtype="<f8")
        old = MAGIC + struct.pack("<BId", kind, g.n, g.l) + payload.tobytes()
        path = tmp_path / f"b{kind}.fdk"
        save_snapshot(path, obj)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == hashlib.sha256(old).hexdigest()


def test_snapshot_header_layout(tmp_path):
    g = Grid(4, 1.5)
    psi = SphereField(g, np.broadcast_to([0.0, 0.0, 1.0], (4, 4, 4, 3)).copy())
    path = tmp_path / "h.fdk"
    save_snapshot(path, psi)
    blob = path.read_bytes()
    assert blob[:5] == MAGIC
    assert blob[5] == 0  # sphere payload
    assert int.from_bytes(blob[6:10], "little") == 4
    assert np.frombuffer(blob[10:18], "<f8")[0] == 1.5
    assert len(blob) == 18 + 4**3 * 3 * 8


def test_snapshot_sites_run_x_fastest(tmp_path):
    g = Grid(4, TWO_PI)
    vals = np.zeros((4, 4, 4, 3))
    vals[..., 2] = 1.0
    vals[1, 0, 0] = (1.0, 0.0, 0.0)  # x-neighbor of the origin
    path = tmp_path / "o.fdk"
    save_snapshot(path, SphereField(g, vals))
    payload = np.frombuffer(path.read_bytes(), "<f8", offset=18).reshape(-1, 3)
    assert tuple(payload[0]) == (0.0, 0.0, 1.0)
    assert tuple(payload[1]) == (1.0, 0.0, 0.0)


def test_snapshot_rejects_corruption(tmp_path):
    g = Grid(6, TWO_PI)
    psi = SphereField(g, np.broadcast_to([1.0, 0.0, 0.0], (6, 6, 6, 3)).copy())
    path = tmp_path / "c.fdk"
    save_snapshot(path, psi)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.fdk"
    bad.write_bytes(b"NOPE1" + bytes(blob[5:]))
    with pytest.raises(SnapshotError):
        load_snapshot(bad)

    wrong_kind = bytearray(blob)
    wrong_kind[5] = 7
    bad.write_bytes(bytes(wrong_kind))
    with pytest.raises(SnapshotError):
        load_snapshot(bad)

    bad.write_bytes(bytes(blob[:-8]))
    with pytest.raises(SnapshotError):
        load_snapshot(bad)

    bad.write_bytes(bytes(blob) + b"\x00" * 8)
    with pytest.raises(SnapshotError):
        load_snapshot(bad)

    # unit constraint enforced on load
    scaled = bytearray(blob)
    scaled[18:] = np.full(6**3 * 3, 0.7, "<f8").tobytes()
    bad.write_bytes(bytes(scaled))
    with pytest.raises(SnapshotError):
        load_snapshot(bad)


def test_snapshot_refuses_a_header_the_grid_refuses(tmp_path):
    # a payload of the size the header promises, for an n or an l that Grid refuses:
    # the refusal is a SnapshotError that names the file
    bad = tmp_path / "bad.fdk"
    for n, l in ((3, TWO_PI), (6, 1e300)):
        vals = np.broadcast_to([1.0, 0.0, 0.0], (n, n, n, 3))
        bad.write_bytes(MAGIC + struct.pack("<BId", 0, n, l) + np.asarray(vals, "<f8").tobytes())
        with pytest.raises(SnapshotError, match=re.escape(str(bad))):
            load_snapshot(bad)


def test_failed_snapshot_write_keeps_the_old_file(tmp_path, monkeypatch):
    g = Grid(6, TWO_PI)
    old = SphereField(g, np.broadcast_to([1.0, 0.0, 0.0], (6, 6, 6, 3)).copy())
    path = tmp_path / "s.fdk"
    save_snapshot(path, old)
    blob = path.read_bytes()
    written = []

    class FullDisk(io.FileIO):
        def write(self, data):
            # the header goes to disk; the payload write after it fails
            if written:
                raise OSError("disk full")
            written.append(bytes(data))
            return super().write(data)

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    new = SphereField(g, np.broadcast_to([0.0, 1.0, 0.0], (6, 6, 6, 3)).copy())
    with pytest.raises(OSError, match="disk full"):
        save_snapshot(path, new)
    assert written == [blob[:18]]
    assert path.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == ["s.fdk"]


# ---------------------------------------------------------------------------
# run configuration


def test_parse_run_config_full():
    text = """
    # comment line
    grid.n = 12
    grid.l = 3.5
    init.kind = tube
    init.charge = 2
    init.axis = 3
    init.radius = 0.3

    flow.mode = flux-only
    flow.max_iters = 7
    flow.grad_tol = 1e-3
    flow.step0 = 0.01
    flow.backtrack = 0.25
    flow.monitor_every = 2
    flow.charge_drift_tol = 0.2
    out.field = /tmp/x.fdk
    out.trace = /tmp/x.csv
    """
    grid, spec, flow, out_field, out_trace = parse_run_config(text)
    assert grid == Grid(12, 3.5)
    assert spec == AnsatzSpec(kind="tube", charge=2, axis=3, radius=0.3)
    assert flow == FlowConfig(
        mode="flux-only",
        max_iters=7,
        grad_tol=1e-3,
        step0=0.01,
        backtrack=0.25,
        monitor_every=2,
        charge_drift_tol=0.2,
    )
    assert out_field == "/tmp/x.fdk" and out_trace == "/tmp/x.csv"


def test_parse_run_config_defaults():
    text = "grid.n = 8\ninit.kind = constant\nout.field = a\nout.trace = b\n"
    grid, spec, flow, _, _ = parse_run_config(text)
    assert grid == Grid(8)
    assert spec == AnsatzSpec(kind="constant")
    assert flow == FlowConfig()


@pytest.mark.parametrize(
    "text",
    [
        "grid.n = 8\ninit.kind = constant\nout.field = a\n",  # missing out.trace
        "init.kind = constant\nout.field = a\nout.trace = b\n",  # missing grid.n
        "grid.n = 8\ngrid.n = 9\ninit.kind = constant\nout.field = a\nout.trace = b\n",
        "grid.n = 8\ninit.kind = constant\nout.field = a\nout.trace = b\nwhat = 1\n",
        "grid.n = eight\ninit.kind = constant\nout.field = a\nout.trace = b\n",
        "grid.n = 8\ninit.kind = constant\nout.field = a\nout.trace = b\nflow.backtrack = nope\n",
        "grid.n 8\ninit.kind = constant\nout.field = a\nout.trace = b\n",  # no separator
    ],
)
def test_parse_run_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_run_config(text)


# ---------------------------------------------------------------------------
# subcommands, in process


def run_init(tmp_path, capsys, *extra):
    out = tmp_path / "field.fdk"
    code = main(["init", "--ansatz", "hopfion", "--n", "24", "-o", str(out), *extra])
    record = json.loads(capsys.readouterr().out)
    return code, out, record


def test_init_reports_homotopy_data(tmp_path, capsys):
    code, out, record = run_init(tmp_path, capsys)
    assert code == 0
    assert out.exists()
    assert record["fluxes"] == [0, 0, 0]
    assert record["m"] == 0
    assert record["degree"] is None
    assert record["hopf"] == pytest.approx(0.8526, abs=5e-3)


def test_init_group_record_includes_degree(tmp_path, capsys):
    out = tmp_path / "u.fdk"
    code = main(["init", "--ansatz", "ballmap", "--n", "24", "-o", str(out)])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["degree"] == pytest.approx(1.0, abs=0.05)
    assert record["degree_class"] == 1  # m = 0 keeps the rounded degree itself
    assert record["m"] == 0


@pytest.mark.parametrize("kind, charge, n", [("hopfion", 2, 18), ("hopfion", 3, 32), ("ballmap", 3, 18)])
def test_init_refuses_a_field_that_misreads_its_class(tmp_path, capsys, kind, charge, n):
    # hopfion 2 at n = 18 reads Q = 1.331, the other two have no flux class
    out = tmp_path / "bad.fdk"
    argv = ["init", "--ansatz", kind, "--charge", str(charge), "--n", str(n), "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["tube", "hopfion", "ballmap"])
def test_init_prints_the_readback_it_took(tmp_path, capsys, monkeypatch, kind):
    # generate reads the field back; init formats that reading, not a second one
    calls = []
    real = invariants._classify
    monkeypatch.setattr(invariants, "_classify", lambda *args: calls.append(None) or real(*args))
    assert main(["init", "--ansatz", kind, "--n", "20", "-o", str(tmp_path / "f.fdk")]) == 0
    assert len(calls) == 1


def test_init_refused_charge_leaves_no_file(tmp_path, capsys, refuse_charge):
    refuse_charge(1)
    out = tmp_path / "field.fdk"
    assert main(["init", "--ansatz", "hopfion", "--n", "20", "-o", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, charge", [("ballmap", 2), ("ballmap", 3), ("hopfion", 3)])
def test_init_and_report_agree_on_unclassifiable_fields(tmp_path, capsys, monkeypatch, kind, charge):
    # n = 18 is too coarse for these: ballmap 2 reads degree 1.894, the
    # other two a raw flux of 0.4294; generate refuses them, so they are
    # built from the ball lift and handed to init unread, and both
    # commands print null, not exit 2
    g = Grid(18, TWO_PI)
    spec = AnsatzSpec(kind=kind, charge=charge)
    field = _ball_lift(spec, g, azimuth_sign=1 if kind == "hopfion" else -1)
    if kind == "hopfion":
        field = conjugate_field(field, constant_sphere(g))
    monkeypatch.setattr(cli, "_generate", lambda spec, grid: (field, None))
    out = tmp_path / "f.fdk"
    assert main(["init", "--ansatz", kind, "--charge", str(charge), "--n", "18", "-o", str(out)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert main(["report", str(out)]) == 0
    rep = json.loads(capsys.readouterr().out)
    for key in ("fluxes", "raw_fluxes", "hopf", "degree"):
        assert rec[key] == rep[key], key
    assert rec["degree_class"] is None
    if kind == "ballmap":
        assert rec["degree"] == pytest.approx({2: 1.894, 3: 2.749}[charge], abs=1e-3)
    if rec["fluxes"] is None:
        assert rec["m"] is None and rec["hopf"] is None
        assert rep["hopf_reason"] == "fluxes not classifiable"


def test_report_sphere(tmp_path, capsys):
    code, out, _ = run_init(tmp_path, capsys)
    code = main(["report", str(out)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["kind"] == "sphere"
    assert rep["energy"] == pytest.approx(rep["e2"] + rep["e4"])
    assert rep["energy"] > 0
    assert rep["fluxes"] == [0, 0, 0]
    assert rep["cs"] is None and "cs_reason" in rep
    assert "degree_reason" in rep


def test_report_connection(tmp_path, capsys):
    g = Grid(20, TWO_PI)
    conn = connection_of(generate(AnsatzSpec(kind="ballmap", charge=1), g))
    path = tmp_path / "a.fdk"
    save_snapshot(path, conn)
    code = main(["report", str(path)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["kind"] == "connection"
    assert rep["cs"] == pytest.approx(0.998, abs=0.01)
    assert rep["flatness"] == pytest.approx(0.431, abs=0.01)
    assert rep["energy"] is None and rep["hopf"] is None


def test_report_missing_file_is_io_error(tmp_path):
    assert main(["report", str(tmp_path / "nope.fdk")]) == 3


def test_minimize_pipeline(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid.n = 24\n"
        "init.kind = tube\n"
        "flow.mode = flux-only\n"
        "flow.max_iters = 10\n"
        "flow.monitor_every = 5\n"
        f"out.field = {tmp_path / 'final.fdk'}\n"
        f"out.trace = {tmp_path / 'trace.csv'}\n"
    )
    code = main(["minimize", "--config", str(cfg)])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["abort"] is None
    assert record["stop_reason"] == "max_iters"
    assert record["iterations"] == 10
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # header + rows at 0, 5, 10
    first = lines[1].split(",")
    assert len(first) == 10
    assert float(first[3]) == pytest.approx(float(first[1]) + float(first[2]))
    assert float(first[5]) == pytest.approx(1.0, abs=0.05)
    # nonzero fluxes leave no Hopf charge or quotient: empty trailing cells
    assert first[8] == "" and first[9] == ""
    final = load_snapshot(tmp_path / "final.fdk")
    assert isinstance(final, SphereField)
    assert final.grid.n == 24


def test_minimize_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid.n = 8\nbogus = 1\n")
    assert main(["minimize", "--config", str(cfg)]) == 2


def test_minimize_refuses_a_group_field_start(tmp_path, capsys):
    # a ballmap generates a group field, which the descent cannot take: exit 2, no file written
    cfg = tmp_path / "ball.cfg"
    cfg.write_text(
        "grid.n = 24\n"
        "init.kind = ballmap\n"
        f"out.field = {tmp_path / 'b.fdk'}\n"
        f"out.trace = {tmp_path / 'b.csv'}\n"
    )
    assert main(["minimize", "--config", str(cfg)]) == 2
    assert "does not generate a sphere field" in capsys.readouterr().err
    assert not (tmp_path / "b.fdk").exists() and not (tmp_path / "b.csv").exists()


def test_minimize_guard_abort_exits_4(tmp_path, capsys):
    cfg = tmp_path / "drift.cfg"
    cfg.write_text(
        "grid.n = 24\n"
        "init.kind = hopfion\n"
        "flow.mode = hopf-class\n"
        "flow.max_iters = 5\n"
        f"out.field = {tmp_path / 'd.fdk'}\n"
        f"out.trace = {tmp_path / 'd.csv'}\n"
    )
    code = main(["minimize", "--config", str(cfg)])
    record = json.loads(capsys.readouterr().out)
    assert code == 4
    assert record["abort"] == "ChargeDrift"
    # the trace file still carries everything recorded before the abort
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert not (tmp_path / "d.fdk").exists()


@pytest.mark.parametrize(
    "line", ["flow.grad_tol = nan", "flow.step0 = inf", "flow.charge_drift_tol = nan", "grid.l = inf"]
)
def test_minimize_nonfinite_config_exits_2(tmp_path, line):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(
        f"grid.n = 8\ninit.kind = constant\n{line}\n"
        f"out.field = {tmp_path / 'f.fdk'}\nout.trace = {tmp_path / 't.csv'}\n"
    )
    assert main(["minimize", "--config", str(cfg)]) == 2
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("refused_row, code", [(1, 2), (2, 4)])
def test_minimize_refused_charge_exit_code(tmp_path, capsys, refuse_charge, refused_row, code):
    cfg = tmp_path / "refuse.cfg"
    cfg.write_text(
        "grid.n = 20\n"
        "init.kind = hopfion\n"
        "flow.mode = hopf-class\n"
        "flow.max_iters = 10\n"
        "flow.monitor_every = 5\n"
        "flow.charge_drift_tol = 0.3\n"
        f"out.field = {tmp_path / 'r.fdk'}\n"
        f"out.trace = {tmp_path / 'r.csv'}\n"
    )
    # the first solve is generate's readback of the hopfion, then one per row
    refuse_charge(refused_row + 1)
    assert main(["minimize", "--config", str(cfg)]) == code
    assert not (tmp_path / "r.fdk").exists()
    if code == 4:
        record = json.loads(capsys.readouterr().out)
        assert record["abort"] == "ChargeDrift" and record["iterations"] == 5
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert len(lines) == 3  # header + rows at 0 and 5
        assert lines[2].split(",")[8] == ""  # the refused charge is empty


def _run_config(tmp_path, field, *lines, n=20):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join((f"grid.n = {n}", "init.kind = tube", "flow.mode = flux-only") + lines)
        + f"\nout.field = {field}\nout.trace = {tmp_path / 't.csv'}\n"
    )
    return ["minimize", "--config", str(cfg)]


def test_minimize_stall_is_in_the_summary(tmp_path, capsys, nan_candidates):
    nan_candidates()
    assert main(_run_config(tmp_path, tmp_path / "f.fdk", "flow.max_iters = 5")) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["stop_reason"] == "line_search_stalled"
    assert record["iterations"] == 0
    assert (tmp_path / "t.csv").read_text().splitlines()[0] == CSV_HEADER


def test_missing_output_directory_fails_before_the_descent(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("descent started")

    monkeypatch.setattr(cli, "minimize", never)
    assert main(_run_config(tmp_path, tmp_path / "nope" / "f.fdk")) == 3
    assert not (tmp_path / "t.csv").exists()
    assert main(_run_config(tmp_path, tmp_path)) == 3  # a directory, not a file
    out = tmp_path / "nope" / "u.fdk"
    assert main(["init", "--ansatz", "ballmap", "--n", "8", "-o", str(out)]) == 3


@pytest.mark.parametrize("n", [5000, 100000])
def test_oversized_grid_is_refused_before_allocation(tmp_path, capsys, n):
    # both sizes need terabytes: refused by arithmetic, nothing is allocated
    assert main(_run_config(tmp_path, tmp_path / "f.fdk", n=n)) == 2
    assert "GiB" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    out = tmp_path / "h.fdk"
    assert main(["init", "--ansatz", "hopfion", "--n", str(n), "-o", str(out)]) == 2
    assert not out.exists()


def test_one_parser_serves_every_command_of_a_process(tmp_path, capsys):
    # the parser is built once per process; every call still parses afresh
    assert cli._build_parser() is cli._build_parser()
    a, b = tmp_path / "a.fdk", tmp_path / "b.fdk"
    assert main(["init", "--ansatz", "tube", "--charge", "2", "--axis", "3", "--n", "20", "-o", str(a)]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["fluxes"] == [0, 0, 1]
    assert main(["report", str(a)]) == 0
    assert json.loads(capsys.readouterr().out)["raw_fluxes"] == first["raw_fluxes"]
    with pytest.raises(SystemExit) as usage:
        main(["init", "--ansatz", "tube", "--n", "20"])  # no -o
    assert usage.value.code == 2
    capsys.readouterr()
    # no option of the first init carries over: the default axis is 1
    assert main(["init", "--ansatz", "tube", "--n", "20", "-o", str(b)]) == 0
    assert json.loads(capsys.readouterr().out)["fluxes"] == [1, 0, 0]


def test_commands_are_looked_up_when_called(tmp_path, capsys, monkeypatch):
    # a cmd_<name> replaced after the parser is built is the one that runs
    cli._build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append(args.field) or 0)
    assert main(["report", str(tmp_path / "x.fdk")]) == 0
    assert seen == [str(tmp_path / "x.fdk")]
