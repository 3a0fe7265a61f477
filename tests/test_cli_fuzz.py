"""Command-line robustness: out-of-range snapshots and configs, and a fuzz of main.

Whatever the bytes of a snapshot or the text of a run config, main
returns one of the documented exit codes 0, 2, 3, 4, lets no exception
out, and prints only strict JSON (no NaN or Infinity) to stdout.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdvk import cli
from fdvk.ansatz import KINDS, AnsatzSpec, generate
from fdvk.cli import MAGIC, main
from fdvk.flow import MODES
from fdvk.lattice import Grid

TWO_PI = 2.0 * np.pi
EXIT_CODES = {0, 2, 3, 4}


def snapshot_bytes(kind, n, l, values, magic=MAGIC):
    """The snapshot layout of cli.save_snapshot, for any header and payload."""
    head = magic + struct.pack("<B", kind) + struct.pack("<I", n) + struct.pack("<d", l)
    return head + np.asarray(values, dtype="<f8").tobytes()


def _reject_constant(name):
    raise ValueError(f"stdout holds the non-JSON constant {name}")


def run_main(argv):
    """(exit code, stdout records, stderr) of main(argv), stdout parsed strictly."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with np.errstate(all="ignore"):
            code = main(argv)
    records = [json.loads(line, parse_constant=_reject_constant) for line in out.getvalue().splitlines()]
    return code, records, err.getvalue()


def _hopfion_values():
    return generate(AnsatzSpec(kind="hopfion"), Grid(18)).values


# ---------------------------------------------------------------------------
# regressions: a period out of range, invariants that overflow


@pytest.mark.parametrize("l", [1e300, 1e120, 1e-120, 1e79, 3e-76])
def test_report_refuses_a_period_out_of_range(tmp_path, l):
    path = tmp_path / "far.fdk"
    path.write_bytes(snapshot_bytes(0, 18, l, _hopfion_values().transpose(2, 1, 0, 3)))
    code, records, err = run_main(["report", str(path)])
    assert code == 2 and records == []
    assert "period" in err


def test_minimize_refuses_a_period_out_of_range(tmp_path):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(
        "grid.n = 24\ngrid.l = 1e200\ninit.kind = hopfion\n"
        f"out.field = {tmp_path / 'f.fdk'}\nout.trace = {tmp_path / 't.csv'}\n"
    )
    code, records, err = run_main(["minimize", "--config", str(cfg)])
    assert code == 2 and records == []
    assert "period" in err
    assert not (tmp_path / "t.csv").exists()


def test_report_refuses_invariants_that_overflow(tmp_path):
    path = tmp_path / "huge.fdk"
    path.write_bytes(snapshot_bytes(2, 4, TWO_PI, np.full(4**3 * 9, 1e200)))
    code, records, err = run_main(["report", str(path)])
    assert code == 2 and records == []
    assert "cs" in err and "finite" in err


def test_json_records_are_strict():
    with pytest.raises(ValueError):
        cli._json_line({"cs": float("nan")})


# ---------------------------------------------------------------------------
# fuzz


def mostly(sane, wild):
    """Draws from sane about three times in four, so most inputs get past the parser."""
    return st.sampled_from((sane, sane, sane, wild)).flatmap(lambda s: s)


PAYLOADS = st.tuples(
    st.sampled_from(["uniform", "unit", "scaled", "const", "normal"]),
    st.floats(),
    st.integers(0, 2**32 - 1),
    mostly(st.just(0), st.integers(0, 17)),
)


def _payload(kind, n, payload):
    mode, value, seed, cut = payload
    # sized from the class's per-site shape; an unknown kind byte gets three values a site
    comps = int(np.prod(cli._KINDS[kind][0].SHAPE)) if kind in cli._KINDS else 3
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n**3, comps))
    if mode == "uniform":
        # one value at every site: a field smooth enough to classify
        v[:] = v[:1]
    if mode in ("uniform", "unit", "scaled") and kind != cli.KIND_CONNECTION:
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
    if mode == "scaled":
        with np.errstate(all="ignore"):
            v = v * value
    elif mode == "const":
        v = np.full(v.shape, value)
    blob = np.asarray(v, dtype="<f8").tobytes()
    return blob[:len(blob) - cut]


@settings(deadline=None)
@given(
    magic=mostly(st.just(MAGIC), st.binary(max_size=6)),
    kind=mostly(st.integers(0, 2), st.integers(0, 255)),
    n=mostly(st.integers(4, 6), st.integers(0, 6)),
    l=mostly(st.floats(0.5, 20.0), st.floats()),
    payload=PAYLOADS,
)
@example(magic=MAGIC, kind=0, n=4, l=1e300, payload=("unit", 1.0, 0, 0))
@example(magic=MAGIC, kind=0, n=4, l=1e-120, payload=("unit", 1.0, 0, 0))
@example(magic=MAGIC, kind=2, n=4, l=TWO_PI, payload=("const", 1e200, 0, 0))
def test_report_survives_any_snapshot(tmp_path_factory, magic, kind, n, l, payload):
    path = tmp_path_factory.mktemp("fuzz") / "s.fdk"
    head = snapshot_bytes(kind, n, l, [], magic=magic)
    path.write_bytes(head + _payload(kind, n, payload))
    code, records, _ = run_main(["report", str(path)])
    assert code in EXIT_CODES
    assert len(records) == (1 if code == 0 else 0)


# key = value entries of a run config; max_iters is always bounded, so a
# config that parses runs a few iterations, not the default 500
CONFIG_ENTRIES = st.fixed_dictionaries(
    {
        "flow.max_iters": st.integers(0, 3),
        "grid.n": mostly(st.sampled_from([4, 9, 18, 18]), st.one_of(st.integers(-1, 10), st.text(max_size=4))),
        "init.kind": mostly(st.sampled_from(KINDS), st.just("nope")),
    },
    optional={
        "grid.l": mostly(st.floats(1.0, 20.0), st.floats()),
        "init.charge": st.integers(-2, 2),
        "init.axis": mostly(st.integers(1, 3), st.integers(0, 4)),
        "init.radius": mostly(st.floats(0.1, 0.45), st.floats()),
        "flow.mode": mostly(st.sampled_from(MODES), st.just("nope")),
        "flow.grad_tol": mostly(st.floats(1e-6, 10.0), st.floats()),
        "flow.step0": mostly(st.floats(1e-6, 1.0), st.floats()),
        "flow.backtrack": mostly(st.floats(0.1, 0.9), st.floats()),
        "flow.monitor_every": st.integers(-1, 3),
        "flow.charge_drift_tol": mostly(st.floats(1e-3, 1.0), st.floats()),
    },
)


@settings(deadline=None)
@given(
    entries=CONFIG_ENTRIES,
    outputs=st.sampled_from(["both", "both", "both", "field", "trace", "none"]),
    junk=mostly(st.just([]), st.lists(st.one_of(st.just("bogus.key = 1"), st.text(max_size=12)), max_size=1)),
)
@example(entries={"flow.max_iters": 1, "grid.n": 24, "grid.l": 1e200, "init.kind": "hopfion"},
         outputs="both", junk=[])
def test_minimize_survives_any_config(tmp_path_factory, entries, outputs, junk):
    d = tmp_path_factory.mktemp("fuzz")
    lines = [f"{key} = {value}" for key, value in entries.items()] + junk
    if outputs in ("both", "field"):
        lines.append(f"out.field = {d / 'f.fdk'}")
    if outputs in ("both", "trace"):
        lines.append(f"out.trace = {d / 't.csv'}")
    cfg = d / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    code, records, _ = run_main(["minimize", "--config", str(cfg)])
    assert code in EXIT_CODES
    assert len(records) <= 1
    if code == 0:
        assert (d / "f.fdk").exists() and records[0]["abort"] is None
