"""Immutable fields, how they store their values, and what the gauge layer keeps on them.

Field values are read-only.  Every field stores one C-contiguous,
component-first array, and its values are the site-last view of it.  A
field the package builds keeps the array it built, frozen in place; a
caller's array is copied once unless nothing can write to it and its
component-first view is C-contiguous.  A Connection keeps its plaquette deviation,
one float, and compares it with each caller's flat_tol; connection_of(u)
leaves on u a weak reference to its Connection, whose edge logarithms
degree(u) reads while it is alive.  The Python-float line walk of
holonomy's loops and develop's first axis gives _walk's floats.  Fields and Holonomy compare and hash
by identity.
"""

import copy
import gc
import pickle
import numpy as np
import pytest

from fdvk import fields, gauge, lattice, quat
from fdvk.ansatz import AnsatzSpec, generate, s1_winding
from fdvk.errors import NotFlat
from fdvk.fields import Connection, GroupField, SphereField, conjugate_field, connection_of
from fdvk.flow import FlowConfig, minimize
from fdvk.gauge import develop, fix_gauge
from fdvk.invariants import chern_simons, degree
from fdvk.lattice import Grid
from fieldgen import smooth_group_field, smooth_sphere_field


def _pair(n):
    g = Grid(n)
    u = smooth_group_field(g, 7)
    w = s1_winding(g, (1, 0, -1))
    return GroupField(g, quat.mul(u.values, w.values)), smooth_sphere_field(g, 8)


def _read_only_down(v):
    """v and every array it views are read-only, down to one that owns its memory."""
    while v is not None:
        if not isinstance(v, np.ndarray) or v.flags.writeable:
            return False
        v = v.base
    return True


def _stores_one_array(f):
    """f stores one C-contiguous, read-only component-first array, values its site-last view."""
    v = fields._cf(f)
    assert v.flags.c_contiguous and _read_only_down(v), type(f).__name__
    assert v.shape == f.values.shape[3:] + f.values.shape[:3]
    assert np.shares_memory(v, f.values)


def test_field_values_are_read_only():
    u, phi = _pair(8)
    a = connection_of(u)
    for f in (u, phi, a):
        with pytest.raises(ValueError, match="read-only"):
            f.values[0, 0, 0] = f.values[1, 1, 1]
        with pytest.raises(ValueError, match="read-only"):
            f.values *= 1.0


def test_a_callers_array_is_copied_once():
    g = Grid(8)
    u, phi = _pair(8)
    for cls, field in ((GroupField, u), (SphereField, phi)):
        mine = field.values.copy()
        made = cls(g, mine)
        mine[0, 0, 0] = -mine[0, 0, 0]
        assert np.array_equal(made.values, field.values)
        assert not np.shares_memory(made.values, mine)
        # a read-only view of a writeable array is copied too
        ro = mine.view()
        ro.flags.writeable = False
        assert not np.shares_memory(cls(g, ro).values, mine)
        # values nothing can write to are kept as they are: the same stored array
        assert fields._cf(cls(g, field.values)).base is fields._cf(field).base
    mine = connection_of(u).values.copy()
    a = Connection(g, mine)
    mine[...] = 0.0
    assert np.array_equal(a.values, connection_of(u).values)


def test_fields_the_package_builds_are_frozen_without_a_copy(tmp_path):
    from fdvk.cli import load_snapshot, save_snapshot

    u, phi = _pair(12)
    a = connection_of(u)
    fixed, report = fix_gauge(a, phi)
    assert report.passes > 0
    built = [a, fixed, develop(a), conjugate_field(u, phi), generate(AnsatzSpec(kind="hopfion"), Grid(20))]
    built.append(minimize(built[-1], FlowConfig(max_iters=1, charge_drift_tol=0.5))[0])
    save_snapshot(tmp_path / "a.fdk", a)
    built.append(load_snapshot(tmp_path / "a.fdk"))
    for f in built:
        assert _read_only_down(f.values), type(f).__name__
        _stores_one_array(f)
    # an array the package built is the one stored, no copy made: one it owns, or a view of
    # an aligned buffer, frozen down to that buffer
    v = np.zeros((4, 12, 12, 12))
    v[0] = 1.0
    assert fields._cf(fields._field(GroupField, Grid(12), v)).base is v
    w = lattice._aligned(v.shape)
    w[...] = v
    assert fields._cf(fields._field(GroupField, Grid(12), w)).base is w.base
    assert _read_only_down(w)


def test_pickle_and_copy_go_through_the_constructor():
    u, phi = _pair(8)
    a = connection_of(u)
    gauge.plaquette_deviation(a)
    for f in (u, phi, a):
        for back in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert type(back) is type(f) and back.grid == f.grid
            assert np.array_equal(back.values, f.values)
            assert _read_only_down(back.values)
            assert "_connection" not in vars(back) and "_plaquette" not in vars(back)


def test_fields_compare_by_identity():
    # arrays have no truth value, so value equality would raise; immutable fields are keys
    u, phi = _pair(8)
    a = connection_of(u)
    hol = gauge.holonomy(a)
    pairs = [(f, type(f)(f.grid, f.values), "values") for f in (u, phi, a)]
    for f, twin, held in pairs + [(hol, gauge.Holonomy(hol.loops), "loops")]:
        assert np.array_equal(getattr(f, held), getattr(twin, held))
        assert f == f and f != twin
        assert len({f, twin}) == 2 and hash(f) == hash(f)
        assert {f: "kept"}[f] == "kept"


def _origins(f, tmp_path):
    """f rebuilt every way a field can come to be: (origin, field)."""
    from fdvk.cli import load_snapshot, save_snapshot

    cls, g = type(f), f.grid
    mine = f.values.copy()
    site_last = np.ascontiguousarray(f.values)
    site_last.flags.writeable = False
    ro = mine.view()
    ro.flags.writeable = False
    save_snapshot(tmp_path / "f.fdk", f)
    yield "package-built", f
    yield "writeable", cls(g, mine)
    yield "read-only site-last", cls(g, site_last)
    yield "read-only view of a writeable array", cls(g, ro)
    yield "pickled", pickle.loads(pickle.dumps(f))
    yield "copy", copy.copy(f)
    yield "deepcopy", copy.deepcopy(f)
    yield "snapshot", load_snapshot(tmp_path / "f.fdk")
    mine[...] = 0.0  # the fields built from it keep their own copy


@pytest.mark.parametrize("kind", ["sphere", "group", "connection"])
def test_every_field_stores_one_component_first_array(kind, tmp_path):
    u, phi = _pair(8)
    f = {"sphere": lambda: conjugate_field(u, phi), "group": lambda: develop(connection_of(u)),
         "connection": lambda: connection_of(u)}[kind]()
    want = f.values.copy()
    made = list(_origins(f, tmp_path))
    assert len(made) == 8
    for origin, back in made:
        assert type(back) is type(f) and back.grid == f.grid, origin
        _stores_one_array(back)
        assert back.values.shape == want.shape and np.array_equal(back.values, want), origin


def _count(monkeypatch, module, name, owners=()):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kw):
        calls.append(name)
        return real(*args, **kw)

    for m in (module,) + owners:
        monkeypatch.setattr(m, name, counted)
    return calls


def test_one_gauge_op_checks_each_plaquette_set_and_forms_each_log_set_once(monkeypatch):
    u, phi = _pair(16)
    plaquettes = _count(monkeypatch, gauge, "_plaquette_deviation")
    logs = _count(monkeypatch, fields, "_edge_logs", (gauge,))
    # the gauge workload's op: connection_of, fix_gauge, develop twice, degree, chern_simons
    a = connection_of(u)
    fixed, report = fix_gauge(a, phi)
    develop(a), develop(fixed), degree(u), chern_simons(fixed)
    assert report.passes > 0
    assert len(plaquettes) == 2  # a and fixed, once each
    assert len(logs) == report.passes + 1  # connection_of and the passes; degree reads a's


def test_the_kept_deviation_is_checked_against_each_tolerance():
    u, phi = _pair(16)
    a = connection_of(u)
    fix_gauge(a, phi)
    assert a._plaquette > 0.0
    with pytest.raises(NotFlat):
        develop(a, flat_tol=1e-300)
    assert gauge.plaquette_deviation(a) == a._plaquette
    develop(a)


def test_degree_recomputes_once_the_connection_is_gone(monkeypatch):
    u, _ = _pair(16)
    a = connection_of(u)
    kept = degree(u)
    del a
    gc.collect()
    assert u._connection() is None
    logs = _count(monkeypatch, fields, "_edge_logs")
    assert degree(u) == kept
    assert len(logs) == 1
    held = [v for v in vars(u).values() if isinstance(v, np.ndarray)]
    assert len(held) == 1 and held[0] is u.values


@pytest.mark.parametrize("n", [4, 5, 32, 33])
def test_float_walk_equals_the_array_walk(n):
    rng = np.random.default_rng(n)
    t = rng.normal(size=(n, 4))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    # all n + 1 products, as holonomy reads its loop off the last
    w = np.empty((n + 1, 4))
    w[0] = quat.ONE
    gauge._walk(w, t)
    assert np.array_equal(gauge._line_walk(t), w)
