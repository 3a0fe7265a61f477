"""The public contract: the names the package exports, the field kind each reader
refuses, the console script, where Fourier transforms, the slab plan and the field
storage rule live, the one array layout inside the package, one home for each shared
primitive, no module importing a name it never uses, and a console script that starts
without loading secrets."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fdvk
from fdvk import cli, fields, flow, gauge, lattice

CONTRACT = [
    "AnsatzSpec", "ChargeDrift", "ClassViolation", "ConfigError", "Connection",
    "Energy", "FdvkError", "FlowConfig", "FlowRow", "FlowTrace", "FluxChange",
    "GaugeFixReport", "Grid", "GridMismatch", "GroupField", "Holonomy",
    "HomotopyRecord", "KINDS", "NonExactForm", "NonIntegralFlux", "NontrivialHolonomy",
    "NotFlat", "PROFILES", "SnapshotError", "SphereField", "UnderResolved",
    "UnresolvableField", "chern_simons", "circle_field", "conjugate_field",
    "connection_of", "constant_group", "constant_sphere", "covariant_derivative",
    "decompose", "degree", "develop", "energy", "energy_conn", "fix_gauge",
    "flatness_residuals", "fluxes", "gauge_transform", "generate", "grad_energy",
    "holonomy", "homotopy_record", "hopf_charge", "minimize", "modulus",
    "plaquette_curvature", "pullback_area", "relax_step", "s1_winding",
]


def test_public_names_are_the_contract():
    assert sorted(fdvk.__all__) == CONTRACT


def test_every_public_name_resolves():
    for name in CONTRACT:
        assert getattr(fdvk, name) is not None, name


# each reader handed a field of another kind, and the kind it names in its TypeError
WRONG_KINDS = {
    "fluxes-of-a-group-field": (lambda phi, u, a: fdvk.fluxes(u), "SphereField"),
    "hopf_charge-of-a-group-field": (lambda phi, u, a: fdvk.hopf_charge(u), "SphereField"),
    "homotopy_record-swapped": (lambda phi, u, a: fdvk.homotopy_record(u, phi), "SphereField"),
    "homotopy_record-sphere-framing": (lambda phi, u, a: fdvk.homotopy_record(phi, phi), "GroupField"),
    "homotopy_record-without-framing": (lambda phi, u, a: fdvk.homotopy_record(phi, None), "GroupField"),
    "degree-of-a-sphere-field": (lambda phi, u, a: fdvk.degree(phi), "GroupField"),
    "connection_of-a-sphere-field": (lambda phi, u, a: fdvk.connection_of(phi), "GroupField"),
    "holonomy-of-a-sphere-field": (lambda phi, u, a: fdvk.holonomy(phi), "Connection"),
    "develop-a-sphere-field": (lambda phi, u, a: fdvk.develop(phi), "Connection"),
    "plaquette_deviation-of-a-sphere-field": (lambda phi, u, a: gauge.plaquette_deviation(phi), "Connection"),
    "fix_gauge-of-a-sphere-field": (lambda phi, u, a: fdvk.fix_gauge(phi, phi), "Connection"),
    "fix_gauge-with-a-group-section": (lambda phi, u, a: fdvk.fix_gauge(a, u), "SphereField"),
    "energy-of-a-group-field": (lambda phi, u, a: fdvk.energy(u), "SphereField"),
    "pullback_area-of-a-group-field": (lambda phi, u, a: fdvk.pullback_area(u), "SphereField"),
    "grad_energy-of-a-group-field": (lambda phi, u, a: fdvk.grad_energy(u), "SphereField"),
    "step_ceiling-of-a-group-field": (lambda phi, u, a: flow.step_ceiling(u), "SphereField"),
    "relax_step-of-a-group-field": (lambda phi, u, a: fdvk.relax_step(u, fdvk.FlowConfig(), 0.1), "SphereField"),
    "minimize-a-group-field": (lambda phi, u, a: fdvk.minimize(u, fdvk.FlowConfig()), "SphereField"),
    "energy_conn-swapped": (lambda phi, u, a: fdvk.energy_conn(a, phi), "Connection"),
    "covariant_derivative-swapped": (lambda phi, u, a: fdvk.covariant_derivative(phi, a), "Connection"),
    "flatness_residuals-swapped": (lambda phi, u, a: fdvk.flatness_residuals(phi, a), "Connection"),
    "decompose-swapped": (lambda phi, u, a: fdvk.decompose(phi, a), "Connection"),
    "plaquette_curvature-of-a-sphere-field": (lambda phi, u, a: fdvk.plaquette_curvature(phi), "Connection"),
    "chern_simons-of-a-group-field": (lambda phi, u, a: fdvk.chern_simons(u), "Connection"),
    "conjugate_field-swapped": (lambda phi, u, a: fdvk.conjugate_field(phi, u), "GroupField"),
    "gauge_transform-section-and-circle-swapped": (lambda phi, u, a: fdvk.gauge_transform(a, u, phi), "SphereField"),
}


@pytest.mark.parametrize("call, kind", WRONG_KINDS.values(), ids=WRONG_KINDS)
def test_a_field_of_the_wrong_kind_is_refused(call, kind):
    g = fdvk.Grid(8)
    u = fdvk.constant_group(g)
    with pytest.raises(TypeError, match=f"expected a {kind}, got "):
        call(fdvk.constant_sphere(g), u, fdvk.connection_of(u))


def test_fourier_transforms_only_in_lattice():
    # every transform goes through lattice._rfft3 and _irfft3, on one half spectrum
    src = Path(fdvk.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py"))
             if p.name != "lattice.py" and re.search(r"\bnp\.fft\b|\bnumpy\.fft\b", p.read_text())]
    assert users == []
    assert re.search(r"\bnp\.fft\b", (src / "lattice.py").read_text())


def test_slab_plan_only_in_lattice():
    # every slab sweep goes through lattice._slab_sweep, which cuts the scratch to the slab
    src = Path(fdvk.__file__).parent
    others = [p for p in sorted(src.glob("*.py")) if p.name != "lattice.py"]
    assert [p.name for p in others if "_slabs(" in p.read_text()] == []
    assert [p.name for p in others if re.search(r":\s*(b - a|hi - lo)\b", p.read_text())] == []


def _sources_with(text):
    return [p.name for p in sorted(Path(fdvk.__file__).parent.glob("*.py")) if text in p.read_text()]


def test_one_layout_inside_the_package():
    # component-first math goes through lattice._cross, and diff/avg_back
    # read the site axes as the last three, with no layout knob
    assert _sources_with("np.cross(") == []
    for op in (lattice.diff, lattice.avg_back):
        params = inspect.signature(op).parameters
        assert "lead" not in params, op.__name__
        assert not any(p.kind is p.VAR_KEYWORD for p in params.values()), op.__name__


def test_fields_py_alone_lays_out_field_storage():
    # fields._field builds every field the package makes and fields._cf reads its stored
    # component-first array; no other module freezes an array or converts a field's values
    src = Path(fdvk.__file__).parent
    others = [p for p in sorted(src.glob("*.py")) if p.name != "fields.py"]
    assert "_freeze" in (src / "fields.py").read_text()
    assert [p.name for p in others if "_freeze" in p.read_text()] == []
    convert = re.compile(r"_comp_first\(|\b(_site_last|np\.moveaxis)\([^\n]*\.values\b")
    assert [p.name for p in others if convert.search(p.read_text())] == []


def _reads(name):
    """(module, top-level function) of each place in src/fdvk that names name, "<module>" for
    the module level; one entry per function, however often it names it."""
    src = Path(fdvk.__file__).parent
    found = set()
    for p in sorted(src.glob("*.py")):
        tree = ast.parse(p.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                alias = isinstance(node, ast.alias) and name in (node.name, node.asname)
                if alias or getattr(node, "id", getattr(node, "attr", None)) == name:
                    found.add((p.name, getattr(top, "name", "<module>")))
    return sorted(found)


def test_one_energy_sweep():
    # both pictures' energies, and the descent's slopes, are read off the Gram densities in fields._sweep
    assert _reads("_assemble") == [("fields.py", "_sweep")]


def test_one_home_per_integral():
    # degree and chern_simons read their cubic integral off invariants._volume, whose slabs
    # form the site averages with fields._site_logs, as the energy sweep does; fix_gauge
    # averages one direction at a time for its longitudinal form
    assert _reads("_det3") == [("invariants.py", "_volume")]
    assert [r for r in _reads("avg_back") if r[1] != "<module>"] == [("fields.py", "_site_logs"),
                                                                      ("gauge.py", "fix_gauge")]
    # the Hopf charge and chern_simons's a ^ da sum by Parseval the one twist K . (x x y)
    twists = set()
    for p in sorted(Path(fdvk.__file__).parent.glob("*.py")):
        for top in ast.parse(p.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("imag", "conj"):
                    twists.add((p.name, getattr(top, "name", "<module>")))
    assert sorted(twists) == [("invariants.py", "_twist")]
    assert _reads("_twist") == [("invariants.py", "_helicity"), ("invariants.py", "chern_simons")]


def test_one_periodic_neighbour_read():
    # every far edge and halo plane is read by lattice._shifted or _diff_into
    assert _sources_with("np.roll(") == []


def test_one_conjugate_edge_rule():
    # fields._edge_logs forms g* of the steps g* t g(. + e_mu) for every caller
    assert [r for r in _reads("_CONJ") if r[0] != "quat.py"] == [("fields.py", "_edge_logs")]


def test_one_copy_out():
    # lattice._site_last(q, lead) moves all lead component axes last in one copy
    assert _sources_with("_site_last(_site_last(") == []


def test_flatness_residuals_differences_phi_once(monkeypatch):
    # _covariant hands back the d_mu phi it forms: 3 for phi, then 4 per plaquette
    # for the differences of <a, phi> and of the tangential part
    g = fdvk.Grid(8)
    u = fdvk.constant_group(g)
    calls = []
    monkeypatch.setattr(fields, "diff", lambda *args: calls.append(args[2]) or lattice.diff(*args))
    fdvk.flatness_residuals(fdvk.connection_of(u), fdvk.constant_sphere(g))
    assert len(calls) == 3 + 3 * 4


def test_console_script_is_the_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["fdvk"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_importing_the_cli_leaves_secrets_unloaded():
    # the temporary beside a snapshot is named from os.urandom: secrets would pull in hashlib,
    # hmac, base64 and OpenSSL on every start of the console script
    code = "import sys, fdvk, fdvk.cli; print('secrets' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout.strip()) == (0, "False"), run.stderr


def _unused_imports(path):
    """(line, name) of each name path imports and never reads; names in __all__ are read."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    root = Path(__file__).resolve().parents[1]
    paths = [p for d in ("src/fdvk", "tests", "scripts") for p in sorted((root / d).glob("*.py"))]
    assert len(paths) > 20
    unused = {p.relative_to(root).as_posix(): u for p in paths if (u := _unused_imports(p))}
    assert unused == {}
