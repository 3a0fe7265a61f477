"""The public contract: the names the package exports, and where Fourier transforms live."""

import re
from pathlib import Path

import fdvk

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


def test_fourier_transforms_only_in_lattice():
    # every transform goes through lattice._rfft3 and _irfft3, on one half spectrum
    src = Path(fdvk.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py"))
             if p.name != "lattice.py" and re.search(r"\bnp\.fft\b|\bnumpy\.fft\b", p.read_text())]
    assert users == []
    assert re.search(r"\bnp\.fft\b", (src / "lattice.py").read_text())
