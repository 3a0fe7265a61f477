"""Smoke runs of the experiment scripts at small sizes."""

import csv
import importlib.util
import json
import re
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_relax_ladder_completes_a_rung(capsys):
    assert _script("relax_ladder").main(["--sizes", "18", "--iters", "40"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[0] == "18" and row[5] == "40" and row[-1] == "max_iters"
    float(row[2])  # the charge is defined


def test_relax_ladder_reports_an_aborted_rung(capsys, tmp_path):
    # at n = 18 the charge leaves the Hopf sector at iteration 60
    argv = ["--sizes", "18", "--iters", "300", "--out-dir", str(tmp_path)]
    assert _script("relax_ladder").main(argv) == 4
    captured = capsys.readouterr()
    row = captured.out.splitlines()[1].split()
    assert row[0] == "18" and row[2] == "-" and row[4] == "-"
    assert row[-2:] == ["aborted:", "ChargeDrift"]
    assert "became undefined" in captured.err
    with open(tmp_path / "hopfion_n18.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "energy", "grad_norm", "hopf", "vk_ratio"]
    assert rows[-1][0] == row[5] and rows[-1][3] == ""


def test_convergence_prints_three_tables(capsys):
    assert _script("convergence").main(["--sizes", "18", "24"]) == 0
    out = capsys.readouterr().out
    titles = re.findall(r"^(\S.*)$", out, flags=re.M)
    assert titles == [
        "equator energy vs continuum 8 pi^3 (scaled by box)",
        "hopfion charge vs 1",
        "ballmap degree vs 1",
    ]
    # every table has a row per size
    assert len(re.findall(r"^\s+(18|24)\s", out, flags=re.M)) == 6


def test_gauge_canonical_script_smoke(capsys):
    assert _script("gauge_canonical").main(["--n", "12"]) == 0
    out = capsys.readouterr().out

    def reading(label):
        return re.search(label + r"\s*:\s*(.+)$", out, flags=re.M).group(1)

    assert float(reading("conjugated field drift")) <= 1e-8
    # a fixed connection is a fixed point: the second fix moves nothing
    assert reading("idempotence drift") == "0.000e+00"
    # the pure unit winding sits on the integer in every direction
    assert reading("ties") == "(True, True, True)"


def test_identity_digests_agree_on_a_rerun(capsys, tmp_path):
    identity = _script("identity")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert identity.main(["--reduced", "-o", str(first)]) == 0
    assert identity.main(["--reduced", "-o", str(second), "--compare", str(first)]) == 0
    total = int(re.search(r"^0 of (\d+) entries differ", capsys.readouterr().out, flags=re.M).group(1))
    assert total > 100
    # refusals are outputs: the charge-2 hopfion and ballmap at n = 18 exit 2
    entries = json.loads(first.read_text())["entries"]
    assert entries["census/n18/hopfion/2/init/exit"]["values"] == [2.0]
    assert "census/n18/hopfion/2/snapshot" not in entries
    # and so are a guard's abort and its partial trace: the tube's flux decays by iteration 20
    assert entries["minimize/flux-change-flux-only/raised"]["text"].startswith("FluxChange: rounded fluxes moved")
    assert entries["minimize/flux-change-flux-only/rows/4/iteration"]["values"] == [20.0]
    assert "minimize/flux-change-flux-only/rows/5/iteration" not in entries
    assert "minimize/flux-change-flux-only/field/values" not in entries


def test_identity_compare_names_what_moved(tmp_path):
    identity = _script("identity")
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    identity.run(parent, reduced=True)
    identity.run(change, reduced=True)
    # one inline triple, one archived array and one JSON line moved, one entry dropped
    rec = json.loads(parent.read_text())
    e = rec["entries"]
    small, big = "gauge/n20/s1/op0/energy_conn", "gauge/n20/s1/op0/covariant_derivative"
    line, gone = "census/n18/tube/1/report/stdout", "census/n18/constant/None/snapshot"
    e[small]["values"][1] *= 1.0 + 1e-14
    e[line]["text"] = re.sub(r'"energy": ([-\d.e+]+)', lambda m: f'"energy": {float(m[1]) * 2!r}', e[line]["text"])
    for key in (small, big, line):
        e[key]["sha256"] = "0" * 64
    del e[gone]
    parent.write_text(json.dumps(rec))
    with np.load(parent.with_suffix(".npz")) as archive:
        arrays = dict(archive)
    arrays[big.replace("/", ":")] = arrays[big.replace("/", ":")] * 0.5
    np.savez(parent.with_suffix(".npz"), **arrays)
    lines = dict(x.split(": ", 1) for x in identity.compare(parent, change))
    assert sorted(lines) == sorted([small, big, line, gone])
    assert lines[gone] == "only in change"
    for key, bound in ((small, 2e-14), (big, 1.0), (line, 1.0)):
        rel = float(lines[key].removeprefix("max relative difference "))
        assert 0.0 < rel <= bound, (key, rel)
