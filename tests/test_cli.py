"""End-to-end command tests over a fabricated displacement dataset."""

import argparse
import atexit
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import make_modeset
from test_relaxation import _rotation_case
import spinlat.cli
import spinlat.relaxation
from spinlat.cli import main
from spinlat.core import larmor_frequency
from spinlat.couplings import (CouplingTensors, build_couplings, export_couplings,
                               load_couplings)
from spinlat.ingest import (
    load_run_set,
    plan_displacements,
    write_displacement_set,
    write_g_matrix,
    write_modes,
)

BASE_G = np.diag([1.981, 1.989, 1.990])


def _quadratic_runs(root, pairing, frequencies=(12.6, 45.0, 210.0), seed=5, slope=2e-3):
    """Modes file plus completed displacement runs on a quadratic g surface
    whose random first derivatives have scale slope."""
    ms = make_modeset(natoms=3, nmodes=len(frequencies), frequencies=frequencies)
    modes = root / "modes.txt"
    write_modes(ms, modes)

    rng = np.random.default_rng(seed)
    lin = rng.normal(scale=slope, size=(9, 3, 3))
    quad = rng.normal(scale=5e-2, size=(9, 9, 3, 3))
    quad = 0.5 * (quad + quad.transpose(1, 0, 2, 3))
    base_pos = ms.geometry.positions

    def gfun(pos):
        d = (pos - base_pos).reshape(-1)
        return (BASE_G + np.einsum("iab,i->ab", lin, d)
                + 0.5 * np.einsum("ijab,i,j->ab", quad, d, d))

    runs = root / "runs"
    plan = plan_displacements(ms, delta=0.01, order=2, pairing=pairing)
    manifest = write_displacement_set(plan, ms, runs, 0.01)
    for g in plan:
        write_g_matrix(gfun(g.positions), runs / (g.label() + ".gout"))
    return {"modes": str(modes), "manifest": str(manifest), "modeset": ms}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return _quadratic_runs(tmp_path_factory.mktemp("cli_data"), "diagonal_only")


@pytest.fixture(scope="module")
def pair_dataset(tmp_path_factory):
    """The same surface with the pair runs all_pairs needs."""
    return _quadratic_runs(tmp_path_factory.mktemp("cli_pairs"), "all_pairs")


@pytest.fixture(scope="module")
def six_mode_dataset(tmp_path_factory):
    """Six modes whose first order is strong enough that ranking by tr L2
    alone and by tr L1 + tr L2 give different top three modes, in both
    pairings, along z and along (1, -2, -2), at 20 K and 1266 mT."""
    return _quadratic_runs(tmp_path_factory.mktemp("cli_six"), "all_pairs",
                           frequencies=(12.6, 30.0, 45.0, 80.0, 120.0, 210.0),
                           seed=15, slope=5e-2)


def run(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- displace

def test_displace_writes_plan(dataset, tmp_path):
    out = tmp_path / "plan"
    code, _, _ = run("displace", "--modes", dataset["modes"], "--out", str(out),
                     "--delta", "0.01", "--order", "2",
                     "--pairing", "diagonal_only")
    assert code == 0
    assert len(list(out.glob("*.xyz"))) == 7
    assert (out / "manifest.json").is_file()
    sidecar = json.loads((out / "displace.config.json").read_text())
    assert sidecar["geometries"] == 7
    assert sidecar["config"]["numerics"]["delta_angstrom"] == 0.01


def test_displace_all_pairs_counts(dataset, tmp_path):
    out = tmp_path / "plan"
    code, _, _ = run("displace", "--modes", dataset["modes"], "--out", str(out),
                     "--pairing", "all_pairs")
    assert code == 0
    assert len(list(out.glob("*.xyz"))) == 1 + 6 + 4 * 3


def test_displace_refuses_order_1_with_all_pairs(dataset, tmp_path, capsys):
    # order 1 plans no pair runs, so the all_pairs couplings could never be
    # built from the plan; refused before anything is written
    out = tmp_path / "plan"
    code, _, err = run("displace", "--modes", dataset["modes"], "--out", str(out),
                       "--order", "1", "--pairing", "all_pairs", capsys=capsys)
    assert code == 2, err
    assert "numerics.order 1 (flag --order)" in err
    assert "physics.pairing 'all_pairs' (flag --pairing)" in err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"format": "spinlat-config/1",
                                   "numerics": {"order": 1},
                                   "physics": {"pairing": "all_pairs"}}))
    code, _, err = run("displace", "--config", str(cfgfile), "--modes", dataset["modes"],
                       "--out", str(out), capsys=capsys)
    assert code == 2, err
    assert "numerics.order 1 with physics.pairing 'all_pairs' is refused" in err
    assert not out.exists()


def test_displace_refuses_a_directory_that_holds_a_manifest(dataset, tmp_path, capsys):
    # the results already there were computed at the old manifest's step;
    # a new plan over them would have couplings read them with its own step
    runs = tmp_path / "runs"
    shutil.copytree(Path(dataset["manifest"]).parent, runs)
    before = {path.name: path.read_bytes() for path in runs.iterdir()}
    code, _, err = run("displace", "--modes", dataset["modes"], "--delta", "0.02",
                       "--pairing", "all_pairs", "--out", str(runs), capsys=capsys)
    assert code == 2, err
    assert err == (f"error: paths.output_dir (flag --out) already holds "
                   f"{runs / 'manifest.json'}; displace into a new directory\n")
    assert {path.name: path.read_bytes() for path in runs.iterdir()} == before


@pytest.mark.parametrize("command", ["couplings", "tensor", "sweep", "attribute", "dynamics"])
def test_runs_based_artifacts_record_the_baseline_g(dataset, tmp_path, command):
    # from runs the spin's g is the baseline run's, whatever physics.g0 says,
    # so the embedded config must hold the baseline's g
    cfgfile = tmp_path / "g0.json"
    cfgfile.write_text(json.dumps({"format": "spinlat-config/1",
                                   "physics": {"g0": (3.0 * np.eye(3)).tolist()}}))
    flags = () if command == "couplings" else ("--temp", "20", "--field-mt", "1266")
    out = tmp_path / "art"
    assert run(command, "--config", str(cfgfile), "--modes", dataset["modes"],
               "--manifest", dataset["manifest"], *flags, "--out", str(out))[0] == 0
    if command == "sweep":
        line = (out / "sweep.csv").read_text().split("\n")[0]
        config = json.loads(line[len("# config: "):])
    else:
        artifact = {"couplings": "couplings.json", "tensor": "tensor.json",
                    "attribute": "attribution.json", "dynamics": "dynamics.json"}[command]
        config = json.loads((out / artifact).read_text())["config"]
    baseline = load_run_set(dataset["manifest"], dataset["modeset"]).baseline
    assert config["physics"]["g0"] == baseline.tolist()


def test_skip_soft_plan_gives_couplings(tmp_path, monkeypatch):
    # the manifest numbers the modes skip_soft keeps, so every command that
    # reads the modes must drop the same soft modes
    monkeypatch.chdir(tmp_path)
    write_modes(make_modeset(natoms=3, nmodes=3, frequencies=[0.5, 45.0, 210.0]),
                "modes.txt")
    assert run("displace", "--modes", "modes.txt", "--skip-soft", "--out", "runs")[0] == 0
    for result in Path("runs").glob("*.xyz"):
        write_g_matrix(BASE_G, result.with_suffix(".gout"))
    runs = ("--modes", "modes.txt", "--manifest", "runs/manifest.json", "--skip-soft")
    assert run("couplings", *runs, "--out", "art")[0] == 0
    c = load_couplings(Path("art/couplings.json"))
    assert c.source_indices.tolist() == [2, 3]
    assert run("validate", *runs)[0] == 0
    assert run("tensor", *runs[:-1], "--out", "art")[0] == 1


def test_paths_that_start_with_a_brace_name_files(dataset, tmp_path, monkeypatch,
                                                 capsys):
    # a str starting with '{' is read as JSON text by the library readers;
    # a command-line path always names a file
    monkeypatch.chdir(tmp_path)
    shutil.copy(dataset["modes"], "{m}.txt")
    code, _, err = run("displace", "--modes", "{m}.txt", "--out", "plan", capsys=capsys)
    assert code == 0, err
    assert Path("plan/manifest.json").is_file()
    assert run("couplings", "--modes", "{m}.txt", "--manifest", dataset["manifest"],
               "--out", "built")[0] == 0
    assert run("validate", "--modes", "{m}.txt", "--manifest", dataset["manifest"])[0] == 0
    shutil.copy("built/couplings.json", "{c}.json")
    code, _, err = run("tensor", "--couplings", "{c}.json",
                       "--config", _g0_config(tmp_path, dataset),
                       "--temp", "20", "--field-mt", "1266", "--out", "art",
                       capsys=capsys)
    assert code == 0, err
    assert Path("art/tensor.json").is_file()


def test_displace_missing_modes_exits_2(tmp_path, capsys):
    code, _, err = run("displace", "--modes", str(tmp_path / "nope.txt"),
                       capsys=capsys)
    assert code == 2
    assert "paths.modes" in err


# ------------------------------------------------------------ couplings

def test_couplings_round_trip(dataset, tmp_path):
    # the config asks for another step than the runs used; the artifact
    # must embed the manifest's step, which built the couplings
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "format": "spinlat-config/1",
        "numerics": {"delta_angstrom": 0.5},
    }))
    out = tmp_path / "art"
    code, _, _ = run("couplings", "--config", str(cfgfile),
                     "--modes", dataset["modes"],
                     "--manifest", dataset["manifest"], "--out", str(out))
    assert code == 0
    loaded = load_couplings(out / "couplings.json")
    runset = load_run_set(dataset["manifest"], dataset["modeset"])
    direct = build_couplings(runset, field_direction=(0.0, 0.0, 1.0))
    np.testing.assert_array_equal(loaded.d1, direct.d1)
    np.testing.assert_array_equal(loaded.d2, direct.d2)
    doc = json.loads((out / "couplings.json").read_text())
    assert doc["config"]["format"] == "spinlat-config/1"
    assert doc["config"]["numerics"]["delta_angstrom"] == loaded.delta_angstrom == 0.01


@pytest.mark.parametrize("command, artifact", [("tensor", "tensor.json"),
                                               ("sweep", "sweep.csv")])
def test_couplings_record_changes_no_artifact(pair_dataset, tmp_path, command, artifact):
    # couplings writes its record beside couplings.json; a command from the
    # file writes the same bytes with the record as without it
    built = tmp_path / "built"
    assert run("couplings", "--modes", pair_dataset["modes"], "--manifest",
               pair_dataset["manifest"], "--field-dir", "1,-2,-2", "--out", str(built))[0] == 0
    assert sorted(p.name for p in built.iterdir()) == ["couplings.json", "couplings.json.npy"]

    def written():
        out = tmp_path / "art"
        assert run(command, "--config", _g0_config(tmp_path, pair_dataset), "--couplings",
                   str(built / "couplings.json"), "--pairing", "all_pairs",
                   "--temp", "20", "--field-mt", "1266", "--field-dir", "1,-2,-2",
                   "--out", str(out))[0] == 0
        return (out / artifact).read_bytes()

    with_record = written()
    (built / "couplings.json.npy").unlink()
    assert written() == with_record


# --------------------------------------------------------------- tensor

def test_tensor_report(dataset, tmp_path, capsys):
    out = tmp_path / "art"
    code, stdout, _ = run("tensor", "--modes", dataset["modes"],
                          "--manifest", dataset["manifest"],
                          "--temp", "20", "--field-mt", "1266",
                          "--linewidth", "2", "--out", str(out),
                          capsys=capsys)
    assert code == 0
    report = json.loads((out / "tensor.json").read_text())
    expected_omega = larmor_frequency(BASE_G, [0.0, 0.0, 1266.0])
    assert report["metadata"]["omega_cm"] == pytest.approx(expected_omega, rel=1e-12)
    assert report["metadata"]["temperature_k"] == 20.0
    assert report["config"]["physics"]["temperatures_k"] == [20.0]
    assert "omega" in stdout and "tensor.json" in stdout


def test_tensor_huge_field_not_refused_as_off_direction(dataset, tmp_path, capsys):
    # 1e300 mT lies along z; it is refused as a field the rate kernel cannot
    # evaluate, not as one off the couplings' direction
    code, _, err = run("tensor", "--modes", dataset["modes"], "--manifest",
                       dataset["manifest"], "--temp", "20", "--field-mt", "1e300",
                       "--out", str(tmp_path / "art"), capsys=capsys)
    assert code == 2
    assert "physics.fields_mt" in err and "direction" not in err


@pytest.mark.parametrize("command", ["tensor", "sweep", "dynamics"])
@pytest.mark.parametrize("fields", ["1e90", "20,-1e90", "-1.3e154"])
def test_field_the_rate_kernel_cannot_evaluate_exits_2(dataset, tmp_path, capsys,
                                                       command, fields):
    # (muB |B| / hc)^4 overflows above about 2.5e80 mT: refused with the
    # config, naming the key, the flag and the value, before anything runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(command, "--modes", dataset["modes"], "--manifest",
                           dataset["manifest"], "--temp", "20", "--field-mt", fields,
                           "--out", str(tmp_path / "art"), capsys=capsys)
    assert code == 2, err
    assert "'physics.fields_mt'" in err and "(flag --field-mt)" in err
    assert repr(float(fields.split(",")[-1])) in err
    assert not (tmp_path / "art").exists()


def test_field_below_the_kernel_bound_runs(dataset, tmp_path, capsys):
    # the bound is where the kernel overflows, not a lab limit: 1e80 mT runs
    code, _, err = run("tensor", "--modes", dataset["modes"], "--manifest",
                       dataset["manifest"], "--temp", "20", "--field-mt", "1e80",
                       "--out", str(tmp_path / "art"), capsys=capsys)
    assert code == 0, err


def test_tensor_rejects_temperature_grid(dataset, capsys):
    code, _, err = run("tensor", "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"],
                       "--temp", "20,30", "--field-mt", "1266", capsys=capsys)
    assert code == 2
    assert "exactly one" in err


def test_tensor_from_couplings_file_needs_g0(dataset, tmp_path, capsys):
    out = tmp_path / "art"
    run("couplings", "--modes", dataset["modes"],
        "--manifest", dataset["manifest"], "--out", str(out))
    code, _, err = run("tensor", "--couplings", str(out / "couplings.json"),
                       "--temp", "20", "--field-mt", "1266",
                       "--out", str(out), capsys=capsys)
    assert code == 2
    assert "physics.g0" in err

    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "format": "spinlat-config/1",
        "physics": {"g0": BASE_G.tolist()},
    }))
    code, _, _ = run("tensor", "--config", str(cfgfile),
                     "--couplings", str(out / "couplings.json"),
                     "--temp", "20", "--field-mt", "1266", "--out", str(out))
    assert code == 0


def _g0_config(tmp_path, dataset) -> str:
    """A config file holding the dataset's baseline g matrix as physics.g0."""
    baseline = load_run_set(dataset["manifest"], dataset["modeset"]).baseline
    cfgfile = tmp_path / "g0.json"
    cfgfile.write_text(json.dumps({"format": "spinlat-config/1",
                                   "physics": {"g0": baseline.tolist()}}))
    return str(cfgfile)


@pytest.mark.parametrize("command", ["tensor", "sweep", "attribute", "dynamics"])
def test_couplings_file_from_other_direction_exits_2(dataset, tmp_path, capsys,
                                                      command):
    # the couplings hold g projected on the field direction they were built
    # along; run along another direction, they would give wrong times
    built = tmp_path / "built"
    assert run("couplings", "--modes", dataset["modes"],
               "--manifest", dataset["manifest"], "--out", str(built))[0] == 0
    out = tmp_path / "art"
    code, _, err = run(command, "--config", _g0_config(tmp_path, dataset),
                       "--couplings", str(built / "couplings.json"),
                       "--temp", "20", "--field-mt", "1266", "--field-dir", "1,0,0",
                       "--out", str(out), capsys=capsys)
    assert code == 2, err
    assert "physics.field_direction" in err and "couplings.json" in err
    assert not out.exists()


@pytest.mark.parametrize("by", ["flags", "config"])
@pytest.mark.parametrize("command", ["couplings", "tensor", "sweep", "attribute", "dynamics"])
def test_couplings_file_with_runs_exits_2(tmp_path, capsys, command, by):
    # a couplings file and runs are two sources of the couplings, and which
    # was meant cannot be told: refused before any input is read (none of
    # the three files exists), naming the flag of each key a flag gave
    argv, in_file, named = [], {}, []
    for name in ("couplings", "modes", "manifest"):
        path, flag = str(tmp_path / f"absent_{name}"), f"--{name}"
        if by == "flags" and flag in spinlat.cli._COMMANDS[command][2]:
            argv += [flag, path]
            named.append(f"paths.{name} {path!r} (flag {flag})")
        else:
            in_file[name] = path
            named.append(f"paths.{name} {path!r}")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"format": "spinlat-config/1", "paths": in_file}))
    out = tmp_path / "art"
    code, stdout, err = run(command, "--config", str(cfgfile), *argv, "--out", str(out),
                            capsys=capsys)
    assert code == 2
    assert err == (f"error: {' with '.join(named)} is refused: a couplings file and runs "
                   "are two sources of the couplings; give one\n")
    assert stdout == "" and not out.exists()


def test_validate_reads_only_the_runs(dataset, tmp_path, capsys):
    # validate never assembles couplings from a file, so a config's
    # paths.couplings is no second source for it
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"format": "spinlat-config/1",
                                   "paths": {"couplings": str(tmp_path / "absent.json")}}))
    code, _, err = run("validate", "--config", str(cfgfile), "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"], capsys=capsys)
    assert code == 0, err


def test_couplings_file_matches_runs_along_any_direction(dataset, tmp_path):
    built = tmp_path / "built"
    assert run("couplings", "--modes", dataset["modes"],
               "--manifest", dataset["manifest"], "--field-dir", "1,-2,-2",
               "--out", str(built))[0] == 0
    flags = ("--temp", "20", "--field-mt", "1266", "--field-dir", "1,-2,-2")
    assert run("tensor", "--config", _g0_config(tmp_path, dataset),
               "--couplings", str(built / "couplings.json"), *flags,
               "--out", str(tmp_path / "file"))[0] == 0
    assert run("tensor", "--modes", dataset["modes"],
               "--manifest", dataset["manifest"], *flags,
               "--out", str(tmp_path / "runs"))[0] == 0
    from_file, from_runs = (json.loads((tmp_path / d / "tensor.json").read_text())
                            for d in ("file", "runs"))
    for key in ("lambda1", "lambda2", "times_us"):
        assert from_file[key] == from_runs[key], key


def test_tilted_sweep_rows_equal_tensor(dataset, pair_dataset, tmp_path):
    # along (1, -2, -2) a sweep row is, bit for bit, tensor at its point:
    # both scale the couplings' direction by B and project on that field
    upper = np.triu_indices(3)
    for pairing, data in (("diagonal_only", dataset), ("all_pairs", pair_dataset)):
        runs = ("--modes", data["modes"], "--manifest", data["manifest"],
                "--field-dir", "1,-2,-2", "--pairing", pairing)
        base = tmp_path / pairing
        assert run("sweep", *runs, "--temp", "20,300", "--field-mt", "700:2000:4",
                   "--out", str(base / "sweep"))[0] == 0
        lines = (base / "sweep" / "sweep.csv").read_text().splitlines()
        header = lines[1].split(",")
        for k, line in enumerate(lines[2:]):
            row = dict(zip(header, map(float, line.split(","))))
            out = base / f"tensor{k}"
            assert run("tensor", *runs, "--temp", repr(row["temperature_k"]),
                       "--field-mt", repr(row["field_mt"]), "--out", str(out))[0] == 0
            doc = json.loads((out / "tensor.json").read_text())
            times = doc["times_us"]["projection"]
            assert (row["t1_us"], row["t2_us"]) == (times["t1"], times["t2"]), k
            assert row["omega_cm"] == doc["metadata"]["omega_cm"], k
            for order in ("1", "2"):
                got = [row[f"l{order}_{c}"] for c in ("xx", "xy", "xz", "yy", "yz", "zz")]
                assert got == np.array(doc["lambda" + order])[upper].tolist(), (k, order)


@pytest.mark.parametrize("direction", ["0,0,1", "1,-2,-2"])
@pytest.mark.parametrize("field", ["-1266", "1266", "0"])
def test_tensor_records_the_signed_field(dataset, tmp_path, direction, field):
    # tensor.json records the field as the config and the sweep row at the
    # same point give it: signed along the field direction, a zero as 0.0
    runs = ("--modes", dataset["modes"], "--manifest", dataset["manifest"],
            "--temp", "20", "--field-mt", field, "--field-dir", direction)
    assert run("sweep", *runs, "--out", str(tmp_path / "sweep"))[0] == 0
    assert run("tensor", *runs, "--out", str(tmp_path / "tensor"))[0] == 0
    header, row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    swept = dict(zip(header.split(","), map(float, row.split(","))))["field_mt"]
    doc = json.loads((tmp_path / "tensor" / "tensor.json").read_text())
    recorded = doc["metadata"]["field_mt"]
    assert recorded == swept == doc["config"]["physics"]["fields_mt"][0] == float(field)
    assert np.copysign(1.0, recorded) == np.copysign(1.0, float(field))


def _bool_at(key, *index_and_value):
    """An edit setting one leaf of doc[key], at the given index, to a bool."""
    *index, value = index_and_value

    def edit(doc):
        leaf = doc[key]
        for i in index[:-1]:
            leaf = leaf[i]
        leaf[index[-1]] = value
        return doc

    return edit


@pytest.mark.parametrize("edit, named", [
    (lambda doc: {k: v for k, v in doc.items() if k != "d2"}, "has no 'd2'"),
    (lambda doc: {**doc, "mixed_computed": "no"}, "'mixed_computed' must be"),
    (lambda doc: {**doc, "source_indices": [1.5, 2.7, 3.1]},
     "'source_indices' must be an array of integers"),
    (lambda doc: {**doc, "delta_angstrom": "0.01"}, "'delta_angstrom' must be"),
    (lambda doc: {**doc, "d1": [[0.0, "x", 0.0]] * 3}, "'d1' must be an array"),
    (lambda doc: {**doc, "d1": [[0.0] * 3, [0.0] * 2, [0.0] * 3]},
     "'d1' must be an array"),
    (lambda doc: {**doc, "frequencies_cm": [12.6, 45.0]}, "d1 must be (3, 2)"),
    (lambda doc: [doc], "must be a JSON object"),
    (lambda doc: "{not json", "is not valid JSON"),
    (_bool_at("d1", 0, 0, True), "'d1' must be an array of numbers"),
    (_bool_at("d2", 1, 2, 0, False), "'d2' must be an array of numbers"),
    (_bool_at("frequencies_cm", 0, True), "'frequencies_cm' must be an array"),
    (_bool_at("field_direction", 2, True), "'field_direction' must be an array"),
    (_bool_at("source_indices", 0, True),
     "'source_indices' must be an array of integers"),
], ids=["no-d2", "text-mixed", "float-indices", "text-delta", "text-entry",
        "ragged-d1", "short-frequencies", "top-level-array", "not-json",
        "bool-in-d1", "bool-in-d2", "bool-in-frequencies", "bool-in-direction",
        "bool-in-indices"])
def test_malformed_couplings_file_exits_1(dataset, tmp_path, capsys, edit, named):
    built = tmp_path / "built"
    assert run("couplings", "--modes", dataset["modes"],
               "--manifest", dataset["manifest"], "--out", str(built))[0] == 0
    doc = edit(json.loads((built / "couplings.json").read_text()))
    broken = tmp_path / "broken.json"
    broken.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, _, err = run("tensor", "--config", _g0_config(tmp_path, dataset),
                       "--couplings", str(broken), "--temp", "20",
                       "--field-mt", "1266", "--out", str(tmp_path / "art"),
                       capsys=capsys)
    assert code == 1, err
    assert f"error: couplings file {broken}" in err
    assert named in err


@pytest.mark.parametrize("document", ["config", "manifest", "couplings"])
def test_document_that_is_not_utf8_is_refused_naming_it(dataset, tmp_path, capsys,
                                                        document):
    # every input document is UTF-8: a byte that does not decode is refused
    # the way malformed JSON is, naming the document (a config exits 2)
    out = tmp_path / "built"
    assert run("couplings", "--modes", dataset["modes"],
               "--manifest", dataset["manifest"], "--out", str(out))[0] == 0
    config = Path(_g0_config(tmp_path, dataset))
    manifest = Path(dataset["manifest"])
    copy = manifest.parent / "latin1-manifest.json"
    shutil.copyfile(manifest, copy)
    files = {"config": config, "manifest": copy, "couplings": out / "couplings.json"}
    bad = files[document]
    bad.write_bytes(b"\xff" + bad.read_bytes())
    if document == "manifest":
        argv = ("couplings", "--modes", dataset["modes"], "--manifest", str(copy))
    else:
        argv = ("tensor", "--config", str(config), "--couplings", str(files["couplings"]))
    code, _, err = run(*argv, "--out", str(tmp_path / "art"), capsys=capsys)
    where = {"config": "config", "manifest": "manifest",
             "couplings": f"couplings file {bad}"}[document]
    assert code == (2 if document == "config" else 1), err
    assert err.startswith(f"error: {where} is not valid JSON: ")
    assert "can't decode byte 0xff in position 0" in err


def _ascii_locale_env() -> dict:
    """The environment of a process whose locale and file names are ASCII:
    neither UTF-8 mode nor locale coercion, and the C locale."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))}
    src = str(Path(spinlat.cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    return env


def test_documents_read_as_utf8_under_an_ascii_locale(dataset, tmp_path):
    # the config, the NMODES file, the manifest and the couplings file are
    # UTF-8 whatever the locale, and a path in the config names the same
    # bytes on disk: the files match those written in UTF-8 mode
    modes = tmp_path / "modes.txt"
    magic, rest = Path(dataset["modes"]).read_bytes().split(b"\n", 1)
    modes.write_bytes(magic + "\n# modes of the résumé set\n".encode() + rest)
    doc = json.loads(Path(dataset["manifest"]).read_text())
    manifest = Path(dataset["manifest"]).parent / "noted-manifest.json"
    manifest.write_bytes(json.dumps({**doc, "note": "résumé"}, ensure_ascii=False).encode())
    config = tmp_path / "cfg.json"
    config.write_bytes(json.dumps({"format": "spinlat-config/1",
                                   "paths": {"output_dir": "résultats"},
                                   "physics": {"g0": BASE_G.tolist()}},
                                  ensure_ascii=False).encode())
    env = _ascii_locale_env()

    def artifacts(utf8: str, *argv) -> dict:
        done = subprocess.run([sys.executable, "-m", "spinlat.cli", *argv, "--config",
                               "cfg.json"], cwd=tmp_path, env={**env, "PYTHONUTF8": utf8},
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        out = tmp_path / "résultats"
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        shutil.rmtree(out)
        return files

    built = artifacts("1", "couplings", "--modes", str(modes), "--manifest", str(manifest))
    assert artifacts("0", "couplings", "--modes", str(modes),
                     "--manifest", str(manifest)) == built
    couplings = tmp_path / "noted-couplings.json"
    couplings.write_bytes(json.dumps({**json.loads(built["couplings.json"]), "note": "résumé"},
                                     ensure_ascii=False).encode())
    point = ("tensor", "--couplings", str(couplings), "--temp", "20", "--field-mt", "1266")
    assert artifacts("0", *point) == artifacts("1", *point)


def _utf8_arg(text: str) -> str:
    """text as this process spells the argument or file name of its UTF-8 bytes."""
    return os.fsdecode(text.encode())


def test_manifest_results_open_by_their_utf8_names_under_an_ascii_locale(dataset, tmp_path):
    # a result named in the manifest is the file of its name's UTF-8 bytes,
    # whatever the locale, and a refusal names it as the manifest spells it
    runs = tmp_path / "runs"
    shutil.copytree(Path(dataset["manifest"]).parent, runs)
    (runs / "baseline.gout").rename(runs / _utf8_arg("b\u00e9se.gout"))
    doc = json.loads((runs / "manifest.json").read_text())
    (runs / "manifest.json").write_bytes(
        json.dumps({**doc, "baseline": "b\u00e9se.gout"}, ensure_ascii=False).encode())
    env = _ascii_locale_env()

    def couplings(utf8: str, out: str):
        return subprocess.run([sys.executable, "-m", "spinlat.cli", "couplings", "--modes",
                               dataset["modes"], "--manifest", str(runs / "manifest.json"),
                               "--out", out], cwd=tmp_path, env={**env, "PYTHONUTF8": utf8},
                              capture_output=True, timeout=120)

    written = []
    for utf8 in "01":
        done = couplings(utf8, "c")  # the same --out, which the config embeds
        assert done.returncode == 0, done.stderr
        written.append((tmp_path / "c" / "couplings.json").read_bytes())
        shutil.rmtree(tmp_path / "c")
    assert written[0] == written[1]
    baseline = runs / _utf8_arg("b\u00e9se.gout")
    baseline.write_text(baseline.read_text().replace("e+00", "e+999", 1))  # inf
    done = couplings("0", "bad")
    assert done.returncode == 1
    # stderr under the C locale escapes what ASCII cannot spell
    assert done.stderr.startswith(b"error: b\\xe9se.gout: line "), done.stderr
    assert b"non-finite" in done.stderr
    # and validate's table on stdout spells it the same way
    done = subprocess.run([sys.executable, "-m", "spinlat.cli", "validate", "--modes",
                           dataset["modes"], "--manifest", str(runs / "manifest.json")],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert done.returncode == 1 and done.stderr == b"", done.stderr
    assert b"CHECK manifest-complete FAIL  (b\\xe9se.gout: line 1: " in done.stdout, done.stdout


def test_path_flag_gives_the_same_artifact_under_every_locale(dataset, tmp_path):
    # a path flag is kept as the text of its UTF-8 bytes, so the config a
    # command embeds is the same whether argv was decoded as UTF-8 or ASCII
    assert run("couplings", "--modes", dataset["modes"], "--manifest", dataset["manifest"],
               "--out", str(tmp_path / "c"))[0] == 0
    env = _ascii_locale_env()
    written = {}
    for utf8 in "01":
        done = subprocess.run([sys.executable, "-m", "spinlat.cli", "tensor", "--config",
                               _g0_config(tmp_path, dataset), "--couplings",
                               str(tmp_path / "c" / "couplings.json"), "--temp", "20",
                               "--field-mt", "1266", "--out", _utf8_arg("r\u00e9s")],
                              cwd=tmp_path, env={**env, "PYTHONUTF8": utf8},
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        out = tmp_path / _utf8_arg("r\u00e9s")
        written[utf8] = (out / "tensor.json").read_bytes()
        shutil.rmtree(out)
    assert written["0"] == written["1"]
    assert json.loads(written["0"])["config"]["paths"]["output_dir"] == "r\u00e9s"


# ---------------------------------------------------------------- sweep

def test_sweep_grid_and_monotone_t1(dataset, tmp_path):
    out = tmp_path / "art"
    code, _, _ = run("sweep", "--modes", dataset["modes"],
                     "--manifest", dataset["manifest"],
                     "--temp", "5:300:12", "--field-mt", "1266",
                     "--out", str(out))
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# config:")
    assert len(lines) == 2 + 12
    header = lines[1].split(",")
    t1 = np.array([float(r.split(",")[header.index("t1_us")]) for r in lines[2:]])
    assert np.all(np.diff(t1) <= 0.0)
    temp = float(lines[2].split(",")[header.index("temperature_k")])
    assert temp == 5.0 and 1.0 / t1[0] > 0.0


def test_sweep_writes_only_sweep_csv(dataset, tmp_path, capsys):
    # sweep.csv holds every (T, B) point's times by repr, so the command
    # writes no second copy of any of them
    out = tmp_path / "art"
    code, stdout, _ = run("sweep", "--modes", dataset["modes"],
                          "--manifest", dataset["manifest"], "--temp", "5,20",
                          "--field-mt", "1000,1266", "--out", str(out), capsys=capsys)
    assert code == 0
    assert [p.name for p in out.iterdir()] == ["sweep.csv"]
    assert stdout == f"wrote sweep.csv (4 points) to {out}\n"


def test_sweep_repeat_runs_byte_identical(dataset, tmp_path):
    out = tmp_path / "same"

    def digest():
        shutil.rmtree(out, ignore_errors=True)
        code, _, _ = run("sweep", "--modes", dataset["modes"],
                         "--manifest", dataset["manifest"],
                         "--temp", "5:100:6", "--field-mt", "1000,1266",
                         "--out", str(out))
        assert code == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    assert digest() == digest()


def test_sweep_starts_at_zero_field(dataset, tmp_path):
    # the sweep takes its field direction from the config, not from the
    # first grid field, so B = 0 is a valid point with no relaxation
    out = tmp_path / "art"
    code, _, _ = run("sweep", "--modes", dataset["modes"],
                     "--manifest", dataset["manifest"],
                     "--temp", "20", "--field-mt", "0:2000:3", "--out", str(out))
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    header = lines[1].split(",")
    row = dict(zip(header, map(float, lines[2].split(","))))
    assert row["field_mt"] == 0.0
    assert row["t1_us"] == row["t2_us"] == np.inf
    assert all(row[k] == 0.0 for k in header if k == "omega_cm" or k.startswith("l"))
    assert row["temperature_k"] == 20.0 and 1.0 / row["t1_us"] == 0.0


def test_range_syntax_errors(dataset, capsys):
    code, _, err = run("sweep", "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"],
                       "--temp", "5:300", capsys=capsys)
    assert code == 2 and "start:stop:count" in err
    code, _, err = run("sweep", "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"],
                       "--temp", "warm", capsys=capsys)
    assert code == 2 and "--temp" in err


# ------------------------------------------------------------ attribute

def test_attribute_ranked_and_truncated(dataset, tmp_path, capsys):
    out = tmp_path / "art"
    code, stdout, _ = run("attribute", "--modes", dataset["modes"],
                          "--manifest", dataset["manifest"],
                          "--temp", "20", "--field-mt", "1266",
                          "--top", "2", "--out", str(out), capsys=capsys)
    assert code == 0
    rows = json.loads((out / "attribution.json").read_text())["modes"]
    assert len(rows) == 2
    shares = [r["trace_share1"] + r["trace_share2"] for r in rows]
    assert shares[0] >= shares[1]
    assert "mode" in stdout


@pytest.mark.parametrize("pairing", ["diagonal_only", "all_pairs"])
@pytest.mark.parametrize("direction", ["0,0,1", "1,-2,-2"])
@pytest.mark.parametrize("top", [(), ("--top", "3")], ids=["all", "top3"])
def test_tensor_and_attribute_list_the_same_modes(six_mode_dataset, tmp_path, pairing,
                                                  direction, top):
    # one ranking, by tr L1 + tr L2, for both artifacts; on this set tr L2
    # alone would rank another top three
    data = six_mode_dataset
    for command in ("tensor", "attribute"):
        assert run(command, "--modes", data["modes"], "--manifest", data["manifest"],
                   "--temp", "20", "--field-mt", "1266", "--pairing", pairing,
                   "--field-dir", direction, *top, "--out", str(tmp_path))[0] == 0
    listed = json.loads((tmp_path / "tensor.json").read_text())["mode_attribution"]
    ranked = json.loads((tmp_path / "attribution.json").read_text())["modes"]
    assert listed == ranked
    assert len(ranked) == (3 if top else 6)
    if not top:
        by_l2 = sorted(ranked, key=lambda row: -row["trace_share2"])
        assert [row["mode"] for row in by_l2[:3]] != [row["mode"] for row in ranked[:3]]


# ------------------------------------------------------------- dynamics

def test_dynamics_t1_run(dataset, tmp_path):
    # the artifacts and their shape; the fitted time's agreement with the
    # analytic one is checked per frame and field direction below
    out = tmp_path / "art"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, _, _ = run("dynamics", "--modes", dataset["modes"],
                         "--manifest", dataset["manifest"],
                         "--temp", "200", "--field-mt", "1266",
                         "--kind", "t1", "--samples", "801", "--out", str(out))
    assert code == 0
    doc = json.loads((out / "dynamics.json").read_text())
    # engine and kind are written once, as the config keys they are
    assert "engine" not in doc and "kind" not in doc
    assert (doc["config"]["dynamics"]["engine"], doc["config"]["dynamics"]["kind"]) == (
        "lindblad", "t1")
    assert doc["fitted_time_us"] > 0.0
    assert not doc["non_decaying"]
    assert 0.1 < doc["fitted_time_us"] / doc["analytic_t1_us"] < 10.0
    traj = (out / "trajectory.csv").read_text().split("\n")
    assert traj[0].startswith("# config:")
    assert traj[1].startswith("t_us,")
    assert len(traj) == 2 + 801 + 1  # config, header, rows, trailing newline


def test_dynamics_axial_system_matches_analytic(dataset, tmp_path):
    # an axial tensor (couplings along z only) decays single-exponentially,
    # so the fitted rate must reproduce the projected analytic one
    out = tmp_path / "art2"
    import spinlat.couplings as cpl
    freqs = np.array([12.6, 18.0, 24.0])
    d2 = np.zeros((3, 3, 3))
    for q in range(3):
        d2[2, q, q] = 5e-3
    c = cpl.CouplingTensors(
        d1=np.zeros((3, 3)), d2=d2, delta_angstrom=0.01, frequencies=freqs,
        field_direction=(0.0, 0.0, 1.0), mixed_computed=True,
    )
    path = tmp_path / "axial.json"
    cpl.export_couplings(c, path)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "format": "spinlat-config/1",
        "physics": {"g0": BASE_G.tolist()},
    }))
    code, _, _ = run("dynamics", "--config", str(cfgfile),
                     "--couplings", str(path),
                     "--temp", "200", "--field-mt", "1000",
                     "--kind", "t2", "--samples", "801", "--out", str(out))
    assert code == 0
    doc = json.loads((out / "dynamics.json").read_text())
    assert doc["fitted_time_us"] == pytest.approx(doc["analytic_t2_us"], rel=0.01)


@pytest.mark.parametrize("direction", ["0,0,1", "1,0,0", "1,-2,-2"])
@pytest.mark.parametrize("kind, frame", [
    ("t1", ("--no-rotating-frame",)), ("t2", ("--no-rotating-frame",)),
    ("t1", ()), ("t2", ()),
], ids=["t1", "t2", "t1-rotating", "t2-rotating"])
def test_dynamics_lab_frame_follows_field_direction(dataset, tmp_path, direction,
                                                    kind, frame):
    # the lab-frame run precesses about the field and the rotating-frame run
    # keeps the secular part of the tensor about it, so on this non-axial
    # tensor both fits match the time projected on that axis
    out = tmp_path / "lab"
    code, _, _ = run("dynamics", "--modes", dataset["modes"],
                     "--manifest", dataset["manifest"],
                     "--temp", "200", "--field-mt", "1266",
                     "--field-dir", direction, "--kind", kind,
                     *frame, "--samples", "801", "--out", str(out))
    assert code == 0
    doc = json.loads((out / "dynamics.json").read_text())
    analytic = doc["analytic_t1_us"] if kind == "t1" else doc["analytic_t2_us"]
    assert doc["fitted_time_us"] == pytest.approx(analytic, rel=1e-3)


# at Omega a few times Tr L the coherence beats at 2 Omega, so one
# exponential misses it by more than the fit's 1 % warning level
@pytest.mark.filterwarnings("ignore:decay fit residual")
@pytest.mark.parametrize("omega", ["1e-7", "2.5e-8"])
def test_lab_frame_fitted_t2_does_not_turn_with_the_input(tmp_path, omega):
    # each frame carries its L to the field axis by its own rotation, and
    # the two differ by a turn about z; started along an in-plane principal
    # axis of L, the coherence meets the same L in both, so a joint rotation
    # moves the fitted T2 by no more than the lab-frame T1 bound, 1e-9.
    # Omega is pinned at a few to tens of times Tr L, where a start along
    # the frame's x axis moved it by 0.17 and 2.7 %
    for seed in range(5):
        times = []
        for i, (c, bath, spin) in enumerate(_rotation_case(seed, "diagonal_only")[:2]):
            path = tmp_path / f"c{i}.json"
            export_couplings(c, path)
            cfgfile = tmp_path / f"cfg{i}.json"
            cfgfile.write_text(json.dumps({"format": "spinlat-config/1", "physics": {
                "g0": spin.g0.matrix.tolist(),
                "field_direction": c.field_direction.tolist(),
                "temperatures_k": [bath.temperature_k], "fields_mt": [1266.0]}}))
            out = tmp_path / f"art{i}"
            assert run("dynamics", "--config", str(cfgfile), "--couplings", str(path),
                       "--omega", omega, "--kind", "t2", "--no-rotating-frame",
                       "--out", str(out))[0] == 0
            times.append(json.loads((out / "dynamics.json").read_text())["fitted_time_us"])
        assert abs(times[1] / times[0] - 1.0) <= 1e-9, seed


def test_every_dynamics_setting_is_recorded(dataset, tmp_path, monkeypatch):
    # the frame, the engine and the span change the trajectory, so each
    # must change the config that both artifacts embed
    monkeypatch.chdir(tmp_path)
    common = ("dynamics", "--modes", dataset["modes"], "--manifest", dataset["manifest"],
              "--temp", "200", "--field-mt", "1266", "--samples", "201", "--out", "art")
    configs = []
    for flags in ((), ("--no-rotating-frame",), ("--engine", "redfield"),
                  ("--t-end", "50")):
        assert run(*common, *flags)[0] == 0
        line = Path("art/trajectory.csv").read_text().split("\n")[0]
        doc = json.loads(Path("art/dynamics.json").read_text())
        assert json.loads(line[len("# config: "):]) == doc["config"]
        configs.append(line)
    assert len(set(configs)) == len(configs)
    assert doc["config"]["numerics"]["t_end_us"] == 50.0
    assert '"engine":"redfield"' in configs[2] and '"rotating_frame":false' in configs[1]


def test_redfield_records_the_lab_frame(dataset, tmp_path):
    # the Redfield engine never rotates, so both artifacts record
    # rotating_frame false although the key's default is true
    out = tmp_path / "art"
    assert run("dynamics", "--engine", "redfield", "--kind", "t2",
               "--modes", dataset["modes"], "--manifest", dataset["manifest"],
               "--temp", "200", "--field-mt", "1266", "--samples", "201",
               "--out", str(out))[0] == 0
    line = (out / "trajectory.csv").read_text().split("\n")[0]
    doc = json.loads((out / "dynamics.json").read_text())
    for config in (json.loads(line[len("# config: "):]), doc["config"]):
        assert config["dynamics"]["rotating_frame"] is False


# one case for each flag of every command: a command that has it, the
# flag's text, its key, a value for the config file and the value the text
# gives; "{name}" in a text or a value is the test's input of that name
_FLAG_CASES = {
    "modes": ("displace", ("--modes", "{modes}"), "paths.modes", "{other_modes}", "{modes}"),
    "manifest": ("couplings", ("--manifest", "{manifest}"), "paths.manifest",
                 "{pair_manifest}", "{manifest}"),
    "couplings": ("tensor", ("--couplings", "{couplings}"), "paths.couplings",
                  "{pair_couplings}", "{couplings}"),
    "out": ("displace", ("--out", "art"), "paths.output_dir", "art2", "art"),
    "temp": ("tensor", ("--temp", "30"), "physics.temperatures_k", [20.0], [30.0]),
    "field-mt": ("tensor", ("--field-mt", "-1266"), "physics.fields_mt", [1266.0], [-1266.0]),
    "field-dir": ("couplings", ("--field-dir", "1,-2,-2"), "physics.field_direction",
                  [0.0, 0.0, 1.0], [1.0, -2.0, -2.0]),
    "linewidth": ("tensor", ("--linewidth", "3"), "physics.linewidth_cm", 2.0, 3.0),
    "gamma": ("tensor", ("--gamma", "3"), "physics.gamma_cm", 2.0, 3.0),
    "pairing": ("displace", ("--pairing", "all_pairs"), "physics.pairing", "diagonal_only",
                "all_pairs"),
    "convention": ("tensor", ("--convention", "lindblad"), "physics.convention",
                   "projection", "lindblad"),
    "omega": ("tensor", ("--omega", "0.5"), "physics.omega_override_cm", 1.0, 0.5),
    "delta": ("displace", ("--delta", "0.02"), "numerics.delta_angstrom", 0.01, 0.02),
    "order": ("displace", ("--order", "1"), "numerics.order", 2, 1),
    "skip-soft": ("displace", ("--skip-soft",), "numerics.skip_soft", False, True),
    "samples": ("dynamics", ("--samples", "301"), "numerics.time_samples", 201, 301),
    # T1 is about 0.019 us at 200 K, so the grid spans about 0.075 us
    "fit-window": ("dynamics", ("--fit-window", "0.005,0.04"), "numerics.fit_window_us",
                   [0.01, 0.06], [0.005, 0.04]),
    "tensor-top": ("tensor", ("--top", "1"), "report.top_modes", 3, 1),
    "attribute-top": ("attribute", ("--top", "1"), "report.top_modes", 3, 1),
    "t-end": ("dynamics", ("--t-end", "50"), "numerics.t_end_us", 70.0, 50.0),
    "kind": ("dynamics", ("--kind", "t2"), "dynamics.kind", "t1", "t2"),
    "engine": ("dynamics", ("--engine", "redfield"), "dynamics.engine", "lindblad", "redfield"),
    "rotating-frame": ("dynamics", ("--no-rotating-frame",), "dynamics.rotating_frame", True,
                       False),
}


def test_every_flag_has_a_config_file_case():
    flags = {flag for _, _, command_flags in spinlat.cli._COMMANDS.values()
             for flag in command_flags}
    assert {flag[0] for _, flag, *_ in _FLAG_CASES.values()} == flags
    for command, flag, key, *_ in _FLAG_CASES.values():
        assert flag[0] in spinlat.cli._COMMANDS[command][2]
        assert spinlat.cli._FLAGS[flag[0]][0] == key


@pytest.mark.parametrize("command, flag, key, file_value, flag_value",
                         list(_FLAG_CASES.values()), ids=list(_FLAG_CASES))
def test_every_flag_setting_can_come_from_the_config_file(
        dataset, pair_dataset, tmp_path, monkeypatch, capsys, command, flag, key,
        file_value, flag_value):
    # a flag is only a way to set its key: the key set in the file gives the
    # flag's artifacts and stdout byte for byte, and the flag wins over the file
    monkeypatch.chdir(tmp_path)
    inputs = {"--modes": dataset["modes"], "--out": "art"}
    if command != "displace":
        inputs["--manifest"] = dataset["manifest"]
    if command in ("tensor", "attribute"):
        inputs["--temp"] = "20"
    if command == "dynamics":
        inputs.update({"--temp": "200", "--samples": "201"})
    names = {"modes": dataset["modes"], "other_modes": pair_dataset["modes"],
             "manifest": dataset["manifest"], "pair_manifest": pair_dataset["manifest"]}
    base = {}  # what every run's config file holds
    if key == "paths.couplings":
        # a couplings file is one source of the couplings and the runs another
        del inputs["--modes"], inputs["--manifest"]
        base = {"physics": {"g0": BASE_G.tolist()}}
        for name, data in (("couplings", dataset), ("pair_couplings", pair_dataset)):
            assert run("couplings", "--modes", data["modes"], "--manifest",
                       data["manifest"], "--out", name, capsys=capsys)[0] == 0
            names[name] = str(tmp_path / name / "couplings.json")
    inputs.pop(flag[0], None)
    inputs = [text for pair in inputs.items() for text in pair]

    def named(value):
        return value.format(**names) if type(value) is str else value

    flag, file_value, flag_value = tuple(map(named, flag)), named(file_value), named(flag_value)
    section, name = key.split(".")

    def artifacts(*argv, value=None):
        for out in Path(".").glob("art*"):
            shutil.rmtree(out)
        doc = {**base}
        if value is not None:
            doc[section] = {**doc.get(section, {}), name: value}
        Path("cfg.json").write_text(json.dumps({"format": "spinlat-config/1", **doc}))
        code, out, err = run(command, *inputs, *argv, "--config", "cfg.json", capsys=capsys)
        assert code == 0, err
        # --out names the directory: art by the flag, art2 by the file
        return out, {p.name: p.read_bytes() for p in Path(".").glob("art*/*")}

    expected = artifacts(*flag)
    assert artifacts(value=flag_value) == expected
    assert artifacts(*flag, value=file_value) == expected
    assert artifacts(value=file_value) != expected
    sidecar = {"displace": "displace.config.json", "couplings": "couplings.json",
               "tensor": "tensor.json", "attribute": "attribution.json"}.get(
        command, "dynamics.json")
    assert json.loads(expected[1][sidecar])["config"][section][name] == flag_value


def test_artifacts_are_strict_json(dataset, tmp_path):
    # at zero field nothing relaxes: every time is infinite, written as null
    def strict(path):
        def refuse(name):
            raise AssertionError(f"{path.name} holds {name}")
        return json.loads(path.read_text(), parse_constant=refuse)

    runs = ("--modes", dataset["modes"], "--manifest", dataset["manifest"],
            "--temp", "20", "--field-mt", "0", "--out", str(tmp_path))
    assert run("tensor", *runs)[0] == 0
    report = strict(tmp_path / "tensor.json")
    assert report["times_us"] == {name: {"t1": None, "t2": None}
                                  for name in ("lindblad", "projection")}
    assert run("dynamics", *runs, "--t-end", "5", "--samples", "101")[0] == 0
    doc = strict(tmp_path / "dynamics.json")
    assert doc["non_decaying"] and doc["fitted_rate_per_us"] == 0.0
    assert doc["fitted_time_us"] is doc["analytic_t1_us"] is doc["analytic_t2_us"] is None


def test_step_control_flag_and_key_are_gone(dataset, tmp_path, capsys):
    # propagation is exact, so there is no integrator step to cap
    code, _, _ = run("dynamics", "--modes", dataset["modes"],
                     "--manifest", dataset["manifest"], "--max-step", "1e-3",
                     capsys=capsys)
    assert code == 2
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "format": "spinlat-config/1",
        "numerics": {"max_step_us": 1e-3},
    }))
    code, _, err = run("dynamics", "--config", str(cfgfile), capsys=capsys)
    assert code == 2
    assert "unknown config key 'numerics.max_step_us'" in err


def test_cli_import_loads_no_scipy(dataset, tmp_path):
    # the runtime needs only NumPy: importing the CLI and running a
    # lab-frame and a Redfield dynamics command load no SciPy.  Nothing
    # starts worker processes, so the multiprocessing machinery stays out
    src = str(Path(spinlat.cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    common = ["dynamics", "--modes", dataset["modes"],
              "--manifest", dataset["manifest"], "--temp", "200",
              "--field-mt", "1266", "--kind", "t2", "--samples", "201"]
    runs = [common + ["--no-rotating-frame", "--out", str(tmp_path / "lab")],
            common + ["--engine", "redfield", "--out", str(tmp_path / "rf")]]
    probe = ("import json, sys, spinlat.cli; "
             f"codes = [spinlat.cli.main(argv) for argv in {runs!r}]; "
             "print(json.dumps([codes, sorted(m for m in sys.modules "
             "if m.startswith('scipy') "
             "or m in ('multiprocessing', 'concurrent.futures.process'))]))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout.strip().splitlines()[-1]) == [[0, 0], []]


def test_cli_loads_ingest_and_dynamics_only_for_their_commands(dataset, tmp_path):
    # importing the CLI loads neither module; a command loads ingest only to
    # plan or read runs, and dynamics only to propagate
    src = str(Path(spinlat.cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    assert main(["couplings", "--modes", dataset["modes"], "--manifest",
                 dataset["manifest"], "--out", str(tmp_path / "c")]) == 0
    g0 = tmp_path / "g0.json"
    g0.write_text(json.dumps({"format": "spinlat-config/1",
                              "physics": {"g0": BASE_G.tolist()}}))
    from_file = ["--config", str(g0), "--couplings", str(tmp_path / "c" / "couplings.json"),
                 "--temp", "200", "--field-mt", "1266"]
    runs = ["--modes", dataset["modes"], "--manifest", dataset["manifest"]]
    probe = ("import json, sys, spinlat.cli\n"
             "def loaded():\n"
             "    return [m for m in ('spinlat.ingest', 'spinlat.dynamics') if m in sys.modules]\n"
             "seen = [loaded()]\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    seen.append((spinlat.cli.main(argv), loaded()))\n"
             "print(json.dumps(seen))")

    def seen(*argvs):
        done = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    assert seen(*([command, *from_file, "--out", str(tmp_path / command)]
                  for command in ("tensor", "sweep", "attribute", "dynamics"))) == [
        [], [0, []], [0, []], [0, []], [0, ["spinlat.dynamics"]]]
    assert seen(["displace", "--modes", dataset["modes"], "--out", str(tmp_path / "plan")],
                ["couplings", *runs, "--out", str(tmp_path / "again")],
                ["validate", *runs]) == [[], *[[0, ["spinlat.ingest"]]] * 3]



# ----------------------------------------------------------------- exit

def test_cli_run_freezes_what_is_alive_at_exit_only(dataset):
    # shutdown's collections skip every object a CLI run leaves alive: an
    # exit handler registered before main runs after main's and sees them
    # frozen.  A process that only imports the CLI exits as before
    src = str(Path(spinlat.cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import atexit, gc, sys, spinlat.cli\n"
             "atexit.register(lambda: print('frozen at exit', gc.get_freeze_count() > 0))\n"
             "if sys.argv[1:]:\n"
             "    print('exit code', spinlat.cli.main(sys.argv[1:]), gc.get_freeze_count())\n")

    def lines(*argv):
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stderr == ""
        return done.stdout.splitlines()

    assert lines("validate", "--modes", dataset["modes"],
                 "--manifest", dataset["manifest"])[-2:] == ["exit code 0 0",
                                                             "frozen at exit True"]
    assert lines() == ["frozen at exit False"]


def test_main_adds_one_exit_handler_and_freezes_nothing(dataset, capsys, monkeypatch):
    # however often main runs in one process it registers one handler, and
    # nothing is frozen while the process runs, so an in-process caller's
    # garbage cycles are still collected
    atexit.unregister(gc.freeze)
    monkeypatch.setattr(spinlat.cli, "_exit_freeze", None)  # as in a fresh process
    before = atexit._ncallbacks()
    for argv in (("validate", "--modes", dataset["modes"], "--manifest", dataset["manifest"]),
                 ("tensor", "--temp", "x")):
        run(*argv, capsys=capsys)
        assert gc.get_freeze_count() == 0
    assert atexit._ncallbacks() == before + 1


@pytest.mark.parametrize("name", ["displace", "couplings", "tensor", "tensor-from-file",
                                  "sweep", "attribute", "dynamics", "redfield", "validate"])
def test_commands_close_every_file_they_open(dataset, tmp_path, capsys, name):
    # exit no longer collects reference cycles, so a file left open in one
    # would stay open: no command, collected after it returns, warns of one
    runs = ("--modes", dataset["modes"], "--manifest", dataset["manifest"])
    built, out = tmp_path / "built", ("--out", str(tmp_path / "art"))
    assert run("couplings", *runs, "--out", str(built))[0] == 0
    from_file = ("--config", _g0_config(tmp_path, dataset),
                 "--couplings", str(built / "couplings.json"))
    argv = {
        "displace": ("displace", "--modes", dataset["modes"], *out),
        "couplings": ("couplings", *runs, *out),
        "tensor": ("tensor", *runs, *out),
        "tensor-from-file": ("tensor", *from_file, *out),
        "sweep": ("sweep", *from_file, "--temp", "20,40", *out),
        "attribute": ("attribute", *runs, *out),
        "dynamics": ("dynamics", *runs, "--no-rotating-frame", "--samples", "201", *out),
        "redfield": ("dynamics", *from_file, "--engine", "redfield", "--kind", "t2",
                     "--samples", "201", *out),
        "validate": ("validate", *runs),
    }[name]
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv, capsys=capsys)[0] == 0
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_help_is_the_help_of_the_parser_with_every_flag(capsys):
    # main gives only the named command its flags; no help text changes,
    # and another command's flag is still refused
    full = spinlat.cli.build_parser()
    commands = next(action.choices for action in full._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert list(commands) == list(spinlat.cli._COMMANDS)
    for command, parser in commands.items():
        assert run(command, "--help", capsys=capsys)[:2] == (0, parser.format_help())
    assert run("--help", capsys=capsys)[:2] == (0, full.format_help())
    code, _, err = run("tensor", "--kind", "t1", capsys=capsys)
    assert code == 2 and "unrecognized arguments: --kind t1" in err


@pytest.mark.parametrize("t_end", ["-1", "0", "nan", "inf"])
def test_dynamics_bad_t_end_exits_2(dataset, tmp_path, capsys, monkeypatch,
                                    t_end):
    # refused with the flag named, before any input is read or tensor built
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before --t-end was checked")

    monkeypatch.setattr(spinlat.cli, "load_run_set", forbidden)
    monkeypatch.setattr(spinlat.cli, "build_tensor", forbidden)
    code, _, err = run("dynamics", "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"],
                       "--temp", "200", "--field-mt", "1266",
                       "--t-end", t_end, "--out", str(tmp_path / "art"),
                       capsys=capsys)
    assert code == 2, err
    assert "--t-end" in err
    assert not (tmp_path / "art").exists()


def test_redfield_with_all_pairs_exits_2(dataset, tmp_path, capsys, monkeypatch):
    # the Redfield bath has no pair channel, so an all_pairs run would
    # silently use the diagonal_only bath; refused before any input is read
    def forbidden(*args, **kwargs):
        raise AssertionError("input read before physics.pairing was checked")

    monkeypatch.setattr(spinlat.cli, "parse_modes", forbidden)
    monkeypatch.setattr(spinlat.cli, "load_couplings", forbidden)
    runs = ("dynamics", "--modes", dataset["modes"], "--manifest", dataset["manifest"],
            "--temp", "200", "--field-mt", "1266", "--engine", "redfield",
            "--out", str(tmp_path / "art"))
    code, _, err = run(*runs, "--pairing", "all_pairs", capsys=capsys)
    assert code == 2, err
    assert "physics.pairing" in err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"format": "spinlat-config/1",
                                   "physics": {"pairing": "all_pairs"}}))
    code, _, err = run(*runs, "--config", str(cfgfile), capsys=capsys)
    assert code == 2, err
    assert "physics.pairing" in err
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("engine", ["lindblad", "redfield"])
def test_dynamics_sparse_fit_window_exits_2(dataset, tmp_path, capsys, monkeypatch,
                                            engine):
    # a valid window holding fewer than 10 grid samples is refused, naming
    # the key, before any propagation
    def forbidden(*args, **kwargs):
        raise AssertionError("propagation started before the window was checked")

    monkeypatch.setattr(spinlat.cli, "lindblad_evolve", forbidden)
    monkeypatch.setattr(spinlat.cli, "redfield_evolve", forbidden)
    code, _, err = run("dynamics", "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"],
                       "--temp", "200", "--field-mt", "1266", "--engine", engine,
                       "--fit-window", "0,1e-6", "--out", str(tmp_path / "art"),
                       capsys=capsys)
    assert code == 2, err
    assert "numerics.fit_window_us" in err
    assert not (tmp_path / "art").exists()


def test_src_imports_only_stdlib_and_numpy():
    # a lazy import inside a function escapes the import-time probe
    # above, and the test environment has SciPy, so check the source
    import ast

    allowed = set(sys.stdlib_module_names) | {"numpy", "spinlat"}
    found = []
    for path in sorted(Path(spinlat.cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


def test_dynamics_bad_fit_window_exits_2(dataset, capsys):
    code, _, err = run("dynamics", "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"],
                       "--temp", "200", "--field-mt", "1266",
                       "--fit-window", "abc", capsys=capsys)
    assert code == 2
    assert "fit-window" in err


# ------------------------------------------------------------- validate

CHECKS = ("modes-parse", "manifest-complete", "baseline-g", "couplings-assemble",
          "tensor-psd", "time-identity")


def checks(stdout):
    """validate's table as (name, verdict) pairs, in printed order."""
    return re.findall(r"^CHECK (\S+) +(PASS|FAIL)", stdout, re.M)


def test_validate_clean_dataset(dataset, capsys):
    code, stdout, _ = run("validate", "--modes", dataset["modes"],
                          "--manifest", dataset["manifest"],
                          "--temp", "20,300", "--field-mt", "1266",
                          capsys=capsys)
    assert code == 0
    # names padded to the longest printed name, no message after a PASS
    assert stdout == "".join(f"CHECK {name:<18} PASS\n" for name in CHECKS)


def test_validate_unparsable_modes_fails(dataset, tmp_path, capsys):
    # no later check can run without the modes, so the table is one line
    modes = tmp_path / "modes.txt"
    modes.write_text("not a modes file\n")
    code, stdout, _ = run("validate", "--modes", str(modes),
                          "--manifest", dataset["manifest"], capsys=capsys)
    assert code == 1
    assert checks(stdout) == [("modes-parse", "FAIL")]
    assert stdout.startswith("CHECK modes-parse FAIL  (line 1: ")


@pytest.mark.parametrize("convention", ["projection", "lindblad"])
def test_validate_time_identity_checks_reported_times(dataset, monkeypatch, capsys,
                                                      convention):
    # the identity is checked on the times the sweep rows report, so a T2
    # that does not follow from the row's own tensor fails it
    def clean():
        return run("validate", "--modes", dataset["modes"],
                   "--manifest", dataset["manifest"], "--temp", "20,300",
                   "--field-mt", "1000,1266", "--convention", convention,
                   capsys=capsys)

    code, stdout, _ = clean()
    assert code == 0 and re.search(r"CHECK time-identity +PASS", stdout)
    real = spinlat.cli.sweep

    def corrupt_t2(*args, **kwargs):
        points = real(*args, **kwargs)
        points.t2_us[-1] *= 1 + 1e-9
        return points

    monkeypatch.setattr(spinlat.cli, "sweep", corrupt_t2)
    code, stdout, _ = clean()
    assert code == 1
    assert re.search(r"CHECK time-identity +FAIL  \(T2 identity at 300.0 K, "
                     r"1266.0 mT violated by", stdout), stdout


def test_validate_checks_every_grid_point(dataset, monkeypatch, capsys):
    # the sweep checks each field's points as one stack; make the last of
    # the four points non-PSD and it is caught and named
    real = spinlat.relaxation.check_rate_matrix
    lambda2_stacks = []

    def fails_at_last_point(m, name, labels=None):
        if name == "lambda2":
            lambda2_stacks.append(m)
            if len(lambda2_stacks) == 2:
                m = m.copy()
                m[-1] = np.diag([1e-3, -1e-3, 0.0])
        return real(m, name, labels)

    monkeypatch.setattr(spinlat.relaxation, "check_rate_matrix", fails_at_last_point)
    code, stdout, _ = run("validate", "--modes", dataset["modes"],
                          "--manifest", dataset["manifest"],
                          "--temp", "20,300", "--field-mt", "1000,1266",
                          capsys=capsys)
    assert code == 1
    assert re.search(r"CHECK tensor-psd +FAIL", stdout)
    assert "(lambda2 at 300.0 K, 1266.0 mT is not PSD: eigenvalue" in stdout
    assert [m.shape for m in lambda2_stacks] == [(2, 3, 3), (2, 3, 3)]


def test_validate_solves_one_eigen_stack_per_field_and_order(dataset, monkeypatch,
                                                              capsys):
    # tensor-psd checks each field's lambda1 and lambda2 as stacks, and
    # time-identity reuses the checked tensors without another solve
    real = np.linalg.eigvalsh
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    code, stdout, _ = run("validate", "--modes", dataset["modes"],
                          "--manifest", dataset["manifest"],
                          "--temp", "20,150,300", "--field-mt", "1000,1266",
                          capsys=capsys)
    assert code == 0
    assert re.search(r"CHECK time-identity +PASS", stdout)
    assert shapes == [(3, 3, 3)] * 4


def test_sweep_failure_names_grid_point(dataset, monkeypatch, tmp_path, capsys):
    real = spinlat.relaxation.bose_occupation

    def occupation(omega_cm, temperature_k):
        n = real(omega_cm, temperature_k)
        return n * np.nan if temperature_k == 300.0 else n

    monkeypatch.setattr(spinlat.relaxation, "bose_occupation", occupation)
    code, _, err = run("sweep", "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"],
                       "--temp", "20,300", "--field-mt", "1000,1266",
                       "--out", str(tmp_path / "art"), capsys=capsys)
    assert code == 1
    assert "error: rates at 300.0 K, 1000.0 mT contain non-finite entries" in err


def test_all_pairs_on_couplings_without_mixed_exits_1(dataset, tmp_path, capsys):
    # the dataset has no pair runs, so its couplings have no mixed second
    # derivatives, and an all_pairs rate would leave every one of them out
    runs = ("--modes", dataset["modes"], "--manifest", dataset["manifest"],
            "--temp", "20", "--field-mt", "1266", "--pairing", "all_pairs")
    for command in ("tensor", "sweep", "attribute", "dynamics"):
        code, _, err = run(command, *runs, "--out", str(tmp_path / "art"), capsys=capsys)
        assert code == 1, (command, err)
        assert "mixed_computed false" in err
        assert not (tmp_path / "art").exists()
    code, stdout, _ = run("validate", *runs, capsys=capsys)
    assert code == 1
    # time-identity needs the sweep that tensor-psd failed, so it is not run
    assert checks(stdout) == [(name, "PASS") for name in CHECKS[:4]] + [("tensor-psd", "FAIL")]
    assert re.search(r"CHECK tensor-psd +FAIL  \(pairing 'all_pairs' needs the mixed",
                     stdout), stdout


def test_unreadable_result_exits_1_naming_it(dataset, tmp_path, capsys, monkeypatch):
    # a result that exists but cannot be read is not a missing run; tests
    # may run as root, who can read any file, so the refusal is faked
    real_open = os.open

    def refuse(path, *args, **kwargs):
        if os.path.basename(path) == "single0002_m.gout":
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse)
    code, _, err = run("couplings", "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"], "--out", str(tmp_path / "art"),
                       capsys=capsys)
    assert code == 1
    assert "Permission denied" in err and "single0002_m.gout" in err
    assert "missing" not in err
    assert not (tmp_path / "art").exists()


def test_validate_incomplete_runs_fails(dataset, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(Path(dataset["manifest"]).parent, broken)
    (broken / "single0002_m.gout").unlink()
    code, stdout, _ = run("validate", "--modes", dataset["modes"],
                          "--manifest", str(broken / "manifest.json"),
                          capsys=capsys)
    assert code == 1
    assert checks(stdout) == [("modes-parse", "PASS"), ("manifest-complete", "FAIL")]
    assert "manifest-complete FAIL  (1 missing displaced-run results: (mode 2, -))" in stdout


@pytest.mark.parametrize("command", ["couplings", "validate"])
def test_unparsable_result_names_its_file(dataset, tmp_path, capsys, command):
    broken = tmp_path / "broken"
    shutil.copytree(Path(dataset["manifest"]).parent, broken)
    (broken / "single0002_m.gout").write_text("ELECTRONIC G-MATRIX\n1.98 0.001\n")
    out = () if command == "validate" else ("--out", str(tmp_path / "art"))
    code, stdout, err = run(command, "--modes", dataset["modes"],
                            "--manifest", str(broken / "manifest.json"), *out,
                            capsys=capsys)
    assert code == 1
    reported = stdout if command == "validate" else err
    assert ("single0002_m.gout: line 1: found 2 of 9 numeric fields"
            in reported.replace("  ", " ")), reported
    if command == "validate":
        # without a run set neither the couplings nor the tensors are checked
        assert checks(stdout) == [("modes-parse", "PASS"), ("manifest-complete", "FAIL")]


@pytest.mark.parametrize("command", ["couplings", "validate"])
def test_result_that_is_not_utf8_names_its_file(dataset, tmp_path, capsys, command):
    broken = tmp_path / "broken"
    shutil.copytree(Path(dataset["manifest"]).parent, broken)
    baseline = broken / "baseline.gout"
    baseline.write_bytes(b"caf\xe9 engine\n" + baseline.read_bytes())
    out = () if command == "validate" else ("--out", str(tmp_path / "art"))
    code, stdout, err = run(command, "--modes", dataset["modes"],
                            "--manifest", str(broken / "manifest.json"), *out,
                            capsys=capsys)
    assert code == 1
    reported = stdout if command == "validate" else err
    assert "baseline.gout: 'utf-8' codec can't decode byte 0xe9" in reported, reported


@pytest.mark.parametrize("command", ["couplings", "validate"])
def test_modes_file_that_is_not_utf8_names_its_line(dataset, tmp_path, capsys, command):
    modes = tmp_path / "modes.txt"
    modes.write_bytes(b"\xff" + Path(dataset["modes"]).read_bytes())
    out = () if command == "validate" else ("--out", str(tmp_path / "art"))
    code, stdout, err = run(command, "--modes", str(modes),
                            "--manifest", dataset["manifest"], *out, capsys=capsys)
    assert code == 1
    if command == "validate":
        assert checks(stdout) == [("modes-parse", "FAIL")]
        assert "(line 1: not valid UTF-8: invalid start byte)" in stdout, stdout
    else:
        assert err == "error: line 1: not valid UTF-8: invalid start byte\n"
        assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("edit, named", [
    (lambda m: m["runs"][0].pop("mode"), "runs[0]"),
    (lambda m: m["runs"][0].update(path=None), "runs[0]"),
    (lambda m: m["pairs"].append({"modes": [1], "signs": ["+", "+"],
                                  "path": "p.gout"}), "pairs[0]"),
    (lambda m: m["runs"][0].update(mode="x"), "runs[0]"),
    (lambda m: m["runs"].append(m["runs"][0]), "runs[0] and runs[6]"),
    (lambda m: m["runs"][0].update(sign=True), "runs[0]: 'sign' must be"),
], ids=["no-mode", "null-path", "one-pair-mode", "text-mode", "repeated-run",
        "true-sign"])
def test_malformed_manifest_entry_exits_1(dataset, tmp_path, capsys, edit, named):
    broken = tmp_path / "broken"
    shutil.copytree(Path(dataset["manifest"]).parent, broken)
    doc = json.loads((broken / "manifest.json").read_text())
    edit(doc)
    (broken / "manifest.json").write_text(json.dumps(doc))
    code, _, err = run("couplings", "--modes", dataset["modes"],
                       "--manifest", str(broken / "manifest.json"),
                       "--out", str(tmp_path / "art"), capsys=capsys)
    assert code == 1
    assert f"error: manifest {named}" in err
    assert not (tmp_path / "art").exists()


def _drop_runs(section, keep):
    def edit(m):
        m[section] = [run for run in m[section] if keep(run)]
    return edit


@pytest.mark.parametrize("edit, named", [
    (_drop_runs("runs", lambda r: (r["mode"], r["sign"]) != (2, "-")), "(mode 2, -)"),
    (_drop_runs("pairs", lambda r: (r["modes"], r["signs"]) != ([1, 3], ["-", "-"])),
     "(modes 1 3, --)"),
    (_drop_runs("pairs", lambda r: r["modes"] == [1, 2]), "(modes 1 3, ++)"),
], ids=["missing-single", "incomplete-pair", "some-pairs"])
def test_manifest_without_a_run_exits_1(dataset, tmp_path, capsys, edit, named):
    # no result file exists, so the run must be named from the manifest
    # alone, before any result is looked for
    ms = dataset["modeset"]
    mpath = write_displacement_set(plan_displacements(ms, pairing="all_pairs"), ms,
                                   tmp_path / "runs", 0.01)
    assert not list(mpath.parent.glob("*.gout"))
    doc = json.loads(mpath.read_text())
    edit(doc)
    mpath.write_text(json.dumps(doc))
    code, _, err = run("couplings", "--modes", dataset["modes"], "--manifest", str(mpath),
                       "--out", str(tmp_path / "art"), capsys=capsys)
    assert code == 1
    assert err == f"error: manifest lists no run for {named}\n"
    assert not (tmp_path / "art").exists()


# --------------------------------------------------------------- config

def test_config_file_and_flag_override(dataset, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "format": "spinlat-config/1",
        "paths": {"modes": dataset["modes"], "manifest": dataset["manifest"]},
        "physics": {"temperatures_k": [20.0], "fields_mt": [1266.0]},
    }))
    out = tmp_path / "art"
    code, _, _ = run("tensor", "--config", str(cfgfile), "--temp", "30",
                     "--out", str(out))
    assert code == 0
    report = json.loads((out / "tensor.json").read_text())
    assert report["metadata"]["temperature_k"] == 30.0
    assert report["config"]["physics"]["temperatures_k"] == [30.0]


def test_config_unknown_key_named(dataset, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "format": "spinlat-config/1",
        "physics": {"temprature_k": [20.0]},
    }))
    code, _, err = run("tensor", "--config", str(cfgfile), capsys=capsys)
    assert code == 2
    assert "physics.temprature_k" in err
    # nothing is stochastic, so there is no seed to set; one linewidth holds
    # for every mode, and per-mode linewidths are BathSpec's alone
    for key, doc in (("seed", {"seed": 0}),
                     ("physics.linewidth_overrides",
                      {"physics": {"linewidth_overrides": {"1": 1.5}}})):
        cfgfile.write_text(json.dumps({"format": "spinlat-config/1", **doc}))
        code, _, err = run("tensor", "--config", str(cfgfile), capsys=capsys)
        assert code == 2
        assert f"unknown config key '{key}'" in err


@pytest.mark.parametrize("command, flag, text, key, value", [
    ("tensor", "--field-dir", "0,0,0", "physics.field_direction", [0.0, 0.0, 0.0]),
    ("couplings", "--field-dir", "0,0,0", "physics.field_direction", [0, 0, 0]),
    ("sweep", "--field-dir", "nan,0,1", "physics.field_direction",
     [float("nan"), 0.0, 1.0]),
    ("tensor", "--temp", "-5", "physics.temperatures_k", [-5.0]),
    # a value that starts with a minus and holds a comma
    ("sweep", "--temp", "-5,20", "physics.temperatures_k", [-5.0, 20.0]),
    ("sweep", "--temp", "20,inf", "physics.temperatures_k", [20.0, float("inf")]),
    ("tensor", "--linewidth", "0", "physics.linewidth_cm", 0.0),
    ("attribute", "--gamma", "-1", "physics.gamma_cm", -1.0),
    ("dynamics", "--samples", "5", "numerics.time_samples", 5),
    ("tensor", "--omega", "-1", "physics.omega_override_cm", -1.0),
    ("dynamics", "--omega", "nan", "physics.omega_override_cm", float("nan")),
    ("sweep", "--field-mt", "100,nan", "physics.fields_mt", [100.0, float("nan")]),
    ("dynamics", "--fit-window", "5,1", "numerics.fit_window_us", [5.0, 1.0]),
    ("dynamics", "--fit-window", "nan,1", "numerics.fit_window_us",
     [float("nan"), 1.0]),
    ("dynamics", "--fit-window", "-1,-2", "numerics.fit_window_us", [-1.0, -2.0]),
    ("tensor", "--field-dir", "-0,0,0", "physics.field_direction", [-0.0, 0.0, 0.0]),
    ("displace", "--delta", "inf", "numerics.delta_angstrom", float("inf")),
    ("displace", "--delta", "nan", "numerics.delta_angstrom", float("nan")),
    ("displace", "--order", "3", "numerics.order", 3),
    ("dynamics", "--kind", "t3", "dynamics.kind", "t3"),
    ("dynamics", "--engine", "euler", "dynamics.engine", "euler"),
    ("dynamics", "--pairing", "some", "physics.pairing", "some"),
], ids=["dir-zero", "couplings-dir-zero", "dir-nan", "temp-negative", "temp-negative-list", "temp-inf", "linewidth-zero",
        "gamma-negative", "samples-five", "omega-negative", "omega-nan", "field-nan",
        "fit-window-reversed", "fit-window-nan", "fit-window-negative",
        "dir-negative-zero", "displace-delta-inf", "displace-delta-nan", "order-three",
        "kind-t3", "engine-euler", "pairing-some"])
def test_bad_physics_values_exit_2(dataset, tmp_path, capsys, command, flag,
                                   text, key, value):
    # a bad value is a usage error naming its key, from a flag or a file,
    # and the flag when a flag gave it
    manifest = () if command == "displace" else ("--manifest", dataset["manifest"])
    runs = ("--modes", dataset["modes"], *manifest, "--out", str(tmp_path / "art"))
    code, _, err = run(command, *runs, flag, text, capsys=capsys)
    assert code == 2, err
    assert key in err and f"(flag {flag})" in err
    section, name = key.split(".")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"format": "spinlat-config/1",
                                   section: {name: value}}))
    code, _, err = run(command, "--config", str(cfgfile), *runs, capsys=capsys)
    assert code == 2, err
    assert key in err
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("text, unit", [
    ("1e308,1e308,0", "1,1,0"), ("1e-200,0,0", "1,0,0"),
    ("1e-310,-2e-310,-2e-310", "1,-2,-2"), ("1e-200,-2e-200,-2e-200", "1,-2,-2"),
    ("1e200,-2e200,-2e200", "1,-2,-2"),
], ids=["dir-overflow", "dir-underflow", "dir-subnormal", "dir-tiny", "dir-huge"])
def test_field_direction_of_any_finite_length_is_accepted(dataset, pair_dataset, tmp_path,
                                                          text, unit):
    # a direction is made unit after an exact scaling by a power of two, so
    # a length whose square overflows or underflows gives the report of the
    # same direction at length about 1, from runs and from a couplings file
    # built along that direction
    built = tmp_path / "built"
    assert run("couplings", "--modes", pair_dataset["modes"], "--manifest",
               pair_dataset["manifest"], "--field-dir", unit, "--out", str(built))[0] == 0

    def report(direction, *source):
        out = tmp_path / "art"
        assert run("tensor", *source, "--field-dir", direction, "--out", str(out))[0] == 0
        doc = json.loads((out / "tensor.json").read_text())
        shutil.rmtree(out)
        del doc["config"]
        return doc

    for source in (("--modes", dataset["modes"], "--manifest", dataset["manifest"]),
                   ("--config", _g0_config(tmp_path, pair_dataset),
                    "--couplings", str(built / "couplings.json"))):
        assert report(text, *source) == report(unit, *source)


def test_value_starting_with_minus_reads_as_flag_equals_value(dataset, tmp_path,
                                                              monkeypatch):
    # argparse alone takes '-500,0' for an option and refuses the flag
    # before it; given in argv or in sys.argv, such a value must give the
    # same files as the --flag=value form
    runs = ("--modes", dataset["modes"], "--manifest", dataset["manifest"])
    out = tmp_path / "art"

    def outputs(*argv, from_sys_argv=False):
        argv = (*argv, *runs, "--out", str(out))
        if from_sys_argv:
            monkeypatch.setattr(sys, "argv", ["spinlat", *argv])
        assert (main() if from_sys_argv else main(list(argv))) == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        shutil.rmtree(out)
        return files

    for command, flag, text, written, value in (
            ("sweep", "--field-mt", "-500,0", "sweep.csv", b"\n20.0,-500.0,"),
            ("tensor", "--field-dir", "-1,-2,-2", "tensor.json",
             b'"field_direction": [\n        -1.0,')):
        joined = outputs(command, f"{flag}={text}")
        assert value in joined[written]
        assert outputs(command, flag, text) == joined
        assert outputs(command, flag, text, from_sys_argv=True) == joined


def test_flag_prefix_is_refused(dataset, tmp_path, capsys):
    # a prefix would bypass the minus-value join, which matches full names,
    # so '--tem 20,300' and '--tem -5,20' must both be refused alike
    runs = ("--modes", dataset["modes"], "--manifest", dataset["manifest"],
            "--out", str(tmp_path / "art"))
    for value in ("20,300", "-5,20"):
        code, _, err = run("sweep", *runs, "--tem", value, capsys=capsys)
        assert code == 2, err
        assert f"unrecognized arguments: --tem {value}" in err
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("key, value", [
    ("paths.modes", 5),
    ("paths.output_dir", None),
    ("physics.linewidth_cm", "2"),
    ("physics.gamma_cm", True),
    ("physics.temperatures_k", 5),
    ("physics.field_direction", "0,0,1"),
    ("physics.fields_mt", ["1266"]),
    ("physics.field_direction", ["0", "0", "1"]),
    ("physics.omega_override_cm", "0.1"),
    ("physics.g0", "2"),
    ("physics.g0", [[2.0, 0.0, 0.0]]),
    ("numerics.delta_angstrom", "0.01"),
    ("numerics.time_samples", "20"),
    ("numerics.time_samples", 20.5),
    ("numerics.time_samples", True),
    ("numerics.fit_window_us", 3),
    ("numerics.fit_window_us", [0, "1"]),
    ("numerics.fit_window_us", [0.0, 1.0, 2.0]),
    ("numerics.order", True),
    ("numerics.order", 2.0),
    ("numerics.skip_soft", 1),
    ("numerics.t_end_us", 0),
    ("numerics.t_end_us", "5"),
    ("dynamics.kind", "T1"),
    ("dynamics.engine", None),
    ("dynamics.rotating_frame", "false"),
    ("report.top_modes", 0),
    ("report.top_modes", 1.0),
    ("paths.output_dir", "art\u0000x"),  # no path holds a NUL
    ("paths.modes", "modes\u0000x"),
    ("paths.manifest", "manifest\u0000x"),
    ("paths.couplings", "couplings\u0000x"),
])
def test_config_wrong_type_exits_2(dataset, tmp_path, capsys, key, value):
    # JSON can hold any type for any key; a wrong one is a usage error
    # naming the key, raised before any input is read or output written
    section, name = key.split(".")
    doc = {"format": "spinlat-config/1",
           "paths": {"modes": dataset["modes"], "manifest": dataset["manifest"],
                     "output_dir": str(tmp_path / "art")}}
    doc.setdefault(section, {})[name] = value
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(doc))
    code, _, err = run("dynamics", "--config", str(cfgfile), capsys=capsys)
    assert code == 2, err
    assert key in err and "flag" not in err
    assert "\0" not in err  # a refused value is shown escaped
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("argv", [("displace", "--order", "x"), ("tensor", "--top", "1.5"),
                                  ("dynamics", "--t-end", "soon"),
                                  ("sweep", "--temp", "5:300:x"),
                                  ("sweep", "--temp", "5:300:0")])
def test_unreadable_flag_text_exits_2(dataset, tmp_path, capsys, argv):
    command, flag, text = argv
    code, _, err = run(command, "--modes", dataset["modes"], flag, text,
                       "--out", str(tmp_path / "art"), capsys=capsys)
    assert code == 2
    assert f"argument {flag}:" in err
    assert not (tmp_path / "art").exists()


_RUNS = ("--modes", "{modes}", "--manifest", "{manifest}", "--out", "{tmp}/art")


@pytest.mark.parametrize("argv, message", [
    (("tensor", "--config", "{tmp}/absent.json", *_RUNS),
     "config file not found: {tmp}/absent.json"),
    (("tensor", "--config", "{tmp}/physics3.json", *_RUNS),
     "config: 'physics' must be an object, got 3"),
    (("tensor", "--out", "{tmp}/art"), "paths.modes is required (flag --modes)"),
    # at zero field the analytic T1 is infinite, so it cannot set the span
    (("dynamics", *_RUNS, "--field-mt", "0"),
     "analytic relaxation time is infinite; set numerics.t_end_us (flag --t-end)"),
], ids=["config-absent", "config-section-not-object", "no-inputs", "dynamics-zero-field"])
def test_refused_inputs_exit_2(dataset, tmp_path, capsys, argv, message):
    (tmp_path / "physics3.json").write_text(
        json.dumps({"format": "spinlat-config/1", "physics": 3}))
    fill = dict(tmp=tmp_path, modes=dataset["modes"], manifest=dataset["manifest"])
    code, _, err = run(*(arg.format(**fill) for arg in argv), capsys=capsys)
    assert code == 2
    assert err == f"error: {message.format(**fill)}\n"
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("command", ["displace", "couplings", "tensor", "sweep",
                                     "attribute", "dynamics"])
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_naming_a_file_exits_2(dataset, tmp_path, capsys, command, out):
    # refused with the config, before any input is read or anything written
    (tmp_path / "afile").write_text("kept\n")
    inputs = ("--modes", dataset["modes"])
    if command != "displace":
        inputs += ("--manifest", dataset["manifest"])
    code, _, err = run(command, *inputs, "--out", str(tmp_path / out), capsys=capsys)
    assert code == 2, err
    assert "'paths.output_dir' must be a path string that names a directory or nothing" in err
    assert err.endswith("(flag --out)\n")
    assert [path.name for path in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.mark.parametrize("command", ["tensor", "attribute"])
@pytest.mark.parametrize("top", ["0", "-1"])
def test_top_below_one_exits_2(dataset, tmp_path, capsys, command, top):
    code, _, err = run(command, "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"], "--temp", "20",
                       "--field-mt", "1266", "--top", top,
                       "--out", str(tmp_path / "art"), capsys=capsys)
    assert code == 2
    assert "--top" in err
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("temp", ["20,20", "20:20:3"])
def test_sweep_repeated_grid_values_computed_once(dataset, tmp_path, temp):
    out = tmp_path / "art"
    code, _, _ = run("sweep", "--modes", dataset["modes"],
                     "--manifest", dataset["manifest"], "--temp", temp,
                     "--field-mt", "1266,1266", "--out", str(out))
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    config = json.loads(lines[0][len("# config: "):])
    assert config["physics"]["temperatures_k"] == [20.0]
    assert config["physics"]["fields_mt"] == [1266.0]
    assert len(lines) == 2 + 1
    row = dict(zip(lines[1].split(","), map(float, lines[2].split(","))))
    assert (row["temperature_k"], row["field_mt"]) == (20.0, 1266.0)


def test_config_bad_format_or_json(dataset, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"format": "spinlat-config/9"}))
    code, _, err = run("tensor", "--config", str(cfgfile), capsys=capsys)
    assert code == 2 and "spinlat-config/1" in err
    cfgfile.write_text("{not json")
    code, _, err = run("tensor", "--config", str(cfgfile), capsys=capsys)
    assert code == 2 and "JSON" in err


def test_unknown_flag_and_missing_subcommand_exit_2(dataset, tmp_path, capsys):
    # sweep has no worker pool to size, and couplings takes its step from
    # the manifest, so neither accepts a flag for it
    runs = ("--modes", dataset["modes"], "--manifest", dataset["manifest"],
            "--out", str(tmp_path))
    # displace takes no manifest and validate writes no file, so neither
    # accepts a flag nothing would read
    for argv in (("tensor", "--bogus"), ("sweep", *runs, "--jobs", "2"),
                 ("couplings", *runs, "--delta", "0.5"), ("displace", *runs),
                 ("validate", *runs)):
        code, _, err = run(*argv, capsys=capsys)
        assert code == 2
        assert "unrecognized arguments" in err
    code, _, _ = run(capsys=capsys)
    assert code == 2


# ------------------------------------------- every leaf of the three documents

def _numeric_leaves(doc, path=()):
    """Paths to the JSON numbers in doc, bools excluded."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _numeric_leaves(value, path + (key,))
    elif type(doc) in (int, float):
        yield path


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _refusals(write, argv, code, named, tmp_path, capsys, doc, nullable=()):
    """Each numeric leaf of doc replaced by true, "1" and null (unless its
    path is nullable) in turn: the command must exit with code and a
    message holding named(path), and write nothing."""
    leaves = list(_numeric_leaves(doc))
    assert leaves
    for path in leaves:
        for value in (True, "1") if path in nullable else (True, "1", None):
            write(_replaced(doc, path, value))
            got, _, err = run(*argv, capsys=capsys)
            assert got == code and named(path) in err, (path, value, err)
            assert not (tmp_path / "art").exists()


def test_every_config_leaf_refused(dataset, tmp_path, capsys):
    doc = json.loads(json.dumps(spinlat.cli._DEFAULTS))
    # numbers for the keys that are null by default
    doc["physics"].update(g0=BASE_G.tolist(), omega_override_cm=0.5)
    doc["numerics"]["fit_window_us"] = [0.0, 1.0]
    cfgfile = tmp_path / "cfg.json"
    argv = ("tensor", "--config", str(cfgfile), "--modes", dataset["modes"],
            "--manifest", dataset["manifest"], "--out", str(tmp_path / "art"))

    def write(d):
        cfgfile.write_text(json.dumps(d))

    _refusals(write, argv, 2, lambda path: f"config: '{path[0]}.{path[1]}'", tmp_path,
              capsys, doc, nullable={("physics", "omega_override_cm")})
    write({k: v for k, v in doc.items() if k != "format"})
    code, _, err = run(*argv, capsys=capsys)
    assert code == 2 and "config: 'format' must be 'spinlat-config/1', got None" in err


def test_every_manifest_leaf_refused(dataset, tmp_path, capsys):
    ms = dataset["modeset"]
    runs = tmp_path / "runs"
    mpath = write_displacement_set(plan_displacements(ms, pairing="all_pairs"), ms,
                                   runs, 0.01)
    doc = json.loads(mpath.read_text())
    argv = ("couplings", "--modes", dataset["modes"], "--manifest", str(mpath),
            "--out", str(tmp_path / "art"))

    def named(path):
        return "manifest: 'delta_angstrom'" if len(path) == 1 else \
            f"manifest {path[0]}[{path[1]}]: '{path[2]}'"

    _refusals(lambda d: mpath.write_text(json.dumps(d)), argv, 1, named, tmp_path,
              capsys, doc)
    del doc["baseline"]
    mpath.write_text(json.dumps(doc))
    code, _, err = run(*argv, capsys=capsys)
    assert code == 1 and "manifest has no 'baseline'" in err


def test_every_couplings_leaf_refused(dataset, tmp_path, capsys):
    # two modes keep the walk short: 26 numeric leaves
    ms = make_modeset(natoms=2, nmodes=2, frequencies=[30.0, 80.0])
    rng = np.random.default_rng(3)
    d2 = rng.normal(size=(3, 2, 2))
    text = export_couplings(CouplingTensors(
        d1=rng.normal(size=(3, 2)), d2=d2 + d2.transpose(0, 2, 1), delta_angstrom=0.01,
        frequencies=ms.frequencies, field_direction=np.array([0.0, 0.0, 1.0]),
        mixed_computed=True))
    doc = json.loads(text)
    broken = tmp_path / "couplings.json"
    argv = ("tensor", "--config", _g0_config(tmp_path, dataset), "--couplings",
            str(broken), "--out", str(tmp_path / "art"))
    _refusals(lambda d: broken.write_text(json.dumps(d)), argv, 1,
              lambda path: f"couplings file {broken}: '{path[0]}'", tmp_path, capsys,
              doc)
    del doc["d1"]
    broken.write_text(json.dumps(doc))
    code, _, err = run(*argv, capsys=capsys)
    assert code == 1 and f"couplings file {broken} has no 'd1'" in err
