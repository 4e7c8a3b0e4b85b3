"""End-to-end command tests over a fabricated displacement dataset."""

import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_modeset
import spinlat.cli
import spinlat.relaxation
from spinlat.cli import main
from spinlat.core import larmor_frequency
from spinlat.couplings import build_couplings, load_couplings
from spinlat.ingest import (
    load_run_set,
    plan_displacements,
    write_displacement_set,
    write_g_matrix,
    write_modes,
)

BASE_G = np.diag([1.981, 1.989, 1.990])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Modes file plus completed displacement runs on a quadratic g surface."""
    root = tmp_path_factory.mktemp("cli_data")
    ms = make_modeset(natoms=3, nmodes=3, frequencies=[12.6, 45.0, 210.0])
    modes = root / "modes.txt"
    write_modes(ms, modes)

    rng = np.random.default_rng(5)
    lin = rng.normal(scale=2e-3, size=(9, 3, 3))
    quad = rng.normal(scale=5e-2, size=(9, 9, 3, 3))
    quad = 0.5 * (quad + quad.transpose(1, 0, 2, 3))
    base_pos = ms.geometry.positions

    def gfun(pos):
        d = (pos - base_pos).reshape(-1)
        return (BASE_G + np.einsum("iab,i->ab", lin, d)
                + 0.5 * np.einsum("ijab,i,j->ab", quad, d, d))

    runs = root / "runs"
    plan = plan_displacements(ms, delta=0.01, order=2, pairing="diagonal_only")
    manifest = write_displacement_set(plan, ms, runs, 0.01)
    for g in plan:
        write_g_matrix(gfun(g.positions), runs / (g.label() + ".gout"))
    return {"modes": str(modes), "manifest": str(manifest), "modeset": ms}


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
], ids=["no-d2", "text-mixed", "float-indices", "text-delta", "text-entry",
        "ragged-d1", "short-frequencies", "top-level-array", "not-json"])
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
    dat = (out / "inv_t1_vs_temp_1266mT.dat").read_text().strip().split("\n")
    assert len(dat) == 2 + 12
    temp, rate = dat[2].split()
    assert float(temp) == 5.0 and float(rate) == pytest.approx(1.0 / t1[0])


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
    dat = (out / "inv_t1_vs_temp_0mT.dat").read_text().strip().split("\n")
    assert dat[2].split() == ["20.0", "0.0"]


def test_sweep_plot_files_distinct_for_close_fields(dataset, tmp_path, capsys):
    out = tmp_path / "art"
    code, stdout, _ = run("sweep", "--modes", dataset["modes"],
                          "--manifest", dataset["manifest"], "--temp", "20",
                          "--field-mt", "1266.0001,1266.00012,1266.0001",
                          "--out", str(out), capsys=capsys)
    assert code == 0
    assert {p.name for p in out.glob("inv_*.dat")} == {
        f"inv_{kind}_vs_temp_{field}mT.dat"
        for kind in ("t1", "t2") for field in ("1266.0001", "1266.00012")
    }
    assert "4 plot files" in stdout


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

def test_validate_clean_dataset(dataset, capsys):
    code, stdout, _ = run("validate", "--modes", dataset["modes"],
                          "--manifest", dataset["manifest"],
                          "--temp", "20,300", "--field-mt", "1266",
                          capsys=capsys)
    assert code == 0
    lines = [l for l in stdout.strip().split("\n") if l.startswith("CHECK")]
    assert len(lines) == 6
    assert all(line.endswith("PASS") for line in lines)


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
        points[-1] = replace(points[-1], t2_us=points[-1].t2_us * (1.0 + 1e-9))
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


def test_validate_incomplete_runs_fails(dataset, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(Path(dataset["manifest"]).parent, broken)
    (broken / "single0002_m.gout").unlink()
    code, stdout, _ = run("validate", "--modes", dataset["modes"],
                          "--manifest", str(broken / "manifest.json"),
                          capsys=capsys)
    assert code == 1
    assert "manifest-complete FAIL" in stdout.replace("  ", " ")


@pytest.mark.parametrize("command", ["couplings", "validate"])
def test_unparsable_result_names_its_file(dataset, tmp_path, capsys, command):
    broken = tmp_path / "broken"
    shutil.copytree(Path(dataset["manifest"]).parent, broken)
    (broken / "single0002_m.gout").write_text("ELECTRONIC G-MATRIX\n1.98 0.001\n")
    code, stdout, err = run(command, "--modes", dataset["modes"],
                            "--manifest", str(broken / "manifest.json"),
                            "--out", str(tmp_path / "art"), capsys=capsys)
    assert code == 1
    reported = stdout if command == "validate" else err
    assert ("single0002_m.gout: line 1: found 2 of 9 numeric fields"
            in reported.replace("  ", " ")), reported


@pytest.mark.parametrize("edit, named", [
    (lambda m: m["runs"][0].pop("mode"), "runs[0]"),
    (lambda m: m["runs"][0].update(path=None), "runs[0]"),
    (lambda m: m["pairs"].append({"modes": [1], "signs": ["+", "+"],
                                  "path": "p.gout"}), "pairs[0]"),
    (lambda m: m["runs"][0].update(mode="x"), "runs[0]"),
    (lambda m: m["runs"].append(m["runs"][0]), "runs[0] and runs[6]"),
], ids=["no-mode", "null-path", "one-pair-mode", "text-mode", "repeated-run"])
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
    # nothing is stochastic, so there is no seed to set
    cfgfile.write_text(json.dumps({"format": "spinlat-config/1", "seed": 0}))
    code, _, err = run("tensor", "--config", str(cfgfile), capsys=capsys)
    assert code == 2
    assert "unknown config key 'seed'" in err


@pytest.mark.parametrize("command, flag, text, key, value", [
    ("tensor", "--field-dir", "0,0,0", "physics.field_direction", [0.0, 0.0, 0.0]),
    ("couplings", "--field-dir", "0,0,0", "physics.field_direction", [0, 0, 0]),
    ("sweep", "--field-dir", "nan,0,1", "physics.field_direction",
     [float("nan"), 0.0, 1.0]),
    ("tensor", "--temp", "-5", "physics.temperatures_k", [-5.0]),
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
], ids=["dir-zero", "couplings-dir-zero", "dir-nan", "temp-negative",
        "temp-inf", "linewidth-zero", "gamma-negative", "samples-five",
        "omega-negative", "omega-nan", "field-nan", "fit-window-reversed",
        "fit-window-nan"])
def test_bad_physics_values_exit_2(dataset, tmp_path, capsys, command, flag,
                                   text, key, value):
    # a bad value is a usage error naming its key, from a flag or a file
    runs = ("--modes", dataset["modes"], "--manifest", dataset["manifest"],
            "--out", str(tmp_path / "art"))
    code, _, err = run(command, *runs, flag, text, capsys=capsys)
    assert code == 2, err
    assert key in err
    section, name = key.split(".")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"format": "spinlat-config/1",
                                   section: {name: value}}))
    code, _, err = run(command, "--config", str(cfgfile), *runs, capsys=capsys)
    assert code == 2, err
    assert key in err
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("key, value", [
    ("physics.linewidth_cm", "2"),
    ("physics.gamma_cm", True),
    ("physics.linewidth_overrides", [1]),
    ("physics.linewidth_overrides", {"1": "2"}),
    ("physics.linewidth_overrides", {"one": 2.0}),
    ("physics.temperatures_k", 5),
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
    ("paths.modes", 5),
    ("paths.output_dir", None),
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
    assert key in err
    assert not (tmp_path / "art").exists()


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
    for kind in ("t1", "t2"):
        dat = (out / f"inv_{kind}_vs_temp_1266mT.dat").read_text().strip()
        assert len(dat.split("\n")) == 2 + 1


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
    for argv in (("tensor", "--bogus"), ("sweep", *runs, "--jobs", "2"),
                 ("couplings", *runs, "--delta", "0.5")):
        code, _, err = run(*argv, capsys=capsys)
        assert code == 2
        assert "unrecognized arguments" in err
    code, _, _ = run(capsys=capsys)
    assert code == 2


def test_linewidth_override_unknown_mode(dataset, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "format": "spinlat-config/1",
        "physics": {"linewidth_overrides": {"9": 1.5}},
    }))
    code, _, err = run("tensor", "--config", str(cfgfile),
                       "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"],
                       "--temp", "20", "--field-mt", "1266", capsys=capsys)
    assert code == 2
    assert "unknown mode" in err


@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
def test_linewidth_override_bad_value_exits_2(dataset, tmp_path, capsys, value):
    mode = int(dataset["modeset"].source_indices[0])
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "format": "spinlat-config/1",
        "physics": {"linewidth_overrides": {str(mode): value}},
    }))
    code, _, err = run("tensor", "--config", str(cfgfile),
                       "--modes", dataset["modes"],
                       "--manifest", dataset["manifest"],
                       "--temp", "20", "--field-mt", "1266",
                       "--out", str(tmp_path / "art"), capsys=capsys)
    assert code == 2, err
    assert "physics.linewidth_overrides values" in err
    assert not (tmp_path / "art").exists()
