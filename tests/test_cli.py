"""End-to-end command tests over a fabricated displacement dataset."""

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


def test_cli_import_loads_no_scipy():
    # scipy is imported inside the functions that use it; a top-level
    # import would add about half a second to every command.  Nothing
    # starts worker processes, so the multiprocessing machinery stays out
    src = str(Path(spinlat.cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = ("import sys, spinlat.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy') "
             "or m in ('multiprocessing', 'concurrent.futures.process')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


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


def test_validate_checks_every_grid_point(dataset, monkeypatch, capsys):
    real = spinlat.relaxation.build_tensor

    def fails_at_second_field(c, bath, spin):
        if np.linalg.norm(spin.field_mt) == 1266.0:
            raise ValueError("lambda2 has negative eigenvalue")
        return real(c, bath, spin)

    monkeypatch.setattr(spinlat.relaxation, "build_tensor", fails_at_second_field)
    code, stdout, _ = run("validate", "--modes", dataset["modes"],
                          "--manifest", dataset["manifest"],
                          "--temp", "20,300", "--field-mt", "1000,1266",
                          capsys=capsys)
    assert code == 1
    assert re.search(r"CHECK tensor-psd +FAIL", stdout)


def test_validate_incomplete_runs_fails(dataset, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(Path(dataset["manifest"]).parent, broken)
    (broken / "single0002_m.gout").unlink()
    code, stdout, _ = run("validate", "--modes", dataset["modes"],
                          "--manifest", str(broken / "manifest.json"),
                          capsys=capsys)
    assert code == 1
    assert "manifest-complete FAIL" in stdout.replace("  ", " ")


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
], ids=["dir-zero", "couplings-dir-zero", "dir-nan", "temp-negative",
        "temp-inf", "linewidth-zero", "gamma-negative", "samples-five"])
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
