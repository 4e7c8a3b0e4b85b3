"""Parsers, writers, displacement planning, and run-set assembly."""

import json

import numpy as np
import pytest

from spinlat.core import Geometry, ModeSet
from spinlat.ingest import (
    DisplacedGTensorSet,
    IncompleteRunSetError,
    ParseError,
    load_run_set,
    parse_g_matrix,
    parse_modes,
    plan_displacements,
    read_source,
    sample_g_surface,
    write_displacement_set,
    write_g_matrix,
    write_modes,
)
from conftest import REFERENCE_G, make_modeset

GOLDEN_NMODES = """#NMODES 1
# water-like toy, 3 modes kept
natoms 3
modes 3
atoms
O 15.999 0.0 0.0 0.117
H 1.008 0.0 0.757 -0.467
H 1.008 0.0 -0.757 -0.467
frequencies_cm
1 1595.0
2 3657.0   # symmetric stretch
3 3756.0
normal_modes
"""


def _golden_text():
    # append a valid orthonormal 9x3 block (identity columns)
    vecs = np.eye(9)[:, :3]
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in vecs)
    return GOLDEN_NMODES + rows + "\n"


def test_parse_golden_file():
    ms = parse_modes(_golden_text())
    assert ms.nmodes == 3
    assert ms.geometry.natoms == 3
    assert ms.geometry.symbols == ("O", "H", "H")
    np.testing.assert_allclose(ms.frequencies, [1595.0, 3657.0, 3756.0])
    np.testing.assert_array_equal(ms.source_indices, [1, 2, 3])
    assert ms.geometry.masses[0] == 15.999


def test_parse_sorts_and_records_permutation():
    text = _golden_text().replace(
        "1 1595.0\n2 3657.0   # symmetric stretch\n3 3756.0",
        "1 3756.0\n2 1595.0\n3 3657.0",
    )
    ms = parse_modes(text)
    np.testing.assert_allclose(ms.frequencies, [1595.0, 3657.0, 3756.0])
    np.testing.assert_array_equal(ms.source_indices, [2, 3, 1])
    # columns permuted along with their frequencies
    assert ms.eigenvectors[1, 0] == 1.0  # original column 2 now first


def test_roundtrip_bit_identical(toy_modes):
    ms2 = parse_modes(write_modes(toy_modes))
    np.testing.assert_array_equal(ms2.frequencies, toy_modes.frequencies)
    np.testing.assert_array_equal(ms2.eigenvectors, toy_modes.eigenvectors)
    np.testing.assert_array_equal(ms2.source_indices, toy_modes.source_indices)
    np.testing.assert_array_equal(
        ms2.geometry.positions, toy_modes.geometry.positions
    )
    np.testing.assert_array_equal(ms2.geometry.masses, toy_modes.geometry.masses)
    assert ms2.geometry.symbols == toy_modes.geometry.symbols


def test_roundtrip_via_file(tmp_path, toy_modes):
    p = tmp_path / "modes.nm"
    write_modes(toy_modes, p)
    ms2 = parse_modes(p)
    np.testing.assert_array_equal(ms2.eigenvectors, toy_modes.eigenvectors)


def test_bad_magic_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_modes("#NMODES 2\nnatoms 1\n")


def test_count_mismatch_reported_at_normal_modes_header():
    # modes says 3 but only 2 columns of data follow
    vecs = np.eye(9)[:, :2]
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in vecs)
    text = GOLDEN_NMODES + rows + "\n"
    with pytest.raises(ParseError, match="line 13") as err:
        parse_modes(text)
    assert "27 floats" in str(err.value)
    assert "18" in str(err.value)


def test_nonpositive_frequency_errors_with_line():
    text = _golden_text().replace("1 1595.0", "1 -4.2")
    with pytest.raises(ParseError, match="line 10"):
        parse_modes(text)


def test_skip_soft_drops_low_modes():
    text = _golden_text().replace("1 1595.0", "1 0.4")
    ms = parse_modes(text, skip_soft=True)  # cutoff 1 cm^-1
    assert ms.nmodes == 2
    np.testing.assert_array_equal(ms.source_indices, [2, 3])


def test_nonorthonormal_columns_rejected():
    vecs = np.eye(9)[:, :3]
    vecs[:, 2] = vecs[:, 1]  # duplicate column
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in vecs)
    with pytest.raises(ParseError, match="orthonormal"):
        parse_modes(GOLDEN_NMODES + rows + "\n")


def test_atom_line_error_names_line():
    text = _golden_text().replace("H 1.008 0.0 0.757 -0.467", "H 1.008 0.0 0.757")
    with pytest.raises(ParseError, match="line 7"):
        parse_modes(text)


# ---------------------------------------------------------------- g matrices

def test_g_block_with_prose_and_labels():
    text = (
        "Some program banner\n"
        "Total SCF energy: -3214.12345678\n"
        "ELECTRONIC G-MATRIX\n"
        "\n"
        " the g-matrix follows (x y z):\n"
        "  1.981       3.923e-03   2.134e-03\n"
        "  3.897e-03   1.989      -8.711e-04\n"
        "  2.119e-03  -8.722e-04   1.990\n"
        "\n"
        "more prose after\n"
    )
    np.testing.assert_allclose(parse_g_matrix(text), REFERENCE_G, rtol=1e-12)


def test_g_block_row_labels_skipped():
    text = (
        "ELECTRONIC G-MATRIX\n"
        "1   2.0012  0.0001  0.0\n"
        "2   0.0001  2.0034  0.0\n"
        "3   0.0     0.0     1.9876\n"
    )
    m = parse_g_matrix(text)
    assert m[0, 0] == 2.0012
    assert m[2, 2] == 1.9876


def test_g_block_first_marker_wins():
    text = (
        "ELECTRONIC G-MATRIX\n"
        "2.0 0.0 0.0\n0.0 2.0 0.0\n0.0 0.0 2.0\n"
        "ELECTRONIC G-MATRIX\n"
        "9.0 0.0 0.0\n0.0 9.0 0.0\n0.0 0.0 9.0\n"
    )
    np.testing.assert_allclose(parse_g_matrix(text), 2.0 * np.eye(3))


def test_g_block_missing_marker():
    with pytest.raises(ParseError, match="ELECTRONIC G-MATRIX"):
        parse_g_matrix("nothing to see here\n1.0 2.0 3.0\n")


def test_g_block_too_few_numbers():
    text = "ELECTRONIC G-MATRIX\n1.98 0.001\n0.001 1.99\n"
    with pytest.raises(ParseError, match="4 of 9"):
        parse_g_matrix(text)


def test_g_write_parse_roundtrip(tmp_path):
    p = tmp_path / "run.gout"
    write_g_matrix(REFERENCE_G, p, prose="engine output\nwith lines")
    np.testing.assert_allclose(parse_g_matrix(p), REFERENCE_G, rtol=1e-12)


# -------------------------------------------------------------- displacements

def test_plan_counts_small(toy_modes):
    assert len(plan_displacements(toy_modes, order=1)) == 7
    assert len(plan_displacements(toy_modes, order=2, pairing="diagonal_only")) == 7
    assert len(plan_displacements(toy_modes, order=2, pairing="all_pairs")) == 19


def test_plan_counts_production_sized():
    # 64 atoms, 192 modes, identity eigenvectors
    geom = Geometry(
        tuple("C" for _ in range(64)),
        np.full(64, 12.011),
        np.zeros((64, 3)),
    )
    ms = ModeSet(
        geometry=geom,
        frequencies=np.arange(1.0, 193.0),
        eigenvectors=np.eye(192),
    )
    plan = plan_displacements(ms, order=2, pairing="all_pairs")
    assert len(plan) == 1 + 2 * 192 + 4 * (192 * 191 // 2) == 73729


def test_displacement_recovers_mode_direction(toy_modes):
    delta = 0.01
    plan = plan_displacements(toy_modes, delta=delta, order=1)
    by_key = {(g.modes, g.signs): g.positions for g in plan if g.kind == "single"}
    for k in range(toy_modes.nmodes):
        diff = (by_key[((k,), (1,))] - by_key[((k,), (-1,))]) / (2 * delta)
        np.testing.assert_allclose(
            diff, toy_modes.cartesian_direction(k), atol=1e-10
        )


def test_plan_rejects_bad_arguments(toy_modes):
    with pytest.raises(ValueError):
        plan_displacements(toy_modes, delta=0.0)
    with pytest.raises(ValueError):
        plan_displacements(toy_modes, order=3)
    with pytest.raises(ValueError):
        plan_displacements(toy_modes, pairing="nearest")


# ------------------------------------------------------------------ run sets

def _linear_g_surface(base_positions):
    """g(positions) linear in the displacement, for synthetic runs."""
    rng = np.random.default_rng(42)
    grad = rng.normal(scale=1e-3, size=(3, 3, base_positions.size))

    def g(pos):
        d = (np.asarray(pos) - base_positions).ravel()
        return REFERENCE_G + grad @ d

    return g


def test_write_and_load_run_set(tmp_path, toy_modes):
    plan = plan_displacements(toy_modes, delta=0.02, order=2, pairing="all_pairs")
    mpath = write_displacement_set(plan, toy_modes, tmp_path, delta=0.02)
    manifest = json.loads(mpath.read_text())
    assert set(manifest) == {"delta_angstrom", "baseline", "runs", "pairs"}
    assert len(manifest["runs"]) == 6
    assert len(manifest["pairs"]) == 12
    assert len(list(tmp_path.glob("*.xyz"))) == 19

    gfun = _linear_g_surface(toy_modes.geometry.positions)
    for g in plan:
        stem = g.label()
        write_g_matrix(gfun(g.positions), tmp_path / f"{stem}.gout")

    rs = load_run_set(mpath, toy_modes)
    assert isinstance(rs, DisplacedGTensorSet)
    assert rs.delta_angstrom == 0.02
    assert rs.complete_singles()
    assert len(rs.pairs) == 12
    np.testing.assert_allclose(rs.baseline, REFERENCE_G, rtol=1e-12)

    # matches direct evaluation
    direct = sample_g_surface(toy_modes, gfun, delta=0.02, order=2,
                              pairing="all_pairs")
    for key, m in rs.singles.items():
        np.testing.assert_allclose(m, direct.singles[key], atol=1e-14)
    for key, m in rs.pairs.items():
        np.testing.assert_allclose(m, direct.pairs[key], atol=1e-14)


def test_load_run_set_reports_missing_runs(tmp_path, toy_modes):
    # plan for 7+ modes so mode number 7 exists
    ms = make_modeset(natoms=4, nmodes=8, frequencies=np.linspace(10, 400, 8))
    plan = plan_displacements(ms, delta=0.01, order=1)
    mpath = write_displacement_set(plan, ms, tmp_path, delta=0.01)
    gfun = _linear_g_surface(ms.geometry.positions)
    for g in plan:
        if g.kind == "single" and g.modes == (6,) and g.signs == (-1,):
            continue  # omit (mode 7, minus)
        write_g_matrix(gfun(g.positions), tmp_path / f"{g.label()}.gout")
    with pytest.raises(IncompleteRunSetError) as err:
        load_run_set(mpath, ms)
    assert err.value.missing_singles == [(7, "-")]
    assert "(mode 7, -)" in str(err.value)


def test_load_run_set_missing_baseline(tmp_path, toy_modes):
    plan = plan_displacements(toy_modes, delta=0.01, order=1)
    mpath = write_displacement_set(plan, toy_modes, tmp_path, delta=0.01)
    gfun = _linear_g_surface(toy_modes.geometry.positions)
    for g in plan:
        if g.kind != "baseline":
            write_g_matrix(gfun(g.positions), tmp_path / f"{g.label()}.gout")
    with pytest.raises(IncompleteRunSetError, match="baseline"):
        load_run_set(mpath, toy_modes)


def test_manifest_missing_key_rejected(tmp_path, toy_modes):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"baseline": "b.gout", "runs": [], "pairs": []}))
    with pytest.raises(ParseError, match="delta_angstrom"):
        load_run_set(bad, toy_modes)


def test_sample_g_surface_diagonal_only_has_no_pairs(toy_modes):
    gfun = _linear_g_surface(toy_modes.geometry.positions)
    rs = sample_g_surface(toy_modes, gfun, order=2, pairing="diagonal_only")
    assert not rs.pairs
    assert rs.complete_singles()


def test_read_source_one_rule_for_text_and_paths(tmp_path, monkeypatch):
    # a str is text when it holds a newline or starts with '{' after
    # whitespace; any other str, and every Path, names a file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.out").write_text("from file\n")
    assert read_source("line one\nline two") == "line one\nline two"
    assert read_source('  {"a": 1}') == '  {"a": 1}'
    assert read_source("g.out") == "from file\n"
    assert read_source(tmp_path / "g.out") == "from file\n"
    with pytest.raises(FileNotFoundError):
        read_source("no such file")
    with pytest.raises(TypeError):
        read_source(3)
