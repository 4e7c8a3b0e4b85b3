"""Parsers, writers, displacement planning, and run-set assembly."""

import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlat.core import Geometry, ModeSet
from spinlat.couplings import CouplingTensors, export_couplings, load_couplings
from spinlat.ingest import (
    G_MATRIX_MARKER,
    _G_FIELD,
    _g_fields,
    _runs,
    DisplacedGTensorSet,
    IncompleteRunSetError,
    ParseError,
    load_run_set,
    parse_g_matrix,
    parse_modes,
    plan_displacements,
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


@pytest.fixture
def written(tmp_path):
    """Writes its text to one file, replacing what it wrote before, and
    returns the file's path."""
    def write(text: str):
        path = tmp_path / "input.txt"
        path.write_text(text)
        return path
    return write


def test_parse_golden_file(written):
    ms = parse_modes(written(_golden_text()))
    assert ms.nmodes == 3
    assert ms.geometry.natoms == 3
    assert ms.geometry.symbols == ("O", "H", "H")
    np.testing.assert_allclose(ms.frequencies, [1595.0, 3657.0, 3756.0])
    np.testing.assert_array_equal(ms.source_indices, [1, 2, 3])
    assert ms.geometry.masses[0] == 15.999


def test_parse_sorts_and_records_permutation(written):
    text = _golden_text().replace(
        "1 1595.0\n2 3657.0   # symmetric stretch\n3 3756.0",
        "1 3756.0\n2 1595.0\n3 3657.0",
    )
    ms = parse_modes(written(text))
    np.testing.assert_allclose(ms.frequencies, [1595.0, 3657.0, 3756.0])
    np.testing.assert_array_equal(ms.source_indices, [2, 3, 1])
    # columns permuted along with their frequencies
    assert ms.eigenvectors[1, 0] == 1.0  # original column 2 now first


def test_roundtrip_bit_identical(toy_modes, written):
    ms2 = parse_modes(written(write_modes(toy_modes)))
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


def test_bad_magic_line(written):
    with pytest.raises(ParseError, match="line 1"):
        parse_modes(written("#NMODES 2\nnatoms 1\n"))


def test_count_mismatch_reported_at_normal_modes_header(written):
    # modes says 3 but only 2 columns of data follow
    vecs = np.eye(9)[:, :2]
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in vecs)
    text = GOLDEN_NMODES + rows + "\n"
    with pytest.raises(ParseError, match="line 13") as err:
        parse_modes(written(text))
    assert "27 floats" in str(err.value)
    assert "18" in str(err.value)


def test_nonpositive_frequency_errors_with_line(written):
    text = _golden_text().replace("1 1595.0", "1 -4.2")
    with pytest.raises(ParseError, match="line 10"):
        parse_modes(written(text))


def test_skip_soft_drops_low_modes(written):
    text = _golden_text().replace("1 1595.0", "1 0.4")
    ms = parse_modes(written(text), skip_soft=True)  # cutoff 1 cm^-1
    assert ms.nmodes == 2
    np.testing.assert_array_equal(ms.source_indices, [2, 3])


def test_nonorthonormal_columns_rejected(written):
    vecs = np.eye(9)[:, :3]
    vecs[:, 2] = vecs[:, 1]  # duplicate column
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in vecs)
    with pytest.raises(ParseError, match="orthonormal"):
        parse_modes(written(GOLDEN_NMODES + rows + "\n"))


def test_atom_line_error_names_line(written):
    text = _golden_text().replace("H 1.008 0.0 0.757 -0.467", "H 1.008 0.0 0.757")
    with pytest.raises(ParseError, match="line 7"):
        parse_modes(written(text))


def _golden_lines(*replacements, end=None):
    """The golden file with each (old, new) line replaced, cut after line end."""
    lines = _golden_text().splitlines()[:end]
    for old, new in replacements:
        lines[lines.index(old)] = new
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, skip_soft, message", [
    ("", False, "line 1: empty file"),
    (_golden_lines(end=6), False, "line 6: unexpected end of file, expected atom line"),
    (_golden_lines(("frequencies_cm", "frequencies")), False,
     "line 9: expected 'frequencies_cm' section header, got 'frequencies'"),
    (_golden_lines(("O 15.999 0.0 0.0 0.117", "O 15.999 0.0 x 0.117")), False,
     "line 6: bad number in atom line 'O 15.999 0.0 x 0.117'"),
    (_golden_lines(("3 3756.0", "three 3756.0")), False,
     "line 12: bad number in frequency line 'three 3756.0'"),
    (_golden_lines(("modes 3", "mode 3")), False, "line 4: expected 'modes <int>', got 'mode 3'"),
    (_golden_lines(("natoms 3", "natoms 3.0")), False,
     "line 3: bad integer in 'natoms' line: '3.0'"),
    (_golden_lines(("modes 3", "modes 0")), False, "line 4: modes must be positive, got 0"),
    (_golden_lines(("1.0 0.0 0.0", "1.0 0.0 0.0e")), False,
     "line 14: bad float '0.0e' in normal_modes"),
    (_golden_lines(("1 1595.0", "1 0.4"), ("2 3657.0   # symmetric stretch", "2 0.5"),
                   ("3 3756.0", "3 -2.0")), True,
     "line 10: all modes fall below the 1.0 cm^-1 cutoff"),
    # a report names a mode by its index, so two modes never share one
    (_golden_lines(("3 3756.0", "2 3756.0")), False,
     "line 12: mode index 2 is below 1 or repeated"),
    (_golden_lines(("1 1595.0", "-4 1595.0")), False,
     "line 10: mode index -4 is below 1 or repeated"),
], ids=["empty", "ends-early", "section-header", "atom-number", "frequency-number",
        "count-line", "count-integer", "count-zero", "vector-float", "all-soft",
        "index-repeated", "index-below-1"])
def test_nmodes_refusal_named_with_its_line(written, text, skip_soft, message):
    with pytest.raises(ParseError) as err:
        parse_modes(written(text), skip_soft=skip_soft)
    assert str(err.value) == message



@pytest.mark.parametrize("edit, message", [
    (lambda data: b"\xff" + data, "line 1: not valid UTF-8: invalid start byte"),
    # a Latin-1 comment after the counts, with CRLF line endings before it
    (lambda data: data.replace(b"\n", b"\r\n", 2).replace(
        b"modes 3\n", "modes 3\n# r\u00e9sum\u00e9\n".encode("latin-1"), 1),
     "line 5: not valid UTF-8: invalid continuation byte"),
    (lambda data: data + b"\xc3", "line 23: not valid UTF-8: unexpected end of data"),
], ids=["first-byte", "latin1-comment", "cut-at-end"])
def test_nmodes_that_is_not_utf8_refused_with_its_line(tmp_path, edit, message):
    # the line of the first byte that does not decode, as other refusals name it
    path = tmp_path / "modes.txt"
    path.write_bytes(edit(_golden_text().encode()))
    with pytest.raises(ParseError) as err:
        parse_modes(path)
    assert str(err.value) == message


# ---------------------------------------------------------------- g matrices

def test_g_block_with_prose_and_labels(written):
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
    np.testing.assert_allclose(parse_g_matrix(written(text)), REFERENCE_G, rtol=1e-12)


def test_g_block_row_labels_skipped(written):
    text = (
        "ELECTRONIC G-MATRIX\n"
        "1   2.0012  0.0001  0.0\n"
        "2   0.0001  2.0034  0.0\n"
        "3   0.0     0.0     1.9876\n"
    )
    m = parse_g_matrix(written(text))
    assert m[0, 0] == 2.0012
    assert m[2, 2] == 1.9876


def test_g_block_first_marker_wins(written):
    text = (
        "ELECTRONIC G-MATRIX\n"
        "2.0 0.0 0.0\n0.0 2.0 0.0\n0.0 0.0 2.0\n"
        "ELECTRONIC G-MATRIX\n"
        "9.0 0.0 0.0\n0.0 9.0 0.0\n0.0 0.0 9.0\n"
    )
    np.testing.assert_allclose(parse_g_matrix(written(text)), 2.0 * np.eye(3))


def test_g_block_missing_marker(written):
    with pytest.raises(ParseError, match="ELECTRONIC G-MATRIX"):
        parse_g_matrix(written("nothing to see here\n1.0 2.0 3.0\n"))


def test_g_block_too_few_numbers(written):
    text = "ELECTRONIC G-MATRIX\n1.98 0.001\n0.001 1.99\n"
    with pytest.raises(ParseError, match="4 of 9"):
        parse_g_matrix(written(text))


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


@pytest.mark.parametrize("pairing", ["diagonal_only", "all_pairs"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_each_planned_geometry_is_its_run(tmp_path, n, pairing):
    # a geometry is the run _runs lists, () for the baseline; its label
    # names its files, and the manifest lists the runs in plan order
    ms = make_modeset(natoms=2, nmodes=n)
    plan = plan_displacements(ms, delta=0.01, order=2, pairing=pairing)
    assert [g.run for g in plan] == [(), *_runs(n, pairing == "all_pairs")]
    assert len({g.label() for g in plan}) == len(plan)
    manifest = json.loads(write_displacement_set(plan, ms, tmp_path, 0.01).read_text())
    listed = [((), manifest["baseline"])]
    listed += [((run["mode"], run["sign"]), run["path"]) for run in manifest["runs"]]
    listed += [((*run["modes"], *run["signs"]), run["path"]) for run in manifest["pairs"]]
    assert listed == [(g.run, g.label() + ".gout") for g in plan]


def test_displacement_recovers_mode_direction(toy_modes):
    delta = 0.01
    plan = plan_displacements(toy_modes, delta=delta, order=1)
    by_key = {g.run: g.positions for g in plan if len(g.run) == 2}
    for k in range(toy_modes.nmodes):
        diff = (by_key[k + 1, "+"] - by_key[k + 1, "-"]) / (2 * delta)
        np.testing.assert_allclose(
            diff, toy_modes.cartesian_direction(k), atol=1e-10
        )


def test_plan_rejects_bad_arguments(toy_modes):
    for delta in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            plan_displacements(toy_modes, delta=delta)
    with pytest.raises(ValueError):
        plan_displacements(toy_modes, order=3)
    with pytest.raises(ValueError):
        plan_displacements(toy_modes, pairing="nearest")


@pytest.mark.parametrize("delta", [0.02, 0.0100001, float("inf")])
def test_write_displacement_set_refuses_another_step(tmp_path, toy_modes, delta):
    # the manifest's step builds the couplings, so it must be the step the
    # geometries moved by; a doubled step would halve d1 and quarter d2
    plan = plan_displacements(toy_modes, delta=0.01, order=2, pairing="all_pairs")
    with pytest.raises(ValueError, match="is not the plan's step 0.01"):
        write_displacement_set(plan, toy_modes, tmp_path / "runs", delta)
    assert not (tmp_path / "runs").exists()


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
    assert rs.singles.shape == (6, 3, 3)
    assert rs.pairs.shape == (12, 3, 3)
    np.testing.assert_allclose(rs.baseline, REFERENCE_G, rtol=1e-12)

    # matches direct evaluation, run for run
    direct = sample_g_surface(toy_modes, gfun, delta=0.02, order=2,
                              pairing="all_pairs")
    np.testing.assert_allclose(rs.singles, direct.singles, atol=1e-14)
    np.testing.assert_allclose(rs.pairs, direct.pairs, atol=1e-14)


def test_load_run_set_reports_missing_runs(tmp_path, toy_modes):
    # plan for 7+ modes so mode number 7 exists
    ms = make_modeset(natoms=4, nmodes=8, frequencies=np.linspace(10, 400, 8))
    plan = plan_displacements(ms, delta=0.01, order=1)
    mpath = write_displacement_set(plan, ms, tmp_path, delta=0.01)
    gfun = _linear_g_surface(ms.geometry.positions)
    for g in plan:
        if g.run == (7, "-"):
            continue  # omit (mode 7, minus)
        write_g_matrix(gfun(g.positions), tmp_path / f"{g.label()}.gout")
    with pytest.raises(IncompleteRunSetError) as err:
        load_run_set(mpath, ms)
    assert err.value.missing_singles == [(7, "-")]
    assert "(mode 7, -)" in str(err.value)


def test_missing_results_counted_and_first_few_named(tmp_path):
    # a plan no engine has run yet misses every result; the message counts
    # them and names the first few, the attributes list them all
    ms = make_modeset(natoms=4, nmodes=8, frequencies=np.linspace(10, 400, 8))
    plan = plan_displacements(ms, delta=0.01, order=2, pairing="all_pairs")
    mpath = write_displacement_set(plan, ms, tmp_path, delta=0.01)
    with pytest.raises(IncompleteRunSetError) as err:
        load_run_set(mpath, ms)
    assert str(err.value) == ("129 missing displaced-run results: baseline, (mode 1, +), "
                              "(mode 1, -), (mode 2, +), (mode 2, -) and 124 more")
    assert err.value.missing_baseline
    assert len(err.value.missing_singles) == 16 and len(err.value.missing_pairs) == 112
    assert err.value.missing_pairs[-1] == (7, 8, "-", "-")


def test_load_run_set_missing_baseline(tmp_path, toy_modes):
    plan = plan_displacements(toy_modes, delta=0.01, order=1)
    mpath = write_displacement_set(plan, toy_modes, tmp_path, delta=0.01)
    gfun = _linear_g_surface(toy_modes.geometry.positions)
    for g in plan:
        if g.run:
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
    assert rs.pairs.shape == (0, 3, 3)
    assert rs.singles.shape == (2 * toy_modes.nmodes, 3, 3)


@pytest.mark.parametrize("name", ["{modes}.txt", " {modes}.txt", "two\nlines.txt"],
                         ids=["brace", "space-brace", "newline"])
def test_every_str_names_a_file(tmp_path, monkeypatch, toy_modes, name):
    # a str never holds a file's text, even one that reads like JSON or
    # spans lines
    monkeypatch.chdir(tmp_path)
    write_modes(toy_modes, name)
    assert np.array_equal(parse_modes(name).eigenvectors, toy_modes.eigenvectors)
    write_g_matrix(REFERENCE_G, name)
    np.testing.assert_allclose(parse_g_matrix(name), REFERENCE_G, rtol=1e-12)
    c = CouplingTensors(d1=np.full((3, 1), 1e-3), d2=np.zeros((3, 1, 1)),
                        delta_angstrom=0.01, frequencies=[20.0],
                        field_direction=(0.0, 0.0, 1.0), mixed_computed=True)
    export_couplings(c, name)
    assert np.array_equal(load_couplings(name).d1, c.d1)
    for read in (parse_modes, parse_g_matrix, load_couplings):
        with pytest.raises(FileNotFoundError):
            read("{}\n")  # text by both of the old rules


# ------------------------------------------------------- g-block tokenizer

# The tokenizer before the regex scan, kept as the oracle: split on
# whitespace and commas, keep the fields that fully match a float with a
# decimal point or an exponent.
_OLD_FLOATISH = re.compile(
    r"^[-+]?(\d+\.\d*|\.\d+|\d+[eE][-+]?\d+|\d+\.\d*[eE][-+]?\d+)$"
)


def _old_fields(line):
    return [float(t) for t in line.replace(",", " ").split() if _OLD_FLOATISH.match(t)]


def _old_parse(text):
    """The old block rules over the old tokenizer: values or the error text."""
    lines = text.splitlines()
    start = next((i for i, raw in enumerate(lines) if G_MATRIX_MARKER in raw), None)
    if start is None:
        return f"no '{G_MATRIX_MARKER}' marker found"
    values = []
    for raw in lines[start + 1:]:
        row = _old_fields(raw)
        if not row:
            if values:
                break
            continue
        values.extend(row)
        if len(values) >= 9:
            break
    if len(values) < 9:
        return (f"line {start + 1}: found {len(values)} of 9 numeric fields "
                f"after the '{G_MATRIX_MARKER}' marker")
    if not np.all(np.isfinite(values[:9])):
        return f"line {start + 1}: g matrix block contains non-finite values"
    return values[:9]


_PIECES = st.sampled_from([
    "1", "12", "1.", ".5", "1.5", "+1e-3", "-2.5E+07", "1e5", "1.e2", ".5e3",
    "+.5", "-0.0", "1.5abc", "nan", "inf", "-inf", "NaN", "1e999", "--1.0",
    "1.0.0", "e5", "x", "g:", "(1)", "\u0663.\u0665", "2.0\u00b2",
])
# Unicode spaces, separators that also break lines, and a zero-width
# space, which is not whitespace
_SEPARATORS = st.sampled_from([
    "", " ", "  ", "\t", ",", ", ", "\u00a0", "\u2003", "\u3000", "\x1c",
    "\x85", "\u2028", "\u200b",
])
_LINES = st.one_of(
    st.lists(st.tuples(_PIECES, _SEPARATORS), max_size=8).map(
        lambda parts: "".join(p + s for p, s in parts)
    ),
    st.text(alphabet="0123456789.eE+-, \t abn", max_size=30),
)


@settings(max_examples=400, deadline=None)
@given(_LINES)
def test_g_tokenizer_matches_split_oracle(line):
    assert [float(v) for v in _G_FIELD.findall(line)] == _old_fields(line)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINES, max_size=8), st.lists(_LINES, max_size=8), _LINES,
       st.booleans())
def test_g_block_matches_old_rules(tmp_path_factory, before, after, head, has_marker):
    marker = head + G_MATRIX_MARKER if has_marker else head
    text = "\n".join(before + [marker] + after) + "\n"
    path = tmp_path_factory.getbasetemp() / "g-block.out"
    path.write_text(text)
    try:
        got = parse_g_matrix(path).ravel().tolist()
    except ParseError as e:
        got = str(e)
    expected = _old_parse(text)
    assert got == (expected if isinstance(expected, list) else f"{path}: {expected}")


def test_g_block_nine_fields_over_rows_with_commas(written):
    text = "ELECTRONIC G-MATRIX\n x: 2.0, 0.0,\t0.0\n y: 0., 2.0 0.0\n z: .0 0e0 2.\n"
    np.testing.assert_array_equal(parse_g_matrix(written(text)), 2.0 * np.eye(3))


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
def test_g_block_before_a_long_log(newline):
    # the log after the block holds numbers and a second marker; only the
    # first block is read, and the fieldless line after the marker and the
    # line number of a short block behave as without the log
    log = "".join(f"iter {i} energy -{i}.125 grad 1.5e-3\n" for i in range(60000))
    log += G_MATRIX_MARKER + "\n9.0 0.0 0.0\n0.0 9.0 0.0\n0.0 0.0 9.0\n"
    head = "engine banner\n" + G_MATRIX_MARKER + "\n\n"
    text = head + "2.0 0.0 0.0\n0.0 2.0 0.0\n0.0 0.0 2.0\n\n" + log
    nine = [*map(float, _g_fields(text.replace("\n", newline)))]
    assert nine == (2.0 * np.eye(3)).ravel().tolist()
    short = (head + "2.0 0.0 0.0\n0.0 2.0\n\n" + log).replace("\n", newline)
    with pytest.raises(ParseError, match="^line 2: found 5 of 9 numeric fields"):
        _g_fields(short)
    # a block that starts thousands of fieldless lines after its marker
    long_head = head + "prose\n" * 3000
    nine = [*map(float, _g_fields(long_head + text[len(head):]))]
    assert nine == (2.0 * np.eye(3)).ravel().tolist()


# ---------------------------------------------------- stacked run-set check

@pytest.mark.parametrize("bad", ["non-finite", "shape"])
@pytest.mark.parametrize("kind, key", [
    ("single", (3, "(mode 2, -)")),
    ("pair", (5, "(modes 1 3, +-)")),
])
def test_run_set_names_invalid_matrix(toy_modes, kind, key, bad):
    rs = sample_g_surface(toy_modes, _linear_g_surface(toy_modes.geometry.positions),
                          pairing="all_pairs")
    (row, run), field = key, kind + "s"
    runs = {"singles": rs.singles.copy(), "pairs": rs.pairs.copy()}
    if bad == "shape":  # a stack one run short
        rows = len(runs[field])
        runs[field] = np.delete(runs[field], row, axis=0)
        message = rf"{field} must be \({rows}, 3, 3\), got \({rows - 1}, 3, 3\)"
    else:
        runs[field][row, 1, 2] = np.inf
        message = re.escape(f"{field} {run} g matrix is not finite")
    with pytest.raises(ValueError, match=f"^{message}$"):
        DisplacedGTensorSet(toy_modes, rs.delta_angstrom, rs.baseline, **runs)


@pytest.mark.parametrize("delta", [np.inf, np.nan, 0.0])
def test_run_set_refuses_a_step_that_is_not_positive_and_finite(toy_modes, delta):
    rs = sample_g_surface(toy_modes, _linear_g_surface(toy_modes.geometry.positions))
    with pytest.raises(ValueError, match="^delta_angstrom must be positive and finite$"):
        DisplacedGTensorSet(toy_modes, delta, rs.baseline, rs.singles, rs.pairs)


# ---------------------------------------------------------- manifest entries

@pytest.fixture
def pair_runs(tmp_path, toy_modes):
    """An all_pairs run directory with every result present."""
    plan = plan_displacements(toy_modes, delta=0.02, order=2, pairing="all_pairs")
    mpath = write_displacement_set(plan, toy_modes, tmp_path, delta=0.02)
    gfun = _linear_g_surface(toy_modes.geometry.positions)
    for g in plan:
        write_g_matrix(gfun(g.positions), tmp_path / f"{g.label()}.gout")
    return mpath


def _no_mode(m):
    del m["runs"][0]["mode"]


def _null_path(m):
    m["runs"][0]["path"] = None


def _one_pair_mode(m):
    m["pairs"][0]["modes"] = [1]


def _text_mode(m):
    m["runs"][0]["mode"] = "x"


def _repeated_single(m):
    m["runs"].append(dict(m["runs"][0], path=m["runs"][1]["path"]))


def _repeated_pair_reordered(m):
    first = m["pairs"][1]
    m["pairs"].append({"modes": first["modes"][::-1], "signs": first["signs"][::-1],
                       "path": first["path"]})


def _text_delta(m):
    m["delta_angstrom"] = "0.01"


def _sign_at(section, i, sign):
    def edit(m):
        m[section][i]["sign" if section == "runs" else "signs"] = sign
    return edit


@pytest.mark.parametrize("edit, message", [
    (_no_mode, r"manifest runs\[0\] has no 'mode'"),
    (_null_path, r"manifest runs\[0\]: 'path' must be a file name, got None"),
    (_one_pair_mode,
     r"manifest pairs\[0\]: 'modes' must be two different integers in 1..3, got \[1\]"),
    (_text_mode, r"manifest runs\[0\]: 'mode' must be an integer in 1..3, got 'x'"),
    (_repeated_single, r"manifest runs\[0\] and runs\[6\] list the same displacement"),
    (_text_delta, r"manifest: 'delta_angstrom' must be positive and finite, got '0.01'"),
    (_repeated_pair_reordered,
     r"manifest pairs\[1\] and pairs\[12\] list the same displacement"),
    # a bool or a float is not a sign, though True == 1.0 == 1
    (_sign_at("runs", 0, True), r"manifest runs\[0\]: 'sign' must be .*, got True$"),
    (_sign_at("runs", 3, -1.0), r"manifest runs\[3\]: 'sign' must be .*, got -1.0$"),
    (_sign_at("pairs", 0, [1.0, "-"]),
     r"manifest pairs\[0\]: 'signs' must be two of .*, got \[1.0, '-'\]$"),
    (_sign_at("pairs", 5, ["+", False]),
     r"manifest pairs\[5\]: 'signs' must be two of .*, got \['\+', False\]$"),
    (lambda m: m["pairs"][2].update(modes=[2, 2]),
     r"manifest pairs\[2\]: 'modes' must be two different integers in 1..3"),
    (lambda m: m["runs"][1].update(mode=True), r"manifest runs\[1\]: 'mode' must be"),
    (lambda m: m.update(runs={}), r"manifest: 'runs' must be an array"),
    (lambda m: m.update(baseline=""), r"^manifest: 'baseline' must be a file name, got ''$"),
    # no path holds a NUL: refused by entry, not by the operating system
    (lambda m: m["runs"][2].update(path="single\u0000.gout"),
     r"^manifest runs\[2\]: 'path' must be a file name, got 'single\\x00\.gout'$"),
], ids=["no-mode", "null-path", "one-pair-mode", "text-mode", "repeated-run", "text-delta",
        "repeated-pair-reordered", "true-sign", "float-sign", "float-in-signs",
        "false-in-signs", "pair-repeats-mode", "true-mode", "runs-not-array",
        "empty-baseline", "nul-in-path"])
def test_malformed_manifest_entry_named(pair_runs, toy_modes, edit, message):
    doc = json.loads(pair_runs.read_text())
    edit(doc)
    pair_runs.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=message):
        load_run_set(pair_runs, toy_modes)


@pytest.mark.parametrize("plus, minus", [("plus", "minus"), (1, -1)])
def test_manifest_sign_spellings_give_the_same_run_set(pair_runs, toy_modes, plus,
                                                       minus):
    expected = load_run_set(pair_runs, toy_modes)
    doc = json.loads(pair_runs.read_text())
    spell = {"+": plus, "-": minus}
    for run in doc["runs"]:
        run["sign"] = spell[run["sign"]]
    for run in doc["pairs"]:
        run["signs"] = [spell[s] for s in run["signs"]]
    pair_runs.write_text(json.dumps(doc))
    loaded = load_run_set(pair_runs, toy_modes)
    for a, b in zip(_run_set_arrays(expected), _run_set_arrays(loaded)):
        assert np.array_equal(a, b)


def test_manifest_must_be_an_object(tmp_path, toy_modes):
    (tmp_path / "manifest.json").write_text("[]")
    with pytest.raises(ParseError, match="manifest must be a JSON object"):
        load_run_set(tmp_path / "manifest.json", toy_modes)


def test_unparsable_result_named_by_manifest_path(pair_runs, toy_modes):
    result = pair_runs.parent / "pair0001_0003_pm.gout"
    result.write_text("ELECTRONIC G-MATRIX\n1.0 2.0\n")
    with pytest.raises(ParseError, match=r"^pair0001_0003_pm\.gout: line 1: found 2 of"):
        load_run_set(pair_runs, toy_modes)
    result.write_text("ELECTRONIC G-MATRIX\n" + "1e999 " * 9 + "\n")
    with pytest.raises(ParseError, match=r"^pair0001_0003_pm\.gout: .*non-finite"):
        load_run_set(pair_runs, toy_modes)


_NON_FINITE = "ELECTRONIC G-MATRIX\n" + "1e999 " * 9 + "\n"
_SHORT = "ELECTRONIC G-MATRIX\n1.0 2.0\n"


@pytest.mark.parametrize("early, late, message", [
    (_NON_FINITE, _SHORT, r"^single0001_m\.gout: line 1: g matrix block contains non-finite"),
    (_SHORT, _NON_FINITE, r"^single0001_m\.gout: line 1: found 2 of 9"),
    (None, _NON_FINITE, r"^pair0002_0003_mm\.gout: line 1: g matrix block contains non-finite"),
], ids=["non-finite-then-short", "short-then-non-finite", "missing-then-non-finite"])
def test_first_refused_result_in_row_order_is_named(pair_runs, toy_modes, early, late,
                                                    message):
    # the results are checked in row order: baseline, singles, pairs; a
    # missing result is reported only when every present one is good
    first, last = (pair_runs.parent / f"{stem}.gout"
                   for stem in ("single0001_m", "pair0002_0003_mm"))
    if early is None:
        first.unlink()
    else:
        first.write_text(early)
    last.write_text(late)
    with pytest.raises(ParseError, match=message):
        load_run_set(pair_runs, toy_modes)


def test_result_that_is_a_directory_counts_as_missing(pair_runs, toy_modes):
    (pair_runs.parent / "single0002_p.gout").unlink()
    (pair_runs.parent / "single0002_p.gout").mkdir()
    with pytest.raises(IncompleteRunSetError) as err:
        load_run_set(pair_runs, toy_modes)
    assert err.value.missing_singles == [(2, "+")]


def test_each_missing_result_names_its_own_run(pair_runs, toy_modes):
    # the run a missing result is named by comes from the plan's geometry
    plan = plan_displacements(toy_modes, delta=0.02, order=2, pairing="all_pairs")
    assert len(plan) == 19
    for g in plan:
        result = pair_runs.parent / f"{g.label()}.gout"
        result.rename(result.with_suffix(".away"))
        with pytest.raises(IncompleteRunSetError) as err:
            load_run_set(pair_runs, toy_modes)
        result.with_suffix(".away").rename(result)
        assert err.value.missing_baseline == (g.run == ())
        assert err.value.missing_singles == ([g.run] if len(g.run) == 2 else [])
        assert err.value.missing_pairs == ([g.run] if len(g.run) == 4 else [])
        name = {0: "baseline", 2: "(mode {}, {})",
                4: "(modes {} {}, {}{})"}[len(g.run)].format(*g.run)
        assert str(err.value) == f"1 missing displaced-run results: {name}"


def test_manifest_entry_order_does_not_matter(pair_runs, toy_modes):
    # entries in any order, each pair listed high mode first with its signs
    # swapped to match, fill the same rows
    expected = load_run_set(pair_runs, toy_modes)
    doc = json.loads(pair_runs.read_text())
    rng = np.random.default_rng(3)
    doc["runs"] = [doc["runs"][i] for i in rng.permutation(len(doc["runs"]))]
    doc["pairs"] = [{"modes": run["modes"][::-1], "signs": run["signs"][::-1],
                     "path": run["path"]}
                    for run in (doc["pairs"][i] for i in rng.permutation(len(doc["pairs"])))]
    pair_runs.write_text(json.dumps(doc))
    loaded = load_run_set(pair_runs, toy_modes)
    for a, b in zip(_run_set_arrays(expected), _run_set_arrays(loaded)):
        assert np.array_equal(a, b)


# ------------------------------------------------------------ result reads

def _run_set_arrays(rs):
    return [rs.baseline, rs.singles, rs.pairs]


@pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_line_endings_give_the_same_run_set(pair_runs, toy_modes, newline):
    lf = load_run_set(pair_runs, toy_modes)
    for result in pair_runs.parent.glob("*.gout"):
        text = "engine log\nconverged\n" + result.read_text()
        result.write_bytes(text.replace("\n", newline).encode())
    other = load_run_set(pair_runs, toy_modes)
    for a, b in zip(_run_set_arrays(lf), _run_set_arrays(other)):
        assert np.array_equal(a, b)


def test_result_read_to_its_end(pair_runs, toy_modes):
    # the g block starts past the first 64 KiB of the file
    baseline = pair_runs.parent / "baseline.gout"
    expected = load_run_set(pair_runs, toy_modes).baseline
    prose = "SCF iteration converged\n" * 4000
    assert len(prose) > 65536
    baseline.write_text(prose + baseline.read_text())
    assert np.array_equal(load_run_set(pair_runs, toy_modes).baseline, expected)


def test_result_that_is_not_utf8_named(pair_runs, toy_modes):
    baseline = pair_runs.parent / "baseline.gout"
    baseline.write_bytes(b"caf\xe9 engine\n" + baseline.read_bytes())
    with pytest.raises(ParseError, match=r"^baseline\.gout: 'utf-8' codec can't decode"):
        load_run_set(pair_runs, toy_modes)


@pytest.mark.parametrize("content, message", [
    (b"caf\xe9 engine\n" + write_g_matrix(2.0 * np.eye(3)).encode(),
     "'utf-8' codec can't decode byte 0xe9"),
    (b"log\nELECTRONIC G-MATRIX\n1.0 2.0\n", "line 2: found 2 of 9"),
    (b"ELECTRONIC G-MATRIX\n" + b"1e999 " * 9 + b"\n",
     "line 1: g matrix block contains non-finite values"),
], ids=["latin1", "short", "non-finite"])
def test_both_g_readers_refuse_a_result_alike(pair_runs, toy_modes, monkeypatch,
                                              content, message):
    # parse_g_matrix reads a result as load_run_set does: the same bytes
    # give the same ParseError, naming the file as it was given
    monkeypatch.chdir(pair_runs.parent)
    (pair_runs.parent / "baseline.gout").write_bytes(content)
    errors = []
    for read in (lambda: load_run_set(pair_runs, toy_modes),
                 lambda: parse_g_matrix("baseline.gout")):
        with pytest.raises(ParseError) as got:
            read()
        errors.append(str(got.value))
    assert errors[0] == errors[1], errors
    assert errors[0].startswith(f"baseline.gout: {message}"), errors


def test_result_under_a_regular_file_counts_as_missing(pair_runs, toy_modes):
    doc = json.loads(pair_runs.read_text())
    first = doc["runs"][0]
    first["path"] += "/result.gout"
    pair_runs.write_text(json.dumps(doc))
    with pytest.raises(IncompleteRunSetError) as err:
        load_run_set(pair_runs, toy_modes)
    assert err.value.missing_singles == [(first["mode"], first["sign"])]
    assert not err.value.missing_pairs and not err.value.missing_baseline


def test_unreadable_result_is_not_missing(pair_runs, toy_modes, monkeypatch):
    # tests may run as root, who can read any file, so the refusal is faked
    real_open = os.open

    def refuse_baseline(path, *args, **kwargs):
        if os.path.basename(path) == "baseline.gout":
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse_baseline)
    with pytest.raises(PermissionError):
        load_run_set(pair_runs, toy_modes)


def test_manifest_named_by_bare_file_name(pair_runs, toy_modes, monkeypatch):
    expected = load_run_set(pair_runs, toy_modes)
    monkeypatch.chdir(pair_runs.parent)
    loaded = load_run_set("manifest.json", toy_modes)
    for a, b in zip(_run_set_arrays(expected), _run_set_arrays(loaded)):
        assert np.array_equal(a, b)


def test_absolute_result_path_used_as_given(pair_runs, toy_modes, tmp_path_factory):
    # a relative result path is read from the manifest's directory, an
    # absolute one from where it names, as os.path.join joins them
    expected = load_run_set(pair_runs, toy_modes)
    elsewhere = tmp_path_factory.mktemp("elsewhere") / "single0001_p.gout"
    write_g_matrix(3.0 * np.eye(3), elsewhere)
    doc = json.loads(pair_runs.read_text())
    assert doc["runs"][0]["mode"] == 1 and doc["runs"][0]["sign"] == "+"
    doc["runs"][0]["path"] = str(elsewhere)
    pair_runs.write_text(json.dumps(doc))
    loaded = load_run_set(pair_runs, toy_modes)
    assert np.array_equal(loaded.singles[0], 3.0 * np.eye(3))
    assert np.array_equal(loaded.singles[1:], expected.singles[1:])
    assert np.array_equal(loaded.pairs, expected.pairs)


def test_each_result_opened_once(pair_runs, toy_modes, monkeypatch):
    real_open = os.open
    opened = []

    def count(path, *args, **kwargs):
        if os.fspath(path).endswith(".gout"):
            opened.append(os.path.basename(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", count)
    load_run_set(pair_runs, toy_modes)
    results = sorted(path.name for path in pair_runs.parent.glob("*.gout"))
    assert len(results) == 19
    assert sorted(opened) == results


def test_results_are_read_one_at_a_time(pair_runs, toy_modes):
    # an engine's output runs to megabytes, so a run set never holds the
    # text of all its results at once
    expected = load_run_set(pair_runs, toy_modes)
    prose = "SCF iteration converged\n" * 2731
    assert len(prose) >= 65536
    results = list(pair_runs.parent.glob("*.gout"))
    for result in results:
        result.write_text(prose + result.read_text())
    total = sum(result.stat().st_size for result in results)
    load_run_set(pair_runs, toy_modes)  # any first-call work is done before tracing
    tracemalloc.start()
    try:
        loaded = load_run_set(pair_runs, toy_modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < total / 4, (peak, total)
    for a, b in zip(_run_set_arrays(expected), _run_set_arrays(loaded)):
        assert np.array_equal(a, b)
