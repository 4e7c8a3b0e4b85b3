"""Parsers, writers, displacement planning, and run-set assembly."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlat.core import Geometry, ModeSet
from spinlat.ingest import (
    G_MATRIX_MARKER,
    _G_FIELD,
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
    assert set(rs.singles) == {(k, s) for k in range(3) for s in (+1, -1)}
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
    assert set(rs.singles) == {(k, s) for k in range(toy_modes.nmodes) for s in (+1, -1)}


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
def test_g_block_matches_old_rules(before, after, head, has_marker):
    marker = head + G_MATRIX_MARKER if has_marker else head
    text = "\n".join(before + [marker] + after) + "\n"
    try:
        got = parse_g_matrix(text).ravel().tolist()
    except ParseError as e:
        got = str(e)
    assert got == _old_parse(text)


def test_g_block_nine_fields_over_rows_with_commas():
    text = "ELECTRONIC G-MATRIX\n x: 2.0, 0.0,\t0.0\n y: 0., 2.0 0.0\n z: .0 0e0 2.\n"
    np.testing.assert_array_equal(parse_g_matrix(text), 2.0 * np.eye(3))


# ---------------------------------------------------- stacked run-set check

@pytest.mark.parametrize("bad", ["non-finite", "shape"])
@pytest.mark.parametrize("kind, key", [
    ("single", (1, -1)),
    ("pair", (0, 2, 1, -1)),
])
def test_run_set_names_invalid_matrix(toy_modes, kind, key, bad):
    rs = sample_g_surface(toy_modes, _linear_g_surface(toy_modes.geometry.positions),
                          pairing="all_pairs")
    entries = {"single": dict(rs.singles), "pair": dict(rs.pairs)}
    entries[kind][key] = np.eye(3)[:2] if bad == "shape" else np.full((3, 3), np.inf)
    label = ", ".join(map(str, key))
    with pytest.raises(ValueError, match=rf"^{kind} \({label}\) g matrix invalid$"):
        DisplacedGTensorSet(toy_modes, rs.delta_angstrom, rs.baseline,
                            singles=entries["single"], pairs=entries["pair"])


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


@pytest.mark.parametrize("edit, message", [
    (_no_mode, r"manifest runs\[0\] has no 'mode'"),
    (_null_path, r"manifest runs\[0\]: path None is not a file name"),
    (_one_pair_mode, r"manifest pairs\[0\]: modes \[1\] and signs .* list two each"),
    (_text_mode, r"manifest runs\[0\]: mode 'x' is not an integer in 1..3"),
    (_repeated_single, r"manifest runs\[0\] and runs\[6\] list the same displacement"),
    (_text_delta, r"manifest delta_angstrom '0.01' is not a positive number"),
    (_repeated_pair_reordered,
     r"manifest pairs\[1\] and pairs\[12\] list the same displacement"),
], ids=["no-mode", "null-path", "one-pair-mode", "text-mode", "repeated-run", "text-delta",
        "repeated-pair-reordered"])
def test_malformed_manifest_entry_named(pair_runs, toy_modes, edit, message):
    doc = json.loads(pair_runs.read_text())
    edit(doc)
    pair_runs.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=message):
        load_run_set(pair_runs, toy_modes)


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


def test_result_that_is_a_directory_counts_as_missing(pair_runs, toy_modes):
    (pair_runs.parent / "single0002_p.gout").unlink()
    (pair_runs.parent / "single0002_p.gout").mkdir()
    with pytest.raises(IncompleteRunSetError) as err:
        load_run_set(pair_runs, toy_modes)
    assert err.value.missing_singles == [(2, "+")]
