"""Finite-difference coupling assembly against analytic surfaces."""

import hashlib
import json
import warnings
import zlib

import numpy as np
import pytest

import spinlat.couplings as couplings_module
from spinlat.core import ModeSet
from spinlat.couplings import (
    CouplingTensors,
    _unit,
    build_couplings,
    dimensionless_steps,
    export_couplings,
    load_couplings,
    same_direction,
)
from spinlat.ingest import sample_g_surface

from conftest import make_modeset

# Independent value of hbar in amu * Angstrom^2 * cm^-1; any drift in the
# centralized constant must show up here.
HBAR_UNITS = 16.857629181311186


def mode_step_vectors(modeset):
    """c[k] = sqrt(hbar/omega_k) * M^(-1/2) l_k, the Cartesian displacement
    per unit dimensionless coordinate, flattened to length 3*natoms."""
    rsqrt_m = 1.0 / np.sqrt(np.repeat(modeset.geometry.masses, 3))
    out = []
    for k in range(modeset.nmodes):
        w = modeset.eigenvectors[:, k] * rsqrt_m
        out.append(np.sqrt(HBAR_UNITS / modeset.frequencies[k]) * w)
    return np.array(out)


def quadratic_surface(modeset, seed=7, lin_scale=0.1, quad_scale=1.0, g0=None):
    """Random degree-2 g surface plus its exact derivatives in x_k.

    The default constant term is kept of the same order as the curvature
    so subtractive cancellation in the stencils stays near machine eps;
    pass g0 for realistic magnitudes (and looser achievable accuracy).
    """
    rng = np.random.default_rng(seed)
    dim = 3 * modeset.geometry.natoms
    if g0 is None:
        g0 = 0.05 * rng.standard_normal((3, 3))
    lin = lin_scale * rng.standard_normal((dim, 3, 3))
    quad = quad_scale * rng.standard_normal((dim, dim, 3, 3))
    quad = 0.5 * (quad + quad.transpose(1, 0, 2, 3))
    r0 = modeset.geometry.positions.copy()

    def gfun(positions):
        d = (positions - r0).ravel()
        return (
            g0
            + np.einsum("iab,i->ab", lin, d)
            + 0.5 * np.einsum("ijab,i,j->ab", quad, d, d)
        )

    c = mode_step_vectors(modeset)

    def d1_exact(b):
        return np.einsum("iab,b,ki->ak", lin, b, c)

    def d2_exact(b):
        return np.einsum("ijab,b,ki,pj->akp", quad, b, c, c)

    return gfun, d1_exact, d2_exact


def relmax(computed, exact):
    return np.abs(computed - exact).max() / np.abs(exact).max()


def flip_column(modeset, k):
    ev = modeset.eigenvectors.copy()
    ev[:, k] *= -1.0
    return ModeSet(
        geometry=modeset.geometry,
        frequencies=modeset.frequencies.copy(),
        eigenvectors=ev,
        source_indices=modeset.source_indices.copy(),
    )


# ------------------------------------------------------------------ steps

def test_dimensionless_steps_oracle(toy_modes):
    delta = 0.01
    steps = dimensionless_steps(toy_modes, delta)
    rsqrt_m = 1.0 / np.sqrt(np.repeat(toy_modes.geometry.masses, 3))
    for k in range(toy_modes.nmodes):
        w = toy_modes.eigenvectors[:, k] * rsqrt_m
        expected = delta / (
            np.linalg.norm(w) * np.sqrt(HBAR_UNITS / toy_modes.frequencies[k])
        )
        assert steps[k] == pytest.approx(expected, rel=1e-14)


def test_dimensionless_steps_rejects_nonpositive_delta(toy_modes):
    with pytest.raises(ValueError, match="delta"):
        dimensionless_steps(toy_modes, 0.0)


@pytest.mark.parametrize("delta", [np.inf, np.nan])
def test_dimensionless_steps_rejects_nonfinite_delta(toy_modes, delta):
    with pytest.raises(ValueError, match="^delta must be positive and finite$"):
        dimensionless_steps(toy_modes, delta)


# ------------------------------------------------------------ FD exactness

def test_constant_surface_gives_zero_derivatives(toy_modes):
    g0 = np.diag([1.99, 1.99, 1.99])
    runset = sample_g_surface(toy_modes, lambda pos: g0, pairing="all_pairs")
    c = build_couplings(runset)
    assert np.all(c.d1 == 0.0)
    assert np.all(c.d2 == 0.0)
    assert c.mixed_computed


@pytest.mark.parametrize("bdir", [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
def test_polynomial_surface_matches_analytic(toy_modes, bdir):
    gfun, d1_exact, d2_exact = quadratic_surface(toy_modes)
    runset = sample_g_surface(toy_modes, gfun, delta=0.01, pairing="all_pairs")
    c = build_couplings(runset, field_direction=bdir)
    b = np.asarray(bdir) / np.linalg.norm(bdir)
    assert relmax(c.d1, d1_exact(b)) < 1e-12
    assert relmax(c.d2, d2_exact(b)) < 1e-12


def test_polynomial_surface_realistic_baseline(toy_modes):
    # A free-electron-sized constant term costs ~3 digits in d2 through
    # the 1/dx^2 amplification of its rounding; the stencil itself is
    # still exact, so the error stays at that floor.
    gfun, d1_exact, d2_exact = quadratic_surface(
        toy_modes, g0=np.diag([2.0, 2.0, 2.0])
    )
    runset = sample_g_surface(toy_modes, gfun, delta=0.01, pairing="all_pairs")
    c = build_couplings(runset)
    b = np.array([0.0, 0.0, 1.0])
    assert relmax(c.d1, d1_exact(b)) < 1e-12
    assert relmax(c.d2, d2_exact(b)) < 1e-11


def test_single_mode_quadratic_recovers_coefficients(toy_modes):
    # g_zz = a + b x_0 + c x_0^2: slope b, curvature 2c, both exact.
    r0 = toy_modes.geometry.positions.copy()
    a, bcoef, ccoef = 2.0, 3.7e-3, -1.3e-2
    # x_0 recovered by projecting the Cartesian displacement onto the
    # mass-weighted eigenvector, undoing the sqrt(hbar/omega) scaling.
    l0 = toy_modes.eigenvectors[:, 0]
    sqrt_m = np.sqrt(np.repeat(toy_modes.geometry.masses, 3))
    scale = np.sqrt(HBAR_UNITS / toy_modes.frequencies[0])

    def gfun(positions):
        d = (positions - r0).ravel()
        x0 = (sqrt_m * d) @ l0 / scale
        g = np.zeros((3, 3))
        g[2, 2] = a + bcoef * x0 + ccoef * x0 * x0
        return g

    runset = sample_g_surface(toy_modes, gfun, pairing="all_pairs")
    c = build_couplings(runset)
    d1, d2 = c.d1, c.d2
    assert c.mixed_computed
    assert d1[2, 0] == pytest.approx(bcoef, rel=1e-12)
    assert d2[2, 0, 0] == pytest.approx(2.0 * ccoef, rel=1e-12)
    # other modes see a constant surface through their own stencils
    assert abs(d1[2, 1]) < 1e-15 and abs(d1[2, 2]) < 1e-15


def test_bilinear_surface_mixed_entry(toy_modes):
    # g_xx = x_0 * x_1 has unit mixed second derivative and nothing else.
    r0 = toy_modes.geometry.positions.copy()
    sqrt_m = np.sqrt(np.repeat(toy_modes.geometry.masses, 3))

    def xk(positions, k):
        d = (positions - r0).ravel()
        lk = toy_modes.eigenvectors[:, k]
        return (sqrt_m * d) @ lk / np.sqrt(HBAR_UNITS / toy_modes.frequencies[k])

    def gfun(positions):
        g = np.zeros((3, 3))
        g[0, 0] = xk(positions, 0) * xk(positions, 1)
        return g

    runset = sample_g_surface(toy_modes, gfun, pairing="all_pairs")
    c = build_couplings(runset, field_direction=(1.0, 0.0, 0.0))
    assert c.d2[0, 0, 1] == pytest.approx(1.0, rel=1e-12)
    assert c.d2[0, 1, 0] == pytest.approx(1.0, rel=1e-12)
    assert abs(c.d2[0, 0, 0]) < 1e-12
    assert abs(c.d1).max() < 1e-12


def test_d2_symmetrized_bitwise(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes, seed=11)
    runset = sample_g_surface(toy_modes, gfun, pairing="all_pairs")
    c = build_couplings(runset)
    assert np.array_equal(c.d2, np.swapaxes(c.d2, 1, 2))


def test_sign_gauge_flip_relabels_consistently(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes, seed=3)
    flipped_modes = flip_column(toy_modes, 1)
    c_ref = build_couplings(sample_g_surface(toy_modes, gfun, pairing="all_pairs"))
    c_flip = build_couplings(
        sample_g_surface(flipped_modes, gfun, pairing="all_pairs")
    )
    sign = np.array([1.0, -1.0, 1.0])
    np.testing.assert_allclose(c_flip.d1, c_ref.d1 * sign, atol=1e-15)
    expected_d2 = c_ref.d2 * sign[None, :, None] * sign[None, None, :]
    np.testing.assert_allclose(c_flip.d2, expected_d2, atol=1e-15)


def _loop_stencils(runset, b):
    """Per-mode and per-pair stencil loops: the bitwise reference for the
    array stencils of build_couplings."""
    dx = dimensionless_steps(runset.modeset, runset.delta_angstrom)
    n = runset.modeset.nmodes
    d1, d2 = np.empty((3, n)), np.zeros((3, n, n))
    g0 = runset.baseline @ b
    for k in range(n):
        gp, gm = runset.singles[2 * k] @ b, runset.singles[2 * k + 1] @ b
        d1[:, k] = (gp - gm) / (2.0 * dx[k])
        d2[:, k, k] = (gp - 2.0 * g0 + gm) / dx[k] ** 2
    runs = iter(runset.pairs)  # pairs k < kp in order, signs ++, +-, -+, --
    for k in range(n):
        for kp in range(k + 1, n):
            pp, pm, mp, mm = (next(runs) @ b for _ in range(4))
            d2[:, k, kp] = d2[:, kp, k] = (pp - pm - mp + mm) / (4.0 * dx[k] * dx[kp])
    return d1, d2


@pytest.mark.parametrize("direction", [(0, 0, 1), (1, -2, -2), (0.3, 0.1, -0.7)])
def test_array_stencils_equal_loop_stencils(direction):
    ms = make_modeset(natoms=4, nmodes=7, frequencies=np.linspace(15.0, 300.0, 7))
    gfun, _, _ = quadratic_surface(ms, seed=11)
    runset = sample_g_surface(ms, gfun, pairing="all_pairs")
    c = build_couplings(runset, direction)
    # the runs are projected on exactly the unit direction the tensors store
    b = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    assert np.array_equal(c.field_direction, b)
    d1, d2 = _loop_stencils(runset, b)
    assert np.array_equal(c.d1, d1)
    assert np.array_equal(c.d2, d2)


# ---------------------------------------------------------------- errors

def test_diagonal_only_flags_mixed_not_computed(toy_modes):
    gfun, _, _ = quadratic_surface(toy_modes)
    runset = sample_g_surface(toy_modes, gfun, pairing="diagonal_only")
    c = build_couplings(runset)
    assert not c.mixed_computed
    off = c.d2 * (1.0 - np.eye(toy_modes.nmodes))
    assert np.all(off == 0.0)
    assert np.abs(np.einsum("akk->ak", c.d2)).max() > 0.0


# ----------------------------------------------------------------- export

def test_export_load_round_trip(toy_modes, tmp_path):
    gfun, _, _ = quadratic_surface(toy_modes)
    c = build_couplings(
        sample_g_surface(toy_modes, gfun, pairing="all_pairs"),
        field_direction=(0.0, 1.0, 0.0),
    )
    path = tmp_path / "couplings.json"
    export_couplings(c, path)
    loaded = load_couplings(path)
    assert np.array_equal(loaded.d1, c.d1)
    assert np.array_equal(loaded.d2, c.d2)
    assert np.array_equal(loaded.frequencies, c.frequencies)
    assert np.array_equal(loaded.field_direction, c.field_direction)
    assert np.array_equal(loaded.source_indices, c.source_indices)
    assert loaded.delta_angstrom == c.delta_angstrom
    assert loaded.mixed_computed == c.mixed_computed
    doc = json.loads(path.read_text())
    assert doc["units"]["frequencies_cm"] == "cm^-1"


def test_equal_valued_couplings_compare_by_identity(toy_modes):
    # a generated __eq__ would compare the arrays and raise "truth value
    # ... ambiguous"; array-holding records compare, and hash, by identity
    gfun, _, _ = quadratic_surface(toy_modes)
    runs = sample_g_surface(toy_modes, gfun, pairing="all_pairs")
    a, b = (build_couplings(runs, field_direction=(0.0, 0.0, 1.0)) for _ in range(2))
    assert np.array_equal(a.d2, b.d2)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_load_single_line_json_text(toy_modes, tmp_path):
    gfun, _, _ = quadratic_surface(toy_modes)
    c = build_couplings(sample_g_surface(toy_modes, gfun))
    text = json.dumps(json.loads(export_couplings(c)))
    assert "\n" not in text
    path = tmp_path / "one-line.json"
    path.write_text(text)
    loaded = load_couplings(path)
    assert np.array_equal(loaded.d1, c.d1)
    assert np.array_equal(loaded.d2, c.d2)
    path.write_text("  " + export_couplings(c))
    assert np.array_equal(load_couplings(str(path)).d1, c.d1)


# ------------------------------------------------------------------- record

def seeded_couplings(n, mixed, seed=3):
    """Random couplings over n modes; without mixed derivatives d2 is diagonal."""
    rng = np.random.default_rng([seed, n])
    d2 = rng.normal(scale=1e-3, size=(3, n, n))
    d2 = d2 + d2.transpose(0, 2, 1)
    if not mixed:
        d2 = d2 * np.eye(n)
    return CouplingTensors(d1=rng.normal(scale=1e-3, size=(3, n)), d2=d2, delta_angstrom=0.01,
                           frequencies=np.sort(rng.uniform(10.0, 1600.0, n)),
                           field_direction=np.array([0.6, 0.0, -0.8]), mixed_computed=mixed,
                           source_indices=rng.permutation(n) + 1)


FIELDS = ("d1", "d2", "frequencies", "field_direction", "source_indices",
          "delta_angstrom", "mixed_computed")


def bits(c):
    """Every field load_couplings returns, as its type, dtype, shape and bytes."""
    return {name: (type(value), value.dtype, value.shape, value.tobytes())
            if isinstance(value, np.ndarray) else (type(value), value)
            for name, value in ((name, getattr(c, name)) for name in FIELDS)}


def parsed_only(monkeypatch):
    """Find no record, so a load can only parse the JSON."""
    monkeypatch.setattr(couplings_module, "_recorded", lambda path, data: None)


def record_only(monkeypatch):
    """Make the JSON parse fail loudly, so a load can only read the record."""
    def no_json(*args, **kwargs):
        raise AssertionError("the JSON was parsed")
    monkeypatch.setattr(couplings_module, "json_object", no_json)


@pytest.mark.parametrize("n, mixed", [(1, False), (1, True), (2, True), (7, False), (7, True)])
def test_record_and_json_load_bitwise_equal(tmp_path, monkeypatch, n, mixed):
    c = seeded_couplings(n, mixed)
    path = tmp_path / "couplings.json"
    export_couplings(c, path, config={"physics": {"note": "any"}})
    with monkeypatch.context() as m:
        record_only(m)
        from_record = load_couplings(path)
    with monkeypatch.context() as m:
        parsed_only(m)
        from_json = load_couplings(path)
    assert bits(from_record) == bits(from_json) == bits(c)


def test_export_writes_the_returned_text_and_its_record(tmp_path):
    # the JSON is the text export returns, byte for byte, as it was before
    # the record; the record's bytes repeat from export to export
    c = seeded_couplings(4, True)
    config = {"physics": {"g0": None}}
    text = export_couplings(c, config=config)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "15fa6b8111938e7a6f8cce4e05223cb98d269b6321b66694bd6b4547ab79ccfe")
    assert hashlib.sha256(export_couplings(seeded_couplings(1, False), config=config)
                          .encode()).hexdigest() == (
        "132f20e5a4e04898062679f42d6b3f099332a18dedb1b8087f426b778e9dd8da")
    records = []
    for name in ("a", "b", "a"):
        path = tmp_path / name / "couplings.json"
        path.parent.mkdir(exist_ok=True)
        assert export_couplings(c, path, config=config) == text
        assert path.read_bytes() == text.encode()
        records.append((tmp_path / name / "couplings.json.npy").read_bytes())
    assert records[0] == records[1] == records[2]
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                  if p.is_file()) == ["a/couplings.json", "a/couplings.json.npy",
                                      "b/couplings.json", "b/couplings.json.npy"]


def _same_length_edit(old, new):
    def edit(text):
        assert len(old) == len(new) and text.count(old) == 1
        return text.replace(old, new)
    return edit


@pytest.mark.parametrize("edit", [
    _same_length_edit('"delta_angstrom": 0.01', '"delta_angstrom": 0.02'),
    _same_length_edit('"mixed_computed": true', '"mixed_computed": "no"'),
    _same_length_edit('"delta_angstrom": 0.01', '"delta_angstrom": -1.0'),
    _same_length_edit('"format": "spinlat-couplings/1"', '"format": "spinlat-couplings/2"'),
    _same_length_edit('"mixed_computed": true', '"mixed_computed": 1234'),
], ids=["value", "text-mixed", "negative-delta", "format", "number-mixed"])
@pytest.mark.parametrize("record", ["kept", "missing", "truncated", "garbage", "pickled",
                                    "another-file", "other-dtype", "scalar-fields",
                                    "directory", "crc-of-another-length"])
def test_a_stale_or_broken_record_gives_the_json_outcome(tmp_path, edit, record):
    # an edit of one value that keeps the file's length, or a record that is
    # absent, cut short, not a record or another file's: the load is the
    # JSON's, value or refusal, with the record or without it
    c = seeded_couplings(3, True)
    path = tmp_path / "couplings.json"
    export_couplings(c, path)
    beside = tmp_path / "couplings.json.npy"
    path.write_text(edit(path.read_text()))
    if record == "missing":
        beside.unlink()
    elif record == "truncated":
        beside.write_bytes(beside.read_bytes()[:-100])
    elif record == "garbage":
        beside.write_bytes(b"\x93NUMPY garbage" * 40)
    elif record == "pickled":
        with open(beside, "wb") as f:
            np.save(f, np.array([{"d1": 0}], dtype=object), allow_pickle=True)
    elif record == "another-file":
        export_couplings(c, tmp_path / "other.json")
        (tmp_path / "other.json.npy").replace(beside)
    elif record == "other-dtype":
        with open(beside, "wb") as f:
            np.save(f, np.zeros(10))
    elif record == "scalar-fields":
        with open(beside, "wb") as f:
            np.save(f, np.zeros((), [("frequencies", "<f8"), ("d1", "<f8")]))
    elif record == "directory":
        beside.unlink()
        beside.mkdir()
    elif record == "crc-of-another-length":
        fields = np.load(beside)
        fields["json_bytes"] += 1
        fields["json_crc32"] = zlib.crc32(path.read_bytes())
        with open(beside, "wb") as f:
            np.save(f, fields)

    def outcome():
        try:
            return bits(load_couplings(path))
        except ValueError as e:
            return str(e)

    with_record = outcome()
    if beside.is_dir():
        beside.rmdir()
    beside.unlink(missing_ok=True)
    assert with_record == outcome()
    assert with_record != bits(c)


def test_record_arrays_pass_the_records_checks(tmp_path):
    # a record is trusted only for its bytes: a fresh record holding an
    # asymmetric d2 is refused by CouplingTensors, naming the file
    c = seeded_couplings(3, True)
    path = tmp_path / "couplings.json"
    export_couplings(c, path)
    beside = tmp_path / "couplings.json.npy"
    record = np.load(beside)
    record["d2"][0, 0, 1] += 1.0
    with open(beside, "wb") as f:
        np.save(f, record)
    with pytest.raises(ValueError, match=f"^couplings file {path}: d2 not symmetric"):
        load_couplings(path)


@pytest.mark.parametrize("mixed", [1, 0, None, np.True_])
def test_mixed_computed_must_be_a_bool(mixed):
    # the file can hold only true or false, so the record holds nothing else
    c = seeded_couplings(2, True)
    with pytest.raises(ValueError, match="^mixed_computed must be True or False$"):
        CouplingTensors(d1=c.d1, d2=c.d2, delta_angstrom=0.01, frequencies=c.frequencies,
                        field_direction=c.field_direction, mixed_computed=mixed)


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something/9"}))
    with pytest.raises(ValueError, match="spinlat-couplings/1"):
        load_couplings(path)


def test_tensor_validation_rejects_asymmetric_d2(toy_modes):
    n = toy_modes.nmodes
    d2 = np.zeros((3, n, n))
    d2[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        CouplingTensors(
            d1=np.zeros((3, n)),
            d2=d2,
            delta_angstrom=0.01,
            frequencies=toy_modes.frequencies,
            field_direction=(0.0, 0.0, 1.0),
            mixed_computed=True,
        )


@pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0])
def test_tensor_validation_rejects_a_step_that_is_not_positive_and_finite(toy_modes,
                                                                         delta):
    # a NaN step would be exported as a NaN that load_couplings refuses
    n = toy_modes.nmodes
    with pytest.raises(ValueError, match="^delta_angstrom must be positive and finite$"):
        CouplingTensors(d1=np.zeros((3, n)), d2=np.zeros((3, n, n)), delta_angstrom=delta,
                        frequencies=toy_modes.frequencies,
                        field_direction=(0.0, 0.0, 1.0), mixed_computed=False)


@pytest.mark.parametrize("name, bad, message", [
    ("frequencies", [12.6, np.nan, 210.0], "contains non-finite entries"),
    ("frequencies", [12.6, 45.0, np.inf], "contains non-finite entries"),
    ("frequencies", [[12.6, 45.0, 210.0]], r"must be \(3,\), got \(1, 3\)"),
    ("field_direction", [np.nan, 0.0, 0.0], "contains non-finite entries"),
], ids=["nan-frequency", "inf-frequency", "2d-frequencies", "nan-direction"])
def test_tensor_validation_rejects_non_finite_frequencies_and_direction(toy_modes, name,
                                                                        bad, message):
    # a NaN fails both "<= 0" and "|norm - 1| > 1e-10", so only a finiteness
    # check refuses it; the frequencies are one value per mode
    n = toy_modes.nmodes
    given = {"frequencies": toy_modes.frequencies, "field_direction": (0.0, 0.0, 1.0),
             name: np.array(bad)}
    with pytest.raises(ValueError, match=f"^{name} {message}$"):
        CouplingTensors(d1=np.zeros((3, n)), d2=np.zeros((3, n, n)), delta_angstrom=0.01,
                        mixed_computed=True, **given)


def _zero_couplings(modes, **given):
    n = modes.nmodes
    fields = {"frequencies": modes.frequencies, "field_direction": (0.0, 0.0, 1.0), **given}
    return CouplingTensors(d1=np.zeros((3, n)), d2=np.zeros((3, n, n)), delta_angstrom=0.01,
                           mixed_computed=True, **fields)


def _flat_couplings_along(modes, direction):
    return build_couplings(sample_g_surface(modes, lambda pos: 2.0 * np.eye(3)), direction)


@pytest.mark.parametrize("build, message", [
    (lambda m: _zero_couplings(m, frequencies=[12.6, 0.0, 210.0]),
     "mode frequencies must be positive"),
    (lambda m: _zero_couplings(m, field_direction=(0.0, 0.0, 2.0)),
     "field_direction must be a unit 3-vector"),
    (lambda m: _flat_couplings_along(m, (0.0, 1.0)), "field direction must be a 3-vector"),
    (lambda m: _flat_couplings_along(m, (0.0, 0.0, 0.0)),
     "field direction must be finite and nonzero"),
    (lambda m: _flat_couplings_along(m, (0.0, np.inf, 1.0)),
     "field direction must be finite and nonzero"),
    (lambda m: _flat_couplings_along(m, (np.nan, 0.0, 1.0)),
     "field direction must be finite and nonzero"),
], ids=["zero-frequency", "non-unit-direction", "2-vector-field-dir", "zero-field-dir",
        "inf-field-dir", "nan-field-dir"])
def test_couplings_refuse_a_nonpositive_frequency_or_a_bad_direction(toy_modes, build,
                                                                     message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(toy_modes)


def test_same_direction_of_extreme_fields():
    # the raw vector's norm overflows above about 1.3e154 (and underflows
    # below 1e-154), so the direction must come from a scaled vector
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert same_direction([0.0, 0.0, 1e300], [0.0, 0.0, 1.0])
        assert same_direction([1e300, -2e300, -2e300], [1.0, -2.0, -2.0])
        assert same_direction([0.0, 0.0, -1e-300], [0.0, 0.0, -1.0])
        assert not same_direction([1e300, 0.0, 1e300], [0.0, 0.0, 1.0])


def test_unit_direction_keeps_its_bits():
    # the scaling is by a power of two, so an ordinary direction is made unit
    # with the bits of b / |b|, which every stored field_direction has
    rng = np.random.default_rng(3)
    for b in [(1.0, -2.0, -2.0), (0.3, 0.1, 2.7), *rng.normal(size=(200, 3)) * 1e3]:
        b = np.asarray(b)
        np.testing.assert_array_equal(_unit(b), b / np.linalg.norm(b))
