"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench_trace  # noqa: E402
import run  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    return WORKLOADS[request.param](root / "data", 5, TINY), root


def test_tiny_pass_is_correct_and_repeatable(workload):
    wl, root = workload
    tally = run.Tally()
    env = run.child_env()
    for k in range(2):
        pass_s, samples = run.subprocess_pass(wl, root / f"pass{k}", env, tally)
        assert pass_s > 0.0
        assert all(s.import_s and s.main_s and s.rss_mb for s in samples)
    assert tally.failures == []
    assert tally.attempted == 2 * len(wl.commands)


def test_traced_and_untraced_replays_write_identical_artifacts(workload):
    wl, root = workload
    tally = run.Tally()
    plain = run.replay(wl, root / "plain", tally)
    tracer = bench_trace.Tracer()
    traced = run.replay(wl, root / "traced", tally, tracer)
    # Tally.verify compares every command's digest with the first replay's
    assert tally.failures == []
    assert set(plain) == set(traced) == {c.name for c in wl.commands}
    assert tracer.spans and not tracer.missing
    layers = bench_trace.layer_metrics(tracer, [c.name for c in wl.commands])
    assert all(layers[f"cli.{c.name}.self_s"] > 0.0 for c in wl.commands)


def _replayed(name, tmp_path):
    """A tiny workload replayed once in process, and its pass directory."""
    wl = WORKLOADS[name](tmp_path / "data", 5, TINY)
    tally = run.Tally()
    run.replay(wl, tmp_path / "pass", tally)
    assert tally.failures == []
    return wl, tmp_path / "pass"


def _edit_fails(wl, pass_dir, name, edit) -> run.Tally:
    """Verify a command's artifacts, edit one, verify again."""
    cmd = next(c for c in wl.commands if c.name == name)
    tally = run.Tally()
    assert tally.verify(cmd, pass_dir, 0, "", "intact")
    edit(pass_dir / name)
    assert not tally.verify(cmd, pass_dir, 0, "", "edited")
    assert len(tally.failures) == 1 and tally.attempted == 2
    return tally


def test_flipped_coupling_counts_as_failed(tmp_path):
    def flip(out):
        path = out / "couplings.json"
        doc = json.loads(path.read_text())
        doc["d1"][0][0] = -doc["d1"][0][0]
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    tally = _edit_fails(*_replayed("ingest-allpairs", tmp_path), "couplings", flip)
    assert "couplings.json d1" in tally.failures[0]


def test_edited_sweep_cell_counts_as_failed(tmp_path):
    def edit(out):
        path = out / "sweep.csv"
        lines = path.read_text().split("\n")
        cells = lines[2].split(",")
        cells[5] = repr(float(cells[5]) * 1.001)       # l1_xx of the first row
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines))

    tally = _edit_fails(*_replayed("sweep-grid", tmp_path), "sweep", edit)
    assert "sweep row 0 l1" in tally.failures[0]


def test_changed_bytes_count_as_failed(tmp_path):
    def append(out):
        path = out / "tensor.json"
        path.write_text(path.read_text() + " ")

    tally = _edit_fails(*_replayed("sweep-grid", tmp_path), "tensor", append)
    assert "differ from the first pass" in tally.failures[0]


def test_missing_wrapper_target_marks_metrics_missing(monkeypatch):
    monkeypatch.setattr(bench_trace, "WRAPPERS", bench_trace.WRAPPERS + (
        ("spinlat.cli", "no_such_function", "ingest.nothing", None, ("ingest.nothing_s",)),
    ))
    tracer = bench_trace.Tracer()
    restore = bench_trace.install(tracer)
    restore()
    assert tracer.missing == {"ingest.nothing_s"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
