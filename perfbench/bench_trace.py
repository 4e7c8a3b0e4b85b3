"""Spans and counts around the calls into each spinlat layer.

The wrappers replace module attributes, at the name through which one
spinlat module calls another (for example `spinlat.cli.load_run_set`),
only while a traced replay runs.  Spans are (command, name, start, end,
parent) tuples held in memory; counts are gathered at the same
boundaries.  A wrapper whose target is missing, or whose counter no
longer fits the call, marks the metrics it feeds as missing instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("core", "ingest", "couplings", "relaxation", "dynamics", "cli")


class Tracer:
    """In-memory span and counter store for one replayed pass."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self.manifests: list[Path] = []
        self.written: list[Path] = []
        self.temperatures: set[tuple[int, float]] = set()
        self.command = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self.command, name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        cmd, name, start, _, parent = self.spans[index]
        self.spans[index] = (cmd, name, start, time.perf_counter(), parent)
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def to_json(self, path: Path) -> None:
        path.write_text(json.dumps([
            {"command": c, "name": n, "start": s, "end": e, "parent": p}
            for c, n, s, e, p in self.spans
        ]) + "\n")


# ------------------------------------------------------------- counters


def _count_written(tr, args, kwargs, result):
    plan = args[0]
    tr.counts["ingest.files_written"] += len(plan) + 1
    tr.written.append(Path(result).absolute().parent)


def _count_read(tr, args, kwargs, result):
    tr.counts["ingest.files_read"] += 1 + len(result.singles) + len(result.pairs)
    tr.manifests.append(Path(args[0]).absolute())


def _count_pairs(tr, args, kwargs, result):
    tr.counts["couplings.pairs"] += len(args[0].pairs) // 4


def _count_json(tr, args, kwargs, result):
    tr.counts["couplings.json_bytes"] += len(result.encode())


def _count_tensor(tr, args, kwargs, result):
    c, bath = args[0], args[1]
    tr.counts["relaxation.build_tensor.calls"] += 1
    if bath.raman_pairing == "all_pairs":
        tr.counts["relaxation.pair_elements"] += c.nmodes ** 2


def _count_points(tr, args, kwargs, result):
    tr.counts["relaxation.sweep.points"] += len(result)


def _count_bose(tr, args, kwargs, result):
    tr.counts["core.bose_occupation.calls"] += 1
    tr.temperatures.add((tr.command, float(args[1])))


def _count_samples(tr, args, kwargs, result):
    tr.counts["dynamics.samples"] += result.times_us.size


# (module, attribute, span name, counter, metrics the wrapper feeds)
WRAPPERS = (
    ("spinlat.cli", "parse_modes", "ingest.parse_modes", None,
     ("ingest.parse_modes_s",)),
    ("spinlat.cli", "plan_displacements", "ingest.plan_displacements", None,
     ("ingest.plan_displacements_s",)),
    ("spinlat.cli", "write_displacement_set", "ingest.write_displacement_set",
     _count_written,
     ("ingest.write_displacement_set_s", "ingest.files_written", "ingest.bytes_written")),
    ("spinlat.cli", "load_run_set", "ingest.load_run_set", _count_read,
     ("ingest.load_run_set_s", "ingest.files_read", "ingest.bytes_read",
      "ingest.files_per_s")),
    ("spinlat.cli", "build_couplings", "couplings.build_couplings", _count_pairs,
     ("couplings.build_couplings_s", "couplings.pairs")),
    ("spinlat.cli", "export_couplings", "couplings.export_couplings", _count_json,
     ("couplings.export_couplings_s", "couplings.json_bytes")),
    ("spinlat.cli", "load_couplings", "couplings.load_couplings", None,
     ("couplings.load_couplings_s",)),
    ("spinlat.cli", "build_tensor", "relaxation.build_tensor", _count_tensor,
     ("relaxation.build_tensor_s", "relaxation.build_tensor.calls",
      "relaxation.pair_elements")),
    ("spinlat.relaxation", "build_tensor", "relaxation.build_tensor", _count_tensor,
     ("relaxation.build_tensor_s", "relaxation.build_tensor.calls",
      "relaxation.pair_elements")),
    ("spinlat.cli", "relaxation_times", "relaxation.relaxation_times", None, ()),
    ("spinlat.cli", "tensor_report", "relaxation.tensor_report", None,
     ("relaxation.tensor_report_s",)),
    ("spinlat.cli", "mode_attribution", "relaxation.mode_attribution", None,
     ("relaxation.mode_attribution_s",)),
    ("spinlat.cli", "sweep", "relaxation.sweep", _count_points,
     ("relaxation.sweep_s", "relaxation.sweep.points", "relaxation.sweep.s_per_point")),
    ("spinlat.cli", "sweep_csv", "relaxation.sweep_csv", None,
     ("relaxation.sweep_csv_s",)),
    ("spinlat.relaxation", "bose_occupation", "core.bose_occupation", _count_bose,
     ("core.bose_occupation.calls", "core.bose_occupation.useful_ratio")),
    ("spinlat.dynamics", "bose_occupation", "core.bose_occupation", _count_bose,
     ("core.bose_occupation.calls", "core.bose_occupation.useful_ratio")),
    ("spinlat.cli", "lindblad_evolve", "dynamics.lindblad_evolve", _count_samples,
     ("dynamics.lindblad_evolve_s", "dynamics.samples")),
    ("spinlat.cli", "redfield_evolve", "dynamics.redfield_evolve", _count_samples,
     ("dynamics.redfield_evolve_s", "dynamics.samples")),
    ("spinlat.cli", "fit_decay_rate", "dynamics.fit_decay_rate", None,
     ("dynamics.fit_decay_rate_s",)),
)


def _wrap(tracer: Tracer, fn, span: str, counter, feeds):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            try:
                counter(tracer, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                tracer.missing.update(feeds)
        return result
    return wrapper


def install(tracer: Tracer):
    """Wrap every target that exists; returns a callable that undoes it."""
    undo = []
    for module_name, attr, span, counter, feeds in WRAPPERS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            tracer.missing.update(feeds)
            continue
        setattr(module, attr, _wrap(tracer, original, span, counter, feeds))
        undo.append((module, attr, original))

    def restore():
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
    return restore


def bytes_read(manifests: list[Path]) -> int:
    """Sizes of the g files a manifest lists, measured after the fact."""
    total = 0
    for path in manifests:
        doc = json.loads(path.read_text())
        names = [doc["baseline"]] + [r["path"] for r in doc["runs"] + doc["pairs"]]
        total += path.stat().st_size + sum((path.parent / n).stat().st_size
                                           for n in names)
    return total


def bytes_written(dirs: list[Path]) -> int:
    """Sizes of the geometry files and manifest a displacement set wrote."""
    return sum(p.stat().st_size for d in dirs for p in d.iterdir()
               if p.suffix == ".xyz" or p.name == "manifest.json")


def layer_metrics(tracer: Tracer, commands: list[str]) -> dict[str, float]:
    """Self time per layer and per command, inclusive time per span name."""
    out: dict[str, float] = {f"layer.{layer}.self_s": 0.0 for layer in LAYERS}
    selfs = tracer.self_times()
    for (cmd, name, start, end, parent), own in zip(tracer.spans, selfs):
        layer = name.split(".", 1)[0]
        out[f"layer.{layer}.self_s"] = out.get(f"layer.{layer}.self_s", 0.0) + own
        if parent is None:
            out[f"cli.{commands[cmd]}.self_s"] = own
        else:
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + end - start
    return out


# --------------------------------------------------------------- import

_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")
IMPORT_MODULES = {
    "spinlat": "import.package_s",
    "spinlat.core": "import.core_s",
    "spinlat.ingest": "import.ingest_s",
    "spinlat.couplings": "import.couplings_s",
    "spinlat.relaxation": "import.relaxation_s",
    "spinlat.dynamics": "import.dynamics_s",
    "spinlat.cli": "import.cli_s",
}


def import_times(env: dict, cwd: Path) -> dict[str, float]:
    """Cumulative import time of each spinlat module in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import spinlat.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
    )
    out = {}
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(2) in IMPORT_MODULES:
            out[IMPORT_MODULES[m.group(2)]] = int(m.group(1)) * 1e-6
    return out
