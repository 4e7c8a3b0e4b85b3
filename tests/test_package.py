"""The package's exports, each imported from its module on first use."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spinlat

README = Path(__file__).parents[1] / "README.md"


def test_every_export_is_the_object_its_module_defines():
    for name in spinlat.__all__:
        obj = getattr(spinlat, name)
        assert obj.__name__ == name and obj.__module__.startswith("spinlat."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_lists_every_export():
    assert set(spinlat.__all__) <= set(dir(spinlat))


def test_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="no_such_name"):
        spinlat.no_such_name
    with pytest.raises(ImportError):
        from spinlat import no_such_name  # noqa: F401


def test_import_loads_no_submodule():
    src = str(Path(spinlat.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, spinlat; "
             "print(spinlat.__version__, [m for m in sys.modules if m.startswith('spinlat.')])")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == [spinlat.__version__, "[]"]


def test_readme_library_example_imports():
    example = README.read_text().split("## Library example", 1)[1]
    statement = re.search(r"^from spinlat import \(.*?\)$", example, re.M | re.S).group(0)
    namespace = {}
    exec(statement, namespace)
    assert "parse_modes" in namespace and "relaxation_times" in namespace
