"""The package's public names: each is its defining module's object, and a star import binds them all.

`import fragsurv` imports no submodule: each name loads its module on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fragsurv

_PUBLIC_NAMES = """
import fragsurv
names = {}
exec("from fragsurv import *", names)
missing = [name for name in fragsurv.__all__ if name not in names]
assert missing == [], missing
for name in fragsurv.__all__:
    if name != "__version__":
        module = sys.modules[names[name].__module__]
        assert module.__name__.startswith("fragsurv."), (name, module)
        assert getattr(module, name) is names[name] is getattr(fragsurv, name), name
assert names["__version__"] == fragsurv.__version__
print(len(fragsurv.__all__))
"""


def test_every_public_name_resolves_in_a_fresh_interpreter():
    done = subprocess.run([sys.executable, "-c", "import sys\n" + _PUBLIC_NAMES], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{len(fragsurv.__all__)}\n"


def test_every_public_name_is_its_defining_modules_object():
    for name in fragsurv.__all__:
        value = getattr(fragsurv, name)
        if name != "__version__":
            module = sys.modules[value.__module__]
            assert module.__name__.startswith("fragsurv.") and getattr(module, name) is value, name
    assert sorted(set(fragsurv.__all__)) == sorted(fragsurv.__all__)


def test_every_export_is_public_in_its_defining_module():
    from importlib import import_module

    for name, module in fragsurv._EXPORTS.items():
        assert name in import_module(f"fragsurv.{module}").__all__, (name, module)
    assert fragsurv.__all__ == ["__version__", *sorted(fragsurv._EXPORTS)]


def test_importing_the_package_loads_no_submodule():
    script = "import sys\nimport fragsurv\nprint(sorted(m for m in sys.modules if m.startswith('fragsurv')))\n"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['fragsurv']\n"


def test_importing_the_cli_loads_neither_openssl_nor_fractions():
    # the import the benchmark times before any command runs; python -S, so no site hook imports them first
    script = "import sys\nimport fragsurv.cli\nprint(sorted(m for m in sys.modules if m in sys.argv[1:]))\n"
    src = str(Path(fragsurv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-S", "-c", script, "_hashlib", "hashlib", "fractions", "fragsurv.fragility"],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_not_applicable_is_one_class_wherever_it_is_imported():
    from fragsurv import fragility, survival

    assert fragsurv.NotFragileApplicableError is fragility.NotFragileApplicableError
    assert fragility.NotFragileApplicableError is survival.NotFragileApplicableError


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'fragsurv' has no attribute 'no_such_name'"):
        fragsurv.no_such_name
    assert set(fragsurv.__all__) <= set(dir(fragsurv))
