"""The package namespace: numpy-free `import fiberqed`, and lazy names that track their modules.

Every test runs in a fresh interpreter, so what it sees imported is what the code under
test imported, not what earlier tests left in sys.modules.
"""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fiberqed
import fiberqed.params

SRC = os.path.dirname(os.path.dirname(fiberqed.params.__file__))

#: the public names of the package, by the module that defines them
OLD_NAMESPACE = {
    "params": ("PhysicalConfig", "DerivedRates", "derive_rates", "mhz", "to_mhz"),
    "linear_response": ("ProbeSettings", "SpectrumResult", "SteadyStateAmplitudes",
                        "steady_state", "transmission_spectrum"),
    "normal_modes": ("NormalModeSummary", "decompose", "reduced_spectrum", "peak_find"),
    "fiber_mode": ("ModeFunctionParams", "make_mode_params", "bessel_k", "g_squared_exact",
                   "g_squared_simplified", "fit_simplified"),
    "saturation": ("SaturationConfig", "SaturationCurve", "saturation_photon_number",
                   "quadrature_saturation_term", "solve_saturation"),
}


def _fresh(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)


def test_runtime_imports_only_the_standard_library_and_numpy():
    # every absolute import, function-local ones included, in every module of the package
    imported = set()
    for path in Path(SRC, "fiberqed").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    foreign = {(name, module) for name, module in imported
               if module.split(".")[0] not in sys.stdlib_module_names | {"numpy"}}
    assert not foreign
    # and validate runs with mpmath and scipy unimportable
    code = ("import sys; sys.modules['mpmath'] = sys.modules['scipy'] = None; "
            "from fiberqed.cli import main; sys.exit(main(['validate']))")
    lines = _fresh("-c", code).stdout.splitlines()
    assert len(lines) == 4 and all(line.startswith("PASS") for line in lines)


def test_params_command_loads_no_numpy():
    proc = _fresh("-X", "importtime", "-m", "fiberqed.cli", "params")
    assert proc.stdout.startswith("parameter")
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()]
    assert "fiberqed.params" in imported
    assert not [m for m in imported if m.split(".")[0] == "numpy"]


def test_bare_import_loads_only_params():
    code = ("import sys, fiberqed; "
            "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'fiberqed.'))))")
    assert _fresh("-c", code).stdout.strip() == "['fiberqed.params']"


def test_old_namespace_resolves_to_the_module_attributes():
    code = (
        "import importlib, fiberqed\n"
        f"for module, names in {OLD_NAMESPACE!r}.items():\n"
        "    mod = importlib.import_module('fiberqed.' + module)\n"
        "    assert getattr(fiberqed, module) is mod, module\n"
        "    for name in names:\n"
        "        assert getattr(fiberqed, name) is getattr(mod, name), name\n"
        "        assert name in fiberqed.__all__, name\n"
        "print(fiberqed.__version__)"
    )
    assert _fresh("-c", code).stdout.strip() == "0.1.0"


def test_a_name_rebound_in_its_module_is_seen_through_the_package():
    code = (
        "import fiberqed, fiberqed.fiber_mode as fm\n"
        "original = fiberqed.fit_simplified\n"
        "fm.fit_simplified = wrapped = lambda p: original(p)\n"
        "assert fiberqed.fit_simplified is wrapped\n"
        "fm.fit_simplified = original\n"
        "print(fiberqed.fit_simplified is original)"
    )
    assert _fresh("-c", code).stdout.strip() == "True"


def test_unknown_name_raises_attribute_error():
    code = (
        "import fiberqed\n"
        "for name in ('no_such_name', 'oracle_', '_HOMES_'):\n"
        "    try:\n"
        "        getattr(fiberqed, name)\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
    )
    out = _fresh("-c", code).stdout.splitlines()
    assert out == [f"module 'fiberqed' has no attribute {n!r}"
                   for n in ("no_such_name", "oracle_", "_HOMES_")]


def test_retired_second_names_are_gone():
    # the sigma = 0 atom sum is quadrature_saturation_term(..., 0.0, ...), the dense system a
    # (matrix, rhs) pair, and the simplified profile's cosine weight 1 - A_mf
    import fiberqed.oracle
    for owner, name in ((fiberqed, "collective_saturation_term"),
                        (fiberqed.saturation, "collective_saturation_term"),
                        (fiberqed.oracle, "LinearSystem"), (fiberqed.fiber_mode.SimplifiedFit, "B_mf")):
        with pytest.raises(AttributeError):
            getattr(owner, name)
    assert "collective_saturation_term" not in fiberqed.__all__


def test_version_is_defined_once_in_the_package():
    # pyproject.toml reads the version from fiberqed.__version__ instead of repeating it
    tomllib = pytest.importorskip("tomllib")        # Python 3.11+
    pyproject = Path(SRC).parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    assert "version" not in config["project"] and config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "fiberqed.__version__"}
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # setuptools calls its [tool.setuptools] support beta
        resolved = pyprojecttoml.read_configuration(pyproject)["project"]["version"]
    assert resolved == fiberqed.__version__ == "0.1.0"
