"""Process start-up: which modules each entry path imports.

``--help``, ``spectrum`` and a bare ``import dunkl_oscillator`` must not
import numpy, whose import is most of a small command's wall time.  Each
check runs in a fresh interpreter, because this test process has long since
imported numpy and every layer.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dunkl_oscillator as pkg
from dunkl_oscillator import cli, entry

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
BENCH = str(ROOT / "bench")

# Runs ``python -m dunkl_oscillator <argv>`` and then reports, as the last line
# of standard error, its exit code and whether numpy was ever imported.
_RUN_MODULE = """
import json, runpy, sys
sys.argv = ["dunkl-osc", *sys.argv[1:]]
try:
    runpy.run_module("dunkl_oscillator", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
sys.stderr.write(json.dumps({"code": code, "numpy": "numpy" in sys.modules}) + "\\n")
"""


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120, env=env, cwd=ROOT
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["spectrum", "--emax", "6"], 0),
        (["spectrum", "--emax", "6", "--format", "json"], 0),
        (["spectrum", "--emax", "nan"], 2),
    ],
    ids=["help", "spectrum-csv", "spectrum-json", "spectrum-refused"],
)
def test_help_and_spectrum_start_without_numpy(argv, code):
    proc = _python(_RUN_MODULE, *argv)
    *err, report = proc.stderr.splitlines()
    assert json.loads(report) == {"code": code, "numpy": False}, proc.stderr
    if code == 0:
        assert proc.stdout and err == []
    else:
        assert proc.stdout == "" and err == ["error: emax must be finite, got nan"]


def test_bare_package_import_loads_no_layer():
    proc = _python("import sys, dunkl_oscillator; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'dunkl'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['dunkl_oscillator']\n"


def test_names_of_numpy_free_layers_resolve_without_numpy():
    # The namespace searches errors and basis before any layer that imports numpy.
    proc = _python(
        "import sys, dunkl_oscillator as pkg; "
        "names = [pkg.AngularQuantum, pkg.energy, pkg.enumerate_states, pkg.DeformationParams, pkg.log_gamma]; "
        "assert pkg.SUITES is sys.modules['dunkl_oscillator.basis'].SUITES; "
        "assert len(pkg.enumerate_states(6, pkg.DeformationParams(0.5, 0.5))) == 15; "
        "print(*[n.__module__ for n in names], pkg.DomainError.__module__, 'numpy' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [*["dunkl_oscillator.basis"] * 5, "dunkl_oscillator.errors", "False"]


def _package_imports(path: Path) -> set[str]:
    """The package modules a source file imports anywhere: at module level, in a function or under a guard."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dunkl_oscillator"):
            names |= {node.module.partition(".")[2] or "dunkl_oscillator"}
        elif isinstance(node, ast.Import):
            names |= {a.name.partition(".")[2] or a.name for a in node.names if a.name.startswith("dunkl_oscillator")}
    return names


def test_basis_imports_no_package_module_but_errors():
    # The numpy boundary is the module boundary: no lazy or type-checking path from basis into profiles.
    assert _package_imports(ROOT / "src" / "dunkl_oscillator" / "basis.py") == {"errors"}


def test_a_numpy_command_imports_cli_when_it_runs():
    proc = _python(_RUN_MODULE, "wavefunction", "--state=+1,+1,0,2", "--grid", "0.1:1:3")
    assert json.loads(proc.stderr.splitlines()[-1]) == {"code": 0, "numpy": True}


def test_importing_cli_loads_every_layer_the_bench_tracer_reads():
    # bench/spans.Tracer.install reads sys.modules["dunkl_oscillator.<layer>"]
    # for each of its LAYERS after `import dunkl_oscillator.cli`.
    proc = _python(
        f"import sys; sys.path.insert(0, {BENCH!r}); import dunkl_oscillator.cli; from spans import LAYERS; "
        "print([layer for layer in LAYERS if 'dunkl_oscillator.' + layer not in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_numpy_polynomial_loads_with_the_first_radial_rule():
    # The Legendre panel rule is built on first use, not at import: wavefunction and coherent build none.
    proc = _python(
        "import sys, dunkl_oscillator.cli, dunkl_oscillator.specfun as specfun; "
        "print('numpy.polynomial' in sys.modules); "
        "specfun.radial_inner_product(lambda r: 1.0, lambda r: 1.0, (0.5, 0.5)); "
        "print('numpy.polynomial' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nTrue\n"


def test_tracer_leaves_no_wrapper_in_the_package_namespace(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from spans import Tracer

    original = pkg.specfun.laguerre
    tracer = Tracer()
    tracer.install(pkg)
    try:
        assert pkg.laguerre is pkg.specfun.laguerre is not original
    finally:
        tracer.uninstall()
    assert pkg.laguerre is pkg.specfun.laguerre is original
    assert "laguerre" not in vars(pkg)


def test_every_entry_runs_the_one_main():
    assert cli.main is entry.main
    assert cli._fmt is entry._fmt and not hasattr(cli, "_build_parser")
    script = re.search(r'^dunkl-osc = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert script is not None and script.groups() == ("dunkl_oscillator.entry", "main")


def test_namespace_resolves_names_and_submodules_on_access():
    assert pkg.radial_sturmian is pkg.profiles.radial_sturmian
    assert pkg.DeformationParams is pkg.basis.DeformationParams is pkg.specfun.DeformationParams
    assert pkg.SUITES is pkg.basis.SUITES is pkg.verify.SUITES
    assert set(pkg.__all__) | {"basis", "cli", "entry"} <= set(dir(pkg))
    with pytest.raises(AttributeError, match="no attribute 'domain'"):
        pkg.domain
    with pytest.raises(AttributeError, match="no attribute 'np'"):
        pkg.np
