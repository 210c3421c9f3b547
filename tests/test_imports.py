"""Import layering: every module imports on its own, `primes` is a leaf,
`density` loads no form-algebra module, and only the CLI sets a one-thread
BLAS."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import etaparity

SRC = str(Path(etaparity.__file__).resolve().parent.parent)
MODULES = sorted(m.name for m in pkgutil.iter_modules(etaparity.__path__))


def run_python(code: str, **env: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter.  OPENBLAS_NUM_THREADS is dropped from
    the inherited environment (importing the CLI in this process sets it)
    unless env gives it."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(child, PYTHONPATH=path, **env))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    done = run_python(f"import etaparity.{module}")
    assert done.returncode == 0, done.stderr


def test_primes_imports_no_package_module():
    # loaded from its file as a top-level module, primes has no parent
    # package, so any import of a sibling module would fail
    path = Path(SRC) / "etaparity" / "primes.py"
    done = run_python(
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('primes', {str(path)!r})\n"
        "mod = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(mod)\n"
        "assert mod.is_prime(97) and not mod.is_prime(91)\n"
        "assert not [m for m in sys.modules if m.startswith('etaparity')]\n")
    assert done.returncode == 0, done.stderr


def test_density_loads_no_form_algebra_module():
    done = run_python(
        "import sys\n"
        "import etaparity.density\n"
        "loaded = {'etaparity.level1', 'etaparity.hecke', 'etaparity.cheby'}\n"
        "assert not loaded & set(sys.modules), loaded & set(sys.modules)\n")
    assert done.returncode == 0, done.stderr


def test_walks_builds_its_lookup_tables_on_first_use():
    done = run_python(
        "import numpy as np\n"
        "from etaparity import walks\n"
        "assert walks._lane_tables.cache_info().currsize == 0\n"
        "assert walks._spread_table.cache_info().currsize == 0\n"
        "one = np.ones(1, dtype=np.int64)\n"
        "assert walks._row_bytes(1, one, one) == b'1,1,1,1.000,2.000\\n'\n"
        "assert walks._lane_tables.cache_info().currsize == 1\n"
        "assert walks.partition_parity(3).bits().tolist() == [1, 1, 0]\n"
        "assert walks._spread_table.cache_info().currsize == 1\n")
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or os.cpu_count() == 1,
                    reason="needs /proc/self/task and more than one CPU")
def test_cli_import_starts_no_blas_thread():
    done = run_python(
        "import os\n"
        "import etaparity.cli\n"
        "tasks = os.listdir('/proc/self/task')\n"
        "assert len(tasks) == 1, tasks\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n")
    assert done.returncode == 0, done.stderr


def test_cli_import_keeps_a_user_blas_thread_count():
    done = run_python(
        "import os\n"
        "import etaparity.cli\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '2'\n",
        OPENBLAS_NUM_THREADS="2")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", ["density", "walks"])
def test_library_import_leaves_blas_threads_unset(module):
    done = run_python(
        "import os\n"
        f"import etaparity.{module}\n"
        "assert 'OPENBLAS_NUM_THREADS' not in os.environ\n")
    assert done.returncode == 0, done.stderr
