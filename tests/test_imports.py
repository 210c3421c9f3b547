"""Import layering: every module imports on its own, `primes` is a leaf,
only `f2series` knows the packed word layout, every public name has a
caller in the package, `density` loads no form-algebra module, only the
CLI sets a one-thread BLAS, and a CLI command loads only the modules it
runs."""

import ast
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


def _word_layout_reads(tree: ast.Module) -> list[str]:
    """What a module's AST knows of f2series internals: underscore names
    imported from it or read off it, the packed words of any object, and
    an F2Series built straight from words."""
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_f2 = node.module in ("f2series", "etaparity.f2series")
            for alias in node.names:
                if from_f2 and alias.name.startswith("_"):
                    found.append(f"imports {alias.name}")
                if node.module in (None, "etaparity") and alias.name == "f2series":
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names
                           if alias.name == "etaparity.f2series" and alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "F2Series":
            found.append(f"builds F2Series from words at line {node.lineno}")
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in ("words", "_words"):
            found.append(f"reads .{node.attr} at line {node.lineno}")
        elif (node.attr.startswith("_") and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            found.append(f"reads {node.value.id}.{node.attr} at line {node.lineno}")
    return found


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"f2series"}))
def test_only_f2series_knows_the_word_layout(module):
    path = Path(SRC) / "etaparity" / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _word_layout_reads(tree) == []


def _public_definitions(tree: ast.Module):
    """(name, node, is_method) for each public module-level function, class
    and constant of a module, and each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node, False
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for sub in methods:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node, False


def _references(node: ast.AST, name: str, is_method: bool) -> bool:
    """Whether node refers to name: as an attribute (obj.name or
    module.name), and for a module-level name also as a bare name or an
    imported alias."""
    if isinstance(node, ast.Attribute):
        return node.attr == name
    if is_method:
        return False
    if isinstance(node, ast.Name):
        return node.id == name and not isinstance(node.ctx, ast.Store)
    return isinstance(node, ast.alias) and node.name == name


def test_every_public_name_has_a_caller_in_the_package():
    # a name that only the tests call belongs in tests/oracles.py, or nowhere
    trees = {module: ast.parse((Path(SRC) / "etaparity" / f"{module}.py").read_text())
             for module in MODULES}
    unused = []
    for module, tree in trees.items():
        for qualname, definition, is_method in _public_definitions(tree):
            name = qualname.rpartition(".")[2]
            inside = {id(node) for node in ast.walk(definition)}
            if not any(_references(node, name, is_method)
                       for other in trees.values() for node in ast.walk(other)
                       if id(node) not in inside):
                unused.append(f"{module}.{qualname}")
    assert unused == []


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
        "one = np.ones(1, dtype=np.int64)\n"
        "assert walks._row_bytes(1, one, one, bytearray()) == b'1,1,1,1.000,2.000\\n'\n"
        "assert walks._lane_tables.cache_info().currsize == 1\n")
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or os.cpu_count() == 1,
                    reason="needs /proc/self/task and more than one CPU")
def test_cli_import_starts_no_blas_thread():
    done = run_python(
        "import contextlib, io, os\n"
        "from etaparity.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['density', '--r', '1', '--prime-bound', '10000']) == 0\n"
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


# what `python -c CODE` prints: the etaparity modules loaded besides the
# package and the CLI, and whether numpy is loaded
_LOADED = ("print(sorted(m[10:] for m in sys.modules if m.startswith('etaparity.')"
           " and m != 'etaparity.cli'), 'numpy' in sys.modules)\n")

# the CLI imports walks at its top, and with it numpy and these leaves
WALK_MODULES = ["f2series", "genforms", "primes", "walks"]


def test_cli_import_loads_only_the_walk_modules():
    done = run_python("import sys\nimport etaparity.cli\n" + _LOADED)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == f"{WALK_MODULES} True"


@pytest.mark.parametrize("argv, modules", [
    (["density", "--r", "1", "--prime-bound", "1000"],
     sorted(WALK_MODULES + ["density"])),
    (["density", "--r", "1", "--prime-bound", "1000", "--format", "csv"],
     sorted(WALK_MODULES + ["density"])),
    (["walk", "--n", "10", "--out", "{tmp}/walk.csv"], WALK_MODULES),
    (["verify", "--suite", "combinatorial"],
     sorted(WALK_MODULES + ["cheby", "suites"])),
    (["expand", "delta"], WALK_MODULES),
    (["expand", "alpha:17"],
     sorted(WALK_MODULES + ["cheby", "hecke", "level1", "level9"])),
    (["verify", "--suite", "bounds", "--prime-bound", "10000"],
     sorted(WALK_MODULES + ["density", "suites"])),
    (["verify", "--suite", "thmD", "--prime-bound", "10000"],
     sorted(WALK_MODULES + ["cheby", "density", "level1", "suites"])),
    # the codes come from level1's rows: no Hecke operator on series
    (["verify", "--suite", "dihedral-code", "--prime-bound", "10000"],
     sorted(WALK_MODULES + ["cheby", "density", "level1", "suites"])),
])
def test_each_command_loads_only_its_modules(argv, modules, tmp_path):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    done = run_python(
        "import contextlib, io, sys\n"
        "from etaparity.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n" + _LOADED)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == f"{modules} True"


def test_usage_error_loads_no_command_module():
    done = run_python(
        "import sys\n"
        "from etaparity.cli import main\n"
        "try:\n"
        "    main(['density'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 2, exc.code\n"
        "else:\n"
        "    raise AssertionError('no usage error')\n" + _LOADED)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == f"{WALK_MODULES} True"
    assert "the following arguments are required: --r" in done.stderr
