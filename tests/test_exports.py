"""Each library module's ``__all__`` names exactly its public definitions, the
model hub re-exports no family function but the traced VSASM count, the
brute-force oracle reads only the lattice off a model record, ``Model`` is the
only dataclass, no command loads the paper's test-only references, and the
package is laid out so that no one module's compile sets the memory peak."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import arctic
from arctic.models import ModelId

FAMILIES = ["aztec", "halfhex", "staircase", "vsasm"]
MODULES = ["combinat", "curves", "linalg", "models", "oracle", "paper", "tangent"] + [
    f"models.{family}" for family in FAMILIES
]
SRC = Path(arctic.__file__).resolve().parent


def _python(code: str, *args: str) -> str:
    """Standard output of ``code`` in a fresh interpreter importing this checkout's package."""
    code = "import sys; sys.path.insert(0, sys.argv.pop(1));" + code
    proc = subprocess.run([sys.executable, "-c", code, str(SRC.parent), *args],
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(f"arctic.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names"
    assert [n for n in exported if not hasattr(module, n)] == []
    tree = ast.parse(inspect.getsource(module))
    public = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert sorted(public - set(exported)) == []


def _top_level_names(module) -> set[str]:
    """Names a module's own top-level statements define, dunders aside."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if not n.startswith("__")}


def test_hub_reexports_only_the_records_and_the_traced_counts():
    """Each name has one import path: a family's functions are read from their
    own module.  The hub keeps the six records it lists in ``MODEL_OPS``, and
    ``n_vsasm``, which the VSASM profile calls through the hub so that a tracer
    can replace it there; of the log layer it binds only the ``_log_comb`` its
    own escape helper calls."""
    hub = importlib.import_module("arctic.models")
    assert hub.__all__ == ["ModelId", "Lattice", "Model", "MODEL_OPS", "EXACT_PROFILE_MAX",
                           "one_point_profile", "log_one_point_profile", "log_escape_profile"]
    readable = {
        name
        for family in FAMILIES
        for name in _top_level_names(importlib.import_module(f"arctic.models.{family}"))
        if hasattr(hub, name)
    }
    records = {"AZTEC", "DYCK_HALF_HEX", "RED_HALF_HEX", "STAIRCASE", "STAIRCASE_ALT", "VSASM"}
    assert readable == records | {"n_vsasm"}
    log_layer = _top_level_names(importlib.import_module("arctic.logspace"))
    assert {name for name in log_layer if hasattr(hub, name)} == {"_log_comb"}


def test_model_is_the_only_dataclass():
    """``Model`` stays a dataclass because the bench tracer rebuilds each
    ``MODEL_OPS`` entry with ``dataclasses.replace``.  Every other record is a
    NamedTuple or a slotted class: a dataclass generates and compiles its
    methods at every import, which every command would pay for."""
    names = [info.name for info in pkgutil.walk_packages(arctic.__path__, "arctic.")]
    assert {"arctic.cli", *(f"arctic.{name}" for name in MODULES)} <= set(names)
    found = {
        f"{module.__name__}.{name}"
        for module in map(importlib.import_module, names)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
    }
    assert found == {"arctic.models.Model"}


def test_commands_do_not_load_the_paper_references():
    assert _python("import arctic.cli; print('arctic.paper' in sys.modules)").split() == ["False"]


@pytest.mark.parametrize("table", ["ESCAPE", "ACTION", "TANGENCY"])
def test_each_paper_table_covers_every_model(table):
    assert list(getattr(importlib.import_module("arctic.paper"), table)) == list(ModelId)


@pytest.mark.parametrize("family", FAMILIES)
def test_family_module_imported_first_loads_the_whole_registry(family):
    out = _python(f"import arctic.models.{family}; from arctic.models import MODEL_OPS;"
                  "print(*(f'{m.value}={ops.model.value}' for m, ops in MODEL_OPS.items()))")
    assert out.split() == [f"{m.value}={m.value}" for m in ModelId]


_COMPILE_PEAK = (
    "status = lambda: open('/proc/self/status').read().split('VmHWM:')[1].split()[0];"
    "source = open(sys.argv[1]).read(); before = int(status());"
    "compile(source, sys.argv[1], 'exec'); print(int(status()) - before)"
)


def test_no_module_compile_lifts_the_peak_more_than_cli():
    """Without a bytecode cache each module compiles from source at import, and a
    compile that lifts the peak RSS more than ``cli.py``'s sets the program's peak.

    The peak is the process's own high-water mark, VmHWM: on Linux ``ru_maxrss``
    keeps the launching process's peak across exec, so under a test runner it
    would not move.
    """
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    lift = {path.relative_to(SRC).as_posix(): int(_python(_COMPILE_PEAK, str(path)))
            for path in sorted(SRC.rglob("*.py"))}
    assert {name: kb for name, kb in lift.items() if kb > lift["cli.py"]} == {}


def test_oracle_reads_only_the_lattice_of_a_record():
    """The oracle stays an independent check: no closed form reaches it."""
    tree = ast.parse(inspect.getsource(importlib.import_module("arctic.oracle")))
    uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "MODEL_OPS"]
    reads = [
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Subscript)
        and isinstance(n.value.value, ast.Name)
        and n.value.value.id == "MODEL_OPS"
    ]
    assert reads == ["lattice"] * len(uses) and uses
