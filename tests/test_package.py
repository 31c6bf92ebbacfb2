"""Package structure: deferred imports, the one beta comparison, the
one channel switch, the one array conversion, the CLI's one pipeline
and the version literal."""

import ast

import pytest

import resodec

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "resodec"


def _package_imports(tree):
    """(node, module) of each import of a resodec module under ``tree``,
    the module named relative to the package ("" for the package)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "resodec":
                continue
            module = module.partition(".")[2]
        yield node, module


def test_package_modules_import_each_other_at_module_level():
    # a function-local import hides a cycle in the import graph.  Only
    # two modules are deferred, so that the commands which do not need
    # them start without scipy (the oracle: only verify loads it) or
    # numpy.random (the register layer: only rates and scaling load it)
    allowed = {"oracle", "register"}
    deferred, graph = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        local = set()
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node, module in _package_imports(func):
                    local.add(node)
                    if module not in allowed:
                        deferred.add(f"{path.name}:{node.lineno} {module}")
        graph[path.stem] = {module for node, module in _package_imports(tree)
                            if node not in local}
    assert sorted(deferred) == []
    # a deferral must not hide a cycle either: no deferred module
    # reaches a module that defers it through module-level imports
    reached, todo = set(), list(allowed)
    while todo:
        for module in graph.get(todo.pop(), set()) - reached:
            reached.add(module)
            todo.append(module)
    assert reached & {"cli", "config"} == set()


def test_beta_is_compared_only_in_its_checked_conversion():
    # model._beta decides every inverse temperature; a comparison that
    # names beta anywhere else is a second policy beside it
    def names_beta(node):
        return isinstance(node, ast.Name) and node.id == "beta" \
            or isinstance(node, ast.Attribute) and node.attr == "beta"

    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) \
                    and any(map(names_beta, [node.left, *node.comparators])):
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


def test_a_channel_is_switched_off_only_by_its_strength():
    # a coupling strength of 0 is the one switch of a channel, and a
    # zero form-factor scale is refused; a branch on FormFactor.is_zero
    # (always False) is a second switch beside it.  The property's own
    # definition is no read
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "is_zero":
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


def test_array_inputs_pass_the_one_array_conversion():
    # model._reals decides every array a value type or an evolution
    # reads; a conversion or finiteness test of its own beside it is a
    # second policy that may coerce a string, boolean or None
    checked = ("__post_init__", "_time_grid", "_as_state_array")
    own = ("asarray", "array", "isfinite")
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef) \
                    or func.name not in checked:
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id == "np" \
                        and node.func.attr in own:
                    sites.append(f"{path.name}:{node.lineno} "
                                 f"{func.name} np.{node.func.attr}")
    assert sites == []


def test_module_level_imports_are_used():
    # a name imported but never read is a dependency that nothing needs;
    # a module's __all__ counts as a use (a re-export)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used.update(ast.literal_eval(node.value))
        imports = [node for node in tree.body
                   if isinstance(node, ast.Import)
                   or isinstance(node, ast.ImportFrom)
                   and node.module != "__future__"]
        for node in imports:
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_cli_handlers_only_compute():
    # resodec.cli.run loads the configuration and writes the one CSV; a
    # handler that reads a file or writes a stream is a second pipeline
    # whose failures escape run's exit codes
    io_calls = {"load_config", "open", "_open_output", "print"}
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")]
    assert len(handlers) == 6
    sites = []
    for func in handlers:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in io_calls:
                sites.append(f"{func.name}:{node.lineno} {node.func.id}")
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "sys" \
                    and node.attr in ("stdout", "stderr"):
                sites.append(f"{func.name}:{node.lineno} sys.{node.attr}")
    assert sites == []


#: public names that nothing outside the tests reads yet, each with the
#: reason it stays
TEST_ONLY_PUBLIC_NAMES = {
    "check_condition_A": "its first pipeline caller is ROADMAP item 9",
    "hamming_and_e0": "the Hamming-metric criterion of the acceptance "
                      "contract (tests/test_acceptance.py) reads it",
}


def _read_names(path, strings=False) -> set:
    """Names a file reads: loaded Names and Attributes, and with
    ``strings`` every string constant (perfbench/tracing.py names the
    entry points it wraps as strings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_is_read_outside_the_tests():
    # a name in __all__ that only the tests read is an entry point the
    # package, the demos and the benchmark do without: it belongs in
    # the tests, or nowhere
    read = set()
    for path in sorted(PACKAGE.glob("*.py")) \
            + sorted((REPO_ROOT / "demos").glob("*.py")):
        read |= _read_names(path)
    for path in sorted((REPO_ROOT / "perfbench").glob("*.py")):
        read |= _read_names(path, strings=True)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                unread += [name for name in ast.literal_eval(node.value)
                           if name not in read]
    assert sorted(unread) == sorted(TEST_ONLY_PUBLIC_NAMES)


def test_every_private_module_name_is_read_in_the_package():
    # a module-level private function, class or constant that nothing
    # in the package reads is a helper left behind by a change
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        read |= _read_names(path)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{path.name} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unread == []


def test_pyproject_version_is_the_package_version():
    # every CSV's "# version:" line prints resodec.__version__
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["version"] == resodec.__version__
