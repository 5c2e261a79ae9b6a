"""The package metadata declares only what exists, and the package
declares no public name, no private module-level name and no defaulted
parameter that nothing uses."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_every_script_target_is_an_importable_callable():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


# public names that nothing in the package or the benchmark calls yet, and why they stay
UNCALLED_ALLOWED = {
    "config.load_config": "the file entry point that the planned command line calls",
    "cluster.repeated_kmeans": "the traced benchmark wraps it by name until ROADMAP item 2",
}


def _public_declarations(tree: ast.Module):
    """(qualified name, node) of each public function and class of a module,
    and of each public method or property of its public classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def _private_declarations(tree: ast.Module):
    """(name, node) of each private module-level function, class and
    constant (an assigned name) of a module; dunder names are not private."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if private(node.name):
                yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and private(name.id):
                        yield name.id, node


def _references(tree: ast.Module):
    """(name, line) of every name and attribute. A string that spells a
    name is not a use: the benchmark's tracer looks names up by string,
    and that must not keep alive a function that no code calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


@functools.lru_cache(maxsize=None)
def _trees() -> dict[Path, ast.Module]:
    """The parsed modules of the package and the benchmark."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src/quickroutes", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    }


def _unused(declarations) -> set[str]:
    """Qualified names of the package's ``declarations`` that no name or
    attribute anywhere in the package or the benchmark reads,
    outside the declaration's own lines."""
    trees = _trees()
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    unused = set()
    for path in sorted((ROOT / "src/quickroutes").glob("*.py")):
        for qualname, node in declarations(trees[path]):
            name = qualname.rpartition(".")[2]
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref == name and not (where == path and line in inside)
                for where, found in refs.items()
                for ref, line in found
            ):
                unused.add(f"{path.stem}.{qualname}")
    return unused


def test_every_public_name_is_used_outside_its_definition():
    assert _unused(_public_declarations) == set(UNCALLED_ALLOWED)


def test_every_private_module_name_is_used_outside_its_definition():
    # only the program counts as a reader: a helper that tests alone call is a leftover
    assert _unused(_private_declarations) == set()


def _unset_defaults() -> set[str]:
    """``module.function(parameter)`` for each defaulted parameter of a
    module-level function of the package that the package or the benchmark
    calls, where none of those calls sets it, by keyword or by position. A
    call with ``*`` or ``**`` arguments counts as setting every parameter;
    functions of one name in two modules share their calls."""
    functions: dict[str, list] = {}
    for path, tree in _trees().items():
        if path.parent.name == "quickroutes":
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.setdefault(node.name, []).append((path.stem, node))
    calls: dict[str, list[ast.Call]] = {}
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name in functions:
                    calls.setdefault(name, []).append(node)
    unset = set()
    for name, found in calls.items():
        for module, node in functions[name]:
            positional = [arg.arg for arg in node.args.posonlyargs + node.args.args]
            defaulted = positional[len(positional) - len(node.args.defaults):] + [
                arg.arg for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None
            ]
            for parameter in defaulted:
                index = positional.index(parameter) if parameter in positional else len(positional)
                if not any(
                    any(isinstance(arg, ast.Starred) for arg in call.args)
                    or any(keyword.arg in (None, parameter) for keyword in call.keywords)
                    or len(call.args) > index
                    for call in found
                ):
                    unset.add(f"{module}.{name}({parameter})")
    return unset


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default that only tests override is a knob the program does not have
    assert _unset_defaults() == set()


def test_sample_event_is_named_only_in_the_firmware_spec():
    # the program carries events as ingest.EventColumns; the objects are sensor.step's output
    naming = [
        path.name for path in sorted((ROOT / "src/quickroutes").glob("*.py"))
        if "SampleEvent" in path.read_text(encoding="utf-8")
    ]
    assert naming == ["sensor.py"]
