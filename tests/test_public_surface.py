"""The package root's __all__ lists exactly the public names bound there,
so deleting a function cannot leave a dangling export behind; and no name
or defaulted parameter in the package is kept only for the tests."""

import ast
import types
from pathlib import Path

import oodhg


def test_all_is_sorted_without_duplicates():
    assert oodhg.__all__ == sorted(set(oodhg.__all__))


def test_every_entry_resolves():
    assert [name for name in oodhg.__all__ if not hasattr(oodhg, name)] == []


def test_every_public_name_bound_at_the_root_is_listed():
    public = {name for name, value in vars(oodhg).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(oodhg.__all__)) == []


# The dead-code guard: every function, class, method and module constant in
# src/oodhg is referenced by some code in src/ or perfbench/ (its tests
# aside), and every defaulted parameter is passed by some call there. An
# import or a re-export in __all__ is not a reference. Names are matched by
# name alone, except that an attribute of numpy (np.matmul) is not taken for
# a method of the same name. Whatever only tests use is listed here with the
# reason it stays; an entry that the scan no longer finds must go.

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oodhg"

UNREFERENCED = {
    "hetgraph.compose_metapath":
        "criterion 1 oracle; perfbench/tracer.py patches it by name",
    "metrics.sweep_threshold": "perfbench/tracer.py patches it by name",
    "model.gradients": "criterion 2 checks it against finite differences",
    "model.training_loss": "criterion 2's finite-difference target",
    "pipeline.run_experiment":
        "criterion 5's arms and README's library example call it",
    "sparse.SparseRowMatrix.matmul": "perfbench/tracer.py patches it by name",
    "sparse.SparseRowMatrix.row_normalize": "criterion 4 oracle",
}

UNPASSED_DEFAULTS = {
    "data.save_dataset(splits=)":
        "library API for writing the splits.json README documents",
    "metrics.sweep_threshold(grid=)":
        "perfbench/tracer.py reads it from the patched call",
}


def _package_modules():
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))]


def _using_code():
    """Syntax trees of src/ and of perfbench/ outside its tests."""
    paths = sorted((ROOT / "src").rglob("*.py")) + [
        p for p in sorted((ROOT / "perfbench").glob("*.py"))
        if not p.name.startswith("test_")]
    return [ast.parse(p.read_text(encoding="utf-8")) for p in paths]


def _members():
    """(qualified name, node, owning class or None) of every top-level
    function and class and every method in the package."""
    for module, tree in _package_modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node, None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{module}.{node.name}.{item.name}", item, node


def _constants():
    for module, tree in _package_modules():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", target.id


def _references(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and not isinstance(node.ctx, ast.Store)
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id == "np")):
                names.add(node.attr)
    return names


def test_every_package_name_is_used_outside_the_tests():
    used = _references(_using_code())
    names = [(q, node.name) for q, node, _ in _members()] + list(_constants())
    unused = {qualified for qualified, name in names
              if not (name.startswith("__") and name.endswith("__"))
              and name not in used}
    assert sorted(unused - set(UNREFERENCED)) == []
    assert sorted(set(UNREFERENCED) - unused) == []


def _defaulted_parameters():
    """(qualified function, the name calls use, parameter, position or None
    for keyword-only) of every parameter with a default. A constructor is
    called by its class name; a method's self or cls takes no position."""
    for qualified, fn, owner in _members():
        if not isinstance(fn, ast.FunctionDef):
            continue
        called = owner.name if owner and fn.name == "__init__" else fn.name
        args = fn.args
        positional = (args.posonlyargs + args.args)[1 if owner else 0:]
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield qualified, called, arg.arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, called, arg.arg, None


def _passes(call, parameter, position):
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls = [node for tree in _using_code() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = {f"{qualified}({parameter}=)"
                for qualified, called, parameter, position in _defaulted_parameters()
                if not any(_callee(c) == called and _passes(c, parameter, position)
                           for c in calls)}
    assert sorted(unpassed - set(UNPASSED_DEFAULTS)) == []
    assert sorted(set(UNPASSED_DEFAULTS) - unpassed) == []
