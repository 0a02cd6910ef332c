import ast
import importlib
import pathlib
import pkgutil
import re

import sympwalk


def test_public_names_resolve_sorted_and_star_import():
    names = sympwalk.__all__
    for name in names:
        assert getattr(sympwalk, name) is not None, name
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    namespace = {}
    exec("from sympwalk import *", namespace)
    assert set(names) <= set(namespace)


def test_readme_dotted_names_resolve():
    """Every backticked dotted name in README whose head is a module of the
    package (`walk.MC_CHUNK`) or a class defined in one (`Lanes.distinct`)
    names an attribute, or a dataclass field, that exists."""
    modules = {
        m.name: importlib.import_module(f"sympwalk.{m.name}")
        for m in pkgutil.iter_modules(sympwalk.__path__)
        if not m.name.startswith("__")
    }
    heads = dict(modules)
    for module in modules.values():
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                heads.setdefault(name, obj)
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = [name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", readme) if name.split(".")[0] in heads]
    assert len(names) >= 20
    for name in names:
        head, *attrs = name.split(".")
        obj = heads[head]
        for attr in attrs:
            assert hasattr(obj, attr) or attr in getattr(obj, "__dataclass_fields__", {}), name
            obj = getattr(obj, attr, None)


def test_every_private_helper_is_used_in_src():
    """Every _-prefixed module-level function of the package is named in
    src outside its own def, so a helper that only tests call fails here."""
    helpers, uses = set(), set()  # uses: (name, the top-level def it sits in)
    for path in pathlib.Path(sympwalk.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner.startswith("_"):
                helpers.add(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    uses.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    uses.add((node.attr, owner))
    used = {name for name, owner in uses if name != owner}
    assert len(helpers) >= 20
    assert sorted(helpers - used) == []
