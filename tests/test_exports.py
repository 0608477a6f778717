import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import heckesym

# the package and each of its modules that declares __all__ (the command line module declares none)
EXPORTING = [heckesym] + [
    module
    for module in (importlib.import_module("heckesym." + info.name) for info in pkgutil.iter_modules(heckesym.__path__) if info.name != "__main__")
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__), "a name is listed twice"
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _doc_references():
    """(where, name) for every backticked dotted name in README.md and in the package's module, class and function
    docstrings whose first part is heckesym or one of its modules, such as `exactnum.Packed`."""
    root = pathlib.Path(heckesym.__file__).parent
    modules = {path.stem for path in root.glob("*.py")} | {"heckesym"}
    texts = [("README.md", (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"))]
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]:
            doc = ast.get_docstring(node)
            if doc:
                texts.append(("%s:%s" % (path.name, getattr(node, "name", "module")), doc))
    return [(where, name) for where, text in texts for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text) if name.split(".")[0] in modules]


def _resolves(name: str) -> bool:
    first, *rest = name.split(".")
    obj = importlib.import_module("heckesym" if first == "heckesym" else "heckesym." + first)
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_backticked_name_in_the_docs_resolves():
    refs = _doc_references()
    assert len(refs) >= 14
    assert [(where, name) for where, name in refs if not _resolves(name)] == []
