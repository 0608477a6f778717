import importlib
import pkgutil

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
