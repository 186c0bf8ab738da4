import importlib
import pkgutil

import procfair


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks only ``from module import *``
    missing = []
    for info in pkgutil.iter_modules(procfair.__path__, "procfair."):
        module = importlib.import_module(info.name)
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing
