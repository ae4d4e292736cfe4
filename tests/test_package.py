import importlib
import pkgutil

import papc


def test_every_exported_name_resolves():
    # A name deleted from a module must leave its __all__ too, or
    # ``from papc.<module> import *`` fails.
    for info in pkgutil.iter_modules(papc.__path__):
        module = importlib.import_module("papc." + info.name)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
