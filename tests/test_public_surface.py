import importlib

import pytest

MODULES = ("groupvar", "groupvar.cli", "groupvar.complexes", "groupvar.core",
           "groupvar.defaults", "groupvar.errors", "groupvar.harmonic",
           "groupvar.liegroup", "groupvar.reduction", "groupvar.sampling",
           "groupvar.serialization")


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
