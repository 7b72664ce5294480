"""The benchmark tracer still finds every layer it traces.

perfbench/tracer.py looks each traced function up by name, so deleting or
renaming one breaks every traced benchmark run; these tests fail first.
"""

import importlib.util
import sys
from pathlib import Path

import polysvd.cli  # noqa: F401  (the tracer binds only loaded modules)
import polysvd.sysgen
from polysvd.polymat import PolyMatrix

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every (module or class, name) -> object a caller can look a layer up
    by: module attributes, entries of module-level dicts, PolyMatrix's
    class attributes."""
    found = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "polysvd" or name.startswith("polysvd.")):
            continue
        for key, value in vars(mod).items():
            found[(name, key)] = value
            if isinstance(value, dict):
                for dkey, dval in value.items():
                    found[(name, key, dkey)] = dval
    for key, value in vars(PolyMatrix).items():
        found[("PolyMatrix", key)] = value
    return found


def test_every_target_is_bound():
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    for mod_name, path, _ in tracer_mod.TARGETS.values():
        assert f"polysvd.{mod_name}.{path}" in tracer.bindings


def test_install_and_uninstall_restore_the_originals():
    before = package_bindings()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        installed = package_bindings()
        polysvd.sysgen.example1()
    finally:
        tracer.uninstall()
    assert tracer.layer_stats()["sysgen.example1"]["calls"] == 1
    replaced = [key for key, value in installed.items() if value is not before[key]]
    assert len(replaced) == len(tracer.bindings)
    assert all(installed[key].__wrapped__ is before[key] for key in replaced)
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
