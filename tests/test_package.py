"""The package's export list is the union of its modules' export lists."""

import importlib

import hullstop
import hullstop.errors

_MODULES = ("graph", "geometry", "consensus", "hull", "termination", "applications", "harness")


def test_package_exports_the_union_of_the_module_export_lists():
    modules = [importlib.import_module(f"hullstop.{name}") for name in _MODULES]
    union = {"InvariantViolation"}.union(*(module.__all__ for module in modules))
    # sorted on both sides, so a name listed twice fails too
    assert sorted(hullstop.__all__) == sorted(union)
    assert {"RadiusWindow", "BoxWindow", "HullWindow"} <= union
    for module in modules:
        for name in module.__all__:
            assert getattr(hullstop, name) is getattr(module, name)
    assert hullstop.InvariantViolation is hullstop.errors.InvariantViolation
