"""The public surface: the package's export list, and every module's ``__all__``.

A name deleted from a module but left in its ``__all__`` only fails at
``from module import *``; resolving every entry here catches it earlier.
"""

import importlib
import pkgutil

import quotset

PACKAGE_EXPORTS = [
    "ALTERNATING4_SPEC",
    "CensusReport",
    "CensusViolation",
    "CheckItem",
    "CheckReport",
    "ClassKind",
    "Classification",
    "DEFAULT_CENSUS_CAP",
    "DEFAULT_ORDER_CAP",
    "DEFAULT_SUBGROUP_CAP",
    "ElemSet",
    "GroupSpecError",
    "GroupTable",
    "HARD_CENSUS_CAP",
    "ScanReport",
    "SizeRow",
    "StabilityDiagnostics",
    "StructureWitness",
    "Subgroup",
    "all_subgroups",
    "build_group",
    "catalog_specs",
    "check_coset_laws",
    "check_counting_bounds",
    "check_sufficiency",
    "classification_census",
    "classify",
    "construct_threshold_example",
    "ensure_subgroup",
    "find_structure_witness",
    "normalizer",
    "parse_set_literal",
    "parse_spec_lines",
    "quotient_set",
    "stability_diagnostics",
    "structure_scan",
    "verify_group_axioms",
    "verify_structure",
]


def test_package_exports_are_pinned():
    assert sorted(quotset.__all__) == PACKAGE_EXPORTS
    assert all(hasattr(quotset, name) for name in PACKAGE_EXPORTS)


def test_every_module_export_resolves():
    modules = [info.name for info in pkgutil.iter_modules(quotset.__path__)
               if info.name != "__main__"]
    assert {"census", "classify", "groups", "setops", "subgroups"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"quotset.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
