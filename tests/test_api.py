"""The public surface: the package's export list, and every module's ``__all__``.

A name deleted from a module but left in its ``__all__`` only fails at
``from module import *``; resolving every entry here catches it earlier.
The last tests keep the action tables' chunk layout read in one place,
make every ``GroupTable`` in one place, and write a failed law's detail
in one.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


LAYOUT_FIELDS = {"rows", "elems", "invert", "chunk_mask", "width"}
LAYOUT_READERS = {
    ("setops", "_quotient"),  # inv(A)*B, which every other set operation calls
    ("setops", "invert_mask"),  # the invert tables
    ("census", "_canonical_masks"),  # the sweep kernel's per-block reads
}


def _owners(tree, module, hit):
    """(module, top-level function) of every node that ``hit`` accepts; the
    function is None for a node at module level."""
    found = set()

    def visit(node, owner):
        if hit(node):
            found.add((module, owner))
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _package_owners(hit, skip=()):
    found = set()
    for path in sorted(Path(quotset.__file__).parent.glob("*.py")):
        if path.name not in skip:
            found |= _owners(ast.parse(path.read_text(encoding="utf-8")), path.stem, hit)
    return found


def _reads_layout(node):
    return isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
        and node.attr in LAYOUT_FIELDS


def test_only_three_functions_read_the_table_layout():
    # groups.py builds the tables; a new search (a child update such as
    # Q(P | {x}) = Q(P) | x^-1 P | P^-1 x) calls setops._quotient instead of
    # spelling out the three-chunk lookup again
    assert _package_owners(_reads_layout, skip={"groups.py"}) == LAYOUT_READERS


def test_only_build_group_makes_a_group_table():
    # the family builders return (mul, inv), and the spec parse gives the
    # order, normalized spec and names, so a table is assembled in one place
    def makes_table(node):
        return isinstance(node, ast.Call) and "GroupTable" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    assert _package_owners(makes_table) == {("groups", "build_group")}


def test_only_law_item_writes_where_a_law_fails():
    # every exhaustive law hands its first counterexample to reports.law_item
    def writes_detail(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and "fails at" in node.value

    assert _package_owners(writes_detail) == {("reports", "law_item")}
