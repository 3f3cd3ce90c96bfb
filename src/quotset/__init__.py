"""Quotient sets A^-1 A in finite groups.

Build Cayley tables for a catalog of small groups, compute product and
quotient sets over bitmask subsets, classify sets whose quotient set is
small (below 5/3 of the set size) into their forced coset structure, and
run exhaustive symmetry-reduced sweeps that re-verify the classification
and search for bounded-representative structure witnesses.
"""

from .census import (
    DEFAULT_CENSUS_CAP,
    HARD_CENSUS_CAP,
    CensusReport,
    CensusViolation,
    ScanReport,
    SizeRow,
    StructureWitness,
    classification_census,
    find_structure_witness,
    structure_scan,
)
from .classify import (
    Classification,
    ClassKind,
    StabilityDiagnostics,
    check_sufficiency,
    classify,
    construct_threshold_example,
    stability_diagnostics,
    verify_structure,
)
from .groups import (
    ALTERNATING4_SPEC,
    DEFAULT_ORDER_CAP,
    GroupSpecError,
    GroupTable,
    build_group,
    catalog_specs,
    parse_spec_lines,
    verify_group_axioms,
)
from .reports import CheckItem, CheckReport
from .setops import (
    ElemSet,
    check_counting_bounds,
    parse_set_literal,
    quotient_set,
)
from .subgroups import (
    DEFAULT_SUBGROUP_CAP,
    Subgroup,
    all_subgroups,
    check_coset_laws,
    ensure_subgroup,
    normalizer,
)

__version__ = "0.1.0"

__all__ = [
    "ALTERNATING4_SPEC",
    "DEFAULT_CENSUS_CAP",
    "DEFAULT_ORDER_CAP",
    "DEFAULT_SUBGROUP_CAP",
    "HARD_CENSUS_CAP",
    "CensusReport",
    "CensusViolation",
    "CheckItem",
    "CheckReport",
    "ClassKind",
    "Classification",
    "ElemSet",
    "GroupSpecError",
    "GroupTable",
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
