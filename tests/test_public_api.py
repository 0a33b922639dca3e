"""Every name the package exports keeps resolving from ``lnz``."""

import lnz

PUBLIC_NAMES = (
    "BasisChange", "CATALOG_ROWS", "CatalogInstance", "CatalogRow",
    "CentralSeries", "CharSequence", "DEFAULT_FREE_SAMPLES",
    "DimensionMismatch", "DimensionTooSmall", "Distinct", "DocumentError",
    "DuplicateEntry", "EchelonSpan", "ElementInDerivedSubalgebra",
    "EpsilonMismatch", "Equivalent", "FirstTypeParams", "Gradation",
    "GradedChange2", "InadmissibleParams", "IndexOutOfRange", "MatrixQ",
    "NonNilpotent", "NotFiltered", "NotNilpotent", "NotNormalForm",
    "NullitySignature",
    "ParamSpec", "ParityViolation", "PolyQ", "Record", "Report", "Residual",
    "RestrictionViolated", "SecondTypeParams", "SingularChange",
    "StructureTensor", "ToolkitError", "Unknown", "UnknownFamily",
    "Vec", "algebra", "analysis", "apply_change", "block_diag", "bracket",
    "build_construction_stage", "build_first_type", "build_second_type",
    "build_type1_branch_a", "build_type1_branch_b", "catalog",
    "catalog_index_document", "char_sequence_at", "char_sequence_estimate",
    "completed_first_type_change", "completed_second_type_change",
    "decide_equivalence", "derived_span", "enumerate_catalog", "errors",
    "extract_second_type", "extract_type1_a", "extract_type1_b",
    "find_second_type_row", "invert", "is_lie", "jordan_block",
    "kernel_basis", "leibniz_residual", "linalg", "lower_central_series",
    "natural_gradation", "nilindex", "nilpotent_block_sizes",
    "nullity_signature", "param_map_case1", "param_map_case2",
    "param_map_type1_a", "param_map_type1_b", "parse", "parse_change",
    "parse_fraction", "poly_gcd", "rank", "rational_roots", "resultant",
    "right_annihilator", "right_mul_matrix", "row_by_id", "rows_by_label",
    "rref", "scale_identities_hold", "serialize", "serialize_change",
    "transform", "verify", "verify_all",
    "verify_homogeneity",
)


def test_public_names_resolve():
    missing = [name for name in PUBLIC_NAMES if not hasattr(lnz, name)]
    assert not missing
