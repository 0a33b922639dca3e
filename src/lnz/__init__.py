"""Exact-arithmetic toolkit for naturally graded Leibniz algebras.

Everything works over the rationals with fractions.Fraction, so results
are exact: residuals are exactly zero or exactly not, block sizes and
series dimensions are integers computed without rounding, and parameter
maps are verified bit for bit.
"""

from .errors import (DimensionMismatch, DimensionTooSmall, DocumentError,
                     DuplicateEntry, ElementInDerivedSubalgebra,
                     EpsilonMismatch, InadmissibleParams, IndexOutOfRange,
                     NonNilpotent, NotFiltered, NotNilpotent, NotNormalForm,
                     ParityViolation, RestrictionViolated, SingularChange,
                     ToolkitError, UnknownFamily)
from .linalg import (EchelonSpan, MatrixQ, PolyQ, block_diag, invert,
                     jordan_block, kernel_basis, nilpotent_block_sizes,
                     poly_gcd, rank, rational_roots, resultant, rref)
from .algebra import (Residual, StructureTensor, Vec, bracket, is_lie,
                      leibniz_residual, parse, parse_fraction,
                      right_mul_matrix, serialize)
from .analysis import (CentralSeries, CharSequence, Gradation,
                       char_sequence_at, char_sequence_estimate, derived_span,
                       lower_central_series, natural_gradation, nilindex,
                       right_annihilator)
from .catalog import (CATALOG_ROWS, CatalogInstance, CatalogRow,
                      DEFAULT_FREE_SAMPLES, FirstTypeParams, ParamSpec,
                      SecondTypeParams, build_construction_stage,
                      build_first_type, build_second_type,
                      build_type1_branch_a, build_type1_branch_b,
                      catalog_index_document, enumerate_catalog,
                      find_second_type_row, row_by_id, rows_by_label)
from .transform import (BasisChange, Distinct, Equivalent, GradedChange2,
                        NullitySignature, Unknown, apply_change,
                        completed_first_type_change,
                        completed_second_type_change, decide_equivalence,
                        extract_second_type, extract_type1_a, extract_type1_b,
                        nullity_signature, param_map_case1, param_map_case2,
                        param_map_type1_a, param_map_type1_b, parse_change,
                        serialize_change)
from .verify import (Record, Report, scale_identities_hold, verify_all,
                     verify_homogeneity)

__version__ = "0.1.0"
