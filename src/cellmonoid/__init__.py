"""Cell-structure analysis of finite monoid algebras and twisted variants.

The package builds, for a finite monoid M and an exact coefficient field, the
standard poset-indexed basis of the monoid algebra from its Green structure
and per-class group data, then decides quasi-heredity and semisimplicity by
exact Gram-matrix ranks, with independent cross-checks throughout.
"""

from .exactalg import DenseMatrix, FieldSpec, RATIONALS, Scalar, mat_rank, prime_field
from .monoid import (BadIdentity, CellmonoidError, FiniteMonoid, LoopTable, MonoidError,
                     NotAssociative, SizeCapExceeded, family, from_cayley_table,
                     generate_from_maps, generating_set, idempotents, load_cayley_json,
                     save_cayley_json)
from .green import (EggBox, GreenStructure, SchutzGroup, bijection_condition, build_eggbox,
                    compute_green, sandwich, schutzenberger)
from .groupcell import (AxiomViolation, UnsupportedGroup, find_symmetric_iso, murphy_datum,
                        partitions, standard_group_data, standard_tableaux,
                        trivial_group_datum)
from .cellbasis import (AnalysisReport, CellDatum, GramSummary, GroupDatumAttachment,
                        MonoidAttachment, NotABasis, GroupMismatch, analyze, bracket_value,
                        build_cell_datum, gram_definition, gram_fast, gram_summary,
                        lambda0_via_matching, table_mult, weighted_sandwich)
from .twist import (Compatibility, IncompatibleTwisting, Twisting, build_twisted_cell_datum,
                    compatibility_class, make_loop_twisting, trivial_twisting, verify_twisting,
                    load_twisting_json, NotACocycle, save_twisting_json)
from .verify import (AxiomReport, WrongCharacteristic, cross_check, trace_form_semisimple,
                     verify_cell_axioms)
from .pipeline import green_data, standard_datum

__version__ = "0.1.0"
