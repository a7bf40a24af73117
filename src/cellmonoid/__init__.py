"""Cell-structure analysis of finite monoid algebras and twisted variants.

The package builds, for a finite monoid M and an exact coefficient field, the
standard poset-indexed basis of the monoid algebra from its Green structure
and per-class group data, then decides quasi-heredity and semisimplicity by
exact Gram-matrix ranks, with independent cross-checks throughout.  Each
public name and submodule loads on first use (PEP 562), so a run loads only
the code it executes.
"""

from importlib import import_module

_EXPORTS = {
    "exactalg": "DenseMatrix FieldSpec RATIONALS Scalar mat_rank prime_field",
    "monoid": "BadIdentity CellmonoidError FiniteMonoid LoopTable MonoidError NotAssociative "
              "SizeCapExceeded family from_cayley_table generate_from_maps generating_set "
              "idempotents load_cayley_json save_cayley_json",
    "green": "EggBox GreenStructure SchutzGroup bijection_condition build_eggbox compute_green "
             "sandwich schutzenberger",
    "groupcell": "AxiomViolation UnsupportedGroup find_symmetric_iso murphy_datum partitions "
                 "standard_group_data standard_tableaux trivial_group_datum",
    "cellbasis": "AnalysisReport CellDatum GramSummary GroupDatumAttachment MonoidAttachment "
                 "NotABasis GroupMismatch analyze bracket_value build_cell_datum gram_definition "
                 "gram_fast gram_summary lambda0_via_matching table_mult weighted_sandwich",
    "twist": "Compatibility IncompatibleTwisting Twisting build_twisted_cell_datum "
             "compatibility_class make_loop_twisting trivial_twisting verify_twisting "
             "load_twisting_json NotACocycle save_twisting_json",
    "verify": "AxiomReport WrongCharacteristic cross_check trace_form_semisimple "
              "verify_cell_axioms",
    "pipeline": "green_data standard_datum",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME.get(name, name)}")
    return getattr(module, name) if name in _HOME else module


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
