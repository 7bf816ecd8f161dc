"""Catalan words, Dyck paths, exact statistic totals, and constructive bijections.

The library enumerates Catalan words and lattice paths, evaluates word
statistics and their exhaustive totals, reproduces every total with an
exact closed form, and realizes the counting arguments as executable maps
with verified inverses. See the verify module for the exhaustive suites
and the cli module for the command line front end.

Each exported name, and each submodule listed below, is imported on first
access, so that a process loads only the modules it uses.
"""

import importlib

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "bijections": (
        "AreaMark",
        "PeakVector",
        "area_mark_decode",
        "area_mark_encode",
        "drop_marked_unit",
        "dyck_to_low_path",
        "insert_ud",
        "last_passage_class",
        "lift_marked_unit",
        "low_path_to_dyck",
        "peak_decompose",
        "peak_rebuild",
        "peak_vector_from_slots",
        "reflect_after_touch",
        "remove_ud",
        "split_reverse",
        "split_reverse_inverse",
        "sym_valley_insert",
        "sym_valley_pattern",
        "sym_valley_remove",
    ),
    "formulas": (
        "IdentityId",
        "IdentityResult",
        "binomial",
        "catalan",
        "closed_total",
        "closed_totals",
        "dyck_count_by_ddu",
        "dyck_count_by_ddu_udu",
        "identity_check",
        "narayana",
    ),
    "limits": ("DEFAULT_MAX_N", "ENV_VAR", "EnumerationLimitError", "enumeration_ceiling"),
    "paths": (
        "D",
        "U",
        "Endpoint",
        "MarkedPath",
        "Path",
        "count_factor",
        "ddu_udu_counts",
        "enumerate_dyck",
        "enumerate_dyck_texts",
        "enumerate_lattice",
        "factor_occurrences",
        "is_dyck",
        "random_dyck_path",
        "random_dyck_text",
        "raney_shift",
        "reverse_complement",
        "units",
    ),
    "verify": (
        "VerifyReport",
        "run_suite",
        "verify_bijections",
        "verify_distributions",
        "verify_identities",
        "verify_transport",
    ),
    "words": (
        "BarStep",
        "StatId",
        "StatKind",
        "SweepTotals",
        "Word",
        "asc_des_lev",
        "bargraph_path",
        "brute_total",
        "count_histogram",
        "enumerate_catalan",
        "path_to_word",
        "stat_value",
        "sweep_totals",
        "word_to_path",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SOURCE]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace as well
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
