"""Catalan words, Dyck paths, exact statistic totals, and constructive bijections.

The library enumerates Catalan words and lattice paths, evaluates word
statistics and their exhaustive totals, reproduces every total with an
exact closed form, and realizes the counting arguments as executable maps
with verified inverses. See the verify module for the exhaustive suites
and the cli module for the command line front end.
"""

from .bijections import (
    AreaMark,
    PeakVector,
    area_mark_decode,
    area_mark_encode,
    drop_marked_unit,
    dyck_to_low_path,
    insert_ud,
    last_passage_class,
    lift_marked_unit,
    low_path_to_dyck,
    peak_decompose,
    peak_rebuild,
    peak_vector_from_slots,
    random_dyck_path,
    raney_shift,
    reflect_after_touch,
    remove_ud,
    split_reverse,
    split_reverse_inverse,
    sym_valley_insert,
    sym_valley_pattern,
    sym_valley_remove,
)
from .formulas import (
    IdentityId,
    IdentityResult,
    binomial,
    catalan,
    closed_total,
    closed_totals,
    dyck_count_by_ddu,
    dyck_count_by_ddu_udu,
    identity_check,
    narayana,
)
from .limits import DEFAULT_MAX_N, ENV_VAR, EnumerationLimitError, enumeration_ceiling
from .paths import (
    D,
    U,
    Endpoint,
    MarkedPath,
    Path,
    count_factor,
    ddu_udu_counts,
    enumerate_dyck,
    enumerate_lattice,
    factor_occurrences,
    is_dyck,
    reverse_complement,
    units,
)
from .verify import (
    VerifyReport,
    run_suite,
    verify_bijections,
    verify_distributions,
    verify_identities,
    verify_transport,
)
from .words import (
    BarStep,
    StatId,
    StatKind,
    SweepTotals,
    Word,
    asc_des_lev,
    bargraph_path,
    brute_total,
    count_histogram,
    enumerate_catalan,
    path_to_word,
    stat_value,
    sweep_totals,
    word_to_path,
)

__version__ = "0.1.0"
