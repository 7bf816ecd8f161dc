"""The public surface of the catalan_lab package, and the modules each
command line process loads."""

import importlib
import json
import subprocess
import sys

import pytest

import catalan_lab

# Every name the package exports, by the submodule that defines it or
# imports it for its own use.
EXPORTS = {
    "bijections": (
        "AreaMark", "PeakVector", "area_mark_decode", "area_mark_encode",
        "drop_marked_unit", "dyck_to_low_path", "insert_ud", "last_passage_class",
        "lift_marked_unit", "low_path_to_dyck", "peak_decompose", "peak_rebuild",
        "peak_vector_from_slots", "random_dyck_path", "raney_shift",
        "reflect_after_touch", "remove_ud", "split_reverse", "split_reverse_inverse",
        "sym_valley_insert", "sym_valley_pattern", "sym_valley_remove",
    ),
    "formulas": (
        "IdentityId", "IdentityResult", "binomial", "catalan", "closed_total",
        "closed_totals", "dyck_count_by_ddu", "dyck_count_by_ddu_udu",
        "identity_check", "narayana",
    ),
    "limits": ("DEFAULT_MAX_N", "ENV_VAR", "EnumerationLimitError", "enumeration_ceiling"),
    "paths": (
        "D", "U", "Endpoint", "MarkedPath", "Path", "count_factor", "ddu_udu_counts",
        "enumerate_dyck", "enumerate_lattice", "factor_occurrences", "is_dyck",
        "reverse_complement", "units",
        "enumerate_dyck_texts",
        "random_dyck_text",
    ),
    "verify": (
        "VerifyReport", "run_suite", "verify_bijections", "verify_distributions",
        "verify_identities", "verify_transport",
    ),
    "words": (
        "BarStep", "StatId", "StatKind", "SweepTotals", "Word", "asc_des_lev",
        "bargraph_path", "brute_total", "count_histogram", "enumerate_catalan",
        "path_to_word", "stat_value", "sweep_totals", "word_to_path",
    ),
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize(("module", "name"), EXPORTED, ids=[n for _, n in EXPORTED])
def test_export_is_the_submodule_object(module, name):
    # the two steps of ``from catalan_lab import NAME``
    got = getattr(__import__("catalan_lab", fromlist=[name]), name)
    assert got is getattr(importlib.import_module(f"catalan_lab.{module}"), name)


@pytest.mark.parametrize("module", EXPORTS)
def test_submodule_attribute(module):
    got = getattr(__import__("catalan_lab", fromlist=[module]), module)
    assert got is importlib.import_module(f"catalan_lab.{module}")
    assert catalan_lab.__dict__[module] is got


def test_version():
    assert catalan_lab.__version__ == "0.1.0"


def test_dir_lists_every_public_name():
    listed = set(dir(catalan_lab))
    missing = {name for _, name in EXPORTED} | set(EXPORTS) | {"__version__"}
    assert missing - listed == set()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        catalan_lab.no_such_name  # noqa: B018
    assert not hasattr(catalan_lab, "no_such_name")
    with pytest.raises(ImportError):
        from catalan_lab import no_such_name  # noqa: F401


# Runs build_parser() and main(ARGV) in a fresh interpreter, then reports
# main's exit code and the modules loaded, on standard error: the catalan_lab
# ones, and dataclasses and inspect, which no command needs (they cost about a
# third of the start-up).
LOADED_BY_COMMAND = """
import json, sys
from catalan_lab.cli import build_parser, main
build_parser()
code = main(sys.argv[1:])
loaded = sorted(
    m for m in sys.modules
    if m.startswith("catalan_lab") or m in ("dataclasses", "inspect")
)
sys.stderr.write(json.dumps([code, loaded]))
"""
CORE = ["catalan_lab", "catalan_lab.cli", "catalan_lab.formulas",
        "catalan_lab.limits", "catalan_lab.paths", "catalan_lab.words"]


def loaded_by(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_BY_COMMAND, *argv],
        capture_output=True, text=True, timeout=120,
    )
    return json.loads(proc.stderr)


@pytest.mark.parametrize(
    "argv",
    [
        ("totals", "--n-max", "1"),
        ("totals", "--n-max", "3", "--format", "json"),
        ("distribution", "--stat", "area", "--n", "4", "--format", "csv"),
        ("distribution", "--stat", "runs-asc", "--n", "5"),
        ("sample", "--n", "5", "--count", "2", "--seed", "1"),
        ("enumerate", "--kind", "paths", "--n", "3"),
        ("enumerate", "--kind", "words", "--n", "3", "--stats", "all", "--format", "csv"),
    ],
    ids=" ".join,
)
def test_command_loads_only_the_core(argv):
    code, loaded = loaded_by(*argv)
    assert code == 0
    assert loaded == CORE


def test_verify_loads_the_suites_when_it_runs():
    code, loaded = loaded_by("verify", "--suite", "identities", "--n-max", "3")
    assert code == 0
    assert {"catalan_lab.verify", "catalan_lab.bijections"} <= set(loaded)


def test_oeis_loads_the_bfile_module_when_it_runs():
    code, loaded = loaded_by("oeis", "A000346", "--terms", "3")
    assert code == 0
    assert "catalan_lab.oeis" in loaded and "catalan_lab.verify" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "all", "--n-max", "3"),
        ("oeis", "A000346", "--terms", "3"),
    ],
    ids=" ".join,
)
def test_suite_and_bfile_commands_load_no_dataclasses(argv):
    code, loaded = loaded_by(*argv)
    assert code == 0
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)
