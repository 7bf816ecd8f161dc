"""The public surface of the catalan_lab package, and the modules each
command line process loads."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

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
# The catalan_lab modules each command loads, exactly: a command imports the
# library modules it reads when it runs, and no other.
CLI = ["catalan_lab", "catalan_lab.cli", "catalan_lab.limits"]
VALUES = sorted(CLI + ["catalan_lab.values"])
PATHS = sorted(VALUES + ["catalan_lab.paths"])
WORDS = sorted(VALUES + ["catalan_lab.words"])
FORMULAS = sorted(WORDS + ["catalan_lab.formulas"])
LOADS = {
    ("totals", "--n-max", "1"): FORMULAS,
    ("totals", "--n-max", "3", "--format", "json"): FORMULAS,
    ("distribution", "--stat", "area", "--n", "4", "--format", "csv"): WORDS,
    ("distribution", "--stat", "runs-asc", "--n", "5"): FORMULAS,
    ("sample", "--n", "5", "--count", "2", "--seed", "1"): PATHS,
    ("enumerate", "--kind", "paths", "--n", "3"): PATHS,
    ("enumerate", "--kind", "words", "--n", "3", "--stats", "all", "--format", "csv"):
        WORDS,
    ("oeis", "A000346", "--terms", "3"): sorted(FORMULAS + ["catalan_lab.oeis"]),
}


def loaded_by(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_BY_COMMAND, *argv],
        capture_output=True, text=True, timeout=120,
    )
    return json.loads(proc.stderr)


@pytest.mark.parametrize("argv", LOADS, ids=" ".join)
def test_command_loads_only_the_core(argv):
    code, loaded = loaded_by(*argv)
    assert code == 0
    assert loaded == LOADS[argv]


# Imports the command line and builds its parser, as the benchmark's set-up
# does, then parses ARGV if there is any; reports the catalan_lab modules loaded.
LOADED_BY_PARSER = """
import json, sys
import catalan_lab.cli as cli
parser = cli.build_parser()
if sys.argv[1:]:
    try:
        parser.parse_args(sys.argv[1:])
    except SystemExit:
        pass
sys.stderr.write(json.dumps(sorted(m for m in sys.modules if m.startswith("catalan_lab"))))
"""


@pytest.mark.parametrize(
    "argv",
    [(), ("--help",), ("sample", "--n", "x", "--seed", "1")],
    ids=lambda argv: " ".join(argv) or "build_parser",
)
def test_parser_loads_no_library_module(argv):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_BY_PARSER, *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert json.loads(proc.stderr.rpartition("\n")[2]) == CLI


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


def run_fresh(source):
    """Run ``source`` in a fresh interpreter and return what it printed last."""
    proc = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["words", "formulas", "oeis"])
def test_word_side_module_loads_no_paths(module):
    loaded = run_fresh(
        f"import json, sys, catalan_lab.{module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('catalan_lab'))))"
    )
    assert f"catalan_lab.{module}" in loaded
    assert "catalan_lab.paths" not in loaded


def test_word_path_maps_load_paths_on_first_use():
    first, second, loaded_before, loaded_after = run_fresh(
        "import json, sys\n"
        "from catalan_lab.words import Word, path_to_word, word_to_path\n"
        "before = 'catalan_lab.paths' in sys.modules\n"
        "w = Word((1, 2, 3, 2, 2, 1, 2))\n"
        "p = word_to_path(w)\n"
        "assert path_to_word(p) == w\n"
        "after = 'catalan_lab.paths' in sys.modules\n"
        "from catalan_lab.paths import Path\n"
        "q = word_to_path(w)\n"
        "assert type(p) is type(q) is Path and q == p and path_to_word(q) == w\n"
        "print(json.dumps([str(p), str(q), before, after]))"
    )
    assert first == second == "UUUDDUDUDDUUDD"
    assert (loaded_before, loaded_after) == (False, True)


# The package modules each module imports when it loads, not counting the
# imports inside its functions: a new edge here is compile time added to
# every process that loads the importing module. "catalan_lab" is the package.
IMPORTS_AT_LOAD = {
    "__init__": set(),
    "bijections": {"paths", "values"},
    "cli": {"catalan_lab", "limits"},
    "formulas": {"values", "words"},
    "limits": set(),
    "oeis": {"formulas", "values", "words"},
    "path_classes": {"paths", "values"},
    "paths": {"limits", "values"},
    "values": set(),
    "verify": {
        "bijections", "formulas", "limits", "path_classes", "paths", "values", "words",
    },
    "words": {"limits", "values"},
}


def imports_at_load(source, modules):
    """The package modules that a module's source imports outside its
    functions, named as in ``IMPORTS_AT_LOAD``."""
    dotted = []
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"catalan_lab.{base}".rstrip(".")
            if base == "catalan_lab":
                dotted += [f"{base}.{alias.name}" for alias in node.names]
            else:
                dotted.append(base)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes.extend(ast.iter_child_nodes(node))
    found = set()
    for name in dotted:
        top, _, rest = name.partition(".")
        if top == "catalan_lab":
            module = rest.partition(".")[0]
            found.add(module if module in modules else top)
    return found


def test_import_graph_is_pinned():
    package = Path(catalan_lab.__file__).parent
    modules = {path.stem: path for path in package.glob("*.py")}
    assert modules.keys() == IMPORTS_AT_LOAD.keys()
    got = {
        name: imports_at_load(path.read_text(), modules) for name, path in modules.items()
    }
    assert got == IMPORTS_AT_LOAD
