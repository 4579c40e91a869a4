"""The accuracy contract: the rows of contract.TABLE labeled test_contract,
a check that every row runs, a ratchet on which public names still lack
a row, the structure that keeps every oracle in oracles.py, and the
structure that keeps one writer for the finiteness check and for the
refusal of strings, one caller of the 2j-th power kernel, one error-free
product, one cache in front of the tridiagonal eigensolver, one assembly
of a block of recovery rounds, one list of public names (the modules'
__all__) and one table of CLI subcommands."""

import argparse
import ast
import importlib
import inspect
from pathlib import Path

import spinqec
from contract import TABLE, contract_tests, public_name
from spinqec import cli

globals().update(contract_tests(__name__))

# Public names with no contract row yet.  A name leaves the list when it
# gains a row, and no name joins it: a new export comes with its row.
_NO_ROW_YET = {
    "AncillaReport", "Codewords", "CorrectableAngle", "DiagonalOp", "FullLandauCode", "GkpParams", "KLReport",
    "LandauEntry", "LogicalSet", "MAX_DENSE_DIM", "MomentumShiftVerdict", "MonopoleHarmonic", "PairRecord",
    "SphereQuadrature", "Su2", "SyndromeOutcome", "SyndromeRun", "antipodal_logical_x",
    "clock_shift", "coherent_state", "correctable_shift_count", "diagonal_scan", "euler_from_su2", "haar_random",
    "lower_symbol", "m_index", "m_values", "matrix_element_table",
    "rotate_point", "rotate_vector", "rotation_operator",
    "sample_rotations", "strict_window", "su2_from_euler",
    "tiling_window", "wigner_D_matrix", "wigner_d_matrix", "y_symbol",
}


def test_every_row_runs_in_the_module_its_label_names():
    # contract_tests(__name__) makes one test per name; a module that lacks
    # the call, or defines a test of the same name, leaves its rows unrun
    names = {}
    for row in TABLE:
        home, _, test = row.label.partition("::")
        names.setdefault(home, set()).add(test.partition("[")[0])
    for home, tests in names.items():
        source = (Path(__file__).parent / f"{home}.py").read_text()
        assert "globals().update(contract_tests(__name__))" in source, home
        defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
        assert not defined & tests, (home, defined & tests)


def _exported():
    return {n for n, v in vars(spinqec).items() if not n.startswith("_") and not inspect.ismodule(v)}


def test_every_public_name_has_a_row_or_waits_for_one():
    exported = _exported()
    covered = {public_name(row) for row in TABLE}
    assert covered <= exported, covered - exported
    assert not covered & _NO_ROW_YET, f"take these off _NO_ROW_YET: {sorted(covered & _NO_ROW_YET)}"
    assert exported - covered == _NO_ROW_YET, f"give these a row: {sorted(exported - covered - _NO_ROW_YET)}"


def _imports(node):
    return [a.name for a in node.names] if isinstance(node, ast.Import) else (
        [node.module or ""] if isinstance(node, ast.ImportFrom) else [])


def test_oracles_live_in_oracles_py_and_tests_import_no_tests():
    # a module-level helper that calls mpmath is an oracle, and belongs in
    # oracles.py; the cli-bytes child harness imports test modules from a
    # script string, which this leaves alone
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        mpmath_names = {a.asname or a.name for node in tree.body if isinstance(node, ast.Import)
                        for a in node.names if a.name == "mpmath"}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("test"):
                calls = [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in mpmath_names
                         or "mpmath" in _imports(n)]
                assert not calls, f"{path.name}: {node.name} calls mpmath"
        for node in ast.walk(tree):
            assert not any(m.startswith("test_") for m in _imports(node)), f"{path.name} imports {_imports(node)}"


_PACKAGE = Path(spinqec.__file__).parent


def _package_trees():
    for path in sorted(_PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def test_only_spin_core_raises_the_finiteness_message():
    # spin_core._finite writes "NAME must be finite, got VALUE"; a module that
    # raises it inline has a second finiteness check
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and module != "spin_core":
                texts = [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
                assert not any("must be finite, got" in t for t in texts), (module, node.lineno)


def test_only_spin_core_refuses_strings_as_real_numbers():
    # spin_core._real writes "NAME must be a real number, got 'TEXT'"; a
    # module that raises it inline has a second reader of real numbers
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and module != "spin_core":
                texts = [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
                assert not any("must be a real number" in t for t in texts), (module, node.lineno)


def test_cli_runs_recovery_rounds_through_one_block():
    # recovery._rounds assembles a block of rounds, from the checked
    # arguments to the four columns; the CLI takes no other private step
    tree = ast.parse((_PACKAGE / "cli.py").read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == "recovery"
                for a in n.names}
    assert {name for name in imported if name.startswith("_")} == {"_rounds"}, imported


def test_pow_two_j_arrays_has_one_caller():
    # every closed-form element goes through rotation_matrix_elements, the
    # one function whose rebuild the power kernel's rebuild touches
    users = set()
    for module, tree in _package_trees():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name != "_pow_two_j_arrays":
                names = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
                if "_pow_two_j_arrays" in names:
                    users.add((module, func.name))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert module == "coherent" or "_pow_two_j_arrays" not in imported, module
    assert users == {("coherent", "rotation_matrix_elements")}, users


def test_one_store_keeps_every_table():
    # spin_core's store, under its one byte budget, keeps every table the
    # package reuses between calls.  No module decorates a function with
    # functools.lru_cache or functools.cache, save cli._build_parser, which
    # keeps a parser object and not a table, and no module-level dict that
    # starts empty (a cache filled at run time) lives outside the store.
    decorated, empty = set(), set()
    for module, tree in _package_trees():
        uses = {n for n in ast.walk(tree) if getattr(n, "id", getattr(n, "attr", None)) in {"lru_cache", "cache"}}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                marks = uses & {n for dec in func.decorator_list for n in ast.walk(dec)}
                if marks:
                    decorated.add((module, func.name))
                    uses -= marks
        assert not uses, (module, sorted(n.lineno for n in uses))  # a cache built without the decorator syntax
        for node in tree.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            func = getattr(value, "func", None)
            if isinstance(value, ast.Dict) and not value.keys or getattr(func, "id", getattr(func, "attr", None)) in {
                    "dict", "OrderedDict", "defaultdict", "Counter", "WeakValueDictionary", "WeakKeyDictionary"}:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                empty |= {(module, target.id) for target in targets}
    assert decorated == {("cli", "_build_parser")}, decorated
    assert empty == {("spin_core", "_store"), ("spin_core", "_store_counts")}, empty


def test_one_veltkamp_split():
    # rotations._two_prod is the package's one error-free product: its
    # split constant 2^27 + 1 is written once in the package
    sources = {path.name: path.read_text() for path in sorted(_PACKAGE.glob("*.py"))}
    assert {name: text.count("134217729") for name, text in sources.items() if "134217729" in text} == {
        "rotations.py": 1}


def test_tridiagonal_eigensolver_has_two_callers():
    # spin_core._tridiagonal_basis diagonalizes each spin generator once
    # for every reader, and the theta rule, which reads one row of V, is
    # kept per degree in the one store; a direct solve anywhere else would
    # redo what the store holds, and a cache in qec_check would keep a second copy
    users = set()
    for module, tree in _package_trees():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name != "_tridiagonal_eigh":
                if "_tridiagonal_eigh" in {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}:
                    users.add((module, func.name))
    assert users == {("spin_core", "_tridiagonal_basis"), ("coherent", "_theta_rule_cached")}, users
    tree = ast.parse((_PACKAGE / "qec_check.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not names & {"lru_cache", "cache"}, names & {"lru_cache", "cache"}


def test_package_exports_exactly_its_modules_all_lists():
    # a public name is declared once, in its module's __all__: __init__
    # star-imports every library module (all but cli and the private ones)
    # and keeps no list of its own
    tree = ast.parse((_PACKAGE / "__init__.py").read_text())
    starred = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"], node.lineno
            starred.append(node.module)
    bound = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    bound |= {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert all(name.startswith("_") for name in bound), bound
    library = {path.stem for path in _PACKAGE.glob("*.py") if not path.stem.startswith("_")} - {"cli"}
    assert sorted(starred) == sorted(library), starred
    declared = [name for module in starred for name in importlib.import_module(f"spinqec.{module}").__all__]
    assert len(declared) == len(set(declared)), sorted(n for n in set(declared) if declared.count(n) > 1)
    assert _exported() == set(declared), _exported() ^ set(declared)


def test_cli_names_each_subcommand_once():
    # one table maps a subcommand to its handler and its defaults; a second
    # dict keyed by subcommand name would write the list again
    parser = cli._build_parser()
    names = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    tree = ast.parse((_PACKAGE / "cli.py").read_text())
    skip = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}  # docstrings
    constants = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and id(n) not in skip]
    counts = {name: constants.count(name) for name in names}
    assert set(counts.values()) == {1}, counts
