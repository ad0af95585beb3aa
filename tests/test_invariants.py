"""Library invariants must survive ``python -O``, which strips ``assert`` and ``__debug__`` blocks."""

import ast
import inspect
from pathlib import Path

import quadricpoints

ROOT = Path(quadricpoints.__file__).parent


def _nodes():
    for path in sorted(ROOT.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def _absolute_imports(node) -> set:
    """The top-level packages an absolute import statement names; empty for any other node."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[0] for a in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def test_library_has_no_assert_statements():
    assert [where for where, node in _nodes() if isinstance(node, ast.Assert)] == []


def test_library_raises_no_assertion_error():
    def raises_assertion_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    found = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.Raise) and node.exc is not None and raises_assertion_error(node)
    ]
    assert found == []


def test_library_has_no_debug_gates():
    assert [where for where, node in _nodes() if isinstance(node, ast.Name) and node.id == "__debug__"] == []


def test_library_has_no_floating_point():
    def is_float(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            return "cmath" in names
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (float, complex))
        if isinstance(node, ast.Attribute):
            return node.attr in ("inf", "nan")  # math.inf, np.nan, ...
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "complex")

    assert [where for where, node in _nodes() if is_float(node)] == []


def test_library_reads_no_environment():
    """Settings come from arguments only: the CLI's --budget, else oracle.DEFAULT_BUDGET."""
    names = ("environ", "getenv", "putenv")

    def reads_environment(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "os" and any(a.name in names for a in node.names)
        return isinstance(node, ast.Attribute) and node.attr in names

    assert [where for where, node in _nodes() if reads_environment(node)] == []


def test_library_starts_no_threads():
    """Every computation runs in order in the calling thread, so the first
    refusal stops all work and no lock guards shared state."""
    banned = {"threading", "concurrent", "multiprocessing"}
    assert [where for where, node in _nodes() if banned & _absolute_imports(node)] == []


def _package_imports(module: str) -> dict:
    """{sibling module: names imported from it} for one module of the package
    (the package imports itself only relatively)."""
    out = {}
    for node in ast.walk(ast.parse((ROOT / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {a.name for a in node.names}
            if node.module is None:  # from . import x
                for name in names:
                    out.setdefault(name, set()).add("*")
            else:
                out.setdefault(node.module, set()).update(names)
    return out


def test_oracle_shares_no_code_with_the_closed_routes():
    """Agreement of the oracles with the closed and circle routes shows
    something only while the two share no code above the F_q[t] layer."""
    oracle = _package_imports("oracle")
    assert set(oracle) <= {"field", "forms"}, oracle
    forms = _package_imports("forms")
    assert set(forms) <= {"field", "polyring"}, forms
    # the circle route is closed: it sums closed layers and enumerates no modulus
    formulas = _package_imports("formulas")
    assert set(formulas) <= {"expsums", "forms"}, formulas
    # only the layers that compare the routes (verify, cli and the package) import oracle
    for path in sorted(ROOT.glob("*.py")):
        if path.stem not in ("oracle", "verify", "cli", "__init__"):
            assert "oracle" not in _package_imports(path.stem), path.name


def test_routes_take_only_counts_from_the_oracles():
    """Primitive and morphism counts derive from N through ``forms``, so the
    layers above the oracles import no second enumeration path; a whole-module
    import (``from . import oracle``) reads as "*" and fails too."""
    allowed = {"BudgetExceeded", "DEFAULT_BUDGET", "brute_count", "convolution_count"}
    for module in ("cli", "verify"):
        assert _package_imports(module)["oracle"] <= allowed, module


def test_library_imports_only_what_it_uses():
    """Every name an import binds in a library module, at module or function
    level, is read in that module, so no import outlives its last use."""
    unused = []
    for path in sorted(ROOT.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = {a.asname or a.name.split(".")[0] for a in node.names}
                unused += [f"{path.name}:{node.lineno} {name}" for name in sorted(bound - read)]
    assert unused == []


def test_closed_counts_branch_only_on_the_case():
    """The closed counts hold one expression per case tag: formulas.py compares
    no n with an integer, and the one test of a ratio against 1 in formulas.py
    and expsums.py is geometric_sum's, whose x = 1 value is every pole."""

    def is_int(node, value=None):
        return isinstance(node, ast.Constant) and type(node.value) is int and value in (None, node.value)

    def is_n(node):
        return isinstance(node, ast.Name) and node.id == "n" or isinstance(node, ast.Attribute) and node.attr == "n"

    found = []
    for module in ("formulas", "expsums"):
        tree = ast.parse((ROOT / f"{module}.py").read_text())
        pole = {id(n) for f in ast.walk(tree) if getattr(f, "name", None) == "geometric_sum" for n in ast.walk(f)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            if module == "formulas" and any(map(is_n, sides)) and any(map(is_int, sides)):
                found.append(f"{module}.py:{node.lineno} compares n")
            for op, left, right in zip(node.ops, sides, node.comparators):
                if isinstance(op, ast.Eq) and (is_int(left, 1) or is_int(right, 1)) and id(node) not in pole:
                    found.append(f"{module}.py:{node.lineno} tests == 1")
    assert found == []


def test_library_draws_no_random_numbers():
    """Every algorithm is deterministic, the factor search included, so a
    run's work and answer depend on its input alone."""
    assert [where for where, node in _nodes() if "random" in _absolute_imports(node)] == []


def test_only_the_oracles_import_numpy_and_only_inside_functions():
    """The oracles are the package's only numpy code, and they import it when
    called, so ``import quadricpoints`` and the closed and circle routes never
    load it; an import in a class body runs at import time and fails too."""
    importers, at_import_time = set(), []
    for path in sorted(ROOT.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_functions = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if "numpy" in _absolute_imports(node):
                importers.add(path.stem)
                if id(node) not in in_functions:
                    at_import_time.append(f"{path.name}:{node.lineno}")
    assert at_import_time == []
    assert importers == {"oracle"}


def test_one_exponentiation_loop():
    """Square-and-multiply is written once, as ``field.power``; every other
    power in the package (F_q, F_q[t] with or without a modulus, Z[zeta_p])
    calls it, so a halving step ``e >>= 1`` appears nowhere else."""

    def is_halving(node):
        return isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)

    field = ast.parse((ROOT / "field.py").read_text())
    power = next(n for n in ast.walk(field) if isinstance(n, ast.FunctionDef) and n.name == "power")
    in_power = [f"field.py:{node.lineno}" for node in ast.walk(power) if is_halving(node)]
    assert len(in_power) == 1
    assert [where for where, node in _nodes() if is_halving(node)] == in_power


def _top_level_calls(name: str) -> set:
    """Where the package calls ``name``: "module.top_level_name" of the
    function or class holding each call, "module.<module>" outside them."""
    out = set()
    for path in sorted(ROOT.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            holder = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == name:
                        out.add(f"{path.stem}.{holder}")
    return out


def test_one_character_count():
    """Every direct character sum is a ``weyl_sum``, the one box sum: it is
    the only place that reads a term's character from a tail."""
    assert _top_level_calls("tail_char_exponent") == {"expsums.weyl_sum"}


def test_one_factor_loop():
    """A factor type comes from one loop, ``polyring._factor_pairs``: it is
    read by ``factor_type`` and ``is_irreducible`` alone, and no derivative
    (no squarefree split) is taken anywhere."""
    assert _top_level_calls("_factor_pairs") == {"polyring.factor_type", "polyring.is_irreducible"}
    assert _top_level_calls("derivative") == set()


def test_one_division_loop():
    """Long division is written once, as ``Poly._divide``: it is the one loop
    in ``polyring`` that subtracts a multiple of the divisor (a ``sub`` of a
    ``mul``), ``%``, ``//`` and ``divmod`` each call it, and nothing outside
    ``Poly`` does."""

    def name(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    def subtracts_multiple(node):
        return (
            isinstance(node, ast.Call)
            and name(node.func) == "sub"
            and any(isinstance(a, ast.Call) and name(a.func) == "mul" for a in node.args)
        )

    tree = ast.parse((ROOT / "polyring.py").read_text())
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    dividing = {
        fn.name
        for fn in functions.values()
        for loop in ast.walk(fn)
        if isinstance(loop, (ast.For, ast.While)) and any(map(subtracts_multiple, ast.walk(loop)))
    }
    assert dividing == {"_divide"}
    for method in ("__mod__", "__floordiv__", "__divmod__"):
        calls = {name(node.func) for node in ast.walk(functions[method]) if isinstance(node, ast.Call)}
        assert "_divide" in calls, method
    assert _top_level_calls("_divide") == {"polyring.Poly"}


def test_trusted_results_stay_in_polyring():
    """Only F_q[t] arithmetic builds a ``Poly`` without checking its
    coefficients; every other module goes through ``Poly(ctx, coeffs)``."""
    assert {c.split(".")[0] for c in _top_level_calls("_trusted")} == {"polyring"}


def test_rows_are_derived_in_forms():
    """Primitive and morphism counts are arithmetic on the N sequence, done in
    ``forms`` alone (``forms.table_rows`` for a table's rows), and the routes
    to N are named once, as ``verify.METHODS``, for count, table and verify."""
    assert {c for c in _top_level_calls("morphisms_from_primitive") if not c.startswith("forms.")} == set()
    outside = {c for c in _top_level_calls("primitive_from_counts") if not c.startswith("forms.")}
    assert outside <= {"formulas.count_primitive"}, outside

    def defines_methods(node):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        return any(isinstance(t, ast.Name) and t.id == "METHODS" for t in targets)

    definers = {
        path.stem
        for path in sorted(ROOT.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if defines_methods(node)
    }
    assert definers == {"verify"}, definers


def test_verify_bound_flags_come_from_the_suites():
    """``verify``'s bound flags are built from the suites' signatures, so a
    suite's parameters are listed once, in ``verify.SUITES``: no string in
    ``cli.py`` spells ``--<parameter>``.  ``--budget`` is spelled once, for
    ``count`` and ``table``; a suite takes it only when its signature has a
    ``budget`` parameter, so it is left out of the names checked here."""
    from quadricpoints.verify import SUITES

    params = {name for fn in SUITES.values() for name in inspect.signature(fn).parameters} - {"budget"}
    spelled = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(ast.parse((ROOT / "cli.py").read_text()))
        if isinstance(node, ast.Constant) and node.value in {f"--{name}" for name in params}
    ]
    assert spelled == []


def test_cli_builds_parsers_only_as_parser():
    """Every parser in ``cli.py``, a parent parser included, is a ``_Parser``,
    which takes a flag only as spelled: no ``argparse.ArgumentParser(...)``
    call can bring back prefix matching (``--n`` read as ``--nu``)."""

    def builds_argument_parser(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and getattr(func, "attr", getattr(func, "id", None)) == "ArgumentParser"

    tree = ast.parse((ROOT / "cli.py").read_text())
    assert [f"cli.py:{node.lineno}" for node in ast.walk(tree) if builds_argument_parser(node)] == []
