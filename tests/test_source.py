"""Properties of the package source as a whole."""

import ast
import importlib
import sys
from pathlib import Path

import horadam

PACKAGE_DIR = Path(horadam.__file__).parent
REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench import tracing  # noqa: E402


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unpacked_generator_arguments():
    # f(*(x for x in y)) builds its argument tuple too large and shrinks it in
    # place; freed, such tuples fill the tuple free list with oversized blocks
    # (2,000 per size), which raised peak memory when done in the matrix
    # kernel.  Unpack a list instead: f(*[x for x in y]).
    found = [
        f"{path.name}:{arg.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        for arg in node.args
        if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp)
    ]
    assert found == []


def test_traced_names_resolve():
    # The benchmark's tracer wraps these names from outside the package; a
    # renamed or deleted one would only fail a traced benchmark run.
    missing = []
    for module, attr, _ in tracing.SPANNED + tracing.COUNTED:
        home = importlib.import_module(f"horadam.{module}")
        if "." in attr:
            owner, method = attr.split(".")
            if method not in vars(getattr(home, owner, object)):
                missing.append(f"{module}.{attr}")
        elif not hasattr(home, attr):
            missing.append(f"{module}.{attr}")
    # Reached directly by the benchmark's self-tests.
    for module, attr in (("derivation", "fast_gen_fib"), ("matrices", "QuadElem")):
        if not hasattr(importlib.import_module(f"horadam.{module}"), attr):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_no_unused_imports():
    # A name imported but never read is dead weight; a deliberate re-export
    # is marked `# noqa` on its line.
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []


def test_line_length():
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 110
    ]
    assert long_lines == []


def test_noqa_only_on_the_benchmark_re_exports():
    # Every other unused import or lint exception is a finding, not a marker to add.
    marked = sorted(
        f"{path.stem}: {line.split('# noqa')[0].strip()}"
        for path in PACKAGE_DIR.glob("*.py")
        for line in path.read_text().splitlines()
        if "# noqa" in line
    )
    assert marked == [
        "derivation: from .sequences import fast_gen_fib",
        "matrices: from .exact import QuadElem",
    ]


def test_public_surface():
    # Adding or removing a public name must be deliberate: edit this list with it.
    assert sorted(horadam.__all__) == [
        "BUILTIN_ENTRIES", "ClassicSystem", "DegenerateEigenbasisError", "DerivedSystem", "DomainError",
        "FirstFailure", "HoradamError", "IdentityReport", "KernelPattern", "Matrix", "QuadElem",
        "RecurrenceParams", "RegistryEntry", "SeqValue", "SingularMatrixError", "VARIANT_PATTERNS",
        "as_fraction", "binet_eval", "check_binet", "check_cassini", "check_closed_power",
        "check_companion_decomposition", "check_companion_power", "check_cubic",
        "check_linear_approximation", "check_power_det_zero", "check_power_form",
        "check_projector_algebra", "check_reference_matrix", "check_reference_power", "classic_for",
        "classic_systems", "closed_power", "companion", "companion_decomposition_check",
        "companion_power_form", "default_grid", "derive", "fast_gen_fib", "gen_fib", "horadam_eval",
        "horadam_range", "linear_approx_check", "load_registry", "matrix_mismatches", "parse_fraction",
        "power_form", "preset_matrix", "rational_sqrt", "reference_power", "roots", "run_suite",
    ]
    assert [name for name in horadam.__all__ if not hasattr(horadam, name)] == []
