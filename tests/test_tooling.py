"""Guards that keep the documentation, the bench tracer and the sources in step.

All only read files: the README's CLI block must parse with the real
argument parser, every call site that bench/tracer.py wraps must still
exist where the tracer looks it up, generated source may be evaluated in
one place only, verify checks are counted in one place only, every
exception class is raised somewhere, no check is an assert, symrep does
not import chevalley, and an import sits inside a function only in a cli
command handler, the package `__getattr__` and `verify generation`.
"""

import ast
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

import kmcert
from kmcert import cli

from conftest import readme_cli_forms, readme_cli_lines

ROOT = Path(__file__).resolve().parent.parent


def test_readme_cli_block_is_long_enough():
    assert len(readme_cli_lines()) >= 10


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_line_parses(line):
    # the full parser and the branch build_parser(argv) gives must agree
    for argv in readme_cli_forms(line):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        assert callable(args.func)
        assert cli.build_parser(argv).parse_args(argv) == args


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist_where_wrapped():
    # Tracer.install reads owner.__dict__[attr]: an inherited or renamed
    # attribute would break `bench/run.py --trace 1`
    targets = _load_tracer()._targets(kmcert)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in targets
               if attr not in vars(owner)]
    assert missing == []


def test_eval_and_exec_only_inside_compile_law():
    # polylaw.compile_law evaluates source it builds from integers; no other
    # code in the package may evaluate strings
    src = ROOT / "src" / "kmcert"
    tree = ast.parse((src / "polylaw.py").read_text(encoding="utf-8"))
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "compile_law")
    allowed = range(fn.lineno, fn.end_lineno + 1)
    found = []
    for path in sorted(src.rglob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(r"\b(eval|exec)\s*\(", line):
                found.append((path.name, lineno in allowed and path.name == "polylaw.py"))
    assert found == [("polylaw.py", True)]


def test_check_counters_only_in_report():
    # CheckReport.tally counts every verify check; a suite that counts its
    # own cases would bring back a second counting policy
    src = ROOT / "src" / "kmcert"
    found = [
        (path.name, lineno)
        for path in sorted(src.rglob("*.py"))
        if path.name != "report.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\b(tried|failed)\s*\+=", line)
    ]
    assert found == []


def test_every_error_class_is_raised():
    # an exception class nothing raises is dead API that callers may still catch
    src = ROOT / "src" / "kmcert"
    tree = ast.parse((src / "errors.py").read_text(encoding="utf-8"))
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(src.rglob("*.py")))
    assert sorted(c for c in classes if not re.search(rf"\braise {c}\b", text)) == []


def test_no_assert_in_src():
    # python -O strips assert statements; every soundness check in the
    # package must raise a KmcertError instead
    src = ROOT / "src" / "kmcert"
    found = [
        (path.name, node.lineno)
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imports(tree):
    """(module, names) of every import statement under an AST node."""
    return [
        (getattr(node, "module", None), [a.name for a in node.names])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_imports_at_module_top_and_symrep_without_chevalley():
    # symrep takes mat_mul from polylaw, so chevalley can import symrep at
    # its top. An import sits inside a function in three places only: each
    # cli command handler imports the kmcert modules it runs, the package
    # __getattr__ imports a submodule on first access, and bounds (is_prime)
    # and permgroup load for `verify generation` alone
    src = ROOT / "src" / "kmcert"
    symrep = ast.parse((src / "symrep.py").read_text(encoding="utf-8"))
    assert [
        (module, names) for module, names in _imports(symrep)
        if "chevalley" in f"{module} {names}"
    ] == []
    lazy = [
        (path.name, fn.name, module)
        for path in sorted(src.rglob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for module, names in _imports(fn)
        for module in ([module] if module else [f".{name}" for name in names])
    ]
    handlers = [(fn, module) for path, fn, module in lazy if path == "cli.py"]
    kmcert_modules = {f".{path.stem}" for path in src.glob("*.py")}
    assert ("_cmd_certify", ".bounds") in handlers
    assert [(fn, module) for fn, module in handlers
            if not (fn == "_read_gcm" or fn.startswith("_cmd_")) or module not in kmcert_modules] == []
    assert [x for x in lazy if x[0] != "cli.py"] == [
        ("__init__.py", "__getattr__", "importlib"),
        ("chevalley.py", "sigma_generation_report", "bounds"),
        ("chevalley.py", "sigma_generation_report", "permgroup"),
    ]
