"""Layering of the package: only `suites.py` turns a measurement into a
verdict.  The math modules return numbers; `report` (cases, reports and
their emission) is imported only by `suites`, `cli` and the package
`__init__`, and `CaseResult` is constructed only in `report` and `suites`."""

import ast
from pathlib import Path

import calderon

SRC = Path(calderon.__file__).resolve().parent
REPORT_IMPORTERS = {"suites", "cli", "__init__"}
CASE_BUILDERS = {"report", "suites"}


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert {p.stem for p in paths} >= {"report", "suites", "operators", "optimal_range"}
    return [(p.stem, ast.parse(p.read_text(encoding="utf-8"), filename=str(p))) for p in paths]


def _imports_report(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (node.level == 1 and module == "report") or module == "calderon.report":
                return True
            if node.level == 1 and not module and any(a.name == "report" for a in node.names):
                return True
            if module == "calderon" and any(a.name == "report" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "calderon.report" for a in node.names):
                return True
    return False


def _constructs_case(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name == "CaseResult":
                return True
    return False


def test_only_suites_cli_and_init_import_report():
    importers = {name for name, tree in _modules() if _imports_report(tree)}
    assert importers <= REPORT_IMPORTERS, sorted(importers - REPORT_IMPORTERS)
    assert "suites" in importers


def test_only_report_and_suites_construct_case_results():
    builders = {name for name, tree in _modules() if _constructs_case(tree)}
    assert builders <= CASE_BUILDERS, sorted(builders - CASE_BUILDERS)
    assert "suites" in builders


def test_layering_detectors_see_both_import_and_call_forms():
    lazy = ast.parse("def f():\n    from .report import CaseResult\n    return report.CaseResult(name='a', status='pass')\n")
    assert _imports_report(lazy) and _constructs_case(lazy)
    assert _imports_report(ast.parse("import calderon.report\n"))
    assert _imports_report(ast.parse("from . import report\n"))
    assert not _imports_report(ast.parse("from .sequences import json_safe_float\n"))
    assert not _constructs_case(ast.parse("CaseResultish = 1\n"))
